import argparse
import functools
import hashlib
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tanglegcd import _trace_commands, cli, euclid
from tanglegcd._shadows import SHADOW_BITS
from tanglegcd.cli import main
from tanglegcd.enumeration import EnumerationResult, enumerate_all, minimize
from tanglegcd.euclid import (
    CHOOSERS,
    Variant,
    _counts,
    _divisions,
    division_count,
    run_lar,
    run_negative,
    run_regular,
    step_count,
    trace_to_dict,
)
from tanglegcd.rationals import INFINITY, FractionParseError, excerpt, normalize, parse_fraction
from tanglegcd.tangles import Move, Stage, UntanglePlan
from test_golden import GOLDEN


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gcd_lar_text_golden(capsys):
    code, out, _ = run_cli(capsys, "gcd", "807", "673", "--method", "lar")
    assert code == 0
    assert out.splitlines() == [
        "807 = 673(1)+134",
        "673 = 134(5)+3",
        "134 = 3(45)-1",
        "3 = 1(3)+0",
        "",
        "gcd: 1",
        "divisions: 4",
        "subtractions: 54",
        "swaps: 3",
        "total steps: 57",
    ]


def test_gcd_exact_division(capsys):
    code, out, _ = run_cli(capsys, "gcd", "10", "5", "--method", "regular")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "10 = 5(2)+0"
    assert "gcd: 5" in lines


def test_gcd_negative_matches_library(capsys):
    code, out, _ = run_cli(capsys, "--json", "gcd", "21", "13", "--method", "negative")
    assert code == 0
    payload = json.loads(out)
    trace = run_negative(21, 13)
    assert payload["trace"] == trace_to_dict(trace)
    assert payload["total_steps"] == step_count(trace).total


def test_gcd_json_schema(capsys):
    code, out, _ = run_cli(capsys, "gcd", "8", "5", "--method", "lar", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["trace"]["variant"] == "LeastAbsolute"
    assert payload["trace"]["steps"][0] == {"a": 8, "b": 5, "q": 2, "eps": -1, "r": 2}
    for step in payload["trace"]["steps"]:
        assert set(step) == {"a", "b", "q", "eps", "r"}


def test_gcd_counts_its_rows_as_they_render(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("gcd divided the chain a second time to count it")

    # The handler module binds the layer's name at import; patch both.
    for module in ("tanglegcd.euclid", "tanglegcd._trace_commands"):
        monkeypatch.setattr(f"{module}._counts", refuse)
    for argv in (["gcd", "807", "673", "--method", "lar"], ["--json", "gcd", "807", "673"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
    assert json.loads(out)["total_steps"] == 57


def test_gcd_prints_the_counts_of_the_library_sweep():
    # The count fields are written after the trace, from its rendered rows:
    # each field's JSON text once the rows are drained.
    for method, value in cli._METHODS.items():
        variant = Variant(value)
        for a in range(1, 301):
            for b in range(1, a + 1):
                payload, _ = _trace_commands.cmd_gcd(
                    SimpleNamespace(a=a, b=b, method=method, json=True))
                deque(payload["trace"], maxlen=0)
                divisions, subtractions = _counts(a, b)[variant]
                written = ["".join(payload[key]) for key in
                           ("gcd", "divisions", "subtractions", "swaps", "total_steps")]
                assert written == [
                    f"{gcd(a, b)}", f"{divisions}", f"{subtractions}", f"{divisions - 1}",
                    f"{subtractions + divisions - 1}"], (a, b, method)


def numbers_of_up_to(max_digits):
    """Positive integers of 1 to max_digits digits, the digit count drawn first."""
    return st.integers(1, max_digits).flatmap(
        lambda digits: st.integers(10 ** (digits - 1), 10**digits - 1))


def fibonacci_pair(digits):
    a, b = 1, 1
    while len(str(a)) < digits:
        a, b = a + b, a
    return a, b


# Ordered pairs of up to about 3,000 digits, on both sides of SHADOW_BITS:
# of any sizes, within a factor of ten, or multiples of one planted common
# factor.
ordered_pairs = st.one_of(
    st.tuples(numbers_of_up_to(3000), numbers_of_up_to(3000)),
    numbers_of_up_to(3000).flatmap(lambda a: st.tuples(st.just(a), st.integers(a // 10 + 1, a))),
    st.tuples(numbers_of_up_to(1500), numbers_of_up_to(1500), numbers_of_up_to(1500)).map(
        lambda t: (t[0] * t[1], t[0] * t[2])),
).map(lambda pair: tuple(sorted(pair, reverse=True)))


@settings(max_examples=10, deadline=None)
@given(ordered_pairs)
# The first divisor just at and just past SHADOW_BITS bits.
@example(((3 << SHADOW_BITS) + 1, (1 << SHADOW_BITS) - 1))
@example(((3 << SHADOW_BITS) + 1, 1 << SHADOW_BITS))
@example(tuple(7**1000 * x for x in fibonacci_pair(700)))
def test_step_rows_print_what_str_prints(pair):
    a, b = pair
    for variant, chooser in CHOOSERS.items():
        # A negative chain is as long as the regular quotients sum to.
        if variant is Variant.NEGATIVE and _counts(a, b)[variant][0] > 20_000:
            continue
        counts = {}
        rows = _trace_commands._step_rows(a, b, _divisions(a, b, chooser),
                                          lambda *row: row, counts)
        assert list(rows) == [(str(a), str(b), q, eps, str(r))
                              for a, b, q, eps, r in _divisions(a, b, chooser)], variant
        assert counts["gcd"] == gcd(a, b)


def test_gcd_swaps_misordered_inputs_with_notice(capsys):
    code, out, err = run_cli(capsys, "gcd", "673", "807")
    assert code == 0
    assert err == "notice: swapped inputs to (807, 673)\n"
    assert out.splitlines()[0] == "807 = 673(1)+134"


@pytest.mark.parametrize("command", ["steps", "enumerate"])
def test_the_swap_notice_quotes_a_long_integer_in_part(capsys, command):
    # enumerate then refuses the 4,000-digit x0 by its bound, quoted the same way.
    code, _, err = run_cli(capsys, command, "7", "1" * 4000)
    assert code == (0 if command == "steps" else 2)
    assert err.startswith(f"notice: swapped inputs to ('{'1' * 40}'... (4000 characters), 7)\n")
    assert len(err.encode()) < 300


def test_steps_807_673(capsys):
    code, out, _ = run_cli(capsys, "--json", "steps", "807", "673")
    assert code == 0
    rows = {row["method"]: row for row in json.loads(out)["rows"]}
    assert rows["regular"]["total"] == 57
    assert rows["lar"]["total"] == 57
    assert rows["negative"]["total"] == 65
    assert rows["negative"]["total"] >= 57
    assert rows["lar"]["divisions"] == 4


def test_steps_5_3(capsys):
    code, out, _ = run_cli(capsys, "--json", "steps", "5", "3")
    rows = {row["method"]: row for row in json.loads(out)["rows"]}
    assert rows["regular"]["total"] == 6
    assert rows["lar"]["total"] == 6


def test_steps_exact_multiple(capsys):
    code, out, _ = run_cli(capsys, "--json", "steps", "9", "3")
    rows = json.loads(out)["rows"]
    assert all(row["total"] == 3 for row in rows)


def test_steps_counts_a_billion_step_negative_trace_without_running_it(capsys):
    # The negative trace of this pair has 10**9 steps; its row is counted.
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "--json", "steps", "1000000001", "1000000000")
    assert time.perf_counter() - start < 1
    assert code == 0
    rows = {row["method"]: row for row in json.loads(out)["rows"]}
    assert rows["negative"] == {"method": "negative", "divisions": 10**9,
                                "subtractions": 2 * 10**9, "swaps": 10**9 - 1,
                                "total": 3 * 10**9 - 1}


@pytest.mark.parametrize("pair", [(807, 673), (2**996, 3**628)], ids=["807/673", "300 digits"])
def test_steps_divides_the_pair_once_regularly_and_once_for_lar(capsys, monkeypatch, pair):
    # The regular and negative rows read one regular chain; only the LAR
    # row runs the division loop.
    calls = {"_regular": [], "_divisions": []}
    for name, calls_of in calls.items():
        def counted(*args, _function=getattr(euclid, name), _calls=calls_of):
            _calls.append(args[2:])
            return _function(*args)
        monkeypatch.setattr(euclid, name, counted)
    code, out, _ = run_cli(capsys, "--json", "steps", *map(str, pair))
    assert code == 0 and len(json.loads(out)["rows"]) == 3
    assert calls == {"_regular": [()], "_divisions": [(euclid.least_absolute,)]}


def test_steps_json_is_what_json_dumps_writes(capsys):
    # The rows are written without `json`, byte for byte as json.dumps writes them.
    pairs = [(a, b) for a in range(1, 41) for b in range(1, a + 1)]
    for a, b in [*pairs, (10**9 + 1, 10**9), (3**200, 2**300)]:
        code, out, _ = run_cli(capsys, "--json", "steps", str(a), str(b))
        assert (code, out) == (0, json.dumps(json.loads(out)) + "\n"), (a, b)


def test_enumerate_4_3(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "4", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0] == "#1 quotients=[1,3] epsilons=[+,+] total=5 *min-steps *min-divisions"
    assert lines[-1] == "summary: 3 traces, min total steps 5, min divisions 2"


def test_enumerate_3_2(capsys):
    _, out, _ = run_cli(capsys, "--json", "enumerate", "3", "2")
    payload = json.loads(out)
    assert payload["traces_examined"] == 2
    assert len(payload["traces"]) == 2


def test_enumerate_5_2(capsys):
    _, out, _ = run_cli(capsys, "--json", "enumerate", "5", "2")
    payload = json.loads(out)
    assert payload["traces_examined"] == 2
    assert payload["min_total_steps"] == 5


@pytest.mark.parametrize("a,b", [(21, 13), (144, 89), (300, 187)])
def test_enumerate_summary_matches_minimize(capsys, a, b):
    code, out, _ = run_cli(capsys, "--json", "enumerate", str(a), str(b))
    assert code == 0
    payload = json.loads(out)
    result = minimize(a, b)
    assert payload["traces_examined"] == result.traces_examined == len(payload["traces"])
    assert payload["min_total_steps"] == result.min_total_steps
    assert payload["min_divisions"] == result.min_divisions
    flagged = [row["quotients"] for row in payload["traces"] if row["min_steps"]]
    witnesses = [[s.quotient for s in w.steps] for w in result.witnesses_min_steps]
    assert flagged[: len(witnesses)] == witnesses
    assert any(row["min_divisions"] for row in payload["traces"])


def test_enumerate_bound_diagnostic(capsys):
    # A long x0 is quoted in part, with its length.
    for x0, shown in (("10001", "x0 = 10001 exceeds"), (str(10**200), "x0 = '1000000000")):
        code, out, err = run_cli(capsys, "enumerate", x0, "3")
        assert code == 2
        assert out == ""
        assert "--limit" in err
        assert shown in err
        assert len(err.encode()) < 200


def test_enumerate_limit_override(capsys):
    code, out, _ = run_cli(capsys, "--json", "enumerate", "10001", "3", "--limit", "10001")
    assert code == 0
    assert json.loads(out)["traces_examined"] == 3


@pytest.mark.parametrize(
    "method,moves",
    [
        ("regular", "-T,R,T,R,-T,R,T,T"),
        ("lar", "-T,-T,R,-T,-T,R,T,T"),
        ("negative", "-T,-T,R,-T,-T,-T,R,-T,-T"),
    ],
)
def test_untangle_8_5_golden(capsys, method, moves):
    code, out, _ = run_cli(capsys, "untangle", "8/5", "--method", method)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"moves: {moves}"
    assert lines[-1] == "verified: pass"


def test_untangle_zero(capsys):
    code, out, _ = run_cli(capsys, "--json", "untangle", "0")
    payload = json.loads(out)
    assert code == 0
    assert payload["moves"] == ""
    assert payload["total"] == 0
    assert payload["verified"] is True


def test_untangle_mirror(capsys):
    code, out, _ = run_cli(capsys, "untangle", "-8/5", "--method", "lar")
    assert code == 0
    assert out.splitlines()[0] == "moves: T,T,R,T,T,R,-T,-T"


def test_untangle_unreduced_input_is_canonicalized(capsys):
    code, out, _ = run_cli(capsys, "--json", "untangle", "16/10", "--method", "lar")
    payload = json.loads(out)
    assert payload["fraction"] == "8/5"
    assert payload["moves"] == "-T,-T,R,-T,-T,R,T,T"


def test_untangle_json_metrics(capsys):
    _, out, _ = run_cli(capsys, "--json", "untangle", "8/5", "--method", "lar")
    payload = json.loads(out)
    assert (payload["twists"], payload["rotations"], payload["total"]) == (6, 2, 8)
    assert payload["values"][0] == "8/5"
    assert payload["values"][-1] == "0"


def test_untangle_output_passes_its_own_verify(capsys):
    _, out, _ = run_cli(capsys, "--json", "untangle", "7/9", "--method", "negative")
    moves = json.loads(out)["moves"]
    code, out, _ = run_cli(capsys, "verify", "7/9", "--moves", moves)
    assert code == 0
    assert out.splitlines()[-1] == "result: pass"


def test_construct_seven_halves(capsys):
    code, out, _ = run_cli(capsys, "construct", "--moves", "-T,-T,-T,R,-T,R,T,T")
    assert code == 0
    assert out.strip() == "7/2"


def test_construct_json(capsys):
    _, out, _ = run_cli(capsys, "--json", "construct", "--moves", "-T,-T,-T,R,-T,R,T,T")
    assert json.loads(out)["tangle_number"] == "7/2"


def test_construct_parse_error(capsys):
    code, out, err = run_cli(capsys, "construct", "--moves", "T,Q,R")
    assert code == 2
    assert out == ""
    assert "'Q'" in err
    assert "position 2" in err


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "8/5", "--moves", "-T,R,T,R,-T,R,T,T")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "start: 8/5"
    assert lines[-2] == "final: 0"
    assert lines[-1] == "result: pass"


def test_verify_fail(capsys):
    code, out, _ = run_cli(capsys, "verify", "1", "--moves", "R")
    assert code == 1
    lines = out.splitlines()
    assert "final: -1" in lines
    assert lines[-1] == "result: fail"


def test_verify_json_reports_values(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify", "1", "--moves", "R")
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["values"] == ["1", "-1"]


# Payload values _json_text renders itself and values it hands to json.dumps:
# text with quotes, backslashes, control characters, DEL, non-ASCII and lone
# surrogates; enum members (str subclasses); ints past the int/str limit.
json_values = st.one_of(
    st.booleans(),
    st.integers(),
    st.builds(lambda high, low: high * 10**4300 + low,
              st.integers(-10**6, 10**6), st.integers(0, 10**4300)),
    st.text(st.characters(max_codepoint=0x7F)),
    st.text(st.sampled_from('"\\\x00\x1f\x7f\x80\xe9\u2028\ud800\udfff\U0001f600 aZ/')),
    st.text(st.characters(exclude_categories=())),
    st.sampled_from([*Move, *Variant]),
    st.lists(st.integers(), max_size=3),
)


@settings(max_examples=1000)
@given(json_values)
def test_json_text_writes_what_json_dumps_writes(value):
    # main lifts the int/str limit while the pieces are written.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert cli._json_text(value) == json.dumps(value)
    finally:
        sys.set_int_max_str_digits(limit)


def test_json_flag_accepted_before_and_after_subcommand(capsys):
    _, before, _ = run_cli(capsys, "--json", "steps", "8", "5")
    _, after, _ = run_cli(capsys, "steps", "8", "5", "--json")
    assert json.loads(before) == json.loads(after)


@pytest.mark.parametrize("argv", [["gcd", "0", "5"], ["gcd", "x", "5"], ["steps", "-3", "5"]])
def test_nonpositive_or_malformed_integers_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2


def test_indeterminate_fraction_diagnostic(capsys):
    code, _, err = run_cli(capsys, "untangle", "0/0")
    assert code == 2
    assert "indeterminate" in err


def test_bad_fraction_diagnostic(capsys):
    code, _, err = run_cli(capsys, "verify", "one", "--moves", "R")
    assert code == 2
    assert "one" in err


def test_overlong_integer_reports_its_size_without_echo(capsys):
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("this interpreter has no int/str digit limit")
    digits = "7" * (limit + 700)
    with pytest.raises(SystemExit) as exc_info:
        main(["gcd", digits, "5"])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert f"{limit + 700} digits, limit {limit}" in err
    assert digits[:100] not in err
    assert len(err) < 300


@pytest.mark.parametrize(
    "command", [["gcd", "{}", "7"], ["untangle", "{}/3"], ["verify", "-{}", "--moves", "R"]],
    ids=["gcd", "untangle", "verify"],
)
def test_an_overlong_number_with_underscores_reports_its_size_without_echo(capsys, command):
    # int() reads "1_1" as 11, so each half stays under the limit but the
    # number does not.
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("this interpreter has no int/str digit limit")
    half = "1" * (limit - 300)
    number = f"{half}_{half}"
    with pytest.raises(SystemExit) as exc_info:
        main([arg.format(number) for arg in command])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert f"{2 * len(half)} digits, limit {limit}" in err
    assert half[:100] not in err
    assert len(err) < 300


def test_a_number_with_underscores_under_the_limit_is_read(capsys):
    code, out, _ = run_cli(capsys, "gcd", "1_000", "7")
    assert code == 0
    assert out.splitlines()[0] == "1000 = 7(142)+6"


# The token readers as they were, by regular expression: the oracle for the
# plain-form readers that replaced them.
OLD_FRACTION_RE = re.compile(r"-?\d+(?:/\d+)?")


def old_parse_fraction(text):
    s = text.strip()
    if s == "inf":
        return INFINITY
    if not OLD_FRACTION_RE.fullmatch(s):
        raise FractionParseError(f"not a valid fraction: {excerpt(text)}")
    num, slash, den = s.partition("/")
    if not slash:
        return normalize(int(num), 1)
    return normalize(int(num), int(den))


def old_longest_digit_run(text):
    return max((len(run) - run.count("_") for run in re.findall(r"\d+(?:_\d+)*", text)),
               default=0)


def outcome(function, text):
    try:
        return "value", function(text)
    except Exception as exc:
        return type(exc).__name__, str(exc)


# ASCII, Arabic-Indic, fullwidth, Devanagari and mathematical digits; a
# superscript two, a vulgar half and a Roman numeral, which are not Nd and
# so not \d; and the grammar's other characters.
token_characters = st.sampled_from(
    [*"0123456789", "\u0663", "\uff17", "\u096a", "\U0001d7d9", "\u00b2", "\u00bd", "\u2167",
     *"-_/+ .inf", "\n", "\t"])
tokens = st.one_of(
    st.lists(token_characters, max_size=12).map("".join),
    st.sampled_from(["inf", " inf ", "-inf", "inf/1", "1_000", "1__0", "_1", "1_", "-1_2/3_4",
                     "0/0", "-0", "1/-2", "--1", "-", "/", "\u0663/\uff17", "-\U0001d7d9_2",
                     "7/12", "-3/2024", "12/3", "-\u0663\u0663"]),
)


@given(tokens)
def test_plain_token_readers_read_what_the_old_regular_expressions_read(text):
    assert outcome(parse_fraction, text) == outcome(old_parse_fraction, text)
    # With a limit of one digit, the error names the longest digit run.
    with mock.patch.object(sys, "get_int_max_str_digits", return_value=1):
        got = outcome(cli._digits_within_limit, text)
    longest = old_longest_digit_run(text)
    limited = ("ValueError", f"{longest} digits, limit 1")
    assert got == (limited if longest > 1 else ("value", text))


@pytest.mark.parametrize("command", [["untangle"], ["verify", "--moves", "R"]])
def test_overlong_fraction_reports_its_size_without_echo(capsys, command):
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("this interpreter has no int/str digit limit")
    digits = "7" * (limit + 700)
    with pytest.raises(SystemExit) as exc_info:
        main([command[0], f"-{digits}/3", *command[1:]])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert f"{limit + 700} digits, limit {limit}" in err
    assert digits[:100] not in err
    assert len(err) < 300


def test_construct_prints_a_value_past_the_int_str_limit(capsys):
    # About 4,600 digits, over the default limit of 4,300.
    moves = ",".join(["T,R,-T,R"] * 11_000)
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "construct", "--moves", moves)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    value = Fraction(0)
    for token in moves.split(","):
        value = -1 / value if token == "R" else value + (1 if token == "T" else -1)
    assert value.denominator > 10**4_300
    sys.set_int_max_str_digits(0)
    try:
        assert out == f"{value}\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_json_mode_formats_no_trace_equation(capsys, monkeypatch):
    def refuse(*row):
        raise AssertionError("a text line was formatted in JSON mode")

    monkeypatch.setattr(_trace_commands, "_text_step", refuse)
    code, out, _ = run_cli(capsys, "--json", "gcd", "807", "673")
    assert code == 0
    assert json.loads(out)["total_steps"] == 57


HANDLER_COMMANDS = ["gcd 807 673", "steps 807 673", "enumerate 4 3", "untangle 8/5",
                    "construct --moves -T,R", "verify 1 --moves R"]


# Each form's formatters are named for it: a JSON formatter starts with
# "_json" or "json" (and `json` itself is one), a text formatter with "_text"
# or "text".  JSON-mode cases keep the command as their id.
@pytest.mark.parametrize(
    "command, json_mode",
    [pytest.param(command, True, id=command) for command in HANDLER_COMMANDS]
    + [pytest.param(command, False, id=f"text {command}") for command in HANDLER_COMMANDS],
)
def test_json_mode_never_asks_a_handler_for_text(capsys, command, json_mode):
    called = set()

    def record(frame, event, arg):
        module = frame.f_globals.get("__name__") or ""
        if event == "call" and module.partition(".")[0] in ("tanglegcd", "json"):
            called.add((module, frame.f_code.co_name))

    sys.setprofile(record)
    try:
        code, out, _ = run_cli(capsys, *(["--json"] if json_mode else []), *command.split())
    finally:
        sys.setprofile(None)
    assert code in (0, 1)
    json_formatters = {(module, name) for module, name in called
                       if module.startswith("json") or name.lstrip("_").startswith("json")}
    text_formatters = {(module, name) for module, name in called
                       if name.lstrip("_").startswith("text")}
    if json_mode:
        assert isinstance(json.loads(out), dict)
        assert ("tanglegcd.cli", "_json_pieces") in json_formatters
        assert text_formatters == set(), "a text line was formatted in JSON mode"
    else:
        assert ("tanglegcd.cli", "_text_pieces") in text_formatters
        assert json_formatters == set(), "a JSON formatter ran in text mode"


def test_enumerate_summary_and_flags_come_from_the_certificate(capsys, monkeypatch):
    # A certificate whose minima no listed trace reaches flags no row.
    def shifted(a, b):
        result = minimize(a, b)
        return EnumerationResult(result.pair, result.traces_examined,
                                 result.min_total_steps - 1, result.min_divisions - 1,
                                 result.witnesses_min_steps)

    monkeypatch.setattr("tanglegcd.enumeration.minimize", shifted)
    code, out, _ = run_cli(capsys, "enumerate", "4", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "summary: 3 traces, min total steps 4, min divisions 1"
    assert not any("*min" in line for line in lines)


def test_move_string_starting_with_a_dash_is_a_value(capsys):
    code, out, err = run_cli(capsys, "construct", "--moves", "-X")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "error: bad move token '-X' at position 1"


def test_negative_fraction_replays_its_own_plan(capsys):
    _, out, _ = run_cli(capsys, "--json", "untangle", "-8/5", "--method", "lar")
    moves = json.loads(out)["moves"]
    code, out, _ = run_cli(capsys, "verify", "-8/5", "--moves", moves)
    assert code == 0
    assert out.splitlines()[0] == "start: -8/5"
    assert out.splitlines()[-1] == "result: pass"


NO_MOVES_VALUE = "tanglegcd construct: error: argument --moves: expected one argument"
MALFORMED_DASH_ARGUMENTS = {
    # a fraction argument starting with "-" reaches the fraction parser
    "verify -x --moves R": "error: not a valid fraction: '-x'",
    "untangle -T": "error: not a valid fraction: '-T'",
    "untangle -x": "error: not a valid fraction: '-x'",
    # a token starting with "--" after --moves is read as an option
    "construct --moves --json": NO_MOVES_VALUE,
    "construct --moves --T": NO_MOVES_VALUE,
}


@pytest.mark.parametrize("command", MALFORMED_DASH_ARGUMENTS)
def test_malformed_dash_arguments_exit_2(capsys, command):
    try:
        code = main(command.split())
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.splitlines()[-1] == MALFORMED_DASH_ARGUMENTS[command]


LONG_MALFORMED = "1" * 4000 + "x" + "1" * 4000
LONG_MALFORMED_ARGUMENTS = {
    "gcd": (["gcd", LONG_MALFORMED, "7"], "not an integer: '1111111111"),
    "gcd-negative": (["gcd", "-" + "1" * 4000, "7"],
                     "must be a positive integer, got '-111111111"),
    "verify": (["verify", LONG_MALFORMED, "--moves", "R"], "not a valid fraction: '1111111111"),
    "construct": (["construct", "--moves", "T," + "X" * 5000], "bad move token 'XXXXXXXXXX"),
}


@pytest.mark.parametrize("name", LONG_MALFORMED_ARGUMENTS)
def test_a_long_malformed_argument_is_quoted_in_part(capsys, name):
    # Every digit run is under the int/str limit, so the length check passes
    # and the parser that rejects the text names it: in part, with its length.
    argv, message = LONG_MALFORMED_ARGUMENTS[name]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert "characters)" in err
    assert len(err.encode()) < 300


@pytest.mark.parametrize(
    "argv",
    [["untangle", "100000"], ["--json", "enumerate", "2000", "1999"],
     # streamed: the write that fails comes mid-listing, not in one final print
     ["enumerate", "2000", "1999"], ["--json", "untangle", "100000"]],
)
def test_closed_pipe_exits_1_without_traceback(argv):
    # Both commands write far more than a pipe buffer holds, so the write
    # that follows the reader's close fails.
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tanglegcd.cli", *argv], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert head
    assert b"Traceback" not in err
    assert code == 1


fuzz_fractions = st.one_of(
    st.integers(-1000, 1000).map(str),
    st.tuples(st.integers(-200, 200), st.integers(0, 200)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.just("inf"),
    st.text("0123456789-/_ inf", max_size=8),
)
fuzz_moves = st.one_of(
    st.lists(st.sampled_from(["T", "-T", "R", " T", "R "]), max_size=12).map(",".join),
    st.text("TR-, x", max_size=10),
)


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(["gcd", "steps", "enumerate", "untangle", "construct", "verify"]))
    if command == "enumerate":
        argv = [command, *draw(st.lists(st.integers(-1, 40).map(str), min_size=2, max_size=2))]
    elif command in ("gcd", "steps"):
        argv = [command, *draw(st.lists(st.integers(-1, 10**6).map(str), min_size=2, max_size=2))]
    elif command == "untangle":
        argv = [command, draw(fuzz_fractions)]
    elif command == "construct":
        argv = [command, "--moves", draw(fuzz_moves)]
    else:
        argv = [command, draw(fuzz_fractions), "--moves", draw(fuzz_moves)]
    if command in ("gcd", "untangle") and draw(st.booleans()):
        argv += ["--method", draw(st.sampled_from(["regular", "lar", "negative"]))]
    json_at = draw(st.sampled_from([None, 0, len(argv)]))
    if json_at is not None:
        argv.insert(json_at, "--json")
    return argv


@settings(max_examples=150, deadline=None)
@given(fuzz_argv())
def test_main_exits_0_1_or_2_without_traceback_and_prints_one_json_object(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if "--json" in argv and code in (0, 1):
        assert isinstance(json.loads(out.getvalue()), dict)


def reference_enumerate(a, b):
    """`enumerate a b` as rendered from trace records, in both modes: (JSON, text)."""
    certificate = minimize(a, b)
    rows = []
    for trace in enumerate_all(a, b):
        divisions, total = division_count(trace), step_count(trace).total
        rows.append({
            "quotients": [s.quotient for s in trace.steps],
            "epsilons": [s.epsilon for s in trace.steps],
            "divisions": divisions,
            "total": total,
            "min_steps": total == certificate.min_total_steps,
            "min_divisions": divisions == certificate.min_divisions,
        })
    payload = {
        "x0": a, "x1": b, "traces": rows,
        "traces_examined": certificate.traces_examined,
        "min_total_steps": certificate.min_total_steps,
        "min_divisions": certificate.min_divisions,
    }
    lines = []
    for i, row in enumerate(rows, start=1):
        quotients = ",".join(str(q) for q in row["quotients"])
        epsilons = ",".join("+" if e > 0 else "-" for e in row["epsilons"])
        flags = " *min-steps" if row["min_steps"] else ""
        flags += " *min-divisions" if row["min_divisions"] else ""
        lines.append(
            f"#{i} quotients=[{quotients}] epsilons=[{epsilons}] total={row['total']}{flags}")
    lines.append(f"summary: {certificate.traces_examined} traces, min total steps "
                 f"{certificate.min_total_steps}, min divisions {certificate.min_divisions}")
    return json.dumps(payload) + "\n", "\n".join(lines) + "\n"


def test_enumerate_rows_rendered_in_the_walk_match_the_trace_records(capsys):
    for a in range(1, 51):
        for b in range(1, a + 1):
            expected_json, expected_text = reference_enumerate(a, b)
            assert run_cli(capsys, "--json", "enumerate", str(a), str(b)) == (0, expected_json, "")
            assert run_cli(capsys, "enumerate", str(a), str(b)) == (0, expected_text, "")


# The runner of each --method: the trace records the CLI's streamed rows must match.
RUNNERS = {"regular": run_regular, "lar": run_lar, "negative": run_negative}


def reference_gcd(a, b, method):
    """`gcd a b --method method` as rendered from the trace record, in both modes: (JSON, text)."""
    trace = RUNNERS[method](a, b)
    counts = step_count(trace)
    payload = {
        "x0": a, "x1": b, "method": method, "trace": trace_to_dict(trace), "gcd": gcd(a, b),
        "divisions": division_count(trace), "subtractions": counts.subtractions,
        "swaps": counts.swaps, "total_steps": counts.total,
    }
    lines = [f"{s['a']} = {s['b']}({s['q']}){'+' if s['eps'] > 0 else '-'}{s['r']}"
             for s in payload["trace"]["steps"]]
    lines += ["", f"gcd: {payload['gcd']}", f"divisions: {payload['divisions']}",
              f"subtractions: {counts.subtractions}", f"swaps: {counts.swaps}",
              f"total steps: {counts.total}"]
    return json.dumps(payload) + "\n", "\n".join(lines) + "\n"


def test_gcd_traces_rendered_from_digits_match_the_trace_records(capsys):
    rng = random.Random(12)
    large = [sorted((rng.randrange(10**299, 10**300), rng.randrange(10**299, 10**300)),
                    reverse=True) for _ in range(3)]
    small = [(a, b) for a in range(1, 61) for b in range(1, a + 1)]
    for a, b in small + large:
        for method in RUNNERS:
            expected_json, expected_text = reference_gcd(a, b, method)
            argv = ["gcd", str(a), str(b), "--method", method]
            assert run_cli(capsys, "--json", *argv) == (0, expected_json, "")
            assert run_cli(capsys, *argv) == (0, expected_text, "")


def child_env():
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# Runs main on its arguments and reports, on stderr, the exit code and its
# own peak RSS in bytes.  That is VmHWM where /proc exists: Linux carries the
# spawning process's peak across exec into ru_maxrss, so under RUSAGE_SELF a
# child started from a large test process reports at least that process's
# peak (and RUSAGE_CHILDREN in the test would keep the maximum over every
# earlier child).
PEAK_RSS_SCRIPT = """
import sys
from tanglegcd.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
try:
    with open("/proc/self/status") as status:
        peak = next(int(line.split()[1]) << 10 for line in status if line.startswith("VmHWM:"))
except OSError:
    import resource
    # ru_maxrss is in bytes on macOS and in KiB elsewhere.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss << (sys.platform != "darwin") * 10
print(code, peak, file=sys.stderr)
"""


def peak_rss_run(*argv):
    """Run main(argv) in a child: (exit code, stdout size, stdout sha256, peak RSS in MB)."""
    pytest.importorskip("resource")
    proc = subprocess.Popen(
        [sys.executable, "-c", PEAK_RSS_SCRIPT, *argv],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    digest, size = hashlib.sha256(), 0
    try:
        while chunk := proc.stdout.read(1 << 20):
            digest.update(chunk)
            size += len(chunk)
        err = proc.stderr.read().decode()
        proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stdout.close()
        proc.stderr.close()
    code, peak = map(int, err.split())
    return code, size, digest.hexdigest(), peak / (1 << 20)


def test_a_two_million_move_untangle_streams_in_flat_memory():
    code, size, digest, peak_mb = peak_rss_run("--json", "untangle", "2000000")
    assert (code, size, digest) == (
        0, 26_889_037, "cd35de260b5c6c813be000edc58e5073c4327fc2c94f71ce6473a36abd195fdd")
    assert peak_mb < 60


def test_a_4200_digit_gcd_trace_streams_in_bounded_memory():
    # (F(20094), F(20093)): 20,092 regular steps of up to 4,200 digits each,
    # 127 MB of JSON, and half as many LAR steps.  Rendered whole, the
    # regular trace peaked at about 296 MB; with the trace record held while
    # its rows streamed, at about 36 MB.
    a, b = 1, 0
    for _ in range(20_093):
        a, b = a + b, a
    for method, expected in [
        ("regular", (0, 127_409_164,
                     "3e6b499cc9cb0b832f1fc392a8e69563f2dc64834fc9fe15a60f42dd363025f8")),
        ("lar", (0, 63_722_105,
                 "1f040fa8851282c25e3f5daa79664214f563fc2ae60ac4983ac2f2b429190492")),
    ]:
        code, size, digest, peak_mb = peak_rss_run("--json", "gcd", str(a), str(b),
                                                   "--method", method)
        assert (code, size, digest) == expected, method
        assert peak_mb < 30, method


def test_a_negative_gcd_trace_streams_in_flat_memory():
    # 300,000 steps of quotient 2: built whole before it was written, the
    # trace peaked at about 61 MB; a `gcd 8 5` child takes about 15 MB.
    code, size, digest, peak_mb = peak_rss_run("--json", "gcd", "300001", "300000",
                                               "--method", "negative")
    assert (code, size, digest) == (
        0, 17_666_875, "7d6a49207dbf0a374e110f2bd15185a0fcea826abd376f713d9f6c94ce814cf3")
    assert peak_mb < 30


def test_a_staircase_listing_streams_in_bounded_memory():
    # (4000, 3999): 3,999 traces, the deepest of 3,999 divisions, 56 MB of
    # JSON.  Built whole, the listing peaked at about 286 MB, and joined 256
    # rows (up to 30 KB each) a piece at about 40 MB.
    code, size, digest, peak_mb = peak_rss_run("--json", "enumerate", "4000", "3999")
    assert (code, size, digest) == (
        0, 56_452_770, "1d546f9a5166d3db51e97fd4ad5fe4684215552e723249bbc3769f3557dc16c8")
    assert peak_mb < 25


class TailSink(io.TextIOBase):
    """A stdout that counts what is written and keeps only its end."""

    def __init__(self):
        self.size, self.tail = 0, ""

    def writable(self):
        return True

    def write(self, text):
        self.size += len(text)
        self.tail = (self.tail + text)[-20_000:]
        return len(text)


def test_verify_streams_values_past_the_int_str_limit():
    # Values reach about 4,600 digits, over the default limit of 4,300, and
    # are rendered as they are written, so the limit must stay lifted then.
    moves = ",".join(["T,R,-T,R"] * 11_000)
    limit = sys.get_int_max_str_digits()
    sink, err = TailSink(), io.StringIO()
    with redirect_stdout(sink), redirect_stderr(err):
        code = main(["verify", "0", "--moves", moves])
    assert (code, err.getvalue()) == (1, "")
    assert sys.get_int_max_str_digits() == limit
    value = Fraction(0)
    for token in moves.split(","):
        value = -1 / value if token == "R" else value + (1 if token == "T" else -1)
    assert value.denominator > 10**4_300
    sys.set_int_max_str_digits(0)
    try:
        assert sink.tail.endswith(f"\nR -> {value}\nfinal: {value}\nresult: fail\n")
    finally:
        sys.set_int_max_str_digits(limit)


def test_untangle_never_replays_move_by_move(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a plan was replayed one move at a time")

    expected = {}
    for argv in (["untangle", "8/5"], ["--json", "untangle", "8/5"],
                 ["--json", "untangle", "-1/1003"], ["untangle", "inf", "--method", "negative"]):
        expected[tuple(argv)] = run_cli(capsys, *argv)
    for module in ("tanglegcd.tangles", "tanglegcd._tangle_commands"):
        monkeypatch.setattr(f"{module}._fold", refuse)
    for argv, result in expected.items():
        assert run_cli(capsys, *argv) == result
        assert result[0] == 0


def test_an_untangle_plan_that_misses_zero_writes_nothing(capsys, monkeypatch):
    def short_plan(f, policy):
        return UntanglePlan(f, (Stage(1, -1),), policy)

    for module in ("tanglegcd.tangles", "tanglegcd._tangle_commands"):
        monkeypatch.setattr(f"{module}.plan_untangle", short_plan)
    for argv in (["untangle", "8/5"], ["--json", "untangle", "8/5"]):
        assert run_cli(capsys, *argv) == (
            1, "", "error: internal error: plan for 8/5 replayed to 3/5\n")


@pytest.mark.parametrize("argv", [["untangle", "1/12345678901234567890123"],
                                  ["--json", "untangle", "9223372036854775807"]])
def test_an_untangle_stage_of_too_many_twists_exits_2_without_output(capsys, argv):
    # One stage of 12345678901234567890123 twists, and one of 2**63 - 1.
    assert run_cli(capsys, *argv) == (
        2, "", "error: a plan stage has more twists than a replay can count\n")


# Values a command line is drawn from, by the argument they are given to:
# integers in and out of range, fractions and move strings, some starting
# with "-", and method names.
INTEGERS = ["1", "8", "5", "807", "673", "0", "00", "-3", "1_000", "10001", "9" * 4301, "x", ""]
VALUES = {
    "a": INTEGERS, "b": INTEGERS, "--limit": INTEGERS,
    "fraction": ["8/5", "-8/5", "-7/9", "inf", "-inf", "8/0", "0", "1/12345678901", "-x", "- 1"],
    "--moves": ["T", "R", "-T", "T,R", "-T,R", "T, R", "-T, R", "-X", "-=T", "-T=R", "-hT", ""],
    "--method": ["regular", "lar", "negative", "LAR", "-lar"],
}
# Other tokens: the subcommands, every option, and forms the reader refuses
# or that argparse reads otherwise (prefixes, "=", help, "-hT", "--").
ARGV_TOKENS = [
    *cli._SUBCOMMANDS, "--json", "--method", "--limit", "--moves", "--meth", "--js", "--lim",
    "--json=", "--method=lar", "--limit=20", "--moves=T", "-h", "--help", "-hT", "--", "-", "",
    "-5", "--T", "- T", *{value for values in VALUES.values() for value in values},
]
# Every exact option: argparse reads a proper prefix of one as that option.
OPTIONS = {"--json", "--help", *(flag for _, _, options, _ in cli._SUBCOMMANDS.values()
                                 for flag in options)}


@st.composite
def plain_argv(draw):
    """A command line: a subcommand's arguments, shuffled, with a few other tokens.

    One in ten is any tokens at all.
    """
    tokens = st.sampled_from(ARGV_TOKENS)
    if draw(st.integers(0, 9)) == 0:
        return draw(st.lists(tokens, max_size=6))
    name = draw(st.sampled_from(list(cli._SUBCOMMANDS)))
    _, positionals, options, _ = cli._SUBCOMMANDS[name]
    units = [[draw(st.sampled_from(VALUES[dest]))] for dest, _, _ in positionals]
    units += [[flag, draw(st.sampled_from(VALUES[flag]))]
              for flag in options if draw(st.booleans())]
    units += [["--json"]] * draw(st.integers(0, 2))
    units += [[token] for token in draw(st.lists(tokens, max_size=2))]
    return [*["--json"] * draw(st.integers(0, 2)), name,
            *(token for unit in draw(st.permutations(units)) for token in unit)]


@functools.cache
def reference_parser():
    """argparse built from _SUBCOMMANDS: the oracle of the reader."""
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a subparser from clobbering a --json given before the
    # subcommand with its own False default.
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(prog="tanglegcd", parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, positionals, options, _) in cli._SUBCOMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        # A token that matches a parser's (private) negative-number matcher is
        # read as a value, as the reader reads a token starting with one "-".
        p._negative_number_matcher = re.compile(r"^-[^-]")
        for dest, kind, _ in positionals:
            p.add_argument(dest, type=kind)
        for flag, (default, kind, _) in options.items():
            p.add_argument(flag, type=kind, default=default, required=default is None)
    return parser


def outcome_of(read, argv):
    """read(argv) with its output swallowed: what it returns, or the code it exits with."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return read(argv)
        except SystemExit as exc:
            return exc.code


def reference_args(argv):
    """argv as argparse reads it, in the reader's namespace, or the code it exits with."""
    args = outcome_of(reference_parser().parse_args, argv)
    return args if isinstance(args, int) else {"json": False, **vars(args)}


def read_args(argv):
    return vars(cli.build_parser().parse_args(argv))


def dropped(token):
    """Whether argparse reads token as an option and the reader as a value: --, -hX, a prefix."""
    return (token.startswith("--") and any(o.startswith(token) and o != token for o in OPTIONS)
            or token.startswith("-h") and token != "-h")


@settings(max_examples=3000, deadline=None)
@given(plain_argv())
# argparse refuses a bad value given before the one that counts.
@example(["untangle", "8/5", "--method", "gcd", "--method", "regular"])
@example(["enumerate", "8", "5", "--limit", "0", "--limit", "5"])
def test_the_plain_reader_reads_what_argparse_reads(argv):
    # A line without "=" tokens, which argparse splits differently across
    # Python versions, and without forms that argparse reads as options and
    # the reader as values: where argparse reads it, the reader reads the
    # same; where argparse refuses it, so does main.
    if any("=" in token or dropped(token) for token in argv):
        return
    expected = reference_args(argv)
    if expected == 2:
        assert outcome_of(main, argv) == 2
    elif isinstance(expected, dict):
        assert read_args(argv) == expected


def perfbench_cold_argvs(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return {name: list(workload.cold_argv)
            for name, workload in importlib.import_module("workloads").WORKLOADS.items()}


def test_every_golden_success_and_benchmark_cold_call_is_read_without_argparse(monkeypatch):
    argvs = [command.split() for command, (code, _, _) in GOLDEN.items() if code in (0, 1)]
    argvs += perfbench_cold_argvs(monkeypatch).values()
    assert len(argvs) > 30
    for argv in argvs:
        if "--help" not in argv:
            assert read_args(argv) == reference_args(argv), argv


@pytest.mark.parametrize("argv", [["--help"], *([name, "--help"] for name in cli._SUBCOMMANDS)])
def test_help_is_argparse_help(capsys, argv):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    out = capsys.readouterr().out
    assert exc_info.value.code == 0
    assert out.startswith(f"usage: tanglegcd {argv[0] if len(argv) > 1 else ''}".rstrip())
    assert "--json" in out
