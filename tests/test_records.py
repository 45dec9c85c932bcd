"""The frozen records behind every value and result type, and the cold import."""

import importlib
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import tanglegcd
from tanglegcd.enumeration import EnumerationResult, minimize
from tanglegcd.euclid import EuclidStep, EuclidTrace, StepCount, Variant, run_lar, step_count
from tanglegcd.rationals import ZERO, ExtendedRational, normalize
from tanglegcd.tangles import (
    Move,
    PlanMetrics,
    ReplayReport,
    Stage,
    UntanglePlan,
    plan_untangle,
    replay,
)

LAR_8_5 = run_lar(8, 5)

# One example per record: its fields by name, and its repr as recorded
# when the records were dataclasses.
EXAMPLES = [
    (ExtendedRational, {"numerator": -8, "denominator": 5},
     "ExtendedRational(numerator=-8, denominator=5)"),
    (EuclidStep, {"a": 8, "b": 5, "quotient": 2, "epsilon": -1, "remainder": 2},
     "EuclidStep(a=8, b=5, quotient=2, epsilon=-1, remainder=2)"),
    (EuclidTrace, {"steps": LAR_8_5.steps, "variant": Variant.LEAST_ABSOLUTE},
     "EuclidTrace(steps=(EuclidStep(a=8, b=5, quotient=2, epsilon=-1, remainder=2), "
     "EuclidStep(a=5, b=2, quotient=2, epsilon=1, remainder=1), "
     "EuclidStep(a=2, b=1, quotient=2, epsilon=1, remainder=0)), "
     "variant=<Variant.LEAST_ABSOLUTE: 'LeastAbsolute'>)"),
    (StepCount, {"subtractions": 6, "swaps": 2, "total": 8},
     "StepCount(subtractions=6, swaps=2, total=8)"),
    (EnumerationResult,
     {"pair": (3, 2), "traces_examined": 2, "min_total_steps": 4, "min_divisions": 2,
      "witnesses_min_steps": minimize(3, 2).witnesses_min_steps},
     "EnumerationResult(pair=(3, 2), traces_examined=2, min_total_steps=4, min_divisions=2, "
     "witnesses_min_steps=(EuclidTrace(steps=(EuclidStep(a=3, b=2, quotient=1, epsilon=1, "
     "remainder=1), EuclidStep(a=2, b=1, quotient=2, epsilon=1, remainder=0)), "
     "variant=<Variant.CUSTOM: 'Custom'>),))"),
    (UntanglePlan,
     {"start": normalize(2, 1), "stages": (Stage(2, -1),), "policy": Variant.REGULAR},
     "UntanglePlan(start=ExtendedRational(numerator=2, denominator=1), "
     "stages=(Stage(twist_count=2, twist_direction=-1),), policy=<Variant.REGULAR: 'Regular'>)"),
    (PlanMetrics, {"twists": 2, "rotations": 0, "total": 2},
     "PlanMetrics(twists=2, rotations=0, total=2)"),
    (ReplayReport, {"values": (normalize(1, 1), ZERO)},
     "ReplayReport(values=(ExtendedRational(numerator=1, denominator=1), "
     "ExtendedRational(numerator=0, denominator=1)))"),
]

# Protocol-2 pickles written when the records were dataclasses (b64bded).
# The slotted types wrote their fields as a list, as the records do now.
LAR_8_5_PICKLE = (
    b"\x80\x02ctanglegcd.euclid\nEuclidTrace\nq\x00)\x81q\x01]q\x02(ctanglegcd.euclid\n"
    b"EuclidStep\nq\x03)\x81q\x04]q\x05(K\x08K\x05K\x02J\xff\xff\xff\xffK\x02ebh\x03)\x81q\x06]"
    b"q\x07(K\x05K\x02K\x02K\x01K\x01ebh\x03)\x81q\x08]q\t(K\x02K\x01K\x02K\x01K\x00eb\x87q\n"
    b"ctanglegcd.euclid\nVariant\nq\x0bX\r\x00\x00\x00LeastAbsoluteq\x0c\x85q\rRq\x0eeb."
)
MINUS_8_5_PICKLE = (
    b"\x80\x02ctanglegcd.rationals\nExtendedRational\nq\x00)\x81q\x01]q\x02"
    b"(J\xf8\xff\xff\xffK\x05eb."
)
# The other types wrote their __dict__, which held a plan's cached moves too;
# loading reads only the fields.
DICT_STATE_PICKLES = {
    "step count": (
        b"\x80\x02ctanglegcd.euclid\nStepCount\nq\x00)\x81q\x01}q\x02(X\x0c\x00\x00\x00"
        b"subtractionsq\x03K\x06X\x05\x00\x00\x00swapsq\x04K\x02X\x05\x00\x00\x00totalq\x05K"
        b"\x08ub.",
        step_count(LAR_8_5),
    ),
    "plan with cached moves": (
        b"\x80\x02ctanglegcd.tangles\nUntanglePlan\nq\x00)\x81q\x01}q\x02(X\x05\x00\x00\x00"
        b"startq\x03ctanglegcd.rationals\nExtendedRational\nq\x04)\x81q\x05]q\x06(K\x02K\x01eb"
        b"X\x06\x00\x00\x00stagesq\x07ctanglegcd.tangles\nStage\nq\x08K\x02J\xff\xff\xff\xff"
        b"\x86q\t\x81q\n\x85q\x0bX\x06\x00\x00\x00policyq\x0cctanglegcd.euclid\nVariant\nq\r"
        b"X\x07\x00\x00\x00Regularq\x0e\x85q\x0fRq\x10X\x05\x00\x00\x00movesq\x11"
        b"ctanglegcd.tangles\nMove\nq\x12X\x02\x00\x00\x00-Tq\x13\x85q\x14Rq\x15h\x15\x86q\x16ub.",
        plan_untangle(normalize(2, 1), Variant.REGULAR),
    ),
    "replay report": (
        b"\x80\x02ctanglegcd.tangles\nReplayReport\nq\x00)\x81q\x01}q\x02X\x06\x00\x00\x00"
        b"valuesq\x03ctanglegcd.rationals\nExtendedRational\nq\x04)\x81q\x05]q\x06(K\x01K\x01eb"
        b"h\x04)\x81q\x07]q\x08(K\x00K\x01eb\x86q\tsb.",
        replay(normalize(1, 1), (Move.TWIST_NEGATIVE,)),
    ),
}


def test_records_construct_print_refuse_changes_and_pickle_as_before():
    for cls, fields, literal in EXAMPLES:
        record = cls(**fields)
        assert cls(*fields.values()) == record, cls
        assert repr(record) == literal
        assert cls.__match_args__ == tuple(fields)
        assert tuple(inspect.signature(cls).parameters) == cls._fields == tuple(fields)
        for arguments in ([*fields.values()][:-1], [*fields.values(), 0]):
            with pytest.raises(TypeError):
                cls(*arguments)
        for name in [*fields, "other"]:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record != tuple(fields.values()) and tuple(fields.values()) != record
    # Equal fields in records of different classes, or one field apart, are unequal.
    assert StepCount(2, 0, 2) != PlanMetrics(2, 0, 2)
    assert normalize(1, 2) != normalize(1, 3) and normalize(1, 2) != normalize(3, 2)
    assert pickle.dumps(run_lar(8, 5), 2) == LAR_8_5_PICKLE
    assert pickle.dumps(normalize(-8, 5), 2) == MINUS_8_5_PICKLE
    assert pickle.loads(LAR_8_5_PICKLE) == run_lar(8, 5)
    assert pickle.loads(MINUS_8_5_PICKLE) == normalize(-8, 5)
    for name, (data, expected) in DICT_STATE_PICKLES.items():
        loaded = pickle.loads(data)
        assert (loaded, hash(loaded)) == (expected, hash(expected)), name
        assert not hasattr(loaded, "__dict__"), name
    assert pickle.loads(DICT_STATE_PICKLES["plan with cached moves"][0]).moves == (
        Move.TWIST_NEGATIVE, Move.TWIST_NEGATIVE
    )


def run_fresh(code, stdin=b"", flags=()):
    """Run code in a fresh interpreter that imports tanglegcd from this checkout."""
    env = dict(os.environ)
    src = str(Path(tanglegcd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", code], input=stdin, env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    proc = run_fresh("import sys, tanglegcd.cli; "
                     "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    assert proc.stdout.decode().strip() == "[]"


LAYERS = {"tanglegcd.enumeration", "tanglegcd.euclid", "tanglegcd.rationals", "tanglegcd.tangles"}


# argparse, and gettext and locale with it: no call loads them, an error or help included.
PARSER_MODULES = {"argparse", "gettext", "locale"}
TRACE_COMMANDS, TANGLE_COMMANDS = "tanglegcd._trace_commands", "tanglegcd._tangle_commands"


def modules_loaded_by(code):
    """The modules of interest a fresh interpreter holds after running code."""
    proc = run_fresh(f"{code}\nimport sys\nprint(*sys.modules, file=sys.stderr)")
    watched = {"json", "decimal", *LAYERS, *PARSER_MODULES, TRACE_COMMANDS, TANGLE_COMMANDS}
    return watched & set(proc.stderr.decode().splitlines()[-1].split())


def main_call(*argv):
    return f"from tanglegcd.cli import main\nmain({list(argv)!r})"


# Each cold call loads only its subcommand's handler module and the layers it
# runs, no argparse, no json (every payload is written from bools, ints and
# plain ASCII strings, the rows of `steps` included), and decimal only to
# print integers past SHADOW_BITS bits.
@pytest.mark.parametrize("code,loaded", [
    ("import tanglegcd", set()),
    ("import tanglegcd.cli", set()),
    (main_call("verify", "8/5", "--moves", "-T,R,T,R,-T,R,T,T"),
     {TANGLE_COMMANDS, "tanglegcd.rationals", "tanglegcd.euclid", "tanglegcd.tangles"}),
    (main_call("untangle", "8/5"),
     {TANGLE_COMMANDS, "tanglegcd.rationals", "tanglegcd.euclid", "tanglegcd.tangles"}),
    (main_call("construct", "--moves", "T,R"),
     {TANGLE_COMMANDS, "tanglegcd.rationals", "tanglegcd.euclid", "tanglegcd.tangles"}),
    (main_call("gcd", "807", "673"), {TRACE_COMMANDS, "tanglegcd.euclid"}),
    (main_call("steps", "807", "673"), {TRACE_COMMANDS, "tanglegcd.euclid"}),
    (main_call("enumerate", "8", "5"),
     {TRACE_COMMANDS, "tanglegcd.euclid", "tanglegcd.enumeration"}),
])
def test_a_cold_call_loads_only_what_its_subcommand_runs(code, loaded):
    assert modules_loaded_by(code) == loaded
    if code.startswith("from tanglegcd.cli"):
        json_call = code.replace("main([", "main(['--json', ")
        assert modules_loaded_by(json_call) == loaded


def test_help_loads_no_argument_parser():
    for argv in (["--help"], ["verify", "--help"]):
        code = ("from tanglegcd.cli import main\n"
                f"try:\n    main({argv!r})\nexcept SystemExit as exc:\n    assert exc.code == 0")
        assert modules_loaded_by(code) == set()


def test_the_benchmark_bigint_cold_call_prints_its_rows_through_decimal(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    argv = importlib.import_module("workloads").WORKLOADS["bigint"].cold_argv
    assert modules_loaded_by(main_call(*argv)) == {TRACE_COMMANDS, "tanglegcd.euclid", "decimal"}


def test_cold_calls_load_neither_re_nor_typing_where_start_up_does_not():
    # Under -S no site module runs, so start-up itself loads neither; the
    # token readers read plain numbers and fractions without `re`.
    calls = [["gcd", "807", "673"], ["steps", "807", "673"], ["enumerate", "8", "5"],
             ["untangle", "-8/5"], ["construct", "--moves", "T,R"],
             ["verify", "inf", "--moves", "-T,R,T,R,-T,R,T,T"]]
    for argv in calls:
        for call in [argv, ["--json", *argv]]:
            code = f"import sys\n{main_call(*call)}\n"
            proc = run_fresh(code + "print(sorted({'re', 'typing'} & sys.modules.keys()), "
                             "file=sys.stderr)", flags=["-S"])
            assert proc.stderr.decode().split() == ["[]"], call


def test_a_cli_run_as_a_module_is_not_imported_again_by_its_handler_module():
    # `python -m tanglegcd.cli` runs cli as __main__, and the handler modules
    # import cli by name; -X importtime lists every module imported by name,
    # the handler module among them.
    env = dict(os.environ)
    src = str(Path(tanglegcd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv, handler_module in ((["untangle", "8/5", "--json"], TANGLE_COMMANDS),
                           (["gcd", "807", "673"], TRACE_COMMANDS)):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "tanglegcd.cli", *argv],
                              env=env, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.decode().splitlines()]
        assert "tanglegcd.euclid" in imported
        assert handler_module in imported
        assert "tanglegcd.cli" not in imported


X0_45 = "123456789012345678901234567890123456789012345"


# The messages of these errors quote an argument by `rationals.excerpt`, which
# a cold `gcd` or `enumerate` first imports in the error branch; pytest's own
# process already holds `rationals`, so they run in a fresh interpreter.
# Neither loads argparse.
@pytest.mark.parametrize("argv,message,argparse_loaded", [
    (["gcd", "12x", "3"], "error: argument a: not an integer: '12x'\n", False),
    (["enumerate", X0_45, "3"],
     f"error: x0 = {X0_45[:40]!r}... (45 characters) exceeds the enumeration bound 10000; ",
     False),
])
def test_an_error_branch_imports_what_its_message_needs(argv, message, argparse_loaded):
    proc = run_fresh(
        "import sys\n"
        "from tanglegcd.cli import main\n"
        "assert 'tanglegcd.rationals' not in sys.modules\n"
        "try:\n"
        f"    code = main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(code, 'tanglegcd.rationals' in sys.modules, 'argparse' in sys.modules)\n"
    )
    assert proc.stdout.decode().split() == ["2", "True", str(argparse_loaded)]
    assert message in proc.stderr.decode()


def test_pickles_load_after_importing_only_the_package():
    pickles = [LAR_8_5_PICKLE, MINUS_8_5_PICKLE, *(data for data, _ in DICT_STATE_PICKLES.values())]
    expected = [run_lar(8, 5), normalize(-8, 5), *(value for _, value in DICT_STATE_PICKLES.values())]
    proc = run_fresh(
        "import io, pickle, sys, tanglegcd\n"
        "assert [m for m in sys.modules if m.startswith('tanglegcd.')] == []\n"
        "stream = io.BytesIO(sys.stdin.buffer.read())\n"
        f"for _ in range({len(pickles)}):\n"
        "    print(repr(pickle.load(stream)))\n",
        stdin=b"".join(pickles),
    )
    assert proc.stdout.decode().splitlines() == [repr(value) for value in expected]
