"""Command-line front-end: traces, step accounting, enumeration, tangle plans.

Each subcommand renders plain text by default or a single JSON object with
`--json` (accepted before or after the subcommand).  A handler computes the
JSON payload and defers its text lines, so text is formatted only in text
mode.  Exit status is 0 only when the command completed and any verification
passed.

Long outputs are streamed, byte for byte as one `json.dumps` or one joined
text would print them, so memory stays flat in the number of moves, of
traces and of divisions: a handler returns a long field or line as an
iterator over its pieces, and `main` writes them as they come.

One table, `_SUBCOMMANDS`, names each subcommand's arguments, types,
defaults and choices, and its handler's module.  `_plain_args` reads a
well-formed command line from it exactly as argparse would; `build_parser`
builds argparse from it, and `main` builds that only for a command line the
reader leaves to it: an error, help, or a form such as `--method=lar`.

A cold call loads, and without a bytecode cache compiles, only what its
subcommand runs.  This module imports no layer of the package, not
argparse, which loads only to report an error or print help, and not `re`,
which loads only to read an argument other than a plain number, fraction
or `inf`.  The handlers
live in `_trace_commands` (`gcd`, `steps`, `enumerate`) and
`_tangle_commands` (`untangle`, `construct`, `verify`), and a command line
imports its own; each handler, and each helper that words an error or a
notice, imports the layer functions it calls.  So `gcd` and `steps` load
`euclid` alone, `enumerate` `euclid` and `enumeration`, and `untangle`,
`construct` and `verify` `rationals`, `euclid` and `tangles`.  JSON is
written by `_json_text`, which renders bools, ints and plain ASCII strings
itself and imports `json` only for any other value; no payload holds one,
and a list such as the rows of `steps` is streamed as pieces built from
those scalar cases, so no cold call loads `json`.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from importlib import import_module
from types import SimpleNamespace

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse

# Each --method by the value of its euclid.Variant, in the row order of
# `steps`; a handler builds the Variant, so parsing imports no layer.
_METHODS = {
    "regular": "Regular",
    "lar": "LeastAbsolute",
    "negative": "Negative",
}


# A handler returns its JSON payload, a zero-argument function producing the
# text-mode lines (called only without --json) and the exit code.  A long
# payload field is an iterator over the pieces of its JSON text, and a long
# text line an iterator over the pieces of the line; `main` writes the
# pieces as they come.  A text "line" may also be a block of lines.
Result = tuple[dict, Callable[[], Iterable[str | Iterator[str]]], int]


_JSON_BOOLS = ("false", "true")


def _json_text(value: object) -> str:
    """json.dumps(value); a payload's bools, ints and plain ASCII strings without `json`.

    json.dumps writes an exact bool as false / true, an exact int as its
    str(), and a str of printable ASCII without a quote or backslash as
    itself in quotes; anything else, such as an enum member, goes to it.
    """
    kind = type(value)
    if kind is bool:
        return _JSON_BOOLS[value]
    if kind is int:
        return str(value)
    if (kind is str and value.isascii() and value.isprintable()
            and '"' not in value and "\\" not in value):
        return f'"{value}"'
    import json

    return json.dumps(value)


def _json_pieces(payload: dict) -> Iterator[str]:
    """json.dumps(payload) and a newline, in pieces; a long field's as they come."""
    separator = "{"
    for key, value in payload.items():
        yield f"{separator}{_json_text(key)}: "
        yield from value if isinstance(value, Iterator) else (_json_text(value),)
        separator = ", "
    yield "}\n"


def _text_pieces(lines: Iterable[str | Iterator[str]]) -> Iterator[str]:
    """The lines, each ending in a newline, in pieces; a long line's as they come."""
    for line in lines:
        if isinstance(line, str):
            yield line + "\n"
        else:
            yield from line
            yield "\n"


def _type_error(message: str) -> Exception:
    """argparse's error for a refused value; argparse loads only to report one."""
    import argparse

    return argparse.ArgumentTypeError(message)


def _digits_within_limit(text: str) -> str:
    """Refuse a number over the int/str limit by its digit count, without echoing it.

    int() reads single underscores between digits, so a number is a digit run
    with such underscores, and only its digits count.  The plain forms, an
    optional "-", digits and an optional "/digits", or "inf", are read with
    `str.isdecimal` (Unicode's Nd digits, as \\d matches); `re` loads only
    to read any other text.
    """
    limit = sys.get_int_max_str_digits()
    num, slash, den = text.removeprefix("-").partition("/")
    if num.isdecimal() and (den.isdecimal() or not slash):
        longest = max(len(num), len(den))
    elif text == "inf":
        longest = 0
    else:
        import re

        longest = max((len(run) - run.count("_") for run in re.findall(r"\d+(?:_\d+)*", text)),
                      default=0)
    if 0 < limit < longest:
        raise _type_error(f"{longest} digits, limit {limit}")
    return text


def _shown(value: int) -> str:
    """An integer for a message: whole up to EXCERPT_CHARS characters, else an excerpt."""
    from .rationals import EXCERPT_CHARS, excerpt

    text = str(value)
    return text if len(text) <= EXCERPT_CHARS else excerpt(text)


def _positive_int(text: str) -> int:
    try:
        value = int(_digits_within_limit(text))
    except ValueError:
        from .rationals import excerpt

        raise _type_error(f"not an integer: {excerpt(text)}") from None
    if value < 1:
        raise _type_error(f"must be a positive integer, got {_shown(value)}")
    return value


# Each subcommand: its help; its positionals, each (name, type function,
# help); its options, each flag -> (default, type function or list of
# choices, help), where no default makes the option required; and whether it
# reads a token that starts with a single "-", such as the fraction -8/5 or
# the moves in `--moves -T,R`, as a value; and the module of its handler,
# the function cmd_<name>, which `main` imports only to run it.
_PAIR = (("a", _positive_int, None), ("b", _positive_int, None))
_FRACTION = (("fraction", _digits_within_limit, "p/q, p, or inf; may be negative"),)
_MOVES = (None, str, "comma-separated tokens from T, -T, R")
_SUBCOMMANDS = {
    "gcd": ("run one variant and show its trace", _PAIR,
            {"--method": ("regular", sorted(_METHODS), None)}, False, "_trace_commands"),
    "steps": ("compare step counts across variants", _PAIR, {}, False, "_trace_commands"),
    "enumerate": ("list every possible algorithm", _PAIR,
                  {"--limit": (10_000, _positive_int,
                               "enumeration input ceiling (default %(default)s)")},
                  False, "_trace_commands"),
    "untangle": ("plan moves driving a tangle number to 0", _FRACTION,
                 {"--method": ("lar", sorted(_METHODS), None)}, True, "_tangle_commands"),
    "construct": ("fold a move sequence from 0", (), {"--moves": _MOVES}, True,
                  "_tangle_commands"),
    "verify": ("replay moves from a value, expect 0", _FRACTION, {"--moves": _MOVES}, True,
               "_tangle_commands"),
}


def _handler(name: str) -> Callable[[argparse.Namespace], Result]:
    """The handler of a subcommand, from its module, imported now if not before."""
    return getattr(import_module(f".{_SUBCOMMANDS[name][4]}", __package__), f"cmd_{name}")


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of _SUBCOMMANDS; `main` builds it only to report an error or help."""
    import argparse
    import re

    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps the subparser from clobbering a --json given before the
    # subcommand with its own False default.
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="emit a single JSON object",
    )

    parser = argparse.ArgumentParser(
        prog="tanglegcd",
        description="Euclidean algorithm variants, step minimality, and tangle untangling",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, positionals, options, dashed, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=summary)
        if dashed:
            # argparse reads a token that matches a parser's (private)
            # negative-number matcher as a value, not an option.
            p._negative_number_matcher = re.compile(r"^-[^-]")
        for dest, kind, text in positionals:
            p.add_argument(dest, type=kind, help=text)
        for flag, (default, check, text) in options.items():
            kind = {"type": check} if callable(check) else {"choices": check}
            p.add_argument(flag, default=default, required=default is None, help=text, **kind)
    return parser


def _plain(token: str, dashed: bool) -> bool:
    """Whether argparse reads token as a value, not as an option or help.

    It does for a token that does not start with "-".  Where the subcommand
    reads dashed values, it also does for "-" and a character other than "-"
    and "h" (`-hX` asks for help); a token holding "=" is left to argparse,
    since newer versions split it there to look for an option.
    """
    return token[:1] != "-" or dashed and token[1:2] not in ("", "-", "h") and "=" not in token


def _plain_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """argv as build_parser().parse_args reads it, if it is plainly well formed; else None.

    Reads any `--json`s, an exact subcommand name, then exact `--json`s,
    exact options of that subcommand each followed by its value, and its
    positionals.  Anything else gives None, and so does a wrong number of
    positionals, a missing required option, or a value that its type
    function or choices refuse: argparse then reads argv again and reports
    the error, or prints help.
    """
    args = SimpleNamespace()
    tokens = iter(argv)
    for name in tokens:
        if name != "--json":
            break
        args.json = True
    else:
        return None
    if name not in _SUBCOMMANDS:
        return None
    _, positionals, options, dashed, _ = _SUBCOMMANDS[name]
    values, given = [], {}
    try:
        for token in tokens:
            if token == "--json":
                args.json = True
            elif token in options:
                # argparse checks each value given, the last one counts.  A
                # missing value reads as "-", which is refused.
                value, check = next(tokens, "-"), options[token][1]
                if not _plain(value, dashed) or not callable(check) and value not in check:
                    return None
                given[token] = check(value) if callable(check) else value
            elif _plain(token, dashed):
                values.append(token)
            else:
                return None
        if len(values) != len(positionals):
            return None
        for (dest, kind, _), value in zip(positionals, values):
            setattr(args, dest, kind(value))
    except Exception:
        # A type function refused a value: argparse reads argv again and
        # reports it, or raises what it does not catch itself.
        return None
    for flag, (default, _, _) in options.items():
        value = given.get(flag, default)
        if value is None:  # a required option missing
            return None
        setattr(args, flag[2:], value)
    args.command = name
    return args


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or build_parser().parse_args(argv)
    # The parser capped every input digit run at the int/str limit; values
    # computed from the inputs can be far longer and always print in full.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        payload, text, code = _handler(args.command)(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    else:
        # The pieces are written while the digit limit is still lifted.
        pieces = _json_pieces(payload) if getattr(args, "json", False) else _text_pieces(text())
        for piece in pieces:
            print(piece, end="")
        return code
    finally:
        sys.set_int_max_str_digits(limit)


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (as `| head` does).  Point stdout
        # at devnull so the interpreter's exit-time flush stays quiet too; see
        # "Note on SIGPIPE" in the documentation of the `signal` module.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    # Run as `python -m tanglegcd.cli`, this module is __main__; the handler
    # modules import it by name, which must not run it a second time.
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    run()
