"""Command-line front-end: traces, step accounting, enumeration, tangle plans.

Each subcommand renders plain text by default or a single JSON object with
`--json` (accepted before or after the subcommand).  A handler builds only
the form asked for: it builds each row or value stream once, and `--json`
picks the stream's row formatter or delimiters, so no text is formatted in
JSON mode and no JSON in text mode.  Exit status is 0 only when the command
completed and any verification passed.

Long outputs are streamed, byte for byte as one `json.dumps` or one joined
text would print them, so memory stays flat in the number of moves, of
traces and of divisions: a handler returns a long field or line as an
iterator over its pieces, and `main` writes them as they come.

One table, `_SUBCOMMANDS`, names each subcommand's arguments, types,
defaults and choices, and its handler's module, and one reader,
`build_parser().parse_args`, reads every command line from it.  It takes
exact words only: `--json`, `-h` / `--help`, the subcommand's name and its
options, given as `--opt value` or `--opt=value`; every other token is a
value, so -8/5 and -T,R need no quoting.  A prefix such as `--meth`, a bare
`--` and `-hX` are read as values too, and no argument accepts one.
An error prints a usage line and `tanglegcd <cmd>: error: <message>` to
stderr, the message naming the argument at fault as `argument <name>: ...`
where there is one, and exits 2; help prints to stdout and exits 0.

A cold call loads, and without a bytecode cache compiles, only what its
subcommand runs.  This module imports no layer of the package, no
argument-parsing library, not even for an error or help, and not `re`,
which loads only to read an argument other than a plain number, fraction
or `inf`.  The handlers live in `_trace_commands` (`gcd`, `steps`,
`enumerate`) and `_tangle_commands` (`untangle`, `construct`, `verify`).
A command line imports its own, which imports its family's layers once:
`euclid` for the first three, and `enumeration` only in `enumerate`;
`tangles`, and with it `rationals` and `euclid`, for the other three.  A
helper here that words an error or a notice imports `rationals` only then.
JSON is written by `_json_text`, which renders bools, ints and plain ASCII
strings itself and imports `json` only for any other value; no payload holds
one, and a list such as the rows of `steps` is streamed as pieces built from
those scalar cases, so no cold call loads `json`.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from types import SimpleNamespace

# Each --method by the value of its euclid.Variant, in the row order of
# `steps`; a handler builds the Variant, so parsing imports no layer.
_METHODS = {
    "regular": "Regular",
    "lar": "LeastAbsolute",
    "negative": "Negative",
}


# A handler returns its output and the exit code: with --json the JSON
# payload, otherwise the text lines.  A long payload field is an iterator
# over the pieces of its JSON text, and a long text line an iterator over the
# pieces of the line; `main` writes the pieces as they come.  A text "line"
# may also be a block of lines.
Result = tuple[dict | Iterable[str | Iterator[str]], int]


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
        raise ValueError(f"{longest} digits, limit {limit}")
    return text


def _shown(value: int) -> str:
    """An integer for a message: whole up to EXCERPT_CHARS characters, else an excerpt."""
    from .rationals import EXCERPT_CHARS, excerpt

    text = str(value)
    return text if len(text) <= EXCERPT_CHARS else excerpt(text)


def _positive_int(text: str) -> int:
    _digits_within_limit(text)
    try:
        value = int(text)
    except ValueError:
        from .rationals import excerpt

        raise ValueError(f"not an integer: {excerpt(text)}") from None
    if value < 1:
        raise ValueError(f"must be a positive integer, got {_shown(value)}")
    return value


def _method(text: str) -> str:
    if text not in _METHODS:
        raise ValueError(f"invalid choice: {text!r} (choose from 'lar', 'negative', 'regular')")
    return text


# Each subcommand: its help; its positionals, each (name, type function,
# help); its options, each flag -> (default, type function, help), where no
# default makes the option required; and the module of its handler, the
# function cmd_<name>, which `main` imports only to run it.  A type function
# refuses a value by raising ValueError.
_PAIR = (("a", _positive_int, "a positive integer"), ("b", _positive_int, "a positive integer"))
_FRACTION = (("fraction", _digits_within_limit, "p/q, p, or inf; may be negative"),)
_MOVES = {"--moves": (None, str, "comma-separated tokens from T, -T, R")}
_SUBCOMMANDS = {
    "gcd": ("run one variant and show its trace", _PAIR,
            {"--method": ("regular", _method, "lar, negative or regular")}, "_trace_commands"),
    "steps": ("compare step counts across variants", _PAIR, {}, "_trace_commands"),
    "enumerate": ("list every possible algorithm", _PAIR,
                  {"--limit": (10_000, _positive_int, "enumeration input ceiling")},
                  "_trace_commands"),
    "untangle": ("plan moves driving a tangle number to 0", _FRACTION,
                 {"--method": ("lar", _method, "lar, negative or regular")}, "_tangle_commands"),
    "construct": ("fold a move sequence from 0", (), _MOVES, "_tangle_commands"),
    "verify": ("replay moves from a value, expect 0", _FRACTION, _MOVES, "_tangle_commands"),
}
_HELP = ("-h", "--help")


def _handler(name: str) -> Callable[[SimpleNamespace], Result]:
    """The handler of a subcommand, from its module, imported now if not before."""
    # __import__ takes the import path that `-X importtime` reports, and with
    # a fromlist returns the module itself.
    module = __import__(f"{__package__}.{_SUBCOMMANDS[name][3]}", fromlist=["_"])
    return getattr(module, f"cmd_{name}")


def _usage(name: str | None) -> str:
    """The usage line of a subcommand, or of the program where name is None."""
    if name is None:
        return f"usage: tanglegcd [-h] [--json] {{{','.join(_SUBCOMMANDS)}}} ..."
    _, positionals, options, _ = _SUBCOMMANDS[name]
    words = [f"{flag} {flag[2:].upper()}" if default is None else f"[{flag} {flag[2:].upper()}]"
             for flag, (default, _, _) in options.items()]
    return " ".join([f"usage: tanglegcd {name} [-h] [--json]", *words,
                     *(dest for dest, _, _ in positionals)])


def _error(name: str | None, message: str) -> SystemExit:
    """Write the usage line and the error to stderr; raise the result to exit 2."""
    prog = f"tanglegcd {name}" if name else "tanglegcd"
    print(_usage(name), f"{prog}: error: {message}", sep="\n", file=sys.stderr)
    return SystemExit(2)


def _help(name: str | None) -> SystemExit:
    """Write the help of a subcommand, or of the program, to stdout; raise the result to exit 0."""
    if name is None:
        summary = "Euclidean algorithm variants, step minimality, and tangle untangling"
        rows = [(command, entry[0]) for command, entry in _SUBCOMMANDS.items()]
    else:
        summary, positionals, options, _ = _SUBCOMMANDS[name]
        rows = [(dest, text) for dest, _, text in positionals]
        rows += [(f"{flag} {flag[2:].upper()}", f"{text} (default {default})" if default else text)
                 for flag, (default, _, text) in options.items()]
    rows += [("-h, --help", "show this help and exit"), ("--json", "emit a single JSON object")]
    print(_usage(name), "", summary, "", *(f"  {left:15}  {text}" for left, text in rows),
          sep="\n")
    return SystemExit(0)


def _value(name: str, argument: str, check: Callable[[str], object], text: str) -> object:
    """text read by an argument's type function; a refused value exits 2."""
    try:
        return check(text)
    except ValueError as exc:
        raise _error(name, f"argument {argument}: {exc}") from None


def _parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """argv read by _SUBCOMMANDS, left to right; an error exits 2, help exits 0.

    Before the subcommand come any `--json`s and help; after it, `--json`,
    help, the subcommand's options, each as `--opt value` or `--opt=value`,
    and its positionals, in any order.  Every other token is a value.  An
    option's value is the next token unless that is missing, starts with
    "--" or asks for help.  Each value is read as it comes.
    """
    args, name, extras = SimpleNamespace(json=False), None, []
    tokens = iter(argv)
    for token in tokens:
        flag, equals, value = token.partition("=")
        if token == "--json":
            args.json = True
        elif token in _HELP:
            raise _help(name)
        elif name is None:
            if token not in _SUBCOMMANDS:
                raise _error(None, f"argument command: invalid choice: {token!r} "
                                   f"(choose from {', '.join(map(repr, _SUBCOMMANDS))})")
            name, (_, positionals, options, _) = token, _SUBCOMMANDS[token]
            dests = iter(positionals)
            for option, (default, _, _) in options.items():
                setattr(args, option[2:], default)
        elif flag in options:
            if not equals:
                value = next(tokens, "--")  # a missing value reads as an option
                if value.startswith("--") or value in _HELP:
                    raise _error(name, f"argument {flag}: expected one argument")
            setattr(args, flag[2:], _value(name, flag, options[flag][1], value))
        elif (positional := next(dests, None)) is not None:
            setattr(args, positional[0], _value(name, *positional[:2], token))
        else:
            extras.append(token)
    if name is None:
        raise _error(None, "the following arguments are required: command")
    missing = [dest for dest, _, _ in dests] + [f for f in options if getattr(args, f[2:]) is None]
    if missing:
        raise _error(name, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _error(name, f"unrecognized arguments: {' '.join(extras)}")
    args.command = name
    return args


def build_parser() -> SimpleNamespace:
    """The command-line reader of _SUBCOMMANDS, called as build_parser().parse_args(argv)."""
    return SimpleNamespace(parse_args=_parse_args)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    # The parser capped every input digit run at the int/str limit; values
    # computed from the inputs can be far longer and always print in full.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        output, code = _handler(args.command)(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    else:
        # The pieces are written while the digit limit is still lifted.
        pieces = _json_pieces(output) if args.json else _text_pieces(output)
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
