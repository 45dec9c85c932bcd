#!/usr/bin/env python3
"""Count the non-blank lines of each package module: code, then docs.

The source size that ROADMAP.md's aim 2 tracks.  A line counts as code if it
holds any token that is not a comment or a docstring, else as docs if it
holds a comment or a docstring; a line holding both counts as code, and a
docstring is a string statement.  The last row totals both columns over
`src/tanglegcd`.  Runs from any directory:

    python3 scripts/source_lines.py
"""

import glob
import tokenize as t
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = (t.NL, t.NEWLINE, t.INDENT, t.DEDENT, t.ENDMARKER)


def line_counts(text):
    """(code, docs): the non-blank lines of a module's source text."""
    blank = {row for row, line in enumerate(text.splitlines(), 1) if not line.strip()}
    code, docs, last = set(), set(), t.NEWLINE
    for tok in t.generate_tokens(iter(text.splitlines(keepends=True)).__next__):
        rows = set(range(tok.start[0], tok.end[0] + 1))
        if tok.type == t.COMMENT or tok.type == t.STRING and last in (t.NEWLINE, t.INDENT, t.DEDENT):
            docs |= rows
        elif tok.type not in SKIPPED:
            code |= rows
        if tok.type not in (t.NL, t.COMMENT):
            last = tok.type
    return len(code - blank), len(docs - code - blank)


def main():
    print(" code  docs module")
    totals = [0, 0]
    for path in sorted(glob.glob("src/tanglegcd/*.py", root_dir=ROOT)):
        counts = line_counts((ROOT / path).read_text(encoding="utf-8"))
        totals = [total + n for total, n in zip(totals, counts)]
        print(f"{counts[0]:5d} {counts[1]:5d} {path}")
    print(f"{totals[0]:5d} {totals[1]:5d} total")


if __name__ == "__main__":
    main()
