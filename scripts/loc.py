#!/usr/bin/env python3
"""Line counts of the library: physical lines and code-only lines per file.

A code-only line holds at least one token that is not a comment and not
part of a docstring; blank lines never count. A docstring is a statement
made of string literals alone (the first statement of a module, class or
function, or any other bare string statement). Uses the standard library's
``tokenize`` only.

    python scripts/loc.py                 # src/lstrader/*.py
    python scripts/loc.py path/to/a.py ...
"""

import argparse
import glob
import os
import tokenize

_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
           tokenize.ENCODING, tokenize.COMMENT}


def code_lines(path: str) -> set[int]:
    """Numbers of the lines of a Python file that hold code."""
    lines: set[int] = set()
    statement = []  # the significant tokens of the logical line being read
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NEWLINE or tok.type == tokenize.ENDMARKER:
                if not all(t.type == tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in _LAYOUT:
                statement.append(tok)
    return lines


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", help="Python files (default: src/lstrader/*.py)")
    args = parser.parse_args()
    paths = args.paths or sorted(glob.glob(os.path.join(root, "src", "lstrader", "*.py")))
    width = max(len(os.path.relpath(p, root)) for p in paths)
    print(f"{'file':<{width}}  {'lines':>6}  {'code':>6}")
    total_lines = total_code = 0
    for path in paths:
        with open(path, "rb") as fh:
            physical = len(fh.read().splitlines())
        code = len(code_lines(path))
        total_lines += physical
        total_code += code
        print(f"{os.path.relpath(path, root):<{width}}  {physical:>6}  {code:>6}")
    print(f"{'total':<{width}}  {total_lines:>6}  {total_code:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
