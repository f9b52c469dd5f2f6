#!/usr/bin/env python3
"""Count the code lines of each module of ``src/cliffcalc``.

A code line is one that holds a token other than a comment and is not part
of a docstring, so blank lines, comment lines and docstrings are left out;
a statement over three lines counts three.  A docstring is a string
statement that opens a module, class or function body.  Prints one row per
module and the total.  Run from the repository root:

    python benchmarks/code_lines.py
    python benchmarks/code_lines.py path/to/package
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cliffcalc"

#: Tokens that hold no code of their own.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE)
    args = parser.parse_args()
    counts = {path.name: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(args.package.glob("*.py"))}
    print(f"{'module':<16}{'code lines':>11}")
    print("-" * 27)
    for name, count in counts.items():
        print(f"{name:<16}{count:>11}")
    print("-" * 27)
    print(f"{'total':<16}{sum(counts.values()):>11}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
