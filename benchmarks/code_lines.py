"""Code lines, branches and inline tolerances of jacobilab, per module and in total.

Usage (from the repository root):

    python3 benchmarks/code_lines.py
    python3 benchmarks/code_lines.py --src OTHER_CHECKOUT/src

Counts the lines of ``DIR/jacobilab/*.py`` that carry at least one token of
code.  Docstrings (the string statements that ``ast.get_docstring`` reads:
the first statement of a module, class or function), comments and blank
lines do not count.  A branch is each ``if``, ``elif``, conditional
expression, ``while`` and ``for`` (also inside a comprehension), each
comprehension ``if``, each ``except`` handler, and each operand of ``and`` or
``or`` beyond the first.  An inline tolerance is each float literal of the
code (not of a docstring or a comment) with 0 < |x| <= 1e-6, such as the
``1e-12`` of ``abs(x) <= 1e-12``; a named module constant counts once, where
it is defined.  Prints one ``module lines branches tolerances`` row per file
in name order, then ``total lines branches tolerances``.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module and of every
    class and function in it."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines holding a code token outside every docstring."""
    docs = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(lines)


def branches(source: str) -> int:
    """Number of branch points of ``source``, as the module docstring counts them."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.If, ast.IfExp, ast.While, ast.For, ast.ExceptHandler)):
            count += 1
        elif isinstance(node, ast.comprehension):
            count += 1 + len(node.ifs)
        elif isinstance(node, ast.BoolOp):
            count += len(node.values) - 1
    return count


def tolerance_literals(source: str) -> int:
    """Number of float literals of ``source`` with 0 < |x| <= 1e-6."""
    return sum(isinstance(node, ast.Constant) and type(node.value) is float
               and 0.0 < abs(node.value) <= 1e-6 for node in ast.walk(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the jacobilab package to count")
    args = parser.parse_args(argv)
    totals = [0, 0, 0]
    for path in sorted((args.src / "jacobilab").glob("*.py")):
        source = path.read_text()
        counts = (code_lines(source), branches(source), tolerance_literals(source))
        totals = [t + c for t, c in zip(totals, counts)]
        print(path.name, *counts)
    print("total", *totals)
    return 0


if __name__ == "__main__":
    sys.exit(main())
