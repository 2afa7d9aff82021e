"""Count code lines per module of a Python package.

A code line is a non-blank line that holds some token other than a comment
or a docstring (the string that opens a module, class or function body).
Lines that continue a multi-line expression count; blank lines, comment
lines and docstring lines do not.  Standard library only.

    python tools/code_lines.py [package_dir]          # default src/demlab
    python tools/code_lines.py --rev REV [package_dir]  # as committed at REV

Prints one line per module and the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    skip = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def _sources(package: Path, rev: str | None) -> dict[str, str]:
    if rev is None:
        return {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    names = subprocess.run(
        ["git", "ls-tree", "--name-only", rev, f"{package.as_posix()}/"],
        check=True, capture_output=True, text=True,
    ).stdout.split()
    return {
        Path(name).name: subprocess.run(
            ["git", "show", f"{rev}:{name}"], check=True, capture_output=True, text=True
        ).stdout
        for name in sorted(names)
        if name.endswith(".py")
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", default="src/demlab")
    parser.add_argument("--rev", help="count the files committed at this git revision")
    args = parser.parse_args(argv)
    sources = _sources(Path(args.package), args.rev)
    counts = {name: code_lines(text) for name, text in sources.items()}
    width = max(map(len, counts), default=0)
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
