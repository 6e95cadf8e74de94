"""Count the code, docstring, comment and blank lines of src/plapmem.

    python3 tools/src_lines.py
    python3 tools/src_lines.py path/to/package

Every line of a module falls in exactly one category, so the four add up
to `wc -l`. A docstring line is any line from the first to the last line
of a module, class or function docstring, blank ones included. Of the
others, a blank line holds only whitespace, a comment line only a comment,
and every other line is code: a line of code that ends in a comment counts
as code, and so does each line of a string that is not a docstring.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATEGORIES = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers (1-based) covered by a docstring of the module or of any
    class or function in it."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_lines(source: str) -> dict:
    """{category: number of lines} of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code = set()        # lines that hold a token other than a comment
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                            tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(CATEGORIES, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        if number in docs:
            counts["docstring"] += 1
        elif not line.strip():
            counts["blank"] += 1
        elif number in code:
            counts["code"] += 1
        else:
            counts["comment"] += 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", default=str(ROOT / "src" / "plapmem"),
                        help="directory whose *.py files are counted "
                             "(default: src/plapmem)")
    args = parser.parse_args(argv)
    paths = sorted(Path(args.package).glob("*.py"))
    if not paths:
        print(f"no *.py files in {args.package}", file=sys.stderr)
        return 2

    def row(label, cells):
        print(f"{label:<16}" + "".join(f"{cell:>10}" for cell in cells))

    row("module", CATEGORIES + ("lines",))
    total = dict.fromkeys(CATEGORIES, 0)
    for path in paths:
        counts = count_lines(path.read_text(encoding="utf-8"))
        for name in CATEGORIES:
            total[name] += counts[name]
        row(path.name, [*counts.values(), sum(counts.values())])
    row("total", [*total.values(), sum(total.values())])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
