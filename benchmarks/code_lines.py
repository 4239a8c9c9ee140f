"""Count the code lines of Python source files.

A physical line counts when it holds a token other than a comment, a
line break (NL, NEWLINE) or an indentation change (INDENT, DEDENT),
and is not part of a docstring.  A docstring is a string statement
alone on its logical line: every line of such a statement is left out,
wherever it stands, while a string that is assigned, passed or
returned counts on every line it spans.  Blank lines and comment lines
never count.  Standard library only.  Usage, from the repository root:

    python3 benchmarks/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for .py files (default
``src``); one line per file, ``<lines> <path>`` with paths inside the
repository shown from its root, then ``<total> total``.
"""

import argparse
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(text):
    """Number of code lines in the Python source text."""
    lines = set()
    statement = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def sources(paths):
    for path in paths:
        path = Path(path)
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def shown(path):
    path = path.resolve()
    return path.relative_to(ROOT) if path.is_relative_to(ROOT) else path


def main(argv=None):
    parser = argparse.ArgumentParser(description="count code lines of .py files")
    parser.add_argument("paths", nargs="*", default=[str(ROOT / "src")])
    args = parser.parse_args(argv)
    total = 0
    for path in sources(args.paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {shown(path)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
