"""Print the code lines of each ``src/sinefit`` module and their total.

A code line is a source line that holds part of a statement.  Blank
lines, comment lines and docstrings (a string that is a whole statement
on its own) count 0; a statement that spans several lines counts each
line it spans, so a multi-line string inside code counts every one of
its lines.  Run it from anywhere:

    python scripts/code_lines.py [DIRECTORY]

DIRECTORY defaults to the repository's ``src/sinefit``.
"""

import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# tokens that mark where statements and blocks start and end, never code
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
           tokenize.ENDMARKER}


def code_lines(path):
    """The number of code lines in the Python file at ``path``."""
    with open(path, "rb") as handle:
        tokens = [t for t in tokenize.tokenize(handle.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    rows = set()
    for i, token in enumerate(tokens):
        if token.type not in _LAYOUT and not _is_docstring(tokens, i):
            rows.update(range(token.start[0], token.end[0] + 1))
    return len(rows)


def _is_docstring(tokens, i):
    """Whether tokens[i] is a string that makes up a whole statement."""
    return (tokens[i].type == tokenize.STRING
            and tokens[i - 1].type in _LAYOUT and tokens[i + 1].type in _LAYOUT)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    directory = argv[0] if argv else os.path.join(ROOT, "src", "sinefit")
    total = 0
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            count = code_lines(os.path.join(directory, name))
            total += count
            print(f"{name} {count}")
    print(f"total {total}")


if __name__ == "__main__":
    main()
