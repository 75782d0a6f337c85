"""Count the physical and code lines of the Python files under src/.

A code line holds a token of a statement that is not a docstring: blank
lines, comment-only lines and the lines of a string that stands alone as
a statement (a module, class or function docstring, or any other bare
string) are not code. The count comes from the tokenize module, so a
`#` inside a string or a line continued in brackets counts as it should.

Run from the repository root:

    python tests/src_size.py          # the totals over src/
    python tests/src_size.py -v       # and each file's counts
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

# Tokens that carry no code: layout, comments and the file's bookends.
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def count_lines(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of Python source text."""
    code: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type == tokenize.NEWLINE or tok.type == tokenize.ENDMARKER:
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):  # a bare string is a docstring
                for t in statement:
                    code.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(text.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent / "src"
    physical = code = 0
    for path in sorted(root.rglob("*.py")):
        p, c = count_lines(path.read_text(encoding="utf-8"))
        physical, code = physical + p, code + c
        if "-v" in argv:
            print(f"{p:6d} {c:6d}  {path.relative_to(root.parent)}")
    print(f"src/: {physical} physical lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
