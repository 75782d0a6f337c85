"""Count the physical and code lines of the Python files under src/.

A code line holds a token of a statement that is not a docstring: blank
lines, comment-only lines and the lines of a string that stands alone as
a statement (a module, class or function docstring, or any other bare
string) are not code. The count comes from the tokenize module, so a
`#` inside a string or a line continued in brackets counts as it should.

Run from the repository root:

    python tests/src_size.py                   # the totals over src/
    python tests/src_size.py -v                # and each file's counts
    python tests/src_size.py --against HEAD~1  # and the change since a revision

--against reads the revision's src/ files with `git show`, without a
checkout, and prints its totals, the working tree's and their
difference; with -v, each file's too.
"""

from __future__ import annotations

import argparse
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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


def size_delta(before: dict[str, str], after: dict[str, str]) -> dict[str, tuple[int, int]]:
    """Per file of either map (path -> source text), its (physical, code)
    lines in `after` minus those in `before`; a file one map lacks counts
    as empty there."""
    delta = {}
    for path in sorted(before.keys() | after.keys()):
        old, new = count_lines(before.get(path, "")), count_lines(after.get(path, ""))
        delta[path] = (new[0] - old[0], new[1] - old[1])
    return delta


def working_files() -> dict[str, str]:
    """The working tree's src/ Python files, by path from the repository root."""
    return {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8") for path in sorted((ROOT / "src").rglob("*.py"))}


def revision_files(rev: str) -> dict[str, str]:
    """The src/ Python files of git revision `rev`, read without a checkout."""

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, encoding="utf-8").stdout

    names = git("ls-tree", "-r", "--name-only", rev, "--", "src").splitlines()
    return {name: git("show", f"{rev}:{name}") for name in names if name.endswith(".py")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the physical and code lines of src/.")
    parser.add_argument("-v", action="store_true", help="print each file's counts")
    parser.add_argument("--against", metavar="REV", help="also print the change since git revision REV")
    args = parser.parse_args(argv)
    after, delta = working_files(), {}
    if args.against is not None:
        try:
            delta = size_delta(revision_files(args.against), after)
        except subprocess.CalledProcessError as err:
            print(f"src_size: {' '.join(err.cmd)}: {err.stderr.strip()}", file=sys.stderr)
            return 2
    physical = code = 0
    for path in sorted(after.keys() | delta.keys()):
        p, c = count_lines(after.get(path, ""))
        physical, code = physical + p, code + c
        if args.v:
            change = f"  {delta[path][0]:+6d} {delta[path][1]:+6d}" if path in delta else ""
            print(f"{p:6d} {c:6d}{change}  {path}")
    if args.against is not None:
        grown, grown_code = (sum(d[i] for d in delta.values()) for i in (0, 1))
        print(f"src/ at {args.against}: {physical - grown} physical lines, {code - grown_code} code lines")
    print(f"src/: {physical} physical lines, {code} code lines")
    if args.against is not None:
        print(f"src/ change: {grown:+d} physical lines, {grown_code:+d} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
