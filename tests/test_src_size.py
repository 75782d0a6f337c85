"""tests/src_size.py counts code lines as tokenize reads them."""

from src_size import count_lines

SNIPPET = '''"""Module docstring,
two lines."""

# a comment line
import os  # a trailing comment

TEXT = """a string that is assigned
is code on every line"""


def f(x):
    """Docstring."""
    "a bare string is no code either"
    return [x,
            "# not a comment"]
'''


def test_counts_physical_and_code_lines():
    # code: import, both TEXT lines, def, both lines of the return
    assert count_lines(SNIPPET) == (15, 6)


def test_empty_and_comment_only_sources_hold_no_code():
    assert count_lines("") == (0, 0)
    assert count_lines("# only\n\n") == (2, 0)
