"""tests/src_size.py counts code lines as tokenize reads them."""

from src_size import count_lines, size_delta

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


def test_size_delta_counts_added_removed_and_changed_files():
    before = {"src/kept.py": "x = 1\n", "src/gone.py": "import os\n\n\ny = 2\n", "src/grown.py": "def f():\n    return 1\n"}
    after = {"src/kept.py": "x = 1\n", "src/new.py": SNIPPET, "src/grown.py": "def f():\n    # why\n    z = 2\n    return z\n"}
    assert size_delta(before, after) == {
        "src/gone.py": (-4, -2),
        "src/grown.py": (2, 1),
        "src/kept.py": (0, 0),
        "src/new.py": (15, 6),
    }
