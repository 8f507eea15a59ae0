"""The code-line count of ``tools/code_lines.py``, on a small module."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

MODULE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


class Thing:
    """Class docstring."""

    NOTE = """a string that is
not a docstring"""

    def method(self):
        """Method docstring."""
        return (
            os.sep
        )


async def waiter():
    """Coroutine docstring,

    with a blank line inside."""
    "a string after the docstring"
'''

#: ``import os``, ``class Thing:``, the two lines of ``NOTE``, ``def method``,
#: the three lines of the return and its brackets, ``async def`` and the
#: string that follows the docstring.
MODULE_LINES = 10


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_comments_and_blank_lines_do_not_count(code_lines):
    assert code_lines.code_lines(MODULE) == MODULE_LINES
    assert code_lines.code_lines("") == 0


def test_each_module_and_the_total_are_printed(code_lines, tmp_path, capsys):
    (tmp_path / "b.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "a.py").write_text('"""Only a docstring."""\nX = 1\n', encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not a module\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"a.py 1\nb.py {MODULE_LINES}\ntotal {MODULE_LINES + 1}\n"
