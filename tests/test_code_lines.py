"""``tools/code_lines.py``: the counter behind the library's code-line figures.

A line counts when it holds code: not blank, not only a comment, and not
part of a docstring, the leading string of a module, class or function body.
"""

import importlib.util
import textwrap
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines_module = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines_module)


def count(text):
    return code_lines_module.code_lines(textwrap.dedent(text))


def test_docstrings_comments_and_blank_lines_do_not_count():
    text = '''
        """Module docstring,
        over two lines."""

        # a comment

        class C:
            """Class docstring."""

            def method(self):
                """Method
                docstring."""
                return 1  # a trailing comment does not add a line


        async def f():
            """Async docstring."""
            return 2
    '''
    assert count(text) == 5  # class, def, return, async def, return


def test_a_leading_string_in_a_block_is_code():
    # Only a module, class or function body has a docstring; the leading
    # string of an if, for, while, with or try body is an expression.
    text = '''
        def f(x):
            """doc"""
            if x:
                "s"
                return 1
            for i in x:
                """s"""
                return 2
    '''
    assert count(text) == 7
    blocks = '''
        while x:
            "s"
        with x:
            "s"
        try:
            "s"
        except E:
            "s"
        finally:
            "s"
    '''
    assert count(blocks) == 10


def test_each_line_of_a_multi_line_expression_counts():
    text = '''
        total = (1
                 + 2

                 + 3)
        call(a,
             b)
    '''
    assert count(text) == 5  # the blank line inside the parentheses does not count


@pytest.mark.parametrize("source, lines", [
    ('x = f"""a\n{1 +\n 2}\nb"""\n', 4),
    ('x = f"a{1}b" \\\n    f"{2}c"\n', 2),
])
def test_an_f_string_counts_every_line_it_spans(source, lines):
    # Python 3.12 splits an f-string into FSTRING_START, _MIDDLE and _END
    # tokens where 3.11 gives one STRING token; both give the same count.
    assert count(source) == lines
