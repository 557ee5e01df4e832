"""Code lines of a package directory: lines that are not blank, comment or docstring.

For each ``*.py`` file directly in the directory, in name order, it prints
the file's code-line count, then the total:

    python3 tools/code_lines.py src/macdkit

A line counts when a token other than a comment, a newline or an indent
touches it and it is not part of a docstring (the first statement of a
module, class or function body, when that is a string).  So a docstring or
comment trim leaves the count as it is, where ``wc -l`` falls.  CI's
"Library size" step runs it on the tree and, on a pull request, on the
base branch's ``src/macdkit``.
"""

import ast
import io
import pathlib
import sys
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}
# The nodes whose body can open with a docstring, as ast.get_docstring reads
# it; a leading string in an if, for, while, with or try body is code.
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """The number of lines of ``text`` that are not blank, comment or docstring."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = {line for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type not in LAYOUT
            for line in range(tok.start[0], tok.end[0] + 1)} - docs
    return len(code)


def main(directory: str) -> None:
    total = 0
    for path in sorted(pathlib.Path(directory).glob("*.py")):
        count = code_lines(path.read_text())
        print(f"{count:7d} {path}")
        total += count
    print(f"{total:7d} code lines in total (not blank, comment or docstring)")


if __name__ == "__main__":
    main(sys.argv[1])
