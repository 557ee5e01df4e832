"""The program's one entry: ``python -m macdkit`` and the ``macdkit`` console script.

``run`` freezes the heap that the numpy and macdkit imports built before it
hands the command to ``cli.main``.  ``gc.freeze`` moves those objects, about
21,000 of them, out of the cyclic collector's sight, so neither a full
collection during the command nor the interpreter's collections at exit walk
them again, in a process that is about to end.  Reference counting still frees
them, atexit handlers still run, stdout and stderr still flush, and the
objects the command itself makes are collected as before.  ``cli.main`` does
not freeze, so a process that calls it in place, such as a test, keeps its
heap as it was.
"""

import gc
import sys

from .cli import main


def run() -> int:
    """Freeze the import-built heap, then run ``cli.main`` on ``sys.argv``; its exit code."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
