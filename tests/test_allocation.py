"""Allocation idiom of the library: tuples are built from lists.

CPython gives ``tuple(<generator>)`` a guessed size and then resizes it, so
the tuple is taken from one size's free list (or fresh memory) and, when
freed, lands on the free list of its final size.  Those free lists keep up
to 2000 tuples a size until the next full garbage collection, so a hot
path that builds tuples from generators holds megabytes of dead tuples in
a long run.  ``tuple([...])`` and star-arguments from a list take and
return tuples of one size.
"""

import ast
from pathlib import Path

import stairdist

SRC = Path(stairdist.__file__).resolve().parent


def _lazy_tuple_sources(tree):
    """(line, text) of every tuple(...) call on, or *-argument from, an
    iterator of unknown length: a generator expression or map/zip/filter."""
    lazy = (ast.GeneratorExp,)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        args = []
        if isinstance(node.func, ast.Name) and node.func.id == "tuple" and node.args:
            args.append(node.args[0])
        args += [a.value for a in node.args if isinstance(a, ast.Starred)]
        for a in args:
            if isinstance(a, lazy) or (
                isinstance(a, ast.Call)
                and isinstance(a.func, ast.Name)
                and a.func.id in ("map", "zip", "filter")
            ):
                yield node.lineno, ast.unparse(node)


def test_library_builds_no_tuple_from_a_generator():
    found = [
        f"{path.name}:{line}: {text}"
        for path in sorted(SRC.glob("*.py"))
        for line, text in _lazy_tuple_sources(ast.parse(path.read_text()))
    ]
    assert not found, "tuple built from an iterator of unknown length:\n" + "\n".join(found)
