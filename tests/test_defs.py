"""Every function the package defines at module level is read somewhere.

A def that nothing calls is dead code: it still has to be read, kept
working and documented.  The check parses every Python file of the
package, the tests, the demos and the benchmark with ast and collects
the names each top-level statement reads, as a bare name or as an
attribute.  A module-level def of the package must be read by some
statement other than its own body, so a recursive function that nothing
else calls counts as unread.
"""

import ast
from pathlib import Path

import pytest

import morsl

PACKAGE = Path(morsl.__file__).parent
ROOT = PACKAGE.parents[1]
READERS = sorted(
    p for tree in ("src", "tests", "demos", "perfbench") for p in (ROOT / tree).rglob("*.py")
)


def _reads(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _unread_defs(sources: dict) -> list[str]:
    """Module-level defs of the modules under PACKAGE that no statement
    outside their own body reads; sources maps paths to source text."""
    readers: dict[str, set] = {}
    defs = []
    for path, source in sources.items():
        for k, stmt in enumerate(ast.parse(source).body):
            for name in _reads(stmt):
                readers.setdefault(name, set()).add((path, k))
            if path.parent == PACKAGE and isinstance(stmt, ast.FunctionDef):
                defs.append((stmt.name, path, k))
    return sorted(
        f"{path.name}: {name}"
        for name, path, k in defs
        if not readers.get(name, set()) - {(path, k)}
    )


def test_every_module_level_def_is_read():
    assert _unread_defs({p: p.read_text() for p in READERS}) == []


def test_the_check_sees_an_unread_def():
    sources = {
        PACKAGE / "a.py": (
            "def used(): pass\n"
            "def unused(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def method_name(): pass\n"
        ),
        ROOT / "tests" / "b.py": "import a\na.used()\nx.method_name\n",
    }
    assert _unread_defs(sources) == ["a.py: recursive", "a.py: unused"]


@pytest.mark.parametrize("tree", ["src", "tests", "demos", "perfbench"])
def test_each_reader_tree_is_scanned(tree):
    assert any((ROOT / tree) in p.parents for p in READERS)
