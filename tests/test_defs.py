"""Every function and method the package defines is read somewhere.

A def that nothing calls is dead code: it still has to be read, kept
working and documented.  The check parses every Python file of the
package, the tests, the demos and the benchmark with ast and collects
the names each statement reads, as a bare name or as an attribute; a
class counts each statement of its body apart.  A module-level def of
the package must be read by some statement other than its own body, so
a recursive function that nothing else calls counts as unread.  A method
of a module-level class must be read as an attribute the same way.
Dunder methods are called by the language itself and are left out.
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


def _units(tree):
    """(key, class name, statement) for each top-level statement, each
    statement of a class body being a unit of its own."""
    for k, stmt in enumerate(tree.body):
        if isinstance(stmt, ast.ClassDef):
            for j, sub in enumerate(stmt.body):
                yield (k, j), stmt.name, sub
            for expr in (*stmt.bases, *stmt.keywords, *stmt.decorator_list):
                yield (k, None), None, expr
        else:
            yield (k, None), None, stmt


def _unread_defs(sources: dict) -> list[str]:
    """Module-level defs, and methods of module-level classes, of the
    modules under PACKAGE that no statement outside their own body reads
    (a method as an attribute); sources maps paths to source text."""
    readers: dict[str, set] = {}
    attr_readers: dict[str, set] = {}
    defs = []
    for path, source in sources.items():
        for key, owner, stmt in _units(ast.parse(source)):
            unit = (path, key)
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    readers.setdefault(sub.id, set()).add(unit)
                elif isinstance(sub, ast.Attribute):
                    readers.setdefault(sub.attr, set()).add(unit)
                    attr_readers.setdefault(sub.attr, set()).add(unit)
            if path.parent != PACKAGE or not isinstance(stmt, ast.FunctionDef):
                continue
            name = stmt.name
            if owner is None:
                defs.append((name, name, readers, unit))
            elif not (name.startswith("__") and name.endswith("__")):
                defs.append((f"{owner}.{name}", name, attr_readers, unit))
    return sorted(
        f"{unit[0].name}: {label}"
        for label, name, table, unit in defs
        if not table.get(name, set()) - {unit}
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
            "class C:\n"
            "    def __init__(self): self.helper()\n"
            "    def helper(self): pass\n"
            "    def read(self): pass\n"
            "    def unread(self): pass\n"
            "    def again(self): return self.again()\n"
            "    def by_name(self): pass\n"
        ),
        ROOT / "tests" / "b.py": "import a\na.used()\nx.method_name\nC().read()\nby_name\n",
    }
    assert _unread_defs(sources) == [
        "a.py: C.again", "a.py: C.by_name", "a.py: C.unread", "a.py: recursive", "a.py: unused",
    ]


@pytest.mark.parametrize("tree", ["src", "tests", "demos", "perfbench"])
def test_each_reader_tree_is_scanned(tree):
    assert any((ROOT / tree) in p.parents for p in READERS)
