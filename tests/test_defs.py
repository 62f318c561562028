"""Every function and method the package defines is read somewhere.

A def that nothing calls is dead code: it still has to be read, kept
working and documented.  The check parses every Python file of the
package, the tests, the demos and the benchmark with ast and collects
the names each statement reads, as a bare name or as an attribute; a
class counts each statement of its body apart.  A module-level def of
the package must be read by some statement other than its own body, so
a recursive function that nothing else calls counts as unread.  A method
of a module-level class must be read as an attribute the same way; if
its name is also a data attribute of some class (a class-level annotated
name such as a dataclass field, a `__slots__` entry or a `self.x = `
target), only a call `obj.name(...)` counts, as a bare `obj.name` may be
that attribute.  A property is read as an attribute.  Dunder methods
are called by the language itself and are left out.
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


def _data_attributes(owner, stmt) -> set:
    """Names a class body statement makes data attributes: a class-level
    annotated name, a constant `__slots__` entry, a `self.x = ` target."""
    if owner is None:
        return set()
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    if isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == [
        "__slots__"
    ]:
        return {e.value for e in ast.walk(stmt.value) if isinstance(e, ast.Constant)}
    return {
        t.attr
        for sub in ast.walk(stmt)
        if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for t in getattr(sub, "targets", [getattr(sub, "target", None)])
        if isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == "self"
    }


def _unread_defs(sources: dict) -> list[str]:
    """Module-level defs, and methods of module-level classes, of the
    modules under PACKAGE that no statement outside their own body reads
    (a method as an attribute, or through a call if its name is also a
    data attribute); sources maps paths to source text."""
    readers: dict[str, set] = {}
    attr_readers: dict[str, set] = {}
    call_readers: dict[str, set] = {}
    data_attributes: set = set()
    defs = []
    for path, source in sources.items():
        for key, owner, stmt in _units(ast.parse(source)):
            unit = (path, key)
            data_attributes |= _data_attributes(owner, stmt)
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    readers.setdefault(sub.id, set()).add(unit)
                elif isinstance(sub, ast.Attribute):
                    readers.setdefault(sub.attr, set()).add(unit)
                    attr_readers.setdefault(sub.attr, set()).add(unit)
                elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                    call_readers.setdefault(sub.func.attr, set()).add(unit)
            if path.parent != PACKAGE or not isinstance(stmt, ast.FunctionDef):
                continue
            name = stmt.name
            if owner is None:
                defs.append((name, name, readers, unit))
            elif not (name.startswith("__") and name.endswith("__")):
                prop = any(getattr(dec, "id", None) == "property" for dec in stmt.decorator_list)
                defs.append((f"{owner}.{name}", name, attr_readers if prop else None, unit))
    return sorted(
        f"{unit[0].name}: {label}"
        for label, name, table, unit in defs
        if not (
            table or (call_readers if name in data_attributes else attr_readers)
        ).get(name, set()) - {unit}
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
            "@dataclass\n"
            "class Report:\n"
            "    shift: int\n"
            "    __slots__ = ('called', 'prop')\n"
            "    def __init__(self): self.field = 1\n"
            "class Poly:\n"
            "    def shift(self): pass\n"
            "    def called(self): pass\n"
            "    def field(self): pass\n"
            "    @property\n"
            "    def prop(self): pass\n"
        ),
        ROOT / "tests" / "b.py": (
            "import a\na.used()\nx.method_name\nC().read()\nby_name\n"
            "report.shift\nreport.field\np.called()\np.prop\n"
        ),
    }
    assert _unread_defs(sources) == [
        "a.py: C.again", "a.py: C.by_name", "a.py: C.unread", "a.py: Poly.field",
        "a.py: Poly.shift", "a.py: recursive", "a.py: unused",
    ]


@pytest.mark.parametrize("tree", ["src", "tests", "demos", "perfbench"])
def test_each_reader_tree_is_scanned(tree):
    assert any((ROOT / tree) in p.parents for p in READERS)
