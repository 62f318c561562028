"""Every name a module of the package imports is used or exported.

An import that nothing reads is dead code that still costs an import and
misleads a reader about what the module depends on.  The check parses
each module with ast: a name bound by an import must be read somewhere in
the module, or be listed in its __all__.  The package's __init__ is left
out, as its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

import morsl

MODULES = sorted(p for p in Path(morsl.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {elt.value for elt in node.value.elts}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in read and name not in exported
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = (
        "from x import used, unused\n"
        "import os.path\n"
        "__all__ = ['kept']\n"
        "from y import kept\n"
        "used()\n"
    )
    assert _unused_imports(source) == ["os (line 2)", "unused (line 1)"]


# fqpoly's kernels modulo a polynomial.  Every other module computes
# modulo f through fqpoly.Quotient, the one owner of F_q[x]/f.
QUOTIENT_KERNELS = {"_product", "_rem_monic", "_compose", "mod_inverse"}


def _kernel_uses(source: str) -> list[str]:
    """The kernels that source imports or reads as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name in QUOTIENT_KERNELS]
        elif isinstance(node, ast.Attribute) and node.attr in QUOTIENT_KERNELS:
            found.append(node.attr)
    return sorted(found)


def test_only_fqpoly_uses_the_quotient_kernels():
    others = [p for p in sorted(Path(morsl.__file__).parent.glob("*.py")) if p.name != "fqpoly.py"]
    found = {p.name: _kernel_uses(p.read_text()) for p in others}
    assert {name: kernels for name, kernels in found.items() if kernels} == {}


def test_the_check_sees_a_kernel_use():
    source = (
        "from .fqpoly import FqPoly, _product\n"
        "def f():\n"
        "    from .fqpoly import mod_inverse as inv\n"
        "    return fqpoly._compose(a, b, f), _trim(a)\n"
    )
    assert _kernel_uses(source) == ["_compose", "_product", "mod_inverse"]


def _imports_from(source: str, module: str) -> list[str]:
    """The names source imports from the package module `module`, and the
    imports of that module itself, wherever they stand."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == module:
                found += [a.name for a in node.names]
            else:
                found += [a.name for a in node.names if a.name == module]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[-1] == module]
    return sorted(found)


def test_protocol_imports_nothing_from_fqpoly():
    # the protocol decides no certificate itself: keygen's certificate is
    # matrix.KeyField.certificate, and only matrix.py hands one on
    source = (Path(morsl.__file__).parent / "protocol.py").read_text()
    assert _imports_from(source, "fqpoly") == []


def test_the_check_sees_an_fqpoly_import():
    source = (
        "from .fqpoly import char_poly, is_irreducible\n"
        "from . import fqpoly as fq\n"
        "from .matrix import _field_verdict\n"
        "def f():\n"
        "    import morsl.fqpoly\n"
    )
    found = _imports_from(source, "fqpoly")
    assert found == ["char_poly", "fqpoly", "is_irreducible", "morsl.fqpoly"]


def _table_cap_readers(source: str) -> list[int]:
    """Line numbers where source names field._TABLE_MAX_Q: an import of
    it, or a read of the name or of the attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.ImportFrom) and any(a.name == "_TABLE_MAX_Q" for a in node.names))
        or (isinstance(node, ast.Name) and node.id == "_TABLE_MAX_Q")
        or (isinstance(node, ast.Attribute) and node.attr == "_TABLE_MAX_Q")
    )


def test_only_field_decides_which_fields_run_on_lanes():
    # FieldSpec._choose_raw_ops decides it once, as FieldSpec._has_lanes:
    # fqpoly and every other module read that instead of the table cap
    readers = {
        p.name: _table_cap_readers(p.read_text())
        for p in sorted(Path(morsl.__file__).parent.glob("*.py"))
        if p.name != "field.py"
    }
    assert {name: lines for name, lines in readers.items() if lines} == {}


def test_the_check_sees_a_table_cap_reader():
    source = (
        "from .field import (\n"
        "    _TABLE_MAX_Q,\n"
        "    FieldSpec,\n"
        ")\n"
        "lanes = spec.p == 2 and spec.q > field._TABLE_MAX_Q\n"
        "small = q <= _TABLE_MAX_Q\n"
        "lanes = spec._has_lanes\n"
    )
    assert _table_cap_readers(source) == [1, 5, 6]


def _private_names(source: str) -> set[str]:
    """The _-prefixed names that source defines, dunders aside: its
    functions, classes, methods, assigned names and slots."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
        ):
            names |= {elt.value for elt in node.value.elts}
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def _private_uses(source: str, module: str, private: set[str]) -> list[str]:
    """The names of `private` that source imports from the package module
    `module` or reads as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            found += [a.name for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr in private:
            found.append(node.attr)
    return sorted(found)


def test_protocol_uses_no_private_name_of_matrix():
    # the keys reach K through KeyField's public methods
    package = Path(morsl.__file__).parent
    private = _private_names((package / "matrix.py").read_text())
    assert {"_chi", "_from_vals", "_test", "_power", "_certificate"} <= private
    assert _private_uses((package / "protocol.py").read_text(), "matrix", private) == []


def test_the_check_sees_a_private_use_of_matrix():
    matrix_source = (
        "class KeyField:\n"
        "    __slots__ = ('b', '_member')\n"
        "    def _power(self): pass\n"
        "def _dot(a, b): pass\n"
        "_CACHE = {}\n"
    )
    private = _private_names(matrix_source)
    assert private == {"_member", "_power", "_dot", "_CACHE"}
    source = (
        "from .matrix import KeyField, _dot\n"
        "from .field import _count_muls\n"
        "def f(k, spec):\n"
        "    from . import matrix\n"
        "    return k._power(), matrix._CACHE, k._member, spec._mul_raw\n"
    )
    assert _private_uses(source, "matrix", private) == ["_CACHE", "_dot", "_member", "_power"]


def _readers(source: str, module: str, name: str) -> list[str]:
    """The functions of source, as module.qualname, that read `name` by
    name or as an attribute; module.<module> for a read outside any
    function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
            elif (isinstance(child, ast.Name) and child.id == name) or (
                isinstance(child, ast.Attribute) and child.attr == name
            ):
                found.append(owner)
            else:
                visit(child, owner)

    visit(ast.parse(source), module)
    return sorted(set(found))


def _frobenius_users(source: str, module: str) -> list[str]:
    return _readers(source, module, "_frobenius_map")


def test_only_the_distinct_degree_chain_runs_frobenius_powers():
    # Ben-Or's gcd chain is written once: is_irreducible reads the first
    # component of _distinct_degree instead of running its own gcds
    found = [
        user
        for p in MODULES
        for user in _frobenius_users(p.read_text(), p.stem)
    ]
    assert found == ["fqpoly._distinct_degree"]


def test_the_check_sees_a_second_frobenius_chain():
    source = (
        "def _distinct_degree(f):\n"
        "    h, frob = _frobenius_map(f, 1)\n"
        "def is_irreducible(f):\n"
        "    def chain():\n"
        "        return fqpoly._frobenius_map(f, 2)\n"
        "class Q:\n"
        "    def m(self):\n"
        "        step = _frobenius_map\n"
        "top = _frobenius_map(f, 0)\n"
    )
    assert _frobenius_users(source, "fqpoly") == [
        "fqpoly",
        "fqpoly.Q.m",
        "fqpoly._distinct_degree",
        "fqpoly.is_irreducible.chain",
    ]


def _squarers(source: str) -> dict[str, list[str]]:
    """fqpoly's readers of _square, and what each of them reads of the
    squaring rows (_squaring_rows) and the long division (_rem_monic)."""
    return {
        user: [k for k in ("_squaring_rows", "_rem_monic") if user in _readers(source, "fqpoly", k)]
        for user in _readers(source, "fqpoly", "_square")
    }


def test_fqpoly_squares_modulo_f_in_one_helper():
    # one squaring model modulo f: the squaring rows in characteristic 2,
    # long division otherwise, both in the one reader of _square
    source = (Path(morsl.__file__).parent / "fqpoly.py").read_text()
    assert _squarers(source) == {"fqpoly._square_mod": ["_squaring_rows", "_rem_monic"]}


def test_the_check_sees_a_second_squaring():
    source = (
        "def _square_mod(a, f):\n"
        "    sq = _square(f.spec, a)\n"
        "    return _rem_monic(sq, f) if f.spec.p != 2 else _fold(sq, _squaring_rows(f))\n"
        "class FqPoly:\n"
        "    def pow_mod(self, n, f):\n"
        "        return _rem_monic(_square(self.spec, self.coeffs), f)\n"
    )
    assert _squarers(source) == {
        "fqpoly.FqPoly.pow_mod": ["_rem_monic"],
        "fqpoly._square_mod": ["_squaring_rows", "_rem_monic"],
    }
