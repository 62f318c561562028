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
    # the protocol decides no verdict itself: keygen's certificate is
    # matrix._field_verdict, and only matrix.py hands a verdict on
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


def _frobenius_users(source: str, module: str) -> list[str]:
    """The functions of source, as module.qualname, that read
    _frobenius_map by name or as an attribute; module.<module> for a read
    outside any function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
            elif (isinstance(child, ast.Name) and child.id == "_frobenius_map") or (
                isinstance(child, ast.Attribute) and child.attr == "_frobenius_map"
            ):
                found.append(owner)
            else:
                visit(child, owner)

    visit(ast.parse(source), module)
    return sorted(set(found))


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
