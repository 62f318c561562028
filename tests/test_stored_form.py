"""Matrices and polynomials store their entries one way, as packed ints.

No module of the package reads an attribute named `rows`: a Matrix keeps
its entries in `vals`, and a second stored form, such as a FieldElement
view, would come back as a reader of `rows`, perhaps on a path the suite
does not run.  An FqPoly keeps its coefficients in `coeffs`, and fqpoly
builds a FieldElement only where it hands one out.  Besides them, an
FqPoly keeps one store, `_kept`, of what it keeps as a modulus, written
only in fqpoly.py and each of its items by one builder.  A Matrix is a plain
value: its entries and the cache of chi_x that char_poly fills.  What a
key knows of its algebra K = F_q[B] lives on a matrix.KeyField instead,
and only matrix.py, which checks them, writes its facts: B's certificate
`_certificate`, the membership `_member` handed on to another matrix,
and the use schedule `_uses`.  A wrong one would reduce an exponent that
must be kept, or build a basis for a matrix used once.  The caches of
K's fqpoly.Quotient (B's power basis `_basis` and its coordinate reader
`_reader`) are written only in fqpoly.py, which builds them.  The checks
parse the source with ast instead of running it.
"""

import ast
from pathlib import Path

import pytest

import morsl
from morsl.fqpoly import FqPoly
from morsl.matrix import Matrix

PACKAGE = Path(morsl.__file__).parent


def _rows_readers(source: str) -> list[int]:
    """Line numbers of the attributes named rows in source."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "rows"
    )


def test_no_package_module_reads_rows():
    readers = {p.name: _rows_readers(p.read_text()) for p in sorted(PACKAGE.rglob("*.py"))}
    assert {name: lines for name, lines in readers.items() if lines} == {}


def test_the_check_sees_a_rows_reader():
    source = "m.vals\nx = m.rows[0]\nred.pivot_rows\nrows = 1\nself.rows = rows\n"
    assert _rows_readers(source) == [2, 5]


# The one place where fqpoly hands out a scalar: f(v) returns a FieldElement.
FQPOLY_ELEMENT_ACCESSORS = {"FqPoly.__call__"}
# FieldSpec's element constructors, which build a FieldElement for a caller
SPEC_ELEMENT_CONSTRUCTORS = {
    "zero", "one", "scalar", "from_val", "from_coeffs", "monomial", "random", "random_nonzero",
    "elements",
}


def _builds_element(call: ast.Call) -> bool:
    """FieldElement(...), or spec.one() and its kin; FqPoly.one(spec) and
    cls.zero(spec) build polynomials."""
    f = call.func
    if isinstance(f, ast.Name):
        return f.id == "FieldElement"
    return (
        isinstance(f, ast.Attribute)
        and f.attr in SPEC_ELEMENT_CONSTRUCTORS
        and not (isinstance(f.value, ast.Name) and f.value.id in ("FqPoly", "cls"))
    )


def _element_constructions(source: str) -> list[tuple[str, int]]:
    """(enclosing def, line) of each FieldElement that source builds."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and _builds_element(child):
                found.append((scope, child.lineno))
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_fqpoly_builds_field_elements_only_in_its_accessors():
    found = _element_constructions((PACKAGE / "fqpoly.py").read_text())
    assert {scope for scope, _ in found} == FQPOLY_ELEMENT_ACCESSORS


def test_the_check_sees_a_field_element_construction():
    source = (
        "class FqPoly:\n"
        "    def __call__(self, v):\n"
        "        return FieldElement(self.spec, 0)\n"
        "def _kernel(spec, a):\n"
        "    one = FqPoly.one(spec)\n"
        "    return [FieldElement(spec, c) for c in a], spec.one(), one\n"
    )
    assert _element_constructions(source) == [
        ("FqPoly.__call__", 3), ("_kernel", 6), ("_kernel", 6),
    ]


def _slot_writers(source: str, slot: str) -> list[int]:
    """Line numbers where source writes an attribute named slot: an
    assignment or deletion, or a setattr or object.__setattr__ naming it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == slot:
            if not isinstance(node.ctx, ast.Load):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call) and any(
            isinstance(a, ast.Constant) and a.value == slot for a in node.args
        ):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in ("setattr", "__setattr__"):
                lines.append(node.lineno)
    return sorted(lines)


def _writing_modules(slot: str) -> set[str]:
    return {p.name for p in sorted(PACKAGE.rglob("*.py")) if _slot_writers(p.read_text(), slot)}


def test_a_matrix_keeps_only_its_entries_and_chi():
    assert Matrix.__slots__ == ("spec", "d", "vals", "_chi")


def test_a_polynomial_keeps_only_its_coefficients_and_its_store():
    assert FqPoly.__slots__ == ("spec", "coeffs", "_kept")


def test_only_fqpoly_writes_the_modulus_store():
    assert _writing_modules("_kept") == {"fqpoly.py"}


def _store_writers(source: str) -> dict[str, set[str]]:
    """The functions of source that write each string key of a dict, as
    kept["key"] = value."""
    writers = {}
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.slice, ast.Constant)
                    and isinstance(node.slice.value, str)
                ):
                    writers.setdefault(node.slice.value, set()).add(func.name)
    return writers


def test_each_item_of_the_modulus_store_has_one_builder():
    assert _store_writers((PACKAGE / "fqpoly.py").read_text()) == {
        "squaring": {"_squaring_rows"},
        "layout": {"_layout"},
        "clear": {"_clear_rows"},
        "square": {"_square_table"},
        "xq": {"_x_to_the_q"},
        "rows": {"_frobenius_rows"},
        "table": {"_base_q_table"},
    }


def test_the_check_sees_a_second_store_writer():
    source = (
        "def _clear_rows(f):\n"
        '    _kept(f)["clear"] = rows\n'
        "def keep(f):\n"
        "    kept = _kept(f)\n"
        '    kept["table"] = ()\n'
        '    kept["clear"], n = None, kept["layout"]\n'
        "    costs[pattern] = 0\n"
    )
    assert _store_writers(source) == {"clear": {"_clear_rows", "keep"}, "table": {"keep"}}


def test_only_matrix_writes_the_certificate_verdict():
    assert _writing_modules("_certificate") == {"matrix.py"}


def test_only_matrix_writes_the_element():
    # a matrix handed the certificate as a member, a nonzero element of K
    assert _writing_modules("_member") == {"matrix.py"}


def test_only_matrix_writes_the_use_schedule():
    assert _writing_modules("_uses") == {"matrix.py"}


@pytest.mark.parametrize("cache", ["_basis", "_reader"])
def test_only_fqpoly_writes_the_algebra_caches(cache):
    assert _writing_modules(cache) == {"fqpoly.py"}


def test_the_check_sees_a_split_writer():
    source = (
        "if b._split is True and x._split is None:\n"
        '    object.__setattr__(x, "_split", "commutes")\n'
        'setattr(x, "_split", None)\n'
        "x._split = 1\n"
        "del x._split\n"
        'object.__setattr__(x, "_chi", None)\n'
        "words._split_ground(a)\n"
    )
    assert _slot_writers(source, "_split") == [2, 3, 4, 5]
    # an augmented assignment is a write; a mutating call is not seen, so
    # KeyField reassigns its schedule
    assert _slot_writers("field._uses |= {use}\nfield._uses.add(use)\n", "_uses") == [1]
    for slot in ("_certificate", "_member", "_uses", "_basis", "_reader"):
        assert _slot_writers(source.replace("_split", slot), slot) == [2, 3, 4, 5]
        assert _slot_writers(source, slot) == []
