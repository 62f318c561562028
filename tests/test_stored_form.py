"""No module of the package reads an attribute named `rows`.

A Matrix stores its entries one way, as packed ints in `vals`.  A second
stored form, such as a FieldElement view, would come back as a reader
of `rows`, perhaps on a path the suite does not run; so the check parses
every module under src/morsl with ast instead of running it.
"""

import ast
from pathlib import Path

import morsl

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
