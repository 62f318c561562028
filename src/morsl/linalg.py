"""The package's one Gaussian elimination, over GF(p^gamma) vectors.

RowReducer keeps its rows in reduced row-echelon form and takes them one
at a time, so a caller can stop feeding constraints once the rank is
high enough.  Two entry points sit on top of it: nullspace, for the
linear-algebra view of the conjugacy problem, centralizers and the lab's
invariant subspaces, and solve, for matrix inversion and the lab's
coordinate changes.  The reducer skips zero entries, so sparse right
sides such as the identity cost few multiplications.  matrix.det keeps
its own forward-only pass (see the matrix module).
"""

from __future__ import annotations

from .field import FieldElement, FieldSpec

__all__ = ["RowReducer", "nullspace", "solve"]


class RowReducer:
    """Incremental reduced row-echelon form over a fixed field."""

    def __init__(self, spec: FieldSpec, ncols: int):
        self.spec = spec
        self.ncols = ncols
        self.pivot_rows: dict[int, list[FieldElement]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def add_row(self, row) -> bool:
        """Reduce a row into the basis; True if it added rank."""
        row = list(row)
        for col in sorted(self.pivot_rows):
            if row[col]:
                f = row[col]
                prow = self.pivot_rows[col]
                for k in range(col, self.ncols):
                    if prow[k]:
                        row[k] = row[k] - f * prow[k]
        lead = None
        for k, v in enumerate(row):
            if v:
                lead = k
                break
        if lead is None:
            return False
        linv = row[lead].inv()
        row = [v * linv if v else v for v in row]
        for col, prow in self.pivot_rows.items():
            if prow[lead]:
                f = prow[lead]
                for k in range(lead, self.ncols):
                    if row[k]:
                        prow[k] = prow[k] - f * row[k]
        self.pivot_rows[lead] = row
        return True

    def nullspace_basis(self) -> list[tuple[FieldElement, ...]]:
        """Basis vectors of the solution space of (rows) * v = 0."""
        zero, one = self.spec.zero(), self.spec.one()
        pivots = set(self.pivot_rows)
        free_cols = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for f in free_cols:
            vec = [zero] * self.ncols
            vec[f] = one
            for col, prow in self.pivot_rows.items():
                if prow[f]:
                    vec[col] = -prow[f]
            basis.append(tuple(vec))
        return basis


def nullspace(spec: FieldSpec, rows, ncols: int) -> list[tuple[FieldElement, ...]]:
    red = RowReducer(spec, ncols)
    for row in rows:
        red.add_row(row)
    return red.nullspace_basis()


def solve(spec: FieldSpec, lhs, rhs) -> list[tuple[FieldElement, ...]] | None:
    """X with lhs * X = rhs, or None unless X exists and is unique.

    lhs is n rows of k entries, rhs n rows of m; X comes back as k rows
    of m.  The rows [lhs | rhs] go through one RowReducer, and X exists
    and is unique exactly when the pivot columns are 0..k-1: a missing
    one is a dependent column of lhs, one at k or beyond an inconsistent
    system.
    """
    k = len(lhs[0])
    red = RowReducer(spec, k + len(rhs[0]))
    for a, b in zip(lhs, rhs):
        red.add_row([*a, *b])
    if sorted(red.pivot_rows) != list(range(k)):
        return None
    return [tuple(red.pivot_rows[c][k:]) for c in range(k)]
