"""The package's one Gaussian elimination, over GF(p^gamma) vectors.

Every row and vector here is a sequence of packed ints (the
FieldElement.val of each entry), and the arithmetic is the field's raw
operations.  RowReducer keeps its rows in reduced row-echelon form and
takes them one at a time, so a caller can stop feeding constraints once
the rank is high enough.  It adds to the multiplication counter one per
product it forms, and it skips zero entries, so sparse right sides such
as the identity cost few multiplications.  Inversions are not counted.

Two entry points sit on top of it: nullspace, for centralizers, the
conjugator solution space and the lab's invariant subspaces, and solve,
for matrix.mat_inv (with the identity on the right) and the lab's
coordinate changes.  sylvester_rows writes the linear conditions
L Y = Y R on the entries of Y as rows for either.  matrix.det keeps its
own forward-only pass (see the matrix module).
"""

from __future__ import annotations

from .field import FieldSpec, _count_muls

__all__ = ["RowReducer", "nullspace", "solve", "sylvester_rows"]


class RowReducer:
    """Incremental reduced row-echelon form of rows of packed ints."""

    def __init__(self, spec: FieldSpec, ncols: int):
        self.spec = spec
        self.ncols = ncols
        self.pivot_rows: dict[int, list[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def add_row(self, row) -> bool:
        """Reduce a row into the basis; True if it added rank."""
        spec, ncols = self.spec, self.ncols
        mul, sub = spec._mul_raw, spec._sub_raw
        row = list(row)
        count = 0
        for col in sorted(self.pivot_rows):
            f = row[col]
            if f:
                prow = self.pivot_rows[col]
                for k in range(col, ncols):
                    if prow[k]:
                        row[k] = sub(row[k], mul(f, prow[k]))
                        count += 1
        lead = next((k for k, v in enumerate(row) if v), None)
        if lead is None:
            _count_muls(count)
            return False
        linv = spec._inv_raw(row[lead])
        row = [mul(v, linv) if v else 0 for v in row]
        support = [k for k in range(lead, ncols) if row[k]]
        count += len(support)
        for prow in self.pivot_rows.values():
            f = prow[lead]
            if f:
                for k in support:
                    prow[k] = sub(prow[k], mul(f, row[k]))
                count += len(support)
        self.pivot_rows[lead] = row
        _count_muls(count)
        return True

    def nullspace_basis(self) -> list[tuple[int, ...]]:
        """Basis vectors of the solution space of (rows) * v = 0."""
        neg = self.spec._neg_raw
        free_cols = [c for c in range(self.ncols) if c not in self.pivot_rows]
        basis = []
        for f in free_cols:
            vec = [0] * self.ncols
            vec[f] = 1
            for col, prow in self.pivot_rows.items():
                if prow[f]:
                    vec[col] = neg(prow[f])
            basis.append(tuple(vec))
        return basis


def nullspace(spec: FieldSpec, rows, ncols: int) -> list[tuple[int, ...]]:
    """Basis of {v : rows * v = 0}, for rows of ncols entries."""
    red = RowReducer(spec, ncols)
    for row in rows:
        red.add_row(row)
    return red.nullspace_basis()


def solve(spec: FieldSpec, lhs, rhs) -> tuple[tuple[int, ...], ...] | None:
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
    return tuple(tuple(red.pivot_rows[c][k:]) for c in range(k))


def sylvester_rows(spec: FieldSpec, left, right):
    """The rows of L Y - Y R = 0 on the d^2 entries of an unknown Y.

    left and right are d x d matrices as rows of packed ints.  Unknown
    y_{a,c} has column index a*d + c, and row a*d + b is entry (a, b):
    sum_c L_{a,c} y_{c,b} - y_{a,c} R_{c,b}.  The coefficients are
    sums of entries of L and R, so no multiplications are needed.
    """
    add, sub = spec._add_raw, spec._sub_raw
    d = len(left)
    for a in range(d):
        for b in range(d):
            row = [0] * (d * d)
            for c in range(d):
                if left[a][c]:
                    row[c * d + b] = add(row[c * d + b], left[a][c])
                if right[c][b]:
                    row[a * d + c] = sub(row[a * d + c], right[c][b])
            yield row
