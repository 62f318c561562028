"""Words in elementary transvections: evaluation, row-reduction decomposition,
relation-based simplification, and splitting over the ground field.

A word is an ordered list of letters (i, j, lam) standing for the product
of the matrices 1 + lam * e_{i,j}, multiplied left to right.  Evaluation
multiplies by one letter at a time as a single column update, so a letter
costs at most d field multiplications.

Decomposition reduces a determinant-1 matrix to the identity using row
additions only (no swaps or scalings, which are not transvections): each
pivot is first made equal to 1 by adding a multiple of another row, then
used to clear its column.  This stays within d^2 letters.
"""

from __future__ import annotations

from .field import FieldElement, FieldMismatchError, FieldSpec
from .matrix import Matrix

__all__ = [
    "TransvectionWord",
    "NotInSLError",
    "evaluate",
    "decompose",
    "simplify",
    "split_ground",
]


class NotInSLError(ValueError):
    """Operation requires a determinant-1 matrix."""


class TransvectionWord:
    __slots__ = ("spec", "d", "letters")

    def __init__(self, spec: FieldSpec, d: int, letters=()):
        checked = []
        for i, j, lam in letters:
            if i == j:
                raise ValueError("letter with i == j")
            if not (1 <= i <= d and 1 <= j <= d):
                raise ValueError("letter index out of range")
            if not isinstance(lam, FieldElement) or lam.spec != spec:
                raise FieldMismatchError("letter coefficient from wrong spec")
            if lam.is_zero():
                raise ValueError("letter with zero coefficient")
            checked.append((i, j, lam))
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "letters", tuple(checked))

    def __setattr__(self, *args):
        raise AttributeError("TransvectionWord is immutable")

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        if not isinstance(other, TransvectionWord):
            return NotImplemented
        return (self.spec, self.d, self.letters) == (other.spec, other.d, other.letters)

    def __repr__(self):
        body = ", ".join(f"({i},{j},{lam.val})" for i, j, lam in self.letters)
        return f"TransvectionWord(d={self.d}, [{body}])"

    def evaluate(self) -> Matrix:
        return evaluate(self)


def evaluate(w: TransvectionWord) -> Matrix:
    """Product of the letters, one column update per letter."""
    spec, d = w.spec, w.d
    one, zero = spec.one(), spec.zero()
    grid = [[one if a == b else zero for b in range(d)] for a in range(d)]
    for i, j, lam in w.letters:
        # right-multiplying by 1 + lam*e_{i,j} adds lam * column i to column j
        ci, cj = i - 1, j - 1
        for a in range(d):
            v = grid[a][ci]
            if v:
                grid[a][cj] = grid[a][cj] + lam * v
    return Matrix(spec, grid)


def decompose(m: Matrix) -> TransvectionWord:
    """Write a determinant-1 matrix as a word of at most d^2 letters."""
    spec, d = m.spec, m.d
    one = spec.one()
    grid = [list(r) for r in m.rows]
    ops: list[tuple[int, int, FieldElement]] = []

    def rowop(a: int, b: int, f: FieldElement) -> None:
        # row a += f * row b, recorded as left multiplication by 1 + f*e_{a,b}
        rb = grid[b]
        ra = grid[a]
        for k in range(d):
            v = rb[k]
            if v:
                ra[k] = ra[k] + f * v
        ops.append((a, b, f))

    for c in range(d - 1):
        pivot = grid[c][c]
        if pivot != one:
            helper = None
            for a in range(c + 1, d):
                if grid[a][c]:
                    helper = a
                    break
            if helper is not None:
                rowop(c, helper, (one - pivot) * grid[helper][c].inv())
            else:
                if pivot.is_zero():
                    raise NotInSLError("matrix is singular")
                # column is zero below a non-1 pivot: seed a helper first
                rowop(c + 1, c, one)
                rowop(c, c + 1, (one - pivot) * grid[c + 1][c].inv())
        for a in range(c + 1, d):
            if grid[a][c]:
                rowop(a, c, -grid[a][c])
    if grid[d - 1][d - 1] != one:
        raise NotInSLError("determinant is not 1")
    for c in range(d - 1, 0, -1):
        for a in range(c):
            if grid[a][c]:
                rowop(a, c, -grid[a][c])
    # T_k ... T_1 M = 1, hence M = inv(T_1) inv(T_2) ... inv(T_k)
    letters = [(a + 1, b + 1, -f) for a, b, f in ops]
    return TransvectionWord(spec, d, letters)


def simplify(w: TransvectionWord) -> TransvectionWord:
    """Merge adjacent letters at the same position and drop cancellations."""
    stack: list[tuple[int, int, FieldElement]] = []
    for i, j, lam in w.letters:
        if stack and stack[-1][0] == i and stack[-1][1] == j:
            merged = stack[-1][2] + lam
            stack.pop()
            if merged:
                stack.append((i, j, merged))
        else:
            stack.append((i, j, lam))
    return TransvectionWord(w.spec, w.d, stack)


def split_ground(w: TransvectionWord) -> TransvectionWord:
    """Split each coefficient along the polynomial basis of GF(p^gamma).

    A letter (i, j, lam) with lam = sum of c_s * x^s becomes one letter
    (i, j, c_s * x^s) per nonzero coordinate, in basis order.  Letters at
    one position commute, so evaluation is unchanged.
    """
    spec = w.spec
    if spec.gamma == 1:
        return w
    letters = []
    for i, j, lam in w.letters:
        for s, c in enumerate(lam.coeffs):
            if c:
                letters.append((i, j, spec.from_coeffs((0,) * s + (c,))))
    return TransvectionWord(spec, w.d, letters)
