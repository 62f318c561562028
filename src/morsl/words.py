"""Words in elementary transvections: evaluation, row-reduction decomposition,
relation-based simplification, and splitting over the ground field.

A word is an ordered list of letters (i, j, lam) standing for the product
of the matrices 1 + lam * e_{i,j}, multiplied left to right.  Evaluation
multiplies by one letter at a time as a single column update, so a letter
costs at most d field multiplications.

Decomposition reduces a determinant-1 matrix to the identity using row
additions only (no swaps or scalings, which are not transvections): each
pivot is first made equal to 1 by adding a multiple of another row, then
used to clear its column.  This stays within d^2 letters.  It runs on
Matrix.vals with raw field operations, counts what the FieldElement loop
in tests/oracles.py counts, a NotInSLError included, and returns
FieldElement letters.
"""

from __future__ import annotations

from .field import FieldElement, FieldMismatchError, FieldSpec, _count_muls
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
        self._set_slots(spec, d, tuple(checked))

    @classmethod
    def _from_letters(cls, spec: FieldSpec, d: int, letters: tuple) -> "TransvectionWord":
        """The word of a tuple of letters that are valid by construction, unchecked."""
        w = object.__new__(cls)
        w._set_slots(spec, d, letters)
        return w

    def _set_slots(self, spec: FieldSpec, d: int, letters: tuple) -> None:
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "letters", letters)

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
    mul, add, sub, neg = spec._mul_raw, spec._add_raw, spec._sub_raw, spec._neg_raw
    grid = [list(r) for r in m.vals]
    ops: list[tuple[int, int, FieldElement]] = []
    count = 0

    def rowop(a: int, b: int, f: int) -> None:
        # row a += f * row b is left multiplication by T = 1 + f*e_{a,b}
        nonlocal count
        ra, rb = grid[a], grid[b]
        for k, v in enumerate(rb):
            if v:
                ra[k] = add(ra[k], mul(f, v))
        count += d - rb.count(0)
        # T_k ... T_1 M = 1, hence M = inv(T_1) ... inv(T_k): the letter is -f
        ops.append((a + 1, b + 1, FieldElement(spec, neg(f))))

    try:
        for c in range(d - 1):
            pivot = grid[c][c]
            if pivot != 1:
                helper = next((a for a in range(c + 1, d) if grid[a][c]), None)
                if helper is None:
                    if not pivot:
                        raise NotInSLError("matrix is singular")
                    # column is zero below a non-1 pivot: seed a helper first
                    helper = c + 1
                    rowop(helper, c, 1)
                count += 1
                rowop(c, helper, mul(sub(1, pivot), spec._inv_raw(grid[helper][c])))
            for a in range(c + 1, d):
                if grid[a][c]:
                    rowop(a, c, neg(grid[a][c]))
        if grid[d - 1][d - 1] != 1:
            raise NotInSLError("determinant is not 1")
        for c in range(d - 1, 0, -1):
            for a in range(c):
                if grid[a][c]:
                    rowop(a, c, neg(grid[a][c]))
    finally:
        _count_muls(count)
    # every letter has 1 <= i != j <= d and f != 0, so -f != 0
    return TransvectionWord._from_letters(spec, d, tuple(ops))


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
