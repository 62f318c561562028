"""Dense d x d matrices over GF(p^gamma) and the distinguished families.

Matrices are immutable values.  A matrix holds its entries as packed
ints, the FieldElement.val of each entry, in the tuple of row tuples
`vals`; `rows` is the FieldElement view of the same entries, built on
first use for the API and for code off the hot paths.  Matrix(spec,
rows) checks every entry; Matrix._from_vals takes the ints of a kernel
as they are.  The kernels here (mat_mul, det, and through
linalg.RowReducer mat_inv) work on `vals` with the field's raw
operations, and add to the multiplication counter exactly what the
FieldElement loop they replace would count, zeros included where that
loop multiplied by them; inversions are not counted.

Multiplication is the schoolbook d^3 algorithm on purpose: the cost
accounting for automorphism composition assumes exactly d^3 field
multiplications per product.  Indices in every public signature are
1-based, matching the e_{i,j} matrix-unit notation.

mat_inv is linalg.solve(x, 1), the package's one elimination.  det keeps
its own forward-only pass: it needs the product of the pivots and
nothing else, so it runs no back substitution, carries no right-hand
side and stops at the last pivot, where a solve would do more work.
Its exact multiplication count is also pinned by the golden bench,
through the SL check of Automorphism.__init__.
"""

from __future__ import annotations

import math
import warnings
from functools import reduce

from .field import (
    FieldElement,
    FieldMismatchError,
    FieldSpec,
    _count_muls,
    _json_dict,
    _json_int,
    _json_list,
)
from .linalg import _solve

__all__ = [
    "Matrix",
    "Permutation",
    "SingularMatrixError",
    "identity",
    "matrix_unit",
    "transvection",
    "permutation_matrix",
    "diagonal_matrix",
    "scalar_matrix",
    "mat_mul",
    "mat_inv",
    "mat_pow",
    "det",
    "conjugate",
    "random_gl",
    "random_sl",
    "gl_order",
    "sl_order",
    "pgl_order",
]


class SingularMatrixError(ValueError):
    """Inversion or conjugation attempted with a singular matrix."""


class Matrix:
    # _rows caches the FieldElement view of vals, _chi the characteristic
    # polynomial (fqpoly.char_poly fills it), _split the verdict of
    # protocol._conj_pow's certificate
    __slots__ = ("spec", "d", "vals", "_rows", "_chi", "_split")

    def __init__(self, spec: FieldSpec, rows):
        rows = tuple(tuple(r) for r in rows)
        d = len(rows)
        if d < 1 or any(len(r) != d for r in rows):
            raise ValueError("matrix must be square")
        for r in rows:
            for x in r:
                if not isinstance(x, FieldElement):
                    raise TypeError("entries must be FieldElement values")
                if x.spec != spec:
                    raise FieldMismatchError("entry from a different field spec")
        self._set_slots(spec, tuple(tuple(x.val for x in r) for r in rows), rows)

    @classmethod
    def _from_vals(cls, spec: FieldSpec, vals: tuple) -> "Matrix":
        """The matrix of a tuple of row tuples of packed ints, unchecked."""
        m = object.__new__(cls)
        m._set_slots(spec, vals, None)
        return m

    def _set_slots(self, spec: FieldSpec, vals: tuple, rows) -> None:
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "d", len(vals))
        object.__setattr__(self, "vals", vals)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_chi", None)
        object.__setattr__(self, "_split", None)

    def __setattr__(self, *args):
        raise AttributeError("Matrix is immutable")

    @property
    def rows(self) -> tuple:
        """The entries as a tuple of FieldElement row tuples."""
        if self._rows is None:
            spec = self.spec
            object.__setattr__(
                self, "_rows", tuple(tuple(FieldElement(spec, v) for v in r) for r in self.vals)
            )
        return self._rows

    def entry(self, i: int, j: int) -> FieldElement:
        """1-based entry access."""
        return FieldElement(self.spec, self.vals[i - 1][j - 1])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.spec == other.spec and self.vals == other.vals

    def __hash__(self):
        return hash(self.vals)

    def __repr__(self):
        body = "; ".join(" ".join(str(v) for v in r) for r in self.vals)
        return f"Matrix({self.spec!r}, [{body}])"

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def transpose(self) -> "Matrix":
        return Matrix._from_vals(self.spec, tuple(zip(*self.vals)))

    def trace(self) -> FieldElement:
        diag = [r[i] for i, r in enumerate(self.vals)]
        return FieldElement(self.spec, reduce(self.spec._add_raw, diag))

    def det(self) -> FieldElement:
        return det(self)

    def inv(self) -> "Matrix":
        return mat_inv(self)

    def is_gl(self) -> bool:
        return bool(det(self))

    def is_sl(self) -> bool:
        return det(self) == self.spec.one()

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "rows": [[x.to_hex() for x in r] for r in self.rows],
        }

    @classmethod
    def from_json(cls, spec: FieldSpec, obj: dict) -> "Matrix":
        # the shape is checked against d before any entry is converted
        obj = _json_dict(obj)
        d = _json_int(obj["d"])
        rows = [_json_list(r, d) for r in _json_list(obj["rows"], d)]
        if d < 1:
            raise ValueError("matrix must be square")
        return cls._from_vals(
            spec, tuple(tuple(FieldElement.from_hex(spec, s).val for s in r) for r in rows)
        )


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def identity(spec: FieldSpec, d: int) -> Matrix:
    return Matrix._from_vals(spec, tuple(tuple(int(i == j) for j in range(d)) for i in range(d)))


def matrix_unit(spec: FieldSpec, d: int, i: int, j: int, lam: FieldElement | None = None) -> Matrix:
    """lam * e_{i,j}: all zero except entry (i, j)."""
    if lam is None:
        lam = spec.one()
    zero = spec.zero()
    rows = [[zero] * d for _ in range(d)]
    rows[i - 1][j - 1] = lam
    return Matrix(spec, rows)


def transvection(spec: FieldSpec, d: int, i: int, j: int, lam: FieldElement) -> Matrix:
    """Elementary transvection 1 + lam * e_{i,j} with i != j."""
    if i == j:
        raise ValueError("transvection requires i != j")
    if not (1 <= i <= d and 1 <= j <= d):
        raise ValueError("index out of range")
    if lam.is_zero():
        warnings.warn("zero coefficient: transvection degenerates to the identity")
    one, zero = spec.one(), spec.zero()
    rows = [[one if a == b else zero for b in range(d)] for a in range(d)]
    rows[i - 1][j - 1] = lam
    return Matrix(spec, rows)


class Permutation:
    """Bijection of {1, ..., d}, stored as the 1-based image list."""

    __slots__ = ("d", "images")

    def __init__(self, images):
        images = tuple(int(x) for x in images)
        d = len(images)
        if sorted(images) != list(range(1, d + 1)):
            raise ValueError("not a bijection of 1..d")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "images", images)

    def __setattr__(self, *args):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, d: int) -> "Permutation":
        return cls(range(1, d + 1))

    @classmethod
    def random(cls, d: int, rng) -> "Permutation":
        imgs = list(range(1, d + 1))
        rng.shuffle(imgs)
        return cls(imgs)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.d
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """self followed by other: i -> other(self(i))."""
        return Permutation([other(self(i)) for i in range(1, self.d + 1)])

    def parity(self) -> int:
        """+1 for even, -1 for odd."""
        seen = [False] * self.d
        sign = 1
        for i in range(1, self.d + 1):
            if seen[i - 1]:
                continue
            length = 0
            j = i
            while not seen[j - 1]:
                seen[j - 1] = True
                j = self(j)
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    def order(self) -> int:
        seen = [False] * self.d
        result = 1
        for i in range(1, self.d + 1):
            if seen[i - 1]:
                continue
            length = 0
            j = i
            while not seen[j - 1]:
                seen[j - 1] = True
                j = self(j)
                length += 1
            result = math.lcm(result, length)
        return result

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"

    def to_json(self) -> list:
        return list(self.images)

    @classmethod
    def from_json(cls, obj) -> "Permutation":
        return cls(obj)


def permutation_matrix(spec: FieldSpec, alpha: Permutation) -> Matrix:
    """Identity with rows exchanged by alpha; sends basis vector e_b to e_{alpha(b)}."""
    one, zero = spec.one(), spec.zero()
    d = alpha.d
    rows = [[zero] * d for _ in range(d)]
    for b in range(1, d + 1):
        rows[alpha(b) - 1][b - 1] = one
    return Matrix(spec, rows)


def diagonal_matrix(w) -> Matrix:
    w = list(w)
    if not w:
        raise ValueError("empty diagonal")
    spec = w[0].spec
    for x in w:
        if x.is_zero():
            raise ValueError("diagonal entries must be nonzero")
    zero = spec.zero()
    d = len(w)
    rows = [[w[a] if a == b else zero for b in range(d)] for a in range(d)]
    return Matrix(spec, rows)


def scalar_matrix(spec: FieldSpec, d: int, lam: FieldElement) -> Matrix:
    zero = spec.zero()
    return Matrix(spec, [[lam if a == b else zero for b in range(d)] for a in range(d)])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def mat_mul(x: Matrix, y: Matrix) -> Matrix:
    """x y, counted as d^3 multiplications, products by zero included."""
    if x.spec != y.spec or x.d != y.d:
        raise FieldMismatchError("incompatible matrices")
    spec, d = x.spec, x.d
    mul, add = spec._mul_raw, spec._add_raw
    cols = tuple(zip(*y.vals))
    _count_muls(d * d * d)
    return Matrix._from_vals(
        spec, tuple(tuple(reduce(add, map(mul, row, col)) for col in cols) for row in x.vals)
    )


def det(x: Matrix) -> FieldElement:
    """Product of the pivots of a forward elimination: one multiplication
    per pivot, and d - c for each nonzero entry cleared below pivot c."""
    spec, d = x.spec, x.d
    mul, sub = spec._mul_raw, spec._sub_raw
    m = [list(r) for r in x.vals]
    sign_flip = False
    result, count = 1, 0
    for c in range(d):
        pivot_row = next((r for r in range(c, d) if m[r][c]), None)
        if pivot_row is None:
            _count_muls(count)
            return spec.zero()
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign_flip = not sign_flip
        mc = m[c]
        result = mul(result, mc[c])
        count += 1
        if c == d - 1:
            break  # no row below the last pivot
        pinv = spec._inv_raw(mc[c])
        for mr in m[c + 1:]:
            if mr[c]:
                f = mul(mr[c], pinv)
                mr[c] = 0
                for k in range(c + 1, d):
                    mr[k] = sub(mr[k], mul(f, mc[k]))
                count += d - c
    _count_muls(count)
    return FieldElement(spec, spec._neg_raw(result) if sign_flip else result)


def mat_inv(x: Matrix) -> Matrix:
    """x^(-1) from linalg's solve of x X = 1."""
    inv = _solve(x.spec, x.vals, identity(x.spec, x.d).vals)
    if inv is None:
        raise SingularMatrixError("matrix is singular")
    return Matrix._from_vals(x.spec, inv)


def mat_pow(x: Matrix, n: int) -> Matrix:
    """x^n by whichever route is predicted to take fewer field multiplications.

    Cayley-Hamilton: x^n = r(x) for r(t) = t^n mod chi_x(t), by
    FqPoly.pow_mod and Horner evaluation; about d^2 multiplications per
    exponent bit plus d - 2 matrix products.  Square-and-multiply:
    1.5 d^3 per bit on average, cheaper for short exponents on large
    matrices.  Both predictions come from d, n and the characteristic.
    """
    if n < 0:
        return mat_pow(mat_inv(x), -n)
    from .fqpoly import FqPoly, cayley_hamilton_cost, char_poly

    d = x.d
    square_and_multiply_cost = d**3 * (n.bit_length() - 1 + n.bit_count())
    if n and cayley_hamilton_cost(d, n, x.spec.p) < square_and_multiply_cost:
        return FqPoly.x(x.spec).pow_mod(n, char_poly(x)).eval_matrix(x)
    result = identity(x.spec, d)
    base = x
    while n:
        if n & 1:
            result = mat_mul(result, base)
        n >>= 1
        if n:
            base = mat_mul(base, base)
    return result


def conjugate(x: Matrix, a: Matrix) -> Matrix:
    """a^(-1) x a."""
    return mat_mul(mat_mul(mat_inv(a), x), a)


def random_gl(spec: FieldSpec, d: int, rng) -> Matrix:
    q = spec.q
    while True:
        m = Matrix._from_vals(
            spec, tuple(tuple(rng.randrange(q) for _ in range(d)) for _ in range(d))
        )
        if m.is_gl():
            return m


def random_sl(spec: FieldSpec, d: int, rng) -> Matrix:
    m = random_gl(spec, d, rng)
    dt = det(m)
    if dt == spec.one():
        return m
    dinv = dt.inv()
    rows = [list(r) for r in m.rows]
    rows[-1] = [v * dinv for v in rows[-1]]
    return Matrix(spec, rows)


# ---------------------------------------------------------------------------
# group orders
# ---------------------------------------------------------------------------


def gl_order(d: int, q: int) -> int:
    n = 1
    for i in range(d):
        n *= q**d - q**i
    return n


def sl_order(d: int, q: int) -> int:
    return gl_order(d, q) // (q - 1)


def pgl_order(d: int, q: int) -> int:
    return gl_order(d, q) // (q - 1)
