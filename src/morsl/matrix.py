"""Dense d x d matrices over GF(p^gamma) and the distinguished families.

Matrices are immutable values.  A matrix stores its entries one way:
as packed ints, the FieldElement.val of each entry, in the tuple of row
tuples `vals`.  Matrix(spec, rows) takes FieldElement rows and checks
every entry; Matrix._from_vals takes the ints of a kernel as they are.
There is no FieldElement view: every reader, here and in the other
modules (words.decompose, fqpoly.char_poly, the automorphisms, the lab,
the message codec and to_json), reads `vals`.  The kernels here
(mat_mul, det, mat_inv through linalg.solve, and the vector products
_dot and _outer that the automorphisms and the lab share) work on
`vals` with the field's raw operations, and add to the multiplication
counter exactly what the FieldElement loop they replace would count,
zeros included where that loop multiplied by them; inversions are not
counted.

mat_mul and _outer call the field's vector ops, _mul_prepared_raw on
_prepare_raw's form of the right factor and _outer_raw, and have no
branch of their own.  The counted cost model is the schoolbook d^3 on
purpose: the cost accounting for automorphism composition assumes
exactly d^3 field multiplications per product, and prime, table and
odd-extension fields run that loop.  Binary fields above 2^8 run the
field's lane kernel instead, which forms the same d^3 products without
reduction and reduces only the d^2 sums; the count is d^3 all the same.
Indices in every public signature are 1-based, matching the e_{i,j}
matrix-unit notation.

mat_inv is linalg.solve(x, 1) on packed ints, the package's one
elimination, except for a matrix known to lie in an algebra F_q[B]
(below).  det keeps its own forward-only pass: it needs the product of
the pivots and nothing else, so it runs no back substitution, carries no
right-hand side and stops at the last pivot, where a solve would do more
work.  Its exact multiplication count is also pinned by the golden
bench, through the SL check of Automorphism.__init__.

mat_pow is the package's one exponentiation engine: keygen, encrypt,
decrypt and Automorphism.power all raise matrices through it.  It picks
Cayley-Hamilton or square-and-multiply by predicted cost, and it alone
reduces an exponent, mod q^d - 1 and at the norm, when the verdict
cached on the matrix shows that it lies in a field F_q[B] = GF(q^d):
B = x with chi_x irreducible, or a B that handed its verdict on.  A
matrix with a verdict is raised again and again, as a key's conjugators
are for every message, so it keeps its algebra F_q[B] = F_q[x]/chi_B, an
fqpoly.Quotient: mat_pow evaluates its later powers there, and the
matrices that B's hand-on (_hand_on_verdict) reads as g(B), and the
powers evaluated there, are raised and inverted there too.
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
    _pow_raw,
)
from .linalg import solve

__all__ = [
    "Matrix",
    "Permutation",
    "SingularMatrixError",
    "identity",
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
]


class SingularMatrixError(ValueError):
    """Inversion or conjugation attempted with a singular matrix."""


class Matrix:
    # _chi caches chi_x (fqpoly.char_poly fills it).  _split caches the
    # verdict of mat_pow's certificate (see _FIELD), and _element the
    # matrix as g(B) in an algebra F_q[B], the pair (algebra, g), g = t
    # in B's own; only this module writes those two
    __slots__ = ("spec", "d", "vals", "_chi", "_split", "_element")

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
        self._set_slots(spec, tuple(tuple(x.val for x in r) for r in rows))

    @classmethod
    def _from_vals(cls, spec: FieldSpec, vals: tuple, element=None) -> "Matrix":
        """The matrix of a tuple of row tuples of packed ints, unchecked,
        and, from fqpoly.Quotient.eval, its element (algebra, g)."""
        m = object.__new__(cls)
        m._set_slots(spec, vals, element)
        return m

    def _set_slots(self, spec: FieldSpec, vals: tuple, element=None) -> None:
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "d", len(vals))
        object.__setattr__(self, "vals", vals)
        object.__setattr__(self, "_chi", None)
        object.__setattr__(self, "_split", None)
        object.__setattr__(self, "_element", element)

    def __setattr__(self, *args):
        raise AttributeError("Matrix is immutable")

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

    def is_sl(self) -> bool:
        return det(self) == self.spec.one()

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "rows": [[FieldElement(self.spec, v).to_hex() for v in r] for r in self.vals],
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
        even_cycles = sum(len(c) % 2 == 0 for c in orbits(range(1, self.d + 1), self))
        return -1 if even_cycles % 2 else 1

    def order(self) -> int:
        return math.lcm(*(len(c) for c in orbits(range(1, self.d + 1), self)))

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


def orbits(points, step) -> list[tuple]:
    """The orbits of a bijection step on points, in order of their first
    point in points; each orbit is walked from that point."""
    seen, out = set(), []
    for x in points:
        orbit = []
        while x not in seen:
            seen.add(x)
            orbit.append(x)
            x = step(x)
        if orbit:
            out.append(tuple(orbit))
    return out


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
    _count_muls(x.d**3)
    spec = x.spec
    return Matrix._from_vals(spec, spec._mul_prepared_raw(x.vals, spec._prepare_raw(y.vals)))


def _dot(spec: FieldSpec, row, col) -> int:
    """row . col on packed ints, one multiplication per pair of nonzeros."""
    mul, add = spec._mul_raw, spec._add_raw
    acc, count = 0, 0
    for a, b in zip(row, col):
        if a and b:
            acc = add(acc, mul(a, b))
            count += 1
    _count_muls(count)
    return acc


def _outer(spec: FieldSpec, col, row) -> list[list[int]]:
    """The outer product col row^T as rows of packed ints, len(row)
    multiplications per nonzero entry of col."""
    _count_muls(len(row) * (len(col) - col.count(0)))
    return spec._outer_raw(col, row)


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
    """x^(-1).  A matrix recorded as g(B) for another matrix B is inverted
    in F_q[B]: h = g^(-1) mod chi_B (Quotient.inv), which exists exactly
    when g(B) is invertible (chi_B's roots are B's eigenvalues), and h(B)
    on B's basis, (d - 1) d^2.  Any other matrix is inverted by linalg's
    solve of x X = 1."""
    algebra, g = x._element or (None, None)
    if algebra is not None and algebra.matrix is not x:
        try:
            return algebra.eval(algebra.inv(g))
        except ZeroDivisionError:
            raise SingularMatrixError("matrix is singular") from None
    inv = solve(x.spec, x.vals, identity(x.spec, x.d).vals)
    if inv is None:
        raise SingularMatrixError("matrix is singular")
    return Matrix._from_vals(x.spec, inv)


def mat_pow(x: Matrix, n: int) -> Matrix:
    """x^n by whichever route is predicted to take fewer field multiplications.

    From n >= q^d - 1 on, n is first reduced mod q^d - 1 when x lies in a
    field GF(q^d); no other code reduces an exponent.  The certificate,
    _field_verdict, is chi_x(0) != 0 and chi_x irreducible
    (fqpoly.is_irreducible): then F_q[x] is the field GF(q^d) (_FIELD),
    and x, a unit of it, has an order dividing q^d - 1.  Any other matrix,
    one whose chi_x splits into distinct factors included, keeps the full
    exponent (correct, just slower).  The verdict is decided once per
    matrix and cached on it, and it shares chi_x with the power, as
    char_poly caches it too.  Below q^d - 1 the reduction would change
    nothing, so no certificate is computed.  keygen certifies its
    conjugator before the power, and a nonzero matrix that commutes with
    a _FIELD one (encrypt's B_phim, decrypt's B_r) is handed _IN_A_FIELD
    instead (_hand_on_verdict).

    The second reduction is the norm's.  When x lies in a field,
    x^N = det(x) 1 for N = (q^d - 1)/(q - 1), the field norm, so
    x^n = det(x)^k x^s for (k, s) = divmod(n, N), det(x) = (-1)^d chi_x(0).
    Such a power raises only s, then multiplies the remainder t^s mod
    chi_x by det(x)^k (field._pow_raw, bits(k) + popcount(k) - 2, and one
    multiplication per coefficient unless det(x)^k = 1), before any of
    the evaluations below; s = 0 is det(x)^k 1.  The result is exactly
    x^n.  The split is priced as Cayley-Hamilton at s (at 1 for s = 0),
    det(x)^k and d, and taken only below both routes' prices at n, so
    cayley_hamilton_cost at n bounds it too.

    Cayley-Hamilton: x^n = r(x) for r(t) = t^n mod chi_x(t), by
    FqPoly.pow_mod, at most d + floor(d/2) d multiplications per squaring
    in characteristic 2, through chi_x's squaring rows (built once per
    chi_x, (d - 1) d), and d + (d - 1) d plus the cross terms otherwise,
    and an evaluation of r at x.  A matrix with a verdict is one raised to
    large exponents, such as a key's conjugator, which encrypt raises for
    every message; from its second remainder on, r(x) is evaluated in its own
    algebra F_q[x], on x's power basis (fqpoly.Quotient.eval,
    (d - 1) d^2, after (d - 2) d^3 to build the basis once).  A matrix
    recorded as g(B) for another matrix B is raised in F_q[B] instead:
    r(x) = s(B) for s = r(g) mod chi_B, by Quotient.compose and eval,
    (d - 1) d^2 each, which for d >= 3 is no more than Horner's (for d = 2
    it would be more, and Horner's runs).  Every other evaluation, the
    first at a matrix with a verdict among them, is Horner's,
    d^2 + (d - 2) d^3, so a matrix raised once builds no basis.  A result
    evaluated on a basis is recorded as s(B), or r(x), for mat_inv.
    Square-and-multiply runs left to right from x,
    (bits(n) + popcount(n) - 2) d^3, cheaper for short exponents on large
    matrices.  Both predictions come from d, n and p.
    """
    if n < 0:
        return mat_pow(mat_inv(x), -n)
    from .fqpoly import cayley_hamilton_cost, char_poly

    spec, d = x.spec, x.d
    order_bound = spec.q**d - 1
    if n >= order_bound and _field_verdict(x):
        n %= order_bound
    if not n:
        return identity(spec, d)
    cayley_hamilton = cayley_hamilton_cost(d, n, spec.p)
    square_and_multiply = d**3 * (n.bit_length() + n.bit_count() - 2)
    norm = order_bound // (spec.q - 1)
    if n >= norm and x._split:
        k, s = divmod(n, norm)
        # Cayley-Hamilton at s (s = 0 costs no more than s = 1), det^k, and
        # the remainder times it
        split = cayley_hamilton_cost(d, max(s, 1), spec.p) + k.bit_length() + k.bit_count() + d - 2
        if split < min(cayley_hamilton, square_and_multiply):
            chi0 = char_poly(x).coeffs[0]
            c = _pow_raw(spec, spec._neg_raw(chi0) if d % 2 else chi0, k)
            if not s:
                return scalar_matrix(spec, d, FieldElement(spec, c))
            return _cayley_hamilton(x, s, c)
    if cayley_hamilton < square_and_multiply:
        return _cayley_hamilton(x, n, 1)
    acc = x
    for bit in bin(n)[3:]:
        acc = mat_mul(acc, acc)
        if bit == "1":
            acc = mat_mul(acc, x)
    return acc


def _cayley_hamilton(x: Matrix, n: int, c: int) -> Matrix:
    """c x^n, n >= 1, for a packed scalar c: r = c (t^n mod chi_x), then
    r(x) by the evaluation mat_pow's docstring names.  r is scaled only
    for c != 1, one multiplication per coefficient."""
    from .fqpoly import FqPoly, char_poly

    r = FqPoly.x(x.spec).pow_mod(n, char_poly(x))
    if c != 1:
        r = r.scale(c)
    if x._split is not None or x._element is not None:
        algebra, g = _as_element(x)
        if algebra.matrix is not x and x.d > 2:
            return algebra.eval(algebra.compose(r.coeffs, g))
        if algebra.matrix is x and algebra.used_before("evaluation"):
            return algebra.eval(r.coeffs)
    return r.eval_matrix(x)


def _as_element(b: Matrix) -> tuple:
    """b as an element (algebra, g) of an fqpoly.Quotient: g(B) if b is
    recorded so, else x in F_q[b], kept on b from the first call.
    mat_pow and the hand-on call it only for a b with a verdict, whose
    chi_b is cached, or an element."""
    if b._element is None:
        from .fqpoly import Quotient, char_poly

        object.__setattr__(b, "_element", (Quotient(char_poly(b), b), (0, 1)))
    return b._element


# mat_pow's verdicts besides None (undecided) and False (the certificate
# failed, and the exponent is kept).  _FIELD: chi_x(0) != 0 and chi_x is
# irreducible, so that F_q[x] is the field GF(q^d), and only such a
# matrix hands on a verdict: _IN_A_FIELD, to a nonzero member of its
# field.  Either is a unit of GF(q^d), whose order divides q^d - 1.
_FIELD = "F_q[x] is a field"
_IN_A_FIELD = "lies in a field F_q[B]"


def _field_verdict(x: Matrix):
    """x's verdict, decided on an undecided x: _FIELD when chi_x(0) != 0
    and fqpoly.is_irreducible(chi_x), else False.  The first test is
    free, and keeps the 1 x 1 zero matrix, whose chi_x = t is
    irreducible, out of the field."""
    if x._split is None:
        from .fqpoly import char_poly, is_irreducible

        chi = char_poly(x)
        object.__setattr__(x, "_split", _FIELD if chi.coeffs[0] and is_irreducible(chi) else False)
    return x._split


def _hand_on_verdict(certified: Matrix, x: Matrix) -> None:
    """Give an undecided x the verdict _IN_A_FIELD when `certified`, B,
    carries _FIELD and x is a nonzero matrix that commutes with it, a test
    made only then.  This is exact: B is cyclic, so what commutes with it
    is F_q[B], the field GF(q^d), where every nonzero member is a unit of
    order dividing q^d - 1.  The zero matrix commutes with everything and
    is no unit; it is refused by its entries, at no cost, before B counts
    a use.

    B's first membership test compares B x with x B, 2 d^3
    multiplications, as a matrix handed on once should build nothing.
    From the second on, x is read in B's algebra (fqpoly.Quotient.read,
    d^3, after B's power basis, (d - 2) d^3 unless mat_pow built it, and
    its coordinate reader at the first read), which records a member as
    g(B), so that mat_pow raises it on B's basis.  A B recorded as g(B')
    for another matrix B' keeps no algebra of its own and tests by
    commutation every time."""
    if x._split is not None or certified._split != _FIELD or not any(map(any, x.vals)):
        return
    if (x.spec, x.d) != (certified.spec, certified.d):
        raise FieldMismatchError("incompatible matrices")
    algebra = _as_element(certified)[0]
    if algebra.matrix is not certified or not algebra.used_before("membership test"):
        if mat_mul(certified, x) == mat_mul(x, certified):
            object.__setattr__(x, "_split", _IN_A_FIELD)
        return
    g = algebra.read(x)
    if g is not None:
        object.__setattr__(x, "_split", _IN_A_FIELD)
        object.__setattr__(x, "_element", (algebra, g))


def conjugate(x: Matrix, a: Matrix) -> Matrix:
    """a^(-1) x a."""
    return mat_mul(mat_mul(mat_inv(a), x), a)


def _draw_gl(spec: FieldSpec, d: int, rng) -> tuple[Matrix, int]:
    """A uniform invertible matrix and its determinant, one det per draw."""
    q = spec.q
    while True:
        m = Matrix._from_vals(
            spec, tuple(tuple(rng.randrange(q) for _ in range(d)) for _ in range(d))
        )
        dt = det(m).val
        if dt:
            return m, dt


def random_gl(spec: FieldSpec, d: int, rng) -> Matrix:
    return _draw_gl(spec, d, rng)[0]


def random_sl(spec: FieldSpec, d: int, rng) -> Matrix:
    """The draw of random_gl with its last row divided by its determinant,
    d multiplications."""
    m, dt = _draw_gl(spec, d, rng)
    if dt == 1:
        return m
    dinv, mul = spec._inv_raw(dt), spec._mul_raw
    _count_muls(d)
    return Matrix._from_vals(spec, m.vals[:-1] + (tuple(mul(v, dinv) for v in m.vals[-1]),))


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
