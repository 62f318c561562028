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
elimination, except for a matrix with coordinates on a power basis
(below), which needs none.  det keeps its own forward-only pass: it needs the product
of the pivots and nothing else, so it runs no back substitution, carries
no right-hand side and stops at the last pivot, where a solve would do
more work.
Its exact multiplication count is also pinned by the golden bench,
through the SL check of Automorphism.__init__.

mat_pow is the package's one exponentiation engine: keygen, encrypt,
decrypt and Automorphism.power all raise matrices through it.  It picks
Cayley-Hamilton or square-and-multiply by predicted cost, and it alone
reduces an exponent, of at least q^d - 1 mod q^d - 1, when a verdict
cached on the matrix (its certificate, or one handed on) shows that this
is exact.  When the verdict also shows that the matrix lies in a field
F_q[B] = GF(q^d), it splits the exponent at the norm's,
N = (q^d - 1)/(q - 1): x^n = det(x)^k x^s for (k, s) = divmod(n, N).
A matrix with a verdict is raised again and again, as a key's
conjugators are for every message, so from its second Cayley-Hamilton
power on mat_pow keeps its power basis on it and evaluates each
remainder in one product with that basis instead of by Horner.

What is known to lie in F_q[B] for such a B is kept as its coordinates
on B: the result of an evaluation on B's basis, and a matrix that a
certified B reads as g(B) when it hands on its verdict a second time
(_hand_on_verdict), as decrypt's B_r from a key's second message on.
mat_pow raises a matrix with coordinates on its base's basis, and
mat_inv inverts it there by extended Euclid modulo chi_B, instead of
by Horner and by elimination.
"""

from __future__ import annotations

import math
import warnings
from functools import reduce
from itertools import chain

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
from .linalg import RowReducer, solve

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
    # _chi caches the characteristic polynomial (fqpoly.char_poly fills
    # it), _split the verdict of mat_pow's certificate that the order
    # divides q^d - 1, and whether F_q[x] is a field or x lies in one
    # (_FIELD, _IN_A_FIELD); only this module writes it (mat_pow, and the
    # hand-offs _set_certified and _hand_on_verdict).  The other three
    # slots are written only here too.  _basis is None until mat_pow
    # evaluates a remainder at a matrix with a verdict, False after the
    # first such evaluation, and then the power basis of _power_basis,
    # which a certified matrix's second hand-on also builds.  _reader is
    # None until a certified matrix hands on its verdict, False after the
    # first hand-on, and then _coordinate_reader's entry positions and
    # block inverse.  _coords is None, or (base, s) for a matrix known to
    # equal s(base), s of degree < d, with base's power basis built
    __slots__ = ("spec", "d", "vals", "_chi", "_split", "_basis", "_reader", "_coords")

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
    def _from_vals(cls, spec: FieldSpec, vals: tuple) -> "Matrix":
        """The matrix of a tuple of row tuples of packed ints, unchecked."""
        m = object.__new__(cls)
        m._set_slots(spec, vals)
        return m

    def _set_slots(self, spec: FieldSpec, vals: tuple) -> None:
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "d", len(vals))
        object.__setattr__(self, "vals", vals)
        object.__setattr__(self, "_chi", None)
        object.__setattr__(self, "_split", None)
        object.__setattr__(self, "_basis", None)
        object.__setattr__(self, "_reader", None)
        object.__setattr__(self, "_coords", None)

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
    """x^(-1).  A matrix with coordinates s on a base B is s(B), and its
    inverse is h(B) for h = s^(-1) mod chi_B, which exists exactly when
    s(B) is invertible (chi_B's roots are B's eigenvalues): extended
    Euclid (fqpoly.mod_inverse) and one product with B's power basis,
    (d - 1) d^2.  Any other matrix is inverted by linalg's solve of
    x X = 1."""
    if x._coords is not None:
        from .fqpoly import FqPoly, char_poly, mod_inverse

        base, s = x._coords
        try:
            h = mod_inverse(FqPoly._from_vals(x.spec, s), char_poly(base))
        except ZeroDivisionError:
            raise SingularMatrixError("matrix is singular") from None
        return _eval_on_basis(base, h.coeffs)
    inv = solve(x.spec, x.vals, identity(x.spec, x.d).vals)
    if inv is None:
        raise SingularMatrixError("matrix is singular")
    return Matrix._from_vals(x.spec, inv)


def mat_pow(x: Matrix, n: int) -> Matrix:
    """x^n by whichever route is predicted to take fewer field multiplications.

    From n >= q^d - 1 on, n is first reduced mod q^d - 1 when that is
    provably exact; no other code reduces an exponent.  The certificate is
    x^(q^d) = x mod chi_x with chi_x(0) != 0: then chi_x is squarefree
    with its roots in GF(q^d)^*, so x is semisimple and its order divides
    q^d - 1.  Every matrix with irreducible chi_x passes; one with a
    repeated eigenvalue does not and keeps the full exponent (correct,
    just slower).  The same Frobenius chain also tells whether chi_x is
    irreducible (fqpoly.divides_x_qk_minus_x's level 2), and then the
    verdict is _FIELD.  The verdict is decided once per matrix and cached
    on it, and it shares chi_x with the power, as char_poly caches it too.
    Below q^d - 1 the reduction would change nothing, so no certificate
    is computed.  A verdict known by other means is recorded before the
    power: _set_certified for a matrix with irreducible chi_x (keygen's
    conjugator), and _hand_on_verdict for one that commutes with a
    certified matrix (encrypt's B_phim, decrypt's B_r).

    The second reduction is the norm's.  When F_q[x] is a field GF(q^d)
    (_FIELD), or x lies in one (_IN_A_FIELD), x^N = det(x) 1 for
    N = (q^d - 1)/(q - 1), the field norm, so x^n = det(x)^k x^s for
    (k, s) = divmod(n, N), det(x) = (-1)^d chi_x(0).  Such a power raises
    only s, then multiplies the remainder t^s mod chi_x by det(x)^k
    (field._pow_raw, bits(k) + popcount(k) - 2, and one multiplication
    per coefficient unless det(x)^k = 1), before any of the evaluations
    below; s = 0 is det(x)^k 1.  The result is exactly x^n.  The split is
    priced as Cayley-Hamilton at s (at 1 for s = 0), det(x)^k and d, and
    taken only below both routes' prices at n, so cayley_hamilton_cost at
    n bounds it too.  A matrix whose chi_x splits but is reducible keeps
    the reduction mod q^d - 1 alone.

    Cayley-Hamilton: x^n = r(x) for r(t) = t^n mod chi_x(t), by
    FqPoly.pow_mod, about d^2 multiplications per exponent bit, and an
    evaluation of r at x.  A matrix with a verdict is one raised to large
    exponents, such as a key's conjugator, which encrypt raises for every
    message; from the second remainder evaluated at it on, r(x) is
    r_0 1 + sum_k r_k x^k, one product of (r_1, ..., r_(d-1)) with the
    power basis x, ..., x^(d-1) kept on x: (d - 1) d^2 multiplications,
    after d - 2 matrix products, (d - 2) d^3, to build the basis once.
    Otherwise, a matrix with coordinates g on a base B, x = g(B), is
    raised on B's basis: r(x) = s(B) for s = r(g) mod chi_B, by
    fqpoly._compose and one product with B's basis, (d - 1) d^2 each,
    which for d >= 3 is no more than Horner's (for d = 2 it would be
    more, and Horner's runs).  Every other evaluation, the first at a
    matrix with a verdict and every one at a matrix without coordinates,
    is Horner's, d^2 + (d - 2) d^3, so a matrix raised once builds no
    basis.  A result evaluated on a basis records its remainder, r or
    s, as its coordinates there, for mat_inv.  Square-and-multiply runs left to
    right from x, (bits(n) + popcount(n) - 2) d^3, cheaper for short
    exponents on large matrices.  Both predictions come from d, n and p.
    """
    if n < 0:
        return mat_pow(mat_inv(x), -n)
    from .fqpoly import cayley_hamilton_cost, char_poly, divides_x_qk_minus_x

    spec, d = x.spec, x.d
    order_bound = spec.q**d - 1
    if n >= order_bound:
        if x._split is None:
            chi = char_poly(x)
            level = divides_x_qk_minus_x(chi, d) if chi.coeffs[0] else 0
            object.__setattr__(x, "_split", (False, True, _FIELD)[level])
        if x._split:
            n %= order_bound
    if not n:
        return identity(spec, d)
    cayley_hamilton = cayley_hamilton_cost(d, n, spec.p)
    square_and_multiply = d**3 * (n.bit_length() + n.bit_count() - 2)
    norm = order_bound // (spec.q - 1)
    if n >= norm and x._split in (_FIELD, _IN_A_FIELD):
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
    from .fqpoly import FqPoly, _compose, char_poly

    r = FqPoly.x(x.spec).pow_mod(n, char_poly(x))
    if c != 1:
        r = r.scale(c)
    if x._split is not None and x._basis is None:
        object.__setattr__(x, "_basis", False)
    elif x._split is not None and x._basis is False:
        object.__setattr__(x, "_basis", _power_basis(x))
    if x._basis:
        return _eval_on_basis(x, r.coeffs)
    if x._coords is not None and x.d > 2:
        base, g = x._coords
        return _eval_on_basis(base, _compose(r.coeffs, g, char_poly(base)))
    return r.eval_matrix(x)


def _power_basis(x: Matrix) -> tuple:
    """x, x^2, ..., x^(d-1), each flattened into one row of d^2 entries,
    as they are and in the field's prepared form: d - 2 products,
    (d - 2) d^3 multiplications.  mat_pow takes the Cayley-Hamilton route,
    and the protocol hands verdicts on, only for d >= 2, so there is at
    least one power."""
    powers = [x]
    for _ in range(x.d - 2):
        powers.append(mat_mul(powers[-1], x))
    rows = tuple(tuple(chain.from_iterable(p.vals)) for p in powers)
    return rows, x.spec._prepare_raw(rows)


def _eval_on_basis(x: Matrix, coeffs) -> Matrix:
    """r(x) for r of degree < d, r_0 1 plus the product of the row
    (r_1, ..., r_(d-1)) with x's power basis, counted as (d - 1) d^2
    multiplications, products by zero included, as mat_mul counts.  The
    result records r as its coordinates on x."""
    spec, d = x.spec, x.d
    r = (*coeffs, *(0,) * (d - len(coeffs)))
    _count_muls((d - 1) * d * d)
    flat = list(spec._mul_prepared_raw((r[1:],), x._basis[1])[0])
    add = spec._add_raw
    for i in range(0, d * d, d + 1):
        flat[i] = add(flat[i], r[0])
    out = Matrix._from_vals(spec, tuple(tuple(flat[i:i + d]) for i in range(0, d * d, d)))
    object.__setattr__(out, "_coords", (x, r))
    return out


def _coordinate_reader(x: Matrix) -> tuple:
    """d entry positions at which 1, x, ..., x^(d-1) are independent, as
    indices into the flattened entries, and the inverse of the d x d
    block of their entries there, in the field's prepared form: for a y
    in F_q[x], its entries at the positions times that inverse are its
    coordinates on x.  One RowReducer pass over the rows
    [1, x, ..., x^(d-1) | identity], counted as linalg counts: its pivot
    columns are the positions, and the right block of its reduced rows
    is the inverse.  x is cyclic (it carries a passing verdict) and its
    power basis is built, so the pivots are d columns of the left block."""
    spec, d = x.spec, x.d
    red = RowReducer(spec, d * d + d)
    flat_one = tuple(chain.from_iterable(identity(spec, d).vals))
    for k, row in enumerate((flat_one, *x._basis[0])):
        red.add_row((*row, *(int(k == j) for j in range(d))))
    positions = sorted(red.pivot_rows)
    block_inverse = tuple(tuple(red.pivot_rows[c][d * d:]) for c in positions)
    return positions, spec._prepare_raw(block_inverse)


# mat_pow's verdicts besides None (undecided), False (the certificate
# failed) and True (it passed: chi_x is squarefree with its roots in
# GF(q^d), so x is cyclic and its order divides q^d - 1).  _FIELD is a
# pass with chi_x irreducible, so that F_q[x] is the field GF(q^d).  A
# certified matrix hands on _IN_A_FIELD if it is _FIELD, else
# _COMMUTES_WITH_CERTIFIED: the order divides q^d - 1 either way, but the
# receiver need not be cyclic, so it certifies nothing in turn.
_FIELD = "F_q[x] is a field"
_IN_A_FIELD = "lies in a field F_q[B]"
_COMMUTES_WITH_CERTIFIED = "commutes with a certified matrix"


def _set_certified(x: Matrix) -> None:
    """Record the verdict _FIELD on x, for an x whose chi_x the caller
    found irreducible of degree d >= 2: such a chi_x has chi_x(0) != 0
    and divides x^(q^d) - x, and F_q[x] is a field."""
    object.__setattr__(x, "_split", _FIELD)


def _hand_on_verdict(certified: Matrix, x: Matrix) -> None:
    """Give an undecided x a verdict when `certified` carries a passing
    one (True or _FIELD) and x commutes with it, a test made only then.
    This is exact: the certificate makes chi squarefree with its roots in
    GF(q^d), so `certified` is cyclic, and what commutes with it is
    F_q[certified], a product of fields GF(q^k) with k dividing d, where
    every unit has order dividing q^d - 1.  When `certified` is _FIELD,
    F_q[certified] is one field GF(q^d), and x gets _IN_A_FIELD, on
    which mat_pow also splits its powers at the norm; otherwise x gets
    _COMMUTES_WITH_CERTIFIED.

    The first hand-on compares B x with x B, 2 d^3 multiplications, as a
    matrix handed on once should build nothing.  From the second on, x is
    read as g(B): g is x's entries at the positions of _coordinate_reader
    times its block inverse, d^2, and x commutes exactly when g(B),
    evaluated on B's power basis in (d - 1) d^2, equals x.  Then x also
    records g as its coordinates on B, so that mat_pow raises it on B's
    basis.  The second hand-on first builds what this reads: B's power
    basis, (d - 2) d^3 unless mat_pow built it, and the reader."""
    if x._split is not None or certified._split not in (True, _FIELD):
        return
    if (x.spec, x.d) != (certified.spec, certified.d):
        raise FieldMismatchError("incompatible matrices")
    verdict = _IN_A_FIELD if certified._split == _FIELD else _COMMUTES_WITH_CERTIFIED
    if certified._reader is None:
        object.__setattr__(certified, "_reader", False)
        if mat_mul(certified, x) == mat_mul(x, certified):
            object.__setattr__(x, "_split", verdict)
        return
    if certified._reader is False:
        if not certified._basis:
            object.__setattr__(certified, "_basis", _power_basis(certified))
        object.__setattr__(certified, "_reader", _coordinate_reader(certified))
    positions, block_inverse = certified._reader
    flat = tuple(chain.from_iterable(x.vals))
    _count_muls(x.d * x.d)
    g = x.spec._mul_prepared_raw((tuple(flat[c] for c in positions),), block_inverse)[0]
    member = _eval_on_basis(certified, g)
    if member == x:
        object.__setattr__(x, "_split", verdict)
        object.__setattr__(x, "_coords", member._coords)


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
