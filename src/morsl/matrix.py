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
elimination.  det keeps its own forward-only pass: it needs the product
of the pivots and nothing else, so it runs no back substitution, carries
no right-hand side and stops at the last pivot, where a solve would do
more work.  Its exact multiplication count is also pinned by the golden
bench, through the SL check of Automorphism.__init__.

mat_pow raises a matrix by Cayley-Hamilton or square-and-multiply,
whichever is predicted cheaper, to the exponent it is given.  KeyField,
the algebra K = F_q[B] of a key's conjugator B, is the one place where
an exponent is reduced, mod q^d - 1 and at the norm, when B is a unit of
a field GF(q^d).  The keys hold one each (protocol.py), keygen, encrypt,
decrypt and Automorphism.power raise matrices through one, and it keeps
B's algebra, an fqpoly.Quotient, for a B used more than once, and lets
the characteristic polynomial of a power keep its base-q table where
that route pays (fqpoly.keep_base_q_table).
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
    "KeyField",
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
    # _chi caches chi_x (fqpoly.char_poly fills it)
    __slots__ = ("spec", "d", "vals", "_chi")

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
    rows = range(1, alpha.d + 1)
    return Matrix._from_vals(spec, tuple(tuple(int(alpha(b) == a) for b in rows) for a in rows))


def diagonal_matrix(w) -> Matrix:
    w = list(w)
    if not w:
        raise ValueError("empty diagonal")
    if any(x.is_zero() for x in w):
        raise ValueError("diagonal entries must be nonzero")
    zero, d = w[0].spec.zero(), len(w)
    return Matrix(w[0].spec, [[x if a == b else zero for b in range(d)] for a, x in enumerate(w)])


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
    """x^(-1), by linalg's solve of x X = 1."""
    inv = solve(x.spec, x.vals, identity(x.spec, x.d).vals)
    if inv is None:
        raise SingularMatrixError("matrix is singular")
    return Matrix._from_vals(x.spec, inv)


def mat_pow(x: Matrix, n: int) -> Matrix:
    """x^n by whichever route is predicted to take fewer field multiplications.

    Cayley-Hamilton: x^n = r(x) for r(t) = t^n mod chi_x(t), by
    FqPoly.pow_mod (in characteristic 2 at most d + floor(d/2) d
    multiplications per squaring, through chi_x's squaring rows, built
    once per chi_x in (d - 1) d; d + (d - 1) d plus the cross terms
    otherwise), then r(x) by Horner's rule, d^2 + (d - 2) d^3.
    Square-and-multiply runs left to right from x,
    (bits(n) + popcount(n) - 2) d^3, cheaper for short exponents on large
    matrices.  Both predictions come from d, n and p.  n is raised as
    given; KeyField reduces an exponent where that is exact.
    """
    if n < 0:
        return mat_pow(mat_inv(x), -n)
    if not n:
        return identity(x.spec, x.d)
    from .fqpoly import FqPoly, cayley_hamilton_cost, char_poly

    if cayley_hamilton_cost(x.d, n, x.spec.p) < x.d**3 * (n.bit_length() + n.bit_count() - 2):
        return FqPoly.x(x.spec).pow_mod(n, char_poly(x)).eval_matrix(x)
    acc = x
    for bit in bin(n)[3:]:
        acc = mat_mul(acc, acc)
        if bit == "1":
            acc = mat_mul(acc, x)
    return acc


class KeyField:
    """K = F_q[B], the algebra of a key's conjugator B, and the one place
    where an exponent is reduced.  Keys hold one each (protocol.py);
    Automorphism.power and a fresh B_r use one once.

    B's certificate, decided on first need and kept, is chi_B(0) != 0
    and chi_B irreducible (fqpoly.is_irreducible): then K is the field
    GF(q^d), and B, a unit of it, has an order dividing q^d - 1.  The
    first test is free, and keeps the 1 x 1 zero matrix, whose chi = t is
    irreducible, out of the field.  A matrix that commutes with a
    certified B lies in K, as B is cyclic, so a nonzero one is a unit of
    the same field: member(x) and power_of(x, n) hand B's certificate on
    to it (a KeyField that holds such a member hands nothing on).

    power(n) reduces n mod q^d - 1, from q^d - 1 on, where B is such a
    unit, deciding B's certificate if need be; below q^d - 1 the
    reduction would change nothing and nothing is decided.  A power of a
    unit known so is then split at the norm: x^N = det(x) 1 for
    N = (q^d - 1)/(q - 1), so x^n = det(x)^k x^s for (k, s) =
    divmod(n, N), det(x) = (-1)^d chi_x(0).  Only s is raised, the
    remainder t^s mod chi_x scaled by det(x)^k (field._pow_raw,
    bits(k) + popcount(k) - 2, and one multiplication per coefficient
    unless det(x)^k = 1); s = 0 is det(x)^k 1.  The split is priced as
    Cayley-Hamilton at max(s, 1), det(x)^k and d, and taken only below
    both of mat_pow's prices at n, so cayley_hamilton_cost at n bounds
    it too.  Any other power takes mat_pow's route.

    Each power of x = B or of a member, raised as t^s mod chi_x, first
    lets chi_x keep its base-q table (fqpoly.keep_base_q_table): over
    GF(2^gamma), gamma > 8, where x^s's base-q route, with what it builds
    (x^q and the Frobenius rows, which a certificate decided on chi_x has
    kept, and the table), is predicted to count fewer multiplications than
    the binary route, as at the paper preset's d = 7 and gamma = 160 and
    not at the small preset's d = 5 and gamma = 16; chi_x is decided at
    its first such power.  The power then takes that route, and so does
    every later power modulo chi_x that its kept table makes cheaper; the
    prediction keeps the power within cayley_hamilton_cost.

    B's algebra, an fqpoly.Quotient on B, serves the uses that repeat:
    B's power basis and coordinate reader are built only for a B used
    more than once.  B's first remainder is evaluated by Horner's rule,
    and later ones on B's basis, (d - 1) d^2, after (d - 2) d^3 to build
    it.  B's first membership test compares B x with x B, 2 d^3; later
    ones read x in K (Quotient.read, d^3, after the basis and the
    reader, which the basis then serves B's evaluations with).  A power
    evaluated on the basis, and a member read in K, have coordinates
    there: a member's power is evaluated on the basis too (Quotient
    compose and eval, (d - 1) d^2 each, for d >= 3, where that is no
    more than Horner's), and such a power is inverted there (Quotient.inv
    and eval).  Every other matrix is inverted by mat_inv.
    """

    __slots__ = ("b", "_certificate", "_member", "_algebra", "_uses")

    def __init__(self, b: Matrix):
        self.b, self._certificate, self._member, self._algebra = b, None, False, None
        self._uses = frozenset()

    @property
    def certificate(self) -> bool:
        """B's certificate, decided here on first read."""
        if self._certificate is None:
            from .fqpoly import char_poly, is_irreducible

            chi = char_poly(self.b)
            self._certificate = bool(chi.coeffs[0]) and is_irreducible(chi)
        return self._certificate

    def power(self, n: int) -> Matrix:
        """B^n; a negative n raises B^(-1) in a KeyField of its own."""
        if n < 0:
            return KeyField(mat_inv(self.b)).power(-n)
        return self._power(self.b, None, n)[0]

    def power_and_inverse(self, n: int) -> tuple[Matrix, Matrix]:
        """B^n and its inverse, n >= 0."""
        return self._with_inverse(*self._power(self.b, None, n))

    def member(self, x: Matrix) -> "KeyField":
        """F_q[x], for x handed B's certificate when it is a nonzero member
        of K; B's certificate is decided first."""
        field = KeyField(x)
        field._member = self.certificate and bool(self._test(x))
        return field

    def power_of(self, x: Matrix, n: int) -> tuple[Matrix, Matrix]:
        """x^n and its inverse, n >= 0, for another matrix x.  From
        q^d - 1 on, and only where B's certificate is already decided
        and holds, x is tested for membership in K: a member read in K
        is raised and inverted there, and one found by the commutation
        test is handed the certificate in a KeyField of its own, as is
        every other x without it."""
        found = self._test(x) if n >= x.spec.q**x.d - 1 else None
        if isinstance(found, tuple):
            return self._with_inverse(*self._power(x, found, n))
        field = KeyField(x)
        field._member = bool(found)
        return field.power_and_inverse(n)

    def _again(self, use: str) -> bool:
        """Whether B has served a use of this kind before; records it.
        The basis and the reader are built only from a second use on."""
        seen = use in self._uses
        self._uses |= {use}
        return seen

    def _quotient(self):
        if self._algebra is None:
            from .fqpoly import Quotient, char_poly

            self._algebra = Quotient(char_poly(self.b), self.b)
        return self._algebra

    def _test(self, x: Matrix):
        """None unless B's certificate is decided and holds and x is
        nonzero; then whether x commutes with B at B's first test, and
        x's coordinates g in K, x = g(B), or None, from the second on."""
        if self._certificate is not True or not any(map(any, x.vals)):
            return None
        b = self.b
        if (x.spec, x.d) != (b.spec, b.d):
            raise FieldMismatchError("incompatible matrices")
        if not self._again("membership test"):
            return mat_mul(b, x) == mat_mul(x, b)
        self._uses |= {"evaluation"}  # the read builds the basis
        return self._quotient().read(x)

    def _power(self, x: Matrix, g, n: int) -> tuple:
        """x^n, n >= 0, for x = B (g None) or a member x = g(B), and its
        coordinates in K where it was evaluated there, else None."""
        from .fqpoly import FqPoly, cayley_hamilton_cost, char_poly, keep_base_q_table

        spec, d = x.spec, x.d
        order = spec.q**d - 1
        unit = g is not None or self._member
        if n >= order and (unit or self.certificate):
            n %= order
        k, s = divmod(n, order // (spec.q - 1))
        prices = cayley_hamilton_cost(d, n, spec.p), d**3 * (n.bit_length() + n.bit_count() - 2)
        # the split, priced as Cayley-Hamilton at s (s = 0 costs no more
        # than s = 1), det^k and the remainder times it
        if not (k and (unit or self._certificate)) or (
            cayley_hamilton_cost(d, max(s, 1), spec.p) + k.bit_length() + k.bit_count() + d - 2
            >= min(prices)
        ):
            if not n or prices[0] >= prices[1]:
                return mat_pow(x, n), None
            k, s = 0, n
        chi = char_poly(x)
        c = _pow_raw(spec, spec._neg_raw(chi.coeffs[0]) if d % 2 else chi.coeffs[0], k) if k else 1
        if not s:
            return scalar_matrix(spec, d, FieldElement(spec, c)), None
        keep_base_q_table(chi, s)
        r = FqPoly.x(spec).pow_mod(s, chi)
        if c != 1:
            r = r.scale(c)
        if g is not None and d > 2:
            h = self._quotient().compose(r.coeffs, g)
        elif g is None and self._again("evaluation"):
            h = r.coeffs
        else:
            return r.eval_matrix(x), None
        return self._quotient().eval(h), h

    def _with_inverse(self, x: Matrix, h) -> tuple[Matrix, Matrix]:
        """x and its inverse, in K where h, x's coordinates there, is known."""
        return x, mat_inv(x) if h is None else self._quotient().eval(self._quotient().inv(h))


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
