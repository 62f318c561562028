"""Polynomials with coefficients in GF(p^gamma).

Supports the characteristic-polynomial and irreducibility machinery of
the security lab: Hessenberg-form characteristic polynomials (division
only by field elements, valid in any characteristic), the gcd-with-
Frobenius-powers irreducibility test, and enough factorization
(squarefree / distinct-degree / equal-degree) to pull one irreducible
factor out of a reducible characteristic polynomial.

It is also the exponentiation engine behind matrix.mat_pow: pow_mod
computes x^e mod chi_M, and eval_matrix evaluates the result at M.
Repeated q-th powers modulo f go through the Frobenius matrix of f.
Over a binary field too large for a multiplication table, x^e runs on
raw ints: the residue is one int of byte-aligned lanes, and squaring a
coefficient and clearing a top coefficient are each one XOR of byte-
indexed table entries (both maps are GF(2)-linear).  That kernel adds
to the multiplication counter exactly what the FieldElement loop would
count, so counts and route choices do not depend on which path ran.
"""

from __future__ import annotations

import random as _random
from functools import reduce as _reduce
from math import gcd as _int_gcd
from operator import getitem as _getitem
from operator import xor as _xor

from .field import _TABLE_MAX_Q, FieldElement, FieldMismatchError, FieldSpec, _count_muls
from .matrix import Matrix, mat_mul, scalar_matrix

__all__ = [
    "FqPoly",
    "char_poly",
    "char_poly_cofactor",
    "is_irreducible",
    "divides_x_qk_minus_x",
    "irreducible_factors",
    "companion_matrix",
    "mod_inverse",
    "multiplicative_order",
    "factor_int",
]


class FqPoly:
    """Immutable polynomial over a FieldSpec, constant coefficient first."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs=()):
        coeffs = tuple(coeffs)
        n = len(coeffs)
        while n > 0 and coeffs[n - 1].is_zero():
            n -= 1
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "coeffs", coeffs[:n])

    def __setattr__(self, *args):
        raise AttributeError("FqPoly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec) -> "FqPoly":
        return cls(spec, ())

    @classmethod
    def one(cls, spec: FieldSpec) -> "FqPoly":
        return cls(spec, (spec.one(),))

    @classmethod
    def x(cls, spec: FieldSpec) -> "FqPoly":
        return cls(spec, (spec.zero(), spec.one()))

    @classmethod
    def from_int_coeffs(cls, spec: FieldSpec, ints) -> "FqPoly":
        return cls(spec, tuple(spec.scalar(c) for c in ints))

    # -- basics ---------------------------------------------------------------

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == self.spec.one()

    def leading(self) -> FieldElement:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.spec.one()

    def __eq__(self, other):
        if not isinstance(other, FqPoly):
            return NotImplemented
        return self.spec == other.spec and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(c.val for c in self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "FqPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                if i == 0:
                    terms.append(str(c.val))
                elif i == 1:
                    terms.append(f"{c.val}*x" if c.val != 1 else "x")
                else:
                    terms.append(f"{c.val}*x^{i}" if c.val != 1 else f"x^{i}")
        return "FqPoly(" + " + ".join(terms) + ")"

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "FqPoly") -> "FqPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return FqPoly(self.spec, out)

    def __neg__(self) -> "FqPoly":
        return FqPoly(self.spec, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "FqPoly") -> "FqPoly":
        return self + (-other)

    def __mul__(self, other: "FqPoly") -> "FqPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FqPoly.zero(self.spec)
        zero = self.spec.zero()
        out = [zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = out[i + j] + ai * bj
        return FqPoly(self.spec, out)

    def scale(self, c: FieldElement) -> "FqPoly":
        return FqPoly(self.spec, tuple(x * c for x in self.coeffs))

    def shift(self, k: int) -> "FqPoly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return FqPoly(self.spec, (self.spec.zero(),) * k + self.coeffs)

    def __divmod__(self, other: "FqPoly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        spec = self.spec
        zero = spec.zero()
        rem = list(self.coeffs)
        db = other.degree()
        binv = other.leading().inv()
        if len(rem) - 1 < db:
            return FqPoly.zero(spec), self
        quot = [zero] * (len(rem) - db)
        bc = other.coeffs
        for top in range(len(rem) - 1, db - 1, -1):
            c = rem[top]
            if c:
                f = c * binv
                quot[top - db] = f
                for i in range(db + 1):
                    if bc[i]:
                        rem[top - db + i] = rem[top - db + i] - f * bc[i]
        return FqPoly(spec, quot), FqPoly(spec, rem[:db])

    def __floordiv__(self, other: "FqPoly") -> "FqPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "FqPoly") -> "FqPoly":
        return divmod(self, other)[1]

    def monic(self) -> "FqPoly":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.leading().inv())

    def gcd(self, other: "FqPoly") -> "FqPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def pow_mod(self, n: int, modulus: "FqPoly") -> "FqPoly":
        """self^n mod modulus by left-to-right square-and-multiply.

        A squaring costs deg coefficient squarings in characteristic 2,
        where the cross terms vanish, and half a general product in odd
        characteristic.  When the base is x, each multiply is a shift, and
        over a binary field without a multiplication table the whole power
        runs on raw ints (_pow_x_binary).
        """
        spec = self.spec
        if modulus.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if n == 0:
            return FqPoly.one(spec)
        f = modulus.monic()
        base = _rem_monic(list(self.coeffs), f)
        by_x = base.coeffs == (spec.zero(), spec.one())
        # the base reduces to x only when deg f >= 2
        if by_x and spec.p == 2 and spec.q > _TABLE_MAX_Q:
            return _pow_x_binary(n, f)
        acc = base
        for bit in bin(n)[3:]:
            acc = _rem_monic(_square(acc.coeffs, spec), f)
            if bit == "1":
                prod = [spec.zero(), *acc.coeffs] if by_x else list((acc * base).coeffs)
                acc = _rem_monic(prod, f)
        return acc

    def derivative(self) -> "FqPoly":
        spec = self.spec
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(spec.scalar(i) * self.coeffs[i])
        return FqPoly(spec, out)

    def __call__(self, v: FieldElement) -> FieldElement:
        acc = self.spec.zero()
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def eval_matrix(self, m: Matrix) -> Matrix:
        """Horner evaluation at a square matrix, from c_n*M + c_(n-1)*1.

        Runs on packed ints: d^2 multiplications for c_n*M, then one
        mat_mul, d^3, per further coefficient."""
        spec, d = m.spec, m.d
        if self.spec != spec:
            raise FieldMismatchError("polynomial and matrix over different fields")
        cs = [c.val for c in self.coeffs]
        if len(cs) < 2:
            return scalar_matrix(spec, d, FieldElement(spec, cs[0] if cs else 0))
        mul = spec._mul_raw
        _count_muls(d * d)
        acc = _add_scalar(spec, [[mul(cs[-1], v) for v in row] for row in m.vals], cs[-2])
        for c in reversed(cs[:-2]):
            acc = _add_scalar(spec, mat_mul(acc, m).vals, c)
        return acc

    def to_json(self) -> list:
        return [c.to_hex() for c in self.coeffs]

    @classmethod
    def from_json(cls, spec: FieldSpec, obj) -> "FqPoly":
        return cls(spec, tuple(FieldElement.from_hex(spec, s) for s in obj))


def _add_scalar(spec: FieldSpec, vals, c: int) -> Matrix:
    """vals + c*1 on packed ints."""
    add = spec._add_raw
    return Matrix._from_vals(spec, tuple(
        tuple(add(v, c) if a == b else v for b, v in enumerate(r)) for a, r in enumerate(vals)
    ))


def _square(a, spec: FieldSpec) -> list:
    """Coefficient list of a(x)^2, cross terms computed once and doubled."""
    zero = spec.zero()
    out = [zero] * max(0, 2 * len(a) - 1)
    for i, c in enumerate(a):
        if c:
            out[2 * i] = out[2 * i] + c * c
            if spec.p != 2:
                for j in range(i + 1, len(a)):
                    if a[j]:
                        t = c * a[j]
                        out[i + j] = out[i + j] + t + t
    return out


def _rem_monic(a: list, f: FqPoly) -> FqPoly:
    """a mod f for a monic f; consumes the list a."""
    n, fc = f.degree(), f.coeffs
    for top in range(len(a) - 1, n - 1, -1):
        c = a[top]
        if c:
            for i in range(n):
                if fc[i]:
                    a[top - n + i] = a[top - n + i] - c * fc[i]
    return FqPoly(f.spec, a[:n])


def _pow_x_binary(e: int, f: FqPoly) -> FqPoly:
    """x^e mod a monic f of degree n >= 2 over GF(2^gamma), gamma > 8.

    The residue is one int of n byte-aligned lanes, coefficient i in lane
    i.  Squaring and clearing a top coefficient c are both GF(2)-linear,
    so each is the XOR of one table entry per byte: the field's squaring
    table, and a per-call table that maps c to the lanes
    (c*f_0, ..., c*f_(n-1), c) it subtracts.  The multiplications are
    counted as the FieldElement loop in pow_mod counts them: one per
    nonzero coefficient squared, nnz(f_0 .. f_(n-1)) per nonzero top
    coefficient cleared.
    """
    spec = f.spec
    n, gamma, mod = f.degree(), spec.gamma, spec._mod_packed
    nb = (gamma + 7) // 8
    lane = 8 * nb
    fc = [c.val for c in f.coeffs[:n]]
    nnz = sum(1 for v in fc if v)
    sq = spec._square_rows()
    red, bit = [], 1 << n * lane
    for _ in range(nb):
        row = [0]
        for _ in range(8):
            v = sum(c << i * lane for i, c in enumerate(fc)) | bit
            row += [r ^ v for r in row]
            fc = [c << 1 ^ mod if c >> gamma - 1 else c << 1 for c in fc]
            bit <<= 1
        red.append(tuple(row))
    top = n * lane
    acc, count = 1 << lane, 0
    for b in bin(e)[3:]:
        raw = acc.to_bytes(n * nb, "little")
        squares = [_reduce(_xor, map(_getitem, sq, raw[i:i + nb])) for i in range(0, n * nb, nb)]
        count += n - squares.count(0)
        s = int.from_bytes(b"".join([v.to_bytes(2 * nb, "little") for v in squares]), "little")
        for shift in range((n - 2) * lane, -1, -lane):
            c = s >> top + shift
            if c:
                count += nnz
                s ^= _reduce(_xor, map(_getitem, red, c.to_bytes(nb, "little"))) << shift
        acc = s
        if b == "1":
            acc <<= lane
            c = acc >> top
            if c:
                count += nnz
                acc ^= _reduce(_xor, map(_getitem, red, c.to_bytes(nb, "little")))
    _count_muls(count)
    raw = acc.to_bytes(n * nb, "little")
    return FqPoly(spec, [
        FieldElement(spec, int.from_bytes(raw[i * nb:(i + 1) * nb], "little")) for i in range(n)
    ])


# ---------------------------------------------------------------------------
# Frobenius maps
# ---------------------------------------------------------------------------


def _frobenius_map(f: FqPoly, steps: int):
    """x^q mod f and a map h -> h^q for `steps` further calls.

    f is monic.  The map takes h reduced modulo f or modulo a monic
    divisor g of f, and returns h^q modulo f or g.  It uses the Frobenius
    matrix, whose rows are x^(iq) mod f, when that is predicted cheaper
    over `steps` calls than pow_mod (von zur Gathen and Shoup 1992): for
    h in GF(q)[x], h^q = sum h_i x^(iq), one vector-matrix product.
    """
    spec = f.spec
    n, q = f.degree(), spec.q
    xq = FqPoly.x(spec).pow_mod(q, f)
    matrix_cost = max(0, n - 2) * _mulmod_cost(n) + steps * n * n
    if matrix_cost >= steps * _pow_mod_cost(q, n, spec.p, by_x=False):
        return xq, lambda h, g: h.pow_mod(q, g)
    rows = []

    def by_matrix(h, g):
        if not rows:
            rows.extend((FqPoly.one(spec), xq))
            while len(rows) < n:
                rows.append(_rem_monic(list((rows[-1] * xq).coeffs), f))
        out = [spec.zero()] * n
        for hi, row in zip(h.coeffs, rows):
            if hi:
                for j, r in enumerate(row.coeffs):
                    if r:
                        out[j] = out[j] + hi * r
        return FqPoly(spec, out)

    return xq, by_matrix


def divides_x_qk_minus_x(f: FqPoly, k: int) -> bool:
    """True when f divides x^(q^k) - x: f is squarefree and every root
    lies in GF(q^k).  Costs one x^q and k - 1 Frobenius steps."""
    f = f.monic()
    h, frob = _frobenius_map(f, k - 1)
    for _ in range(k - 1):
        h = frob(h, f)
    return ((h - FqPoly.x(f.spec)) % f).is_zero()


# ---------------------------------------------------------------------------
# predicted field multiplications (upper bounds), for choosing a route
# ---------------------------------------------------------------------------


def _mulmod_cost(n: int) -> int:
    """Product of two residues modulo a monic degree-n polynomial."""
    return n * n + (n - 1) * n


def _pow_mod_cost(e: int, n: int, p: int, by_x: bool) -> int:
    """pow_mod(e) of a reduced base modulo a monic degree-n polynomial."""
    square = (n if p == 2 else n * (n + 1) // 2) + (n - 1) * n
    step = n if by_x else _mulmod_cost(n)
    return (e.bit_length() - 1) * square + (e.bit_count() - 1) * step


def _char_poly_cost(n: int) -> int:
    """char_poly of an n x n matrix: Hessenberg reduction, then the
    recurrence on leading principal minors."""
    hessenberg = sum((n - c - 2) * (2 * n - c + 1) for c in range(n - 2))
    recurrence = sum(4 * k - 2 + k * (k - 1) // 2 for k in range(1, n + 1))
    return hessenberg + recurrence


def cayley_hamilton_cost(d: int, e: int, p: int) -> int:
    """Field multiplications, at most, of M^e = (x^e mod chi_M)(M) for a
    d x d matrix M in characteristic p and e >= 1."""
    reduce_x = 1 if d == 1 else 0
    horner = d * d + (d - 2) * d**3 if d >= 2 else 0
    return _char_poly_cost(d) + reduce_x + _pow_mod_cost(e, d, p, by_x=True) + horner


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------


def char_poly(m: Matrix) -> FqPoly:
    """Monic characteristic polynomial via Hessenberg reduction.

    Divisions only involve invertible field elements, so the method works
    over any finite field including characteristic 2.  The result is
    cached on the (immutable) matrix, so a certificate and a power of the
    same matrix compute it once.
    """
    if m._chi is None:
        object.__setattr__(m, "_chi", _hessenberg_char_poly(m))
    return m._chi


def _hessenberg_char_poly(m: Matrix) -> FqPoly:
    spec, n = m.spec, m.d
    h = [list(r) for r in m.rows]
    for c in range(n - 2):
        piv = None
        for r in range(c + 1, n):
            if h[r][c]:
                piv = r
                break
        if piv is None:
            continue
        if piv != c + 1:
            h[piv], h[c + 1] = h[c + 1], h[piv]
            for r in range(n):
                h[r][piv], h[r][c + 1] = h[r][c + 1], h[r][piv]
        pinv = h[c + 1][c].inv()
        for r in range(c + 2, n):
            if h[r][c]:
                f = h[r][c] * pinv
                for k in range(c, n):
                    if h[c + 1][k]:
                        h[r][k] = h[r][k] - f * h[c + 1][k]
                for a in range(n):
                    if h[a][r]:
                        h[a][c + 1] = h[a][c + 1] + f * h[a][r]
    # recurrence on leading principal minors of the Hessenberg form
    one = FqPoly.one(spec)
    x = FqPoly.x(spec)
    ps = [one]
    for k in range(1, n + 1):
        term = (x - FqPoly(spec, (h[k - 1][k - 1],))) * ps[k - 1]
        run = spec.one()
        for i in range(1, k):
            run = run * h[k - i][k - i - 1]
            coef = h[k - i - 1][k - 1] * run
            if coef:
                term = term - ps[k - i - 1].scale(coef)
        ps.append(term)
    return ps[n]


def char_poly_cofactor(m: Matrix) -> FqPoly:
    """Independent cross-check: cofactor expansion of det(x*1 - M).

    Exponential in d; intended for d <= 5 test oracles only.
    """
    spec, n = m.spec, m.d
    x = FqPoly.x(spec)
    grid = [
        [
            x - FqPoly(spec, (m.rows[a][b],)) if a == b else -FqPoly(spec, (m.rows[a][b],))
            for b in range(n)
        ]
        for a in range(n)
    ]

    def det_rec(rows, cols):
        if len(rows) == 1:
            return grid[rows[0]][cols[0]]
        total = FqPoly.zero(spec)
        r0 = rows[0]
        for idx, c in enumerate(cols):
            minor = det_rec(rows[1:], cols[:idx] + cols[idx + 1:])
            term = grid[r0][c] * minor
            total = total - term if idx % 2 else total + term
        return total

    return det_rec(list(range(n)), list(range(n)))


def companion_matrix(f: FqPoly) -> Matrix:
    """Companion matrix of a monic polynomial; char_poly inverts this."""
    if not f.is_monic() or f.degree() < 1:
        raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
    spec = f.spec
    n = f.degree()
    zero, one = spec.zero(), spec.one()
    rows = [[zero] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = one
    for i in range(n):
        rows[i][n - 1] = -f.coeffs[i]
    return Matrix(spec, rows)


# ---------------------------------------------------------------------------
# irreducibility and factorization
# ---------------------------------------------------------------------------


def is_irreducible(f: FqPoly) -> bool:
    """gcd-with-Frobenius-powers test over GF(p^gamma) (Rabin 1980):
    gcd(f, x^(q^k) - x) = 1 for k = 1 .. deg f // 2."""
    n = f.degree()
    if n < 1:
        return False
    if n == 1:
        return True
    spec = f.spec
    f = f.monic()
    # cheap screens: roots 0 and 1 give linear factors
    if f.coeffs[0].is_zero() or f(spec.one()).is_zero():
        return False
    x = FqPoly.x(spec)
    h, frob = _frobenius_map(f, n // 2 - 1)
    for k in range(n // 2):
        if k:
            h = frob(h, f)
        if not f.gcd(h - x).is_one():
            return False
    return True


def _squarefree_part(f: FqPoly) -> FqPoly:
    spec = f.spec
    f = f.monic()
    d = f.derivative()
    if d.is_zero():
        # f is a p-th power: take the p-th root coefficientwise
        p, gamma = spec.p, spec.gamma
        root = []
        for i in range(0, f.degree() + 1, p):
            c = f.coeffs[i]
            # inverse Frobenius: c -> c^(q/p)
            root.append(c ** (spec.q // p) if c else c)
        return _squarefree_part(FqPoly(spec, root))
    g = f.gcd(d)
    if g.is_one():
        return f
    # f//g carries the factors of multiplicity prime to p, each once;
    # the rest still hides inside g.  Join the two radicals as an lcm.
    part = (f // g).monic()
    rest = _squarefree_part(g)
    return (part * (rest // part.gcd(rest))).monic()


def squarefree_part(f: FqPoly) -> FqPoly:
    """Product of the distinct irreducible factors of f."""
    return _squarefree_part(f)


def _distinct_degree(f: FqPoly):
    """Split a squarefree monic f into (product, degree) components."""
    x = FqPoly.x(f.spec)
    h = x
    frob = None
    i = 0
    out = []
    while f.degree() >= 2 * (i + 1):
        i += 1
        if frob is None:
            h, frob = _frobenius_map(f, f.degree() // 2 - 1)
        else:
            h = frob(h, f)
        g = f.gcd(h - x)
        if not g.is_one():
            out.append((g, i))
            f = f // g
            h = h % f
    if f.degree() > 0:
        out.append((f, f.degree()))
    return out


def _equal_degree_split(f: FqPoly, r: int, rng) -> list[FqPoly]:
    """Cantor-Zassenhaus split of a squarefree product of degree-r factors."""
    spec = f.spec
    n = f.degree()
    if n == r:
        return [f]
    q = spec.q
    while True:
        h = FqPoly(spec, tuple(spec.random(rng) for _ in range(n)))
        if h.degree() < 1:
            continue
        if q % 2 == 1:
            g = h.pow_mod((q**r - 1) // 2, f) - FqPoly.one(spec)
        else:
            # characteristic 2: use the trace map sum h^(2^i)
            bits = r * spec.gamma
            t = h % f
            acc = t
            for _ in range(bits - 1):
                t = t.pow_mod(2, f)
                acc = acc + t
            g = acc
        g = f.gcd(g)
        if 0 < g.degree() < n:
            return _equal_degree_split(g, r, rng) + _equal_degree_split(f // g, r, rng)


def irreducible_factors(f: FqPoly, rng=None) -> list[tuple[FqPoly, int]]:
    """Distinct irreducible factors with multiplicities, sorted by degree.

    Ties are broken by the coefficient value tuple so output is stable
    once the split itself is deterministic under the provided rng.
    """
    if rng is None:
        rng = _random.Random(0x5EED)
    f = f.monic()
    radical = squarefree_part(f)
    factors: list[FqPoly] = []
    for part, r in _distinct_degree(radical):
        factors.extend(_equal_degree_split(part, r, rng))
    out = []
    for g in factors:
        mult = 0
        rem = f
        while True:
            quot, rr = divmod(rem, g)
            if not rr.is_zero():
                break
            mult += 1
            rem = quot
        out.append((g, mult))
    out.sort(key=lambda t: (t[0].degree(), tuple(c.val for c in t[0].coeffs)))
    return out


def mod_inverse(a: FqPoly, modulus: FqPoly) -> FqPoly:
    """Inverse of a modulo an irreducible polynomial, by extended Euclid."""
    spec = a.spec
    r0, r1 = modulus, a % modulus
    s0, s1 = FqPoly.zero(spec), FqPoly.one(spec)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.degree() != 0:
        raise ZeroDivisionError("element is not invertible modulo this polynomial")
    return (s0.scale(r0.coeffs[0].inv())) % modulus


# ---------------------------------------------------------------------------
# integer order helpers (for eigenvalue orders in extension fields)
# ---------------------------------------------------------------------------


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization: trial division then Pollard rho."""
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_prime_small(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend((d, m // d))
    return out


def _is_prime_small(n: int) -> bool:
    from .field import is_probable_prime

    return is_probable_prime(n)


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    rng = _random.Random(n)
    while True:
        x = rng.randrange(2, n)
        y, c, d = x, rng.randrange(1, n), 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = _int_gcd(abs(x - y), n)
        if d != n:
            return d


def multiplicative_order(pow_fn, identity_check, group_order: int) -> int:
    """Order of an element given x -> x^n and a divisor bound on the order."""
    order = group_order
    for p, e in factor_int(group_order).items():
        for _ in range(e):
            if identity_check(pow_fn(order // p)):
                order //= p
            else:
                break
    return order
