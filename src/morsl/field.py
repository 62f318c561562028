"""Exact arithmetic in GF(p^gamma) with a global multiplication counter.

Elements are stored in the polynomial basis: a length-gamma coefficient
vector over GF(p), constant term first, packed into a single integer in
base p.  For p = 2 the packed integer is literally the GF(2) polynomial
in binary, which keeps arithmetic on large binary fields (e.g. degree
160) fast enough for full-size protocol runs.

A binary product steps through one operand a byte at a time, Horner
fashion: the accumulator moves up a byte, takes byte * b from two
lookups in a 16-entry table of b's nibble multiples, and folds the byte
above x^gamma back in through the field's reduction table, which maps a
byte v to (v * x^gamma) mod f and is built with the field.  Fields with
at most 256 elements multiply and invert by table lookup instead; the
tables are built with the field from the powers of the first primitive
element (exp/log tables), walked with the field's own untabled multiply,
not from q^2 polynomial products.

Each FieldSpec binds its operations on packed ints (_add_raw, _sub_raw,
_neg_raw, _mul_raw, _inv_raw) once, when it is built: modular arithmetic
for a prime field, table lookups for an extension with at most 256
elements, the byte-stride multiply for a larger binary field, and for a
larger odd-characteristic extension the multiply and inverse of
GF(p)[x]/f, f the modulus (an fqpoly.Quotient), run on the element's
base-p digits.  FieldElement's operators and the matrix kernels call these
directly.  Three vector ops are bound beside them: the matrix product
_mul_prepared_raw, which reads its right factor in the form that
_prepare_raw gives it, and the outer product _outer_raw.  A binary field
above 2^8 runs them on lanes: each row of the right factor is packed
into one int of lanes wide enough for an unreduced product, the
products are XORed into all lanes at once, and each output entry is
reduced once with the reduction table; a d x d product thus takes d^2
reductions instead of d^3.  Every other field runs the loops over its
_mul_raw, on the rows themselves.  None of the three counts.  A prepared
factor is a plain value that may outlive the call: a key's power
basis (matrix.KeyField) keeps one for every later power of its matrix.

Building a spec proves its modulus irreducible: by Ben-Or's test on
packed bits for p = 2, and by fqpoly.is_irreducible over GF(p)
otherwise, imported when first needed since fqpoly builds on this
module.  Neither test changes the multiplication counter.

Multiplications are tallied in a module-level counter because the cost
model of interest counts field multiplications and treats additions as
free.  FieldElement.__mul__ counts one per product; a kernel on raw ints
counts analytically through _count_muls, exactly what the FieldElement
loop it replaces would count.  Inversions are not counted.  The counter
is a plain integer: exact readings require a single thread, which is
how the benchmarks run.
"""

from __future__ import annotations

import random as _random
from functools import reduce
from operator import getitem as _getitem
from operator import xor as _xor

__all__ = [
    "FieldSpec",
    "FieldElement",
    "FieldMismatchError",
    "field_spec",
    "cost_counter",
    "cost_reset",
    "is_probable_prime",
    "smallest_irreducible_poly",
]


class FieldMismatchError(ValueError):
    """Operands belong to different field specs."""


# ---------------------------------------------------------------------------
# multiplication counter
# ---------------------------------------------------------------------------

_mul_count = 0


def cost_counter() -> int:
    """Cumulative number of field multiplications since the last reset."""
    return _mul_count


def cost_reset() -> None:
    global _mul_count
    _mul_count = 0


def _count_muls(k: int) -> None:
    """Tally k multiplications that a raw-int kernel did without
    FieldElement; the kernel counts them analytically."""
    global _mul_count
    _mul_count += k


class _uncounted:
    """Leave the multiplication counter as it was on entry, around the
    fqpoly kernels over GF(p) that set up a field or stand for one multiply
    or inverse of an odd extension; a class, cheaper than a generator."""

    __slots__ = ("saved",)

    def __enter__(self):
        self.saved = _mul_count

    def __exit__(self, *exc):
        global _mul_count
        _mul_count = self.saved


def _pow_raw(spec: FieldSpec, a: int, k: int) -> int:
    """a^k on packed ints, k >= 1, by left-to-right square-and-multiply:
    k.bit_length() - 1 squarings and k.bit_count() - 1 multiplications,
    so k = 8 costs 3.  A binary field above 2^8 squares through its
    squaring rows (FieldSpec._square_rows), one lookup per byte, and
    counts each squaring as the multiply it stands for."""
    mul, acc = spec._mul_raw, a
    if spec.p == 2 and spec.q > _TABLE_MAX_Q:
        rows, nb = spec._square_rows(), (spec.gamma + 7) // 8
        for bit in bin(k)[3:]:
            acc = reduce(_xor, map(_getitem, rows, acc.to_bytes(nb, "little")))
            if bit == "1":
                acc = mul(acc, a)
    else:
        for bit in bin(k)[3:]:
            acc = mul(acc, acc)
            if bit == "1":
                acc = mul(acc, a)
    _count_muls(k.bit_length() + k.bit_count() - 2)
    return acc


# ---------------------------------------------------------------------------
# primality
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with enough rounds for error probability below 2**-128."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witness(a: int) -> bool:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            return False
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    # Fixed bases are deterministic below 3.3e24; extra rounds push the
    # error bound under 2**-128 for larger inputs.  Bases are drawn from a
    # generator seeded by n so results are reproducible.
    for a in _SMALL_PRIMES:
        if witness(a):
            return False
    if n < 3_317_044_064_679_887_385_961_981:
        return True
    rng = _random.Random(n)
    for _ in range(66):
        if witness(rng.randrange(2, n - 1)):
            return False
    return True


# ---------------------------------------------------------------------------
# GF(2) polynomials packed into ints (bit i = coefficient of x^i)
# ---------------------------------------------------------------------------


def _gf2_mod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def _gf2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _gf2_mod(a, b)
    return a


_SPREAD8 = tuple(
    sum(((b >> i) & 1) << (2 * i) for i in range(8)) for b in range(256)
)


def _gf2_square(a: int) -> int:
    out = 0
    shift = 0
    while a:
        out |= _SPREAD8[a & 0xFF] << shift
        a >>= 8
        shift += 16
    return out


def _nibble_multiples(b: int) -> tuple:
    """The carry-less products of b by 0, 1, ..., 15.  FieldSpec._mul_gf2
    builds the same table inline: the call would cost it about 7 % at
    GF(2^16)."""
    b2 = b << 1
    b3 = b2 ^ b
    b4 = b << 2
    b5 = b4 ^ b
    b6 = b4 ^ b2
    b7 = b6 ^ b
    b8 = b << 3
    return (0, b, b2, b3, b4, b5, b6, b7,
            b8, b8 ^ b, b8 ^ b2, b8 ^ b3, b8 ^ b4, b8 ^ b5, b8 ^ b6, b8 ^ b7)


def _gf2_is_irreducible(f: int) -> bool:
    n = f.bit_length() - 1
    if n == 1:
        return True
    if not f & 1:
        return False
    h = 2  # the polynomial x
    for _ in range(n // 2):
        h = _gf2_mod(_gf2_square(h), f)
        if _gf2_gcd(f, h ^ 2) != 1:
            return False
    return True


def _is_irreducible_mod_p(coeffs: tuple[int, ...], p: int) -> bool:
    """Whether a monic coefficient tuple of degree >= 2 is irreducible
    over GF(p): packed bits for p = 2, fqpoly.is_irreducible over GF(p)
    otherwise.  Setting up a field is not part of any computation's
    cost, so the multiplication counter is left as it was."""
    if p == 2:
        return _gf2_is_irreducible(sum(c << i for i, c in enumerate(coeffs)))
    from .fqpoly import FqPoly, is_irreducible

    with _uncounted():
        return is_irreducible(FqPoly(field_spec(p), coeffs))


# ---------------------------------------------------------------------------
# default modulus selection
# ---------------------------------------------------------------------------

def smallest_irreducible_poly(p: int, gamma: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree gamma over GF(p).

    Coefficient tuples are constant term first and include the leading 1.
    Candidates are ordered by (c_0, c_1, ..., c_{gamma-1}).
    """
    if gamma == 1:
        return (0, 1)
    # c_0 = 0 forces divisibility by x, so the search starts at c_0 = 1 and
    # counts through the remaining coefficients, last coordinate fastest:
    # the base-p digits of n, most significant first, made one candidate
    # at a time, so a large p costs no memory before the first test.
    for c0 in range(1, p):
        for n in range(p ** (gamma - 1)):
            tail = []
            for _ in range(gamma - 1):
                n, c = divmod(n, p)
                tail.append(c)
            cand = (c0, *reversed(tail), 1)
            if _is_irreducible_mod_p(cand, p):
                return cand
    raise ValueError(f"no irreducible polynomial of degree {gamma} over GF({p})")


# ---------------------------------------------------------------------------
# field spec
# ---------------------------------------------------------------------------

_TABLE_MAX_Q = 256
_RAW_OPS = ("_add_raw", "_sub_raw", "_neg_raw", "_mul_raw", "_inv_raw")
_VEC_OPS = ("_outer_raw", "_prepare_raw", "_mul_prepared_raw")


class FieldSpec:
    """Description of GF(p^gamma): characteristic, degree and modulus.

    Immutable; elements carry a reference to their spec.  Use
    :func:`field_spec` to get cached instances.
    """

    __slots__ = (
        "p", "gamma", "modulus", "q",
        "_mask", "_mod_packed", "_red_table", "_sq_table", "_sq_lanes",
        "_mul_table", "_inv_table", *_RAW_OPS, *_VEC_OPS,
    )

    def __init__(self, p: int, gamma: int, modulus: tuple[int, ...] | None = None):
        if not is_probable_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if gamma < 1:
            raise ValueError("gamma must be >= 1")
        if modulus is None:
            # irreducible by construction: the search has just tested it
            modulus = smallest_irreducible_poly(p, gamma)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != gamma + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree gamma")
            if gamma > 1 and not _is_irreducible_mod_p(modulus, p):
                raise ValueError("modulus is reducible over GF(p)")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "q", p ** gamma)
        object.__setattr__(self, "_mul_table", None)
        object.__setattr__(self, "_inv_table", None)
        object.__setattr__(self, "_sq_table", None)
        object.__setattr__(self, "_sq_lanes", ())
        if p == 2:
            object.__setattr__(self, "_mask", (1 << gamma) - 1)
            mod_packed = sum(c << i for i, c in enumerate(modulus))
            object.__setattr__(self, "_mod_packed", mod_packed)
            # reduction table: a byte v -> (v * x^gamma) mod f, built by XOR
            # doubling over the bits of v
            red, v = [0], mod_packed ^ (1 << gamma)
            for _ in range(8):
                red += [r ^ v for r in red]
                v <<= 1
                if v >> gamma:
                    v ^= mod_packed
            object.__setattr__(self, "_red_table", tuple(red))
        else:
            object.__setattr__(self, "_mask", None)
            object.__setattr__(self, "_mod_packed", None)
            object.__setattr__(self, "_red_table", None)
        self._choose_raw_ops()

    def __setattr__(self, *args):
        raise AttributeError("FieldSpec is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.gamma, self.modulus) == (other.p, other.gamma, other.modulus)

    def __hash__(self):
        return hash((self.p, self.gamma, self.modulus))

    def __repr__(self):
        if self.gamma == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.gamma})"

    # -- element constructors ------------------------------------------------

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def scalar(self, k: int) -> "FieldElement":
        """Image of the integer k in the prime subfield, k * 1."""
        return FieldElement(self, k % self.p)

    def from_val(self, v: int) -> "FieldElement":
        if not 0 <= v < self.q:
            raise ValueError(f"value {v} out of range for {self!r}")
        return FieldElement(self, v)

    def from_coeffs(self, coeffs) -> "FieldElement":
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) > self.gamma:
            raise ValueError("too many coefficients")
        return FieldElement(self, self._pack(coeffs))

    def monomial(self, s: int) -> "FieldElement":
        """The basis element x^s, 0 <= s < gamma."""
        if not 0 <= s < self.gamma:
            raise ValueError("basis index out of range")
        return FieldElement(self, self.p ** s)

    def random(self, rng) -> "FieldElement":
        return FieldElement(self, rng.randrange(self.q))

    def random_nonzero(self, rng) -> "FieldElement":
        return FieldElement(self, rng.randrange(1, self.q))

    def elements(self):
        """All field elements; only sensible for small q."""
        return [FieldElement(self, v) for v in range(self.q)]

    # -- raw packed-int arithmetic -------------------------------------------

    def _coeffs(self, v: int) -> tuple[int, ...]:
        if self.p == 2:
            return tuple((v >> i) & 1 for i in range(self.gamma))
        out = []
        for _ in range(self.gamma):
            v, c = divmod(v, self.p)
            out.append(c)
        return tuple(out)

    def _pack(self, coeffs) -> int:
        """Inverse of _coeffs for a coefficient tuple of any length <= gamma."""
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + c
        return v

    def _choose_raw_ops(self) -> None:
        """Bind _add_raw, _sub_raw, _neg_raw, _mul_raw and _inv_raw, the
        operations on packed ints, to this field's arithmetic once.

        An odd-characteristic extension multiplies and inverts its base-p
        digits in GF(p)[x]/f, f its monic modulus, an fqpoly.Quotient.
        They run uncounted: a FieldElement product counts one, and the
        kernels that call _mul_raw count analytically."""
        p, small = self.p, self.gamma > 1 and self.q <= _TABLE_MAX_Q
        if self.gamma == 1:
            ops = (
                lambda a, b: (a + b) % p,
                lambda a, b: (a - b) % p,
                lambda a: -a % p,
                lambda a, b: a * b % p,
                self._inv_prime,
            )
        elif p == 2:
            ops = (_xor, _xor, lambda a: a, self._mul_gf2, self._inv_gf2)
        else:
            from .fqpoly import FqPoly, Quotient

            ring = Quotient(FqPoly._from_vals(field_spec(p), self.modulus))
            coeffs, pack = self._coeffs, self._pack

            def mul(a: int, b: int) -> int:
                with _uncounted():
                    return pack(ring.mul(coeffs(a), coeffs(b)))

            def inv(a: int) -> int:
                with _uncounted():
                    return pack(ring.inv(coeffs(a)))

            add, neg = self._add_digits, self._neg_digits
            ops = (add, lambda a, b: add(a, neg(b)), neg, mul, inv)
        if small:
            ops = ops[:3] + self._build_tables(ops[3])
        if p == 2 and self.gamma > 1 and not small:
            ops += (self._outer_lanes, self._prepare_lanes, self._mul_prepared_lanes)
        else:
            ops += (self._outer_loop, tuple, self._mat_mul_loop)
        for name, op in zip(_RAW_OPS + _VEC_OPS, ops):
            object.__setattr__(self, name, op)

    def _add_digits(self, a: int, b: int) -> int:
        p = self.p
        out = 0
        mult = 1
        while a or b:
            a, ca = divmod(a, p)
            b, cb = divmod(b, p)
            out += (ca + cb) % p * mult
            mult *= p
        return out

    def _neg_digits(self, a: int) -> int:
        p = self.p
        out = 0
        mult = 1
        while a:
            a, ca = divmod(a, p)
            out += (-ca) % p * mult
            mult *= p
        return out

    def _mul_gf2(self, a: int, b: int) -> int:
        # Horner over the bytes of a, top byte first; acc stays below
        # x^gamma, so after a step only one byte lies above it
        b2 = b << 1
        b3 = b2 ^ b
        b4 = b << 2
        b5 = b4 ^ b
        b6 = b4 ^ b2
        b7 = b6 ^ b
        b8 = b << 3
        t = (0, b, b2, b3, b4, b5, b6, b7,
             b8, b8 ^ b, b8 ^ b2, b8 ^ b3, b8 ^ b4, b8 ^ b5, b8 ^ b6, b8 ^ b7)
        gamma, mask, red = self.gamma, self._mask, self._red_table
        acc = 0
        for byte in a.to_bytes((a.bit_length() + 7) >> 3, "big"):
            acc = acc << 8 ^ t[byte >> 4] << 4 ^ t[byte & 15]
            acc = acc & mask ^ red[acc >> gamma]
        return acc

    # -- vector kernels: _mul_prepared_raw(xv, _prepare_raw(yv)) is the
    # matrix product x yv on tuples of row tuples, with yv in the form the
    # product reads (the rows themselves, or their lane tables), so that a
    # yv multiplied by many x is prepared once; yv need not be square.
    # _outer_raw(col, row) returns the rows c * row as lists --

    def _mat_mul_loop(self, xv, yv) -> tuple:
        mul, add = self._mul_raw, self._add_raw
        cols = tuple(zip(*yv))
        return tuple(tuple(reduce(add, map(mul, row, col)) for col in cols) for row in xv)

    def _outer_loop(self, col, row) -> list:
        mul, n = self._mul_raw, len(row)
        return [[mul(c, x) for x in row] if c else [0] * n for c in col]

    def _prepare_lanes(self, yv) -> tuple:
        """The lane tables of each row of yv, and the row length."""
        return tuple(self._lane_tables(row) for row in yv), len(yv[0])

    def _mul_prepared_lanes(self, xv, prepared) -> tuple:
        """Row i of x y is the sum over k of x_ik * row k of y.  Each row
        of y is packed into one int of lanes wide enough for an unreduced
        product, with its 16 nibble multiples (_prepare_lanes); row i of
        the product is then accumulated Horner fashion over the bytes of
        the x_ik, all lanes at once, and each lane is reduced once at the
        end."""
        tables, n = prepared
        nbytes = (self.gamma + 7) >> 3
        out = []
        for xrow in xv:
            live = [(*t, x.to_bytes(nbytes, "big")) for t, x in zip(tables, xrow) if x]
            acc = 0
            for pos in range(nbytes):
                acc <<= 8
                for hi, lo, xb in live:
                    byte = xb[pos]
                    acc ^= hi[byte >> 4] ^ lo[byte & 15]
            out.append(tuple(self._lane_reduce(acc, n)))
        return tuple(out)

    def _outer_lanes(self, col, row) -> list:
        """c * row for each c in col, by the lanes of _mul_prepared_lanes."""
        (hi, lo), nbytes, n = self._lane_tables(row), (self.gamma + 7) >> 3, len(row)
        out = []
        for c in col:
            acc = 0
            for byte in c.to_bytes(nbytes, "big"):
                acc = acc << 8 ^ hi[byte >> 4] ^ lo[byte & 15]
            out.append(self._lane_reduce(acc, n))
        return out

    def _lane_tables(self, vec) -> tuple:
        """vec packed into whole-byte lanes of at least 2 gamma - 1 bits,
        entry 0 in the top lane, and the multiples of that int by a nibble
        and by a nibble times x^4, unreduced."""
        w, b = 8 * ((2 * self.gamma + 6) >> 3), 0
        for v in vec:
            b = b << w | v
        return _nibble_multiples(b << 4), _nibble_multiples(b)

    def _lane_reduce(self, acc: int, n: int) -> list:
        """The n lanes of acc, top lane first, reduced mod f.  A lane is
        below x^(2 gamma - 1), so the part above its last nhi bytes is
        below x^gamma; each of those bytes is shifted in and the byte
        above x^gamma folded back with the reduction table."""
        gamma, mask, red = self.gamma, self._mask, self._red_table
        wb, nhi = (2 * gamma + 6) >> 3, (gamma + 6) >> 3
        data = acc.to_bytes(n * wb, "big")
        out = []
        for j in range(0, n * wb, wb):
            r = int.from_bytes(data[j:j + wb - nhi], "big")
            for byte in data[j + wb - nhi:j + wb]:
                r = r << 8 ^ byte
                r = r & mask ^ red[r >> gamma]
            out.append(r)
        return out

    def _square_rows(self) -> tuple:
        """Squaring table of a binary field, built on first use.

        a -> a^2 is GF(2)-linear, so row k maps a byte b to (b * x^(8k))^2
        reduced by the modulus, and a^2 is the XOR of one entry per byte
        of a.
        """
        if self._sq_table is None:
            mod, rows, v = self._mod_packed, [], 1
            for _ in range((self.gamma + 7) // 8):
                row = [0]
                for _ in range(8):
                    row += [r ^ v for r in row]
                    v = _gf2_mod(v << 2, mod)
                rows.append(tuple(row))
            object.__setattr__(self, "_sq_table", tuple(rows))
        return self._sq_table

    def _square_lane_rows(self, h: int) -> tuple:
        """The squaring rows shifted to lanes 0, 2, ..., 2(h - 1) of
        fqpoly's residues (lanes of ceil(gamma/8) bytes), one group of rows
        per lane i: a byte of coefficient i, squared, lands in lane 2i.
        They are the rows of a modulus's squaring table for its residue
        lanes below h, the same for every modulus, so each is built once
        and kept here; lane 0's are _square_rows itself."""
        lanes = self._sq_lanes
        if len(lanes) < h:
            sq, lane = self._square_rows(), 8 * ((self.gamma + 7) // 8)
            lanes += tuple(
                tuple(tuple(v << 2 * i * lane for v in row) for row in sq) if i else sq
                for i in range(len(lanes), h)
            )
            object.__setattr__(self, "_sq_lanes", lanes)
        return lanes[:h]

    def _build_tables(self, mul_raw) -> tuple:
        """Multiplication and inverse tables of a small extension field,
        and the raw multiply and inverse that look them up.

        The nonzero elements form a cyclic group: walk the powers of
        2, 3, ... with mul_raw, the field's untabled multiply, until one
        runs through all q - 1 of them.  With exp[i] = g^i and log its
        inverse, a * b = exp[log a + log b] and 1/a = exp[-log a].
        """
        q = self.q
        for g in range(2, q):
            power, exp = 1, [1]
            for _ in range(q - 2):
                power = mul_raw(power, g)
                if power == 1:
                    break
                exp.append(power)
            if len(exp) == q - 1:
                break
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        exp2 = exp + exp
        logs = log[1:]
        mul = tuple([(0,) * q] + [(0, *[exp2[la + lb] for lb in logs]) for la in logs])
        inv = tuple([0] + [exp[-la] for la in logs])

        def inv_lookup(a: int) -> int:
            if not a:
                raise ZeroDivisionError("inversion of zero field element")
            return inv[a]

        object.__setattr__(self, "_mul_table", mul)
        object.__setattr__(self, "_inv_table", inv)
        return lambda a, b: mul[a][b], inv_lookup

    def _inv_prime(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inversion of zero field element")
        return pow(a, self.p - 2, self.p)

    def _inv_gf2(self, a: int) -> int:
        """Extended Euclid on packed GF(2) polynomials."""
        if not a:
            raise ZeroDivisionError("inversion of zero field element")
        r0, r1 = self._mod_packed, a
        s0, s1 = 0, 1
        while r1:
            d = r0.bit_length() - r1.bit_length()
            if d < 0:
                r0, r1, s0, s1 = r1, r0, s1, s0
                continue
            r0 ^= r1 << d
            s0 ^= s1 << d
        # r0 is the gcd = 1 (modulus irreducible), s0 the inverse of a
        return _gf2_mod(s0, self._mod_packed)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "p": str(self.p),
            "gamma": self.gamma,
            "modulus": [str(c) for c in self.modulus],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FieldSpec":
        """The spec a file names, after its size is bounded (see
        _check_file_field) and before any primality or irreducibility
        test runs on it."""
        obj = _json_dict(obj)
        p, gamma = _json_int(obj["p"]), _json_int(obj["gamma"])
        _check_file_field(p, gamma)
        return field_spec(
            p, gamma, tuple(_json_int(c) for c in _json_list(obj["modulus"], gamma + 1)),
        )


# Largest field a key or ciphertext file may name.  Building a spec proves
# p prime and the modulus irreducible, in time that grows with the field:
# q <= 2^1024 keeps Miller-Rabin on p and the packed binary test of a
# degree-1024 modulus well under a second, and the odd-characteristic
# test, fqpoly.is_irreducible over GF(p), needs gamma <= 16 as well (about
# 0.12 s on a 61-bit p with a dense degree-16 irreducible modulus, on a
# 2-vCPU VM).
_FILE_MAX_Q_BITS = 1024
_FILE_MAX_ODD_GAMMA = 16


def _check_file_field(p: int, gamma: int) -> None:
    """Refuse a field size read from a file that is too large to set up."""
    if p > 2 and gamma > _FILE_MAX_ODD_GAMMA:
        raise ValueError(
            f"field degree {gamma} exceeds {_FILE_MAX_ODD_GAMMA} in odd characteristic"
        )
    if (
        gamma > _FILE_MAX_Q_BITS
        or p.bit_length() > _FILE_MAX_Q_BITS
        or (gamma > 0 and p**gamma > 1 << _FILE_MAX_Q_BITS)
    ):
        raise ValueError(f"field size exceeds q = 2^{_FILE_MAX_Q_BITS}")


# Shape checks for values read from key and ciphertext files, so that a
# value of the wrong JSON type fails as ValueError (exit 2 in the CLI)
# instead of surfacing as a TypeError from whatever touches it first.


def _json_dict(x) -> dict:
    if not isinstance(x, dict):
        raise ValueError(f"expected a JSON object, got {type(x).__name__}")
    return x


def _json_list(x, n: int | None = None) -> list:
    """x as a list, of exactly n entries when n is given."""
    if not isinstance(x, list):
        raise ValueError(f"expected a JSON list, got {type(x).__name__}")
    if n is not None and len(x) != n:
        raise ValueError(f"expected a list of {n} entries, got {len(x)}")
    return x


def _json_int(x) -> int:
    """An integer written as a JSON integer or as a decimal string; format
    v1 uses both.  Booleans and floats are refused."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"expected an integer, got {type(x).__name__}")
    return int(x)


_SPEC_CACHE: dict[tuple, FieldSpec] = {}


def field_spec(p: int, gamma: int = 1, modulus: tuple[int, ...] | None = None) -> FieldSpec:
    """Cached FieldSpec factory; reuses tables across call sites."""
    key = (p, gamma, tuple(modulus) if modulus is not None else None)
    spec = _SPEC_CACHE.get(key)
    if spec is None:
        spec = FieldSpec(p, gamma, modulus)
        _SPEC_CACHE[key] = spec
        _SPEC_CACHE[(p, gamma, spec.modulus)] = spec
    return spec


# ---------------------------------------------------------------------------
# field element
# ---------------------------------------------------------------------------

# the eight bits of each byte value, lowest first, ':'-joined with a
# trailing ':': a binary element's to_hex, one byte at a time
_BYTE_BITS = tuple(":".join(format(b, "08b")[::-1]) + ":" for b in range(256))


class FieldElement:
    """Immutable element of GF(p^gamma) in the polynomial basis."""

    __slots__ = ("spec", "val")

    def __init__(self, spec: FieldSpec, val: int):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "val", val)

    def __setattr__(self, *args):
        raise AttributeError("FieldElement is immutable")

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.spec._coeffs(self.val)

    def _check(self, other: "FieldElement"):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.spec is not self.spec and other.spec != self.spec:
            raise FieldMismatchError("elements from different field specs")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.spec, self.spec._add_raw(self.val, other.val))

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.spec, self.spec._sub_raw(self.val, other.val))

    def __neg__(self):
        return FieldElement(self.spec, self.spec._neg_raw(self.val))

    def __mul__(self, other):
        global _mul_count
        self._check(other)
        _mul_count += 1
        return FieldElement(self.spec, self.spec._mul_raw(self.val, other.val))

    def inv(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec._inv_raw(self.val))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inv()

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inv() ** (-n)
        if n == 0:
            return self.spec.one()
        return FieldElement(self.spec, _pow_raw(self.spec, self.val, n))

    def frobenius(self, i: int = 1) -> "FieldElement":
        """a^(p^i) for 0 <= i < gamma."""
        spec = self.spec
        if not 0 <= i < spec.gamma:
            raise ValueError(f"frobenius power {i} out of range [0, {spec.gamma})")
        if i == 0 or self.val in (0, 1):
            return self
        a = self
        for _ in range(i):
            a = a ** spec.p
        return a

    def is_zero(self) -> bool:
        return self.val == 0

    def __bool__(self):
        return self.val != 0

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.spec == other.spec and self.val == other.val

    def __hash__(self):
        return hash((self.val, self.spec.p, self.spec.gamma))

    def __repr__(self):
        return f"FieldElement({self.spec!r}, {self.val})"

    # -- serialization: coefficients constant term first, hex, ':'-joined ----

    def to_hex(self) -> str:
        if self.spec.p == 2:
            # one table entry per byte of val, low byte first, each ending
            # in ':'; the cut drops the last ':' and any bits of the top
            # byte at or above x^gamma
            gamma = self.spec.gamma
            data = self.val.to_bytes((gamma + 7) >> 3, "little")
            return "".join([_BYTE_BITS[b] for b in data])[:2 * gamma - 1]
        return ":".join(format(c, "x") for c in self.coeffs)

    @classmethod
    def from_hex(cls, spec: FieldSpec, s: str) -> "FieldElement":
        # binary fields: exactly gamma single 0/1 digits, read in one step;
        # any other string takes the general parse and its errors
        if not isinstance(s, str):
            raise ValueError(f"expected a field element string, got {type(s).__name__}")
        gamma = spec.gamma
        if spec.p == 2 and len(s) == 2 * gamma - 1 and s[1::2] == ":" * (gamma - 1):
            bits = s[::2]
            if not bits.strip("01"):
                return FieldElement(spec, int(bits[::-1], 2))
        coeffs = [int(part, 16) for part in s.split(":")]
        if len(coeffs) != spec.gamma:
            raise ValueError("wrong number of coefficients for this spec")
        if any(not 0 <= c < spec.p for c in coeffs):
            raise ValueError("coefficient out of range")
        return spec.from_coeffs(coeffs)
