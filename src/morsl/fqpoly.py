"""Polynomials with coefficients in GF(p^gamma).

Supports the characteristic-polynomial and irreducibility machinery of
the security lab: Hessenberg-form characteristic polynomials (division
only by field elements, valid in any characteristic), Ben-Or's chain of
gcds with x^(q^i) - x, and enough factorization (squarefree / distinct-
degree / equal-degree) to pull one irreducible factor out of a reducible
characteristic polynomial.  The chain is written once, as the distinct-
degree split: is_irreducible reads its first component, which is f
itself exactly when f is irreducible, and irreducible_factors reads all
of them.

Coefficients are packed ints (FieldElement.val), as Matrix.vals are;
only f(v) takes and returns a FieldElement.  Every kernel runs on the
field's raw operations and adds to the multiplication counter exactly
what its FieldElement loop, kept in tests/oracles.py, counted.  Binary
operations refuse operands over different specs (FieldMismatchError).

It is also the exponentiation engine behind matrix.mat_pow and
matrix.KeyField: pow_mod computes x^e mod chi_M, and eval_matrix
evaluates the result at M by Horner, or Quotient, the ring F_q[x]/f and,
on a matrix B, the algebra F_q[B], evaluates it on B's power basis.
Other modules multiply, invert and compose modulo a polynomial only
through Quotient.  A KeyField's certificate is is_irreducible(chi_B),
the package's one irreducibility test over F_q[x].
Repeated q-th powers modulo f go through the Frobenius matrix of f,
whose rows x^(iq) mod f, and x^q itself, f keeps: Ben-Or's chain and
x^e's base-q route share them.
Squaring modulo a monic f of degree n over a binary field has one model,
the squaring rows S_i = x^(2i) mod f, ceil(n/2) <= i < n (the q = 2 case
of the Frobenius matrix): r^2 mod f = sum r_i^2 x^(2i), where only the
rows from ceil(n/2) up need reducing, at most n + floor(n/2) n
multiplications against n + (n - 1) n for dividing the square by f.
The rows are built once per modulus, by shift-and-clear, and kept on f.
Odd characteristic divides the square by f.
Over a binary field too large for a multiplication table, x^e runs on
one int in one kernel, _lane_power: the residue is packed in byte-
aligned lanes, and squaring a coefficient and clearing a top coefficient
are each one XOR of byte-indexed table entries (both maps are GF(2)-
linear).  When the residue is short and e > q, squaring modulo f is
instead one XOR of byte-indexed entries of a table of f itself, so a
key's moduli keep theirs for every message.  The kernel counts what the
squaring rows multiply, whichever squaring ran, so counts and route
choices do not depend on the route.
Its multiplies are by x, left to right over e's bits, or, on the base-q
route (Straus 1964), by products of the conjugates x^(q^i) mod f over
the bit columns of e's base-q digits, which square about gamma times
instead of bits(e) times.  That route runs where f keeps a base-q table
of those products, and a cost prediction says it counts fewer
multiplications.  Each entry keeps its product r -> r T_S mod f, which
is GF(2)-linear, as a byte table while the entries' byte tables stay
within _PRODUCT_TABLES_MAX_BYTES, and as its multiplication matrix on
the field's lanes beyond.  keep_base_q_table builds the table where it
pays, for the moduli of matrix.KeyField's powers, either within one
power or over the messages a key is to serve.
What a modulus keeps lives in one store on it, a dict made at its first
use (_kept), and each item is written by one builder, at its first use:
the squaring rows with their squaring figure (_squaring_rows), the lane
layout (_layout), the clearing table (_clear_rows), the squaring table
(_square_table), x^q (_x_to_the_q), the Frobenius rows
(_frobenius_rows), and the base-q table or the marker that it does not
pay (_base_q_table).
"""

from __future__ import annotations

import random as _random
from functools import reduce as _reduce
from itertools import accumulate as _accumulate
from itertools import chain as _chain
from itertools import zip_longest as _zip_longest
from math import gcd as _int_gcd
from operator import getitem as _getitem
from operator import or_ as _or
from operator import xor as _xor

from .field import (
    FieldElement,
    FieldMismatchError,
    FieldSpec,
    _count_muls,
    _pow_raw,
    is_probable_prime,
)
from .linalg import RowReducer
from .matrix import Matrix, mat_mul

# The longest residue, in bytes, whose x^e builds a squaring table of its
# modulus.  The build, floor(n/2) lanes of rows spanned from the squaring
# rows, grows with the square of the residue's length, and a squaring's
# saving shrinks as the lanes it XORs grow.  On a 2-vCPU x86-64 VM (median
# of 9, fresh modulus) the table cost no more than the lane division from
# e = q + 1 on, at 10, 32, 56, 72, 80, 84 and 112 bytes; at the paper
# preset's 140 bytes it cost more below about 400 exponent bits (7.8 ms
# against 6.1 ms at q + 1).
_SQUARE_TABLE_MAX_BYTES = 112

# The most bytes that the byte tables of one modulus's base-q table may
# hold (_base_q_table).  An entry's table is n*ceil(gamma/8) rows of 256
# ints of n*ceil(gamma/8) bytes, estimated at 256 L (L + 36) bytes for L
# = n*ceil(gamma/8) (CPython's int header and a tuple slot), and the
# entries keep theirs in build order while the estimate stays within the
# cap.  The small preset's table for 4 digits, 15 entries of 10-byte
# residues, holds about 1.7 MB (tracemalloc) and keeps them all; by the
# estimate the 63 entries at GF(2^16), d = 7, would hold about 11 MB, of
# which the first 11 keep theirs, and one entry of the paper preset's
# 140-byte residues about 6 MB, so that preset keeps the lane products.
_PRODUCT_TABLES_MAX_BYTES = 2_000_000

# e's bits, below its top one, as the bytes 0 and 1: _lane_power's steps
_BITS = bytes.maketrans(b"01", b"\0\1")

__all__ = [
    "FqPoly",
    "Quotient",
    "char_poly",
    "is_irreducible",
    "irreducible_factors",
    "companion_matrix",
    "mod_inverse",
    "multiplicative_order",
    "factor_int",
]


class FqPoly:
    """Immutable polynomial over a FieldSpec, constant coefficient first,
    its coefficients packed ints."""

    # _kept is None, or the store of what a monic self keeps as a modulus,
    # a dict made at its first use (_kept, whose builders each write one
    # item of it)
    __slots__ = ("spec", "coeffs", "_kept")

    def __init__(self, spec: FieldSpec, coeffs=()):
        coeffs = tuple(coeffs)
        if not all(type(c) is int and 0 <= c < spec.q for c in coeffs):
            raise ValueError(f"coefficients must be packed ints in [0, {spec.q})")
        self._set_slots(spec, coeffs)

    @classmethod
    def _from_vals(cls, spec: FieldSpec, coeffs) -> "FqPoly":
        """The polynomial of a sequence of packed ints, unchecked."""
        f = object.__new__(cls)
        f._set_slots(spec, coeffs)
        return f

    def _set_slots(self, spec: FieldSpec, coeffs) -> None:
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "coeffs", tuple(_trim(coeffs)))
        object.__setattr__(self, "_kept", None)

    def __setattr__(self, *args):
        raise AttributeError("FqPoly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec) -> "FqPoly":
        return cls._from_vals(spec, ())

    @classmethod
    def one(cls, spec: FieldSpec) -> "FqPoly":
        return cls._from_vals(spec, (1,))

    @classmethod
    def x(cls, spec: FieldSpec) -> "FqPoly":
        return cls._from_vals(spec, (0, 1))

    # -- basics ---------------------------------------------------------------

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        if not isinstance(other, FqPoly):
            return NotImplemented
        return self.spec == other.spec and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"FqPoly({self.spec!r}, {self.coeffs})"

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other: "FqPoly") -> FieldSpec:
        """The operands' common spec; different specs raise."""
        spec = self.spec
        if other.spec is not spec and other.spec != spec:
            raise FieldMismatchError("polynomials over different field specs")
        return spec

    def __add__(self, other: "FqPoly") -> "FqPoly":
        spec = self._check(other)
        add = spec._add_raw
        return FqPoly._from_vals(
            spec, [add(a, b) for a, b in _zip_longest(self.coeffs, other.coeffs, fillvalue=0)]
        )

    def __neg__(self) -> "FqPoly":
        return FqPoly._from_vals(self.spec, [self.spec._neg_raw(c) for c in self.coeffs])

    def __sub__(self, other: "FqPoly") -> "FqPoly":
        spec = self._check(other)
        sub = spec._sub_raw
        return FqPoly._from_vals(
            spec, [sub(a, b) for a, b in _zip_longest(self.coeffs, other.coeffs, fillvalue=0)]
        )

    def __mul__(self, other: "FqPoly") -> "FqPoly":
        spec = self._check(other)
        return FqPoly._from_vals(spec, _product(spec, self.coeffs, other.coeffs))

    def scale(self, c: int) -> "FqPoly":
        """self times the packed scalar c: one multiplication per
        coefficient, zeros included."""
        mul = self.spec._mul_raw
        _count_muls(len(self.coeffs))
        return FqPoly._from_vals(self.spec, [mul(v, c) for v in self.coeffs])

    def __divmod__(self, other: "FqPoly"):
        spec = self._check(other)
        quot, rem = _divmod(spec, self.coeffs, other.coeffs)
        return FqPoly._from_vals(spec, quot), FqPoly._from_vals(spec, rem)

    def __floordiv__(self, other: "FqPoly") -> "FqPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "FqPoly") -> "FqPoly":
        return divmod(self, other)[1]

    def monic(self) -> "FqPoly":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.spec._inv_raw(self.coeffs[-1]))

    def gcd(self, other: "FqPoly") -> "FqPoly":
        spec = self._check(other)
        a, b = self.coeffs, other.coeffs
        while b:
            a, b = b, _trim(_divmod(spec, a, b)[1])
        return FqPoly._from_vals(spec, a).monic()

    def pow_mod(self, n: int, modulus: "FqPoly") -> "FqPoly":
        """self^n mod modulus, n >= 0, by left-to-right square-and-multiply.

        Squaring is _square_mod: in characteristic 2, where the cross
        terms vanish, deg coefficient squarings and the modulus's squaring
        rows for the coefficients from ceil(deg/2) up, the rows built at
        the first squaring and kept on the monic modulus; in odd
        characteristic, half a general product divided by the modulus.
        When the base is x, each multiply is a shift, and over a field
        that runs on lanes (FieldSpec._has_lanes) the whole power runs on
        one int of lanes (_pow_x_lanes).  If the residue takes at most
        _SQUARE_TABLE_MAX_BYTES and n > q, its squarings look up a table
        of the monic modulus, kept on it; x^q, as in is_irreducible, and
        longer residues build no table and divide each square lane by
        lane, through the modulus's clearing table, kept on it too.
        A monic modulus that keeps a base-q table (keep_base_q_table, which
        matrix.KeyField calls before its powers) raises x^n, n >= q, by the
        base-q route instead, Straus's walk over n's base-q digits, where
        that is predicted to count fewer multiplications (_pow_x_costs).
        Both predictions are upper bounds, and the binary route's is at
        most _pow_mod_cost, so that figure bounds either route.
        """
        spec = self._check(modulus)
        if n < 0:
            raise ValueError("negative exponent; invert modulo the modulus first")
        if modulus.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if n == 0:
            return FqPoly.one(spec)
        f = modulus.monic()
        base = _trim(_rem_monic(list(self.coeffs), f))
        by_x = base == [0, 1]
        # the base reduces to x only when deg f >= 2
        if by_x and spec._has_lanes:
            return _pow_x_lanes(n, f)
        acc = base
        for bit in bin(n)[3:]:
            acc = _square_mod(acc, f)
            if bit == "1":
                acc = _rem_monic([0, *acc] if by_x else _product(spec, acc, base), f)
        return FqPoly._from_vals(spec, acc)

    def derivative(self) -> "FqPoly":
        """One multiplication by i * 1 per coefficient of x^i, i >= 1."""
        spec = self.spec
        mul, p = spec._mul_raw, spec.p
        _count_muls(max(0, len(self.coeffs) - 1))
        return FqPoly._from_vals(spec, [mul(i % p, c) for i, c in enumerate(self.coeffs[1:], 1)])

    def __call__(self, v: FieldElement) -> FieldElement:
        if v.spec != self.spec:
            raise FieldMismatchError("polynomial and point over different fields")
        return FieldElement(self.spec, _horner(self.spec, self.coeffs, v.val))

    def eval_matrix(self, m: Matrix) -> Matrix:
        """Horner evaluation at a square matrix, from c_n*M + c_(n-1)*1.

        Runs on packed ints: d^2 multiplications for c_n*M, then one
        mat_mul, d^3, per further coefficient."""
        spec, d = m.spec, m.d
        if self.spec != spec:
            raise FieldMismatchError("polynomial and matrix over different fields")
        cs = self.coeffs
        if len(cs) < 2:
            return _add_scalar(spec, [[0] * d] * d, cs[0] if cs else 0)
        mul = spec._mul_raw
        _count_muls(d * d)
        acc = _add_scalar(spec, [[mul(cs[-1], v) for v in row] for row in m.vals], cs[-2])
        for c in reversed(cs[:-2]):
            acc = _add_scalar(spec, mat_mul(acc, m).vals, c)
        return acc


def _kept(f: FqPoly) -> dict:
    """The store of what the monic f keeps as a modulus (FqPoly._kept),
    made empty at its first read.  Each item has one builder, which
    writes it at its first use: "squaring" (_squaring_rows), "layout"
    (_layout), "clear" (_clear_rows), "square" (_square_table), "xq"
    (_x_to_the_q), "rows" (_frobenius_rows) and "table"
    (_base_q_table)."""
    if f._kept is None:
        object.__setattr__(f, "_kept", {})
    return f._kept


def _add_scalar(spec: FieldSpec, vals, c: int) -> Matrix:
    """vals + c*1 on packed ints."""
    add = spec._add_raw
    return Matrix._from_vals(spec, tuple(
        tuple(add(v, c) if a == b else v for b, v in enumerate(r)) for a, r in enumerate(vals)
    ))


# ---------------------------------------------------------------------------
# kernels on coefficient sequences of packed ints, constant term first.
# Each counts what the FieldElement loop it replaced multiplied: products
# of two nonzero coefficients only, unless its docstring says otherwise.
# ---------------------------------------------------------------------------


def _trim(a):
    """a without its trailing zeros."""
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    return a[:n]


def _product(spec: FieldSpec, a, b) -> list:
    """a(x) b(x), one multiplication per pair of nonzero coefficients."""
    if not a or not b:
        return []
    mul, add = spec._mul_raw, spec._add_raw
    out = [0] * (len(a) + len(b) - 1)
    live = [(j, c) for j, c in enumerate(b) if c]
    count = 0
    for i, c in enumerate(a):
        if c:
            count += len(live)
            for j, v in live:
                out[i + j] = add(out[i + j], mul(c, v))
    _count_muls(count)
    return out


def _divmod(spec: FieldSpec, a, b) -> tuple[list, list]:
    """Quotient and remainder of a by b, trailing zeros kept: per nonzero
    top coefficient cleared, one multiplication by 1/lead(b) and one per
    nonzero coefficient of b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    rem = list(a)
    if len(rem) <= db:
        return [], rem
    mul, sub = spec._mul_raw, spec._sub_raw
    binv = spec._inv_raw(b[-1])
    # b's top term only clears rem[top], which is never read again
    low = [(i, c) for i, c in enumerate(b[:db]) if c]
    quot, count = [0] * (len(rem) - db), 0
    for top in range(len(rem) - 1, db - 1, -1):
        c = rem[top]
        if c:
            f = quot[top - db] = mul(c, binv)
            count += 2 + len(low)
            s = top - db
            for i, v in low:
                rem[s + i] = sub(rem[s + i], mul(f, v))
    _count_muls(count)
    return quot, rem[:db]


def _square(spec: FieldSpec, a) -> list:
    """a(x)^2: in characteristic 2 one multiplication per nonzero
    coefficient, the cross terms vanishing; otherwise each cross term is
    computed once and doubled."""
    mul, add = spec._mul_raw, spec._add_raw
    out = [0] * max(0, 2 * len(a) - 1)
    live = [(i, c) for i, c in enumerate(a) if c]
    if spec.p == 2:
        for i, c in live:
            out[2 * i] = mul(c, c)
        _count_muls(len(live))
        return out
    for k, (i, c) in enumerate(live):
        out[2 * i] = add(out[2 * i], mul(c, c))
        for j, v in live[k + 1:]:
            t = mul(c, v)
            out[i + j] = add(out[i + j], add(t, t))
    _count_muls(len(live) * (len(live) + 1) // 2)
    return out


def _square_mod(a: list, f: FqPoly) -> list:
    """a^2 mod a monic f of degree n, for a reduced a, trailing zeros kept:
    the one squaring modulo f outside the lane kernel.

    In characteristic 2 the square is sum a_i^2 x^(2i): a coefficient
    below ceil(n/2) stays where it lands, and one from ceil(n/2) up adds
    a_i^2 times f's squaring row x^(2i) mod f (_squaring_rows).  That is
    one multiplication per nonzero a_i and one per nonzero entry of each
    row added, n + floor(n/2) n at most.  In odd characteristic the
    square is divided by f (_rem_monic)."""
    spec = f.spec
    sq = _square(spec, a)
    if spec.p != 2:
        return _rem_monic(sq, f)
    n = f.degree()
    rows = _squaring_rows(f)[0]
    mul, out, count = spec._mul_raw, sq[:n], 0
    for c, row in zip(sq[n + n % 2::2], rows):
        if c:
            count += len(row)
            for j, v in row:
                out[j] ^= mul(c, v)
    _count_muls(count)
    return out


def _squaring_rows(f: FqPoly) -> tuple:
    """The squaring rows of a monic f of degree n over a binary field,
    x^(2i) mod f for ceil(n/2) <= i < n, each as its nonzero (j, c), and
    the squaring figure n + sum_i nnz(S_i) that bounds a squaring's count
    through them; built on first use and kept on f.

    They are read off x^n, ..., x^(2n-2), each x times the one before with
    its top coefficient cleared: nnz(f_0 .. f_(n-1)) multiplications per
    nonzero top coefficient, at most (n - 1) n in all."""
    kept = _kept(f)
    if "squaring" not in kept:
        spec, fc = f.spec, f.coeffs
        n = len(fc) - 1
        mul = spec._mul_raw
        low = [(i, c) for i, c in enumerate(fc[:n]) if c]
        v, walk, count = [0] * (n - 1) + [1], [], 0
        for _ in range(n - 1):
            c, v = v[-1], [0, *v[:-1]]
            if c:
                count += len(low)
                for i, fi in low:
                    v[i] ^= mul(c, fi)
            walk.append(v)
        _count_muls(count)
        # walk[k] is x^(n + k): the rows are its even powers
        rows = tuple(tuple((j, c) for j, c in enumerate(v) if c) for v in walk[n % 2::2])
        kept["squaring"] = rows, n + sum(map(len, rows))
    return kept["squaring"]


def _rem_monic(a: list, f: FqPoly) -> list:
    """a mod a monic f, trailing zeros kept; consumes the list a.  One
    multiplication per nonzero f_i, i < deg f, per nonzero top
    coefficient cleared."""
    spec, fc = f.spec, f.coeffs
    n = len(fc) - 1
    mul, sub = spec._mul_raw, spec._sub_raw
    low = [(i, c) for i, c in enumerate(fc[:n]) if c]
    count = 0
    for top in range(len(a) - 1, n - 1, -1):
        c = a[top]
        if c:
            count += len(low)
            s = top - n
            for i, v in low:
                a[s + i] = sub(a[s + i], mul(c, v))
    _count_muls(count)
    return a[:n]


def _horner(spec: FieldSpec, coeffs, v: int) -> int:
    """coeffs evaluated at the packed v: one multiplication per
    coefficient, zeros included."""
    mul, add = spec._mul_raw, spec._add_raw
    acc = 0
    for c in reversed(coeffs):
        acc = add(mul(acc, v), c)
    _count_muls(len(coeffs))
    return acc


def _pow_x_lanes(e: int, f: FqPoly) -> FqPoly:
    """x^e mod a monic f of degree n >= 2 over GF(2^gamma), gamma > 8, by
    _lane_power's base-q route where f keeps a base-q table
    (keep_base_q_table) and _pow_x_costs predicts that route, with the
    table's extension to e's digits, to count fewer multiplications than
    the binary route; by the binary route otherwise."""
    base_q = False
    if _kept(f).get("table") and e >= f.spec.q:
        binary, loop, build = _pow_x_costs(e, f)
        base_q = loop + build < binary
    return _lane_power(e, f, base_q)


def _lane_power(e: int, f: FqPoly, base_q: bool) -> FqPoly:
    """x^e mod a monic f of degree n >= 2 over GF(2^gamma), gamma > 8, by
    one of two routes, each a chain of squarings, each squaring followed
    by a multiply or not.

    The binary route is left-to-right square-and-multiply over e's bits,
    its multiplies by x.  The base-q route (Straus 1964) writes e in base
    q, e = sum e_i q^i, and walks the bits of the digits e_i together, from
    the top: x^e = prod_i (x^(q^i))^(e_i), so it squares about gamma times
    instead of bits(e) times, and after each squaring multiplies by T_S =
    prod_{i in S} x^(q^i) mod f for the set S of digits whose bit is set
    there (_base_q_table, which builds what f does not keep yet).

    The residue is one int of n byte-aligned lanes, coefficient i in lane
    i.  Squaring, and subtracting a multiple of f, are GF(2)-linear, so
    each is the XOR of one table entry per byte.  A squaring yields the
    reduced square one of two ways: it squares each coefficient through
    the field's squaring table and divides the square by f
    (_divide_lanes), or, for a residue of at most _SQUARE_TABLE_MAX_BYTES
    with e > q, it looks the reduced square up in f's squaring table
    (_square_table) in n*ceil(gamma/8) lookups.  The residue's lanes
    (_layout), the clearing table and the squaring table are built on
    first use and kept on f.

    Either way the multiplications are counted as _square_mod counts
    them: one per nonzero lane of the residue, and nnz(S_i) per nonzero
    lane i >= ceil(n/2), S_i = x^(2i) mod f its squaring row
    (_squaring_rows, whose one build per f is counted too).  The pattern of
    those high lanes keys a small table of their summed costs, filled as
    patterns occur.  A multiply by x counts nnz(f_0 .. f_(n-1)) when it
    clears a top coefficient; a multiply by T_S counts n^2, as a row times
    T_S's multiplication matrix, whether the entry looks the product up in
    its byte table, n*ceil(gamma/8) lookups, or forms it on the field's
    lanes (_times_entry).  In a lane of w bits, adding 2^(w-1) - 1 to the
    low w - 1 bits carries into bit w - 1 exactly when they are not all
    zero, and never out of the lane; OR-ed with the lane's own bit w - 1,
    that bit marks a nonzero lane, so a few int operations find the
    nonzero lanes of a residue.
    """
    spec = f.spec
    n, nb, lane, top, mask, nnz = _layout(f)
    low = sum(((1 << lane - 1) - 1) << i * lane for i in range(n))
    high = mask ^ low
    red = _clear_rows(f)
    if e > spec.q and n * nb <= _SQUARE_TABLE_MAX_BYTES:
        table = _square_table(f)
    else:
        table, sq, starts = None, spec._square_rows(), range(0, n * nb, nb)
    # the rows are built, and counted, only for a power that squares
    weights = [len(row) for row in _squaring_rows(f)[0]] if e > 1 else ()
    # the marks of lanes (n + 1) // 2 and up, shifted down to bits 0, lane, ...
    split = (n + 1) // 2 * lane + lane - 1
    costs = {0: 0}
    if base_q:
        digits = _base_q_digits(e, spec.q)
        entries = _base_q_table(f, len(digits))
        steps = _columns(digits)
        acc, nn = _pack(entries[steps.pop(0)][0], nb), n * n
    else:
        entries, acc, steps = None, 1 << lane, bin(e)[3:].encode().translate(_BITS)
    count = 0
    for step in steps:
        marks = ((acc & low) + low | acc) & high
        pattern = marks >> split
        cost = costs.get(pattern)
        if cost is None:
            cost = costs[pattern] = sum(w for i, w in enumerate(weights) if pattern >> i * lane & 1)
        count += marks.bit_count() + cost
        raw = acc.to_bytes(n * nb, "little")
        if table is None:
            squares = [_reduce(_xor, map(_getitem, sq, raw[i:i + nb])) for i in starts]
            s = int.from_bytes(b"".join([v.to_bytes(2 * nb, "little") for v in squares]), "little")
            acc = _divide_lanes(s, red, top, nb) & mask
        else:
            acc = _reduce(_xor, map(_getitem, table, raw))
        if not step:
            continue
        if entries is None:
            acc <<= lane
            c = acc >> top
            if c:
                count += nnz
                acc = acc & mask ^ _reduce(_xor, map(_getitem, red, c.to_bytes(nb, "little")))
        else:
            count += nn
            acc = _times_entry(spec, entries[step], acc, n)
    _count_muls(count)
    return FqPoly._from_vals(spec, _lanes(acc, n, nb))


def _divide_lanes(s: int, red: tuple, top: int, nb: int) -> int:
    """The long division of s, an int of lanes of nb bytes, by a monic f
    of degree top // (8*nb), red its clearing table (_clear_rows): the
    remainder in the lanes below top and the quotient in the lanes from
    top up.  From the highest lane down, a lane's coefficient c stays as
    the quotient's, and c*(f_0, ..., f_(n-1)) is subtracted from the n
    lanes below it, which leaves every lane already passed as it is."""
    lane = 8 * nb
    full = (1 << lane) - 1
    for shift in range((s.bit_length() - 1 - top) // lane * lane, -1, -lane):
        c = s >> top + shift & full
        if c:
            s ^= _reduce(_xor, map(_getitem, red, c.to_bytes(nb, "little"))) << shift
    return s


def _span_rows(spec: FieldSpec, n: int, v: int, power: int) -> tuple:
    """The byte rows of the GF(2)-linear map c -> c^power * v, for v an int
    of n lanes of ceil(gamma/8) bytes over GF(2^gamma) and power 1 or 2:
    row k maps a byte b of c to the entry of c = b * x^(8k), spanned from
    its 8 single-bit entries.  The next bit's entry multiplies every lane
    by x^power at once, x at a time: the lanes whose bit gamma - 1 was set
    drop it and, once shifted, take the modulus's terms below x^gamma (a
    copy per lane that never overlaps the next, so the int product is
    carry-free)."""
    gamma = spec.gamma
    lane = 8 * ((gamma + 7) // 8)
    low = spec._mod_packed ^ 1 << gamma
    ones = sum(1 << i * lane for i in range(n))
    rows = []
    for _ in range(lane // 8):
        row = [0]
        for _ in range(8):
            row += [r ^ v for r in row]
            for _ in range(power):
                hi = v >> gamma - 1 & ones
                v = (v ^ hi << gamma - 1) << 1 ^ hi * low
        rows.append(tuple(row))
    return tuple(rows)


def _layout(f: FqPoly) -> tuple:
    """The lanes of residues modulo a monic f of degree n over a field
    that runs on lanes, built on first use and kept on f: n, a lane's
    ceil(gamma/8) bytes and its bits, the residue's bits top and their
    mask, and nnz(f_0 .. f_(n-1)), the count of clearing a top
    coefficient."""
    kept = _kept(f)
    if "layout" not in kept:
        n, nb = f.degree(), (f.spec.gamma + 7) // 8
        top = n * 8 * nb
        kept["layout"] = n, nb, 8 * nb, top, (1 << top) - 1, n - f.coeffs[:n].count(0)
    return kept["layout"]


def _clear_rows(f: FqPoly) -> tuple:
    """The clearing table of a monic f of degree n over GF(2^gamma), the
    multiples of f below its top term, built on first use and kept on f:
    row k maps a byte b of c to the lanes (c*f_0, ..., c*f_(n-1)) for
    c = b * x^(8k), lane i the i-th run of ceil(gamma/8) bytes; XOR-ed in
    below a top coefficient c, they leave c x^n times f subtracted
    (_span_rows, with power 1)."""
    kept = _kept(f)
    if "clear" not in kept:
        n, nb = _layout(f)[:2]
        kept["clear"] = _span_rows(f.spec, n, _pack(f.coeffs[:n], nb), 1)
    return kept["clear"]


def _square_table(f: FqPoly) -> tuple:
    """f's squaring table, built on first use and kept on f.

    r -> r^2 mod f is GF(2)-linear on residues.  Row k maps a byte b to
    the reduced square of the residue whose byte k holds b and every other
    byte zero, n lanes wide.  For a lane i below ceil(n/2) that is b's
    square in lane 2i: the rows are the field's squaring rows shifted
    there, shared by every modulus of the field (FieldSpec.
    _square_lane_rows).  For a lane i from ceil(n/2) up it is b's square
    times f's squaring row S_i = x^(2i) mod f (_squaring_rows): the rows
    are spanned from S_i by lane doubling (_span_rows, with power 2).
    f owns floor(n/2)*ceil(gamma/8) rows of 256 entries.
    """
    kept = _kept(f)
    if "square" not in kept:
        spec = f.spec
        n, _, lane = _layout(f)[:3]
        rows = list(_chain.from_iterable(spec._square_lane_rows((n + 1) // 2)))
        for row in _squaring_rows(f)[0]:
            rows += _span_rows(spec, n, sum(c << j * lane for j, c in row), 2)
        kept["square"] = tuple(rows)
    return kept["square"]


def _lanes(acc: int, n: int, nb: int) -> list:
    """The n coefficients in the lanes of nb bytes of acc, lane i the i-th."""
    raw = acc.to_bytes(n * nb, "little")
    return [int.from_bytes(raw[i:i + nb], "little") for i in range(0, n * nb, nb)]


def _pack(vals, nb: int) -> int:
    """The int of lanes of nb bytes whose lane i holds vals[i]."""
    return int.from_bytes(b"".join([v.to_bytes(nb, "little") for v in vals]), "little")


def _base_q_digits(e: int, q: int) -> list:
    """e's digits in base q = 2^gamma, the lowest first."""
    gamma = q.bit_length() - 1
    return [e >> i & q - 1 for i in range(0, e.bit_length(), gamma)]


def _columns(digits) -> list:
    """The bit columns of the digits, from the top column down: column j
    is the set of the digits whose bit j is 1, as a bitmask, read off the
    digits' binary strings, the highest digit first."""
    top = max(digits).bit_length()
    return [int("".join(c), 2) for c in zip(*[format(d, f"0{top}b") for d in reversed(digits)])]


def _base_q_table(f: FqPoly, k: int) -> list:
    """f's base-q table for k digits, over GF(2^gamma), gamma > 8: the one
    f keeps, extended where it has fewer digits, and kept on f; for k = 0
    on an f that keeps none, the marker () that the table does not pay
    (keep_base_q_table).  Entry S, a bitmask of digits, holds
    T_S = prod_{i in S} x^(q^i) mod f, as its n coefficients and as its
    product r -> r T_S mod f (_times_entry).  The product is the residue
    r as a row times T_S's multiplication matrix, rows x^j T_S mod f for
    j < n.  While the byte tables f keeps stay within
    _PRODUCT_TABLES_MAX_BYTES, the entry keeps that GF(2)-linear map as a
    byte table: row j ceil(gamma/8) + k maps the value of byte k of r_j
    to its share of r_j times row j (_span_rows, with power 1), so that a
    product is the XOR of n ceil(gamma/8) lookups.  Otherwise the entry
    keeps the matrix prepared for the field's lanes (_prepare_raw).

    Entry 2^i is the conjugate x^(q^i): x, x^q (_x_to_the_q), and from
    x^(q^2) on the q-th power of the one before, through f's Frobenius
    rows (_frobenius_step).  Any other T_S is T_(S - {i}) times
    x^(q^i), i = max S, a product by that entry: n^2 multiplications.
    Each matrix's rows are x times the row above, shifted up a lane with
    its top coefficient cleared as _lane_power clears it:
    nnz(f_0 .. f_(n-1)) per nonzero top coefficient."""
    kept = _kept(f)
    table = kept.get("table") or [None]
    if len(table) < 1 << k:
        spec = f.spec
        n, nb, lane, top, mask, nnz = _layout(f)
        red = _clear_rows(f)
        size = 256 * n * nb * (n * nb + 36)
        held = size * sum(entry[2] is not None for entry in table[1:])
        count = 0
        for s in range(len(table), 1 << k):
            i = s.bit_length() - 1
            if s == 1:
                t = [0, 1, *(0,) * (n - 2)]
            elif s == 2:
                t = _x_to_the_q(f).coeffs
                t = [*t, *(0,) * (n - len(t))]
            elif s == 1 << i:
                t = _frobenius_step(table[s >> 1][0], f)
            else:
                t = _times_entry(spec, table[1 << i], _pack(table[s ^ 1 << i][0], nb), n)
                t = _lanes(t, n, nb)
                count += n * n
            acc = _pack(t, nb)
            rows = [acc]
            for _ in range(n - 1):
                acc <<= lane
                c = acc >> top
                if c:
                    count += nnz
                    acc = acc & mask ^ _reduce(_xor, map(_getitem, red, c.to_bytes(nb, "little")))
                rows.append(acc)
            if held + size <= _PRODUCT_TABLES_MAX_BYTES:
                held += size
                spans = tuple(_chain.from_iterable(_span_rows(spec, n, v, 1) for v in rows))
                table.append((tuple(t), None, spans))
            else:
                matrix = tuple(tuple(_lanes(v, n, nb)) for v in rows)
                table.append((tuple(t), spec._prepare_raw(matrix), None))
        _count_muls(count)
    # k = 0 decides that f keeps no table, unless it keeps one
    kept["table"] = table if k else kept.get("table", ())
    return table


def _times_entry(spec: FieldSpec, entry: tuple, acc: int, n: int) -> int:
    """acc T_S mod f for a residue acc of n lanes and T_S a base-q table
    entry (_base_q_table): by the entry's byte table where it keeps one,
    else as a row times its multiplication matrix on the field's lanes.
    Uncounted: the callers count n^2."""
    _, matrix, spans = entry
    nb = (spec.gamma + 7) // 8
    if spans is not None:
        return _reduce(_xor, map(_getitem, spans, acc.to_bytes(n * nb, "little")))
    return _pack(spec._mul_prepared_raw((_lanes(acc, n, nb),), matrix)[0], nb)


def keep_base_q_table(f: FqPoly, e: int, repaid: bool = False) -> None:
    """Keep on the monic f its base-q table for e's digits (_base_q_table)
    where x^e mod f by the base-q route, with what that route builds, is
    predicted to count fewer multiplications than by the binary route
    (_pow_x_costs); pow_mod then takes the base-q route for this power
    and for every later one that the kept table makes cheaper.  Only over
    GF(2^gamma), gamma > 8, for deg f >= 2 and q <= e < q^(deg f), as for
    the exponents below the norm that matrix.KeyField raises.  f is
    decided once, at its first such e: where the route does not pay, f
    keeps an empty table, and its powers take the binary route.

    With repaid, for a modulus whose powers are to repeat
    (matrix.KeyField.serve), the build is left out of the prediction, as
    later powers repay it: f keeps the table wherever the base-q loop
    alone is predicted below the binary route, even where an earlier e
    decided against it.  The build, and the squaring rows the prediction
    reads, are counted as they run."""
    n, q = f.degree(), f.spec.q
    if not f.spec._has_lanes or not q <= e < q**n:
        return
    table = _kept(f).get("table")
    if table is not None and not repaid:
        return
    binary, base_q, build = _pow_x_costs(e, f)
    if base_q + (0 if repaid else build) < binary:
        _base_q_table(f, len(_base_q_digits(e, q)))
    elif table is None:
        _base_q_table(f, 0)


def _pow_x_costs(e: int, f: FqPoly) -> tuple[int, int, int]:
    """Predicted multiplications, upper bounds, of x^e mod a monic f of
    degree n >= 2 over GF(2^gamma), gamma > 8, for e >= q: the binary
    route's, the base-q route's loop, and the base-q build that f lacks
    for e's digits.  f's squaring rows are built first if need be.

    A squaring counts at most n + sum_i nnz(S_i) over f's squaring rows
    S_i, a multiply by x nnz(f_0 .. f_(n-1)) and one by a table entry
    n^2.  While the binary route's partial exponent m stays below n, x^m
    is a monomial: its squaring counts 1 and its multiply by x nothing.
    The base-q loop squares bits(c) - 1 times and multiplies
    popcount(c) - 1 times, c the OR of the digits.  The build is x^q at
    the binary route's price, unless f keeps it; the Frobenius rows,
    (n - 2)(n^2 + (n - 1) nnz(f_0 .. f_(n-1))), unless f keeps them; and
    per table entry that f lacks, its matrix, (n - 1) nnz(f_0 .. f_(n-1)),
    and its product, n^2, or for a conjugate x^(q^i), i >= 2, its step
    through the Frobenius rows, their nonzero entries (n^2 before they are
    built)."""
    q = f.spec.q
    n, *_, nnz = _layout(f)
    square = _squaring_rows(f)[1]
    binary = _binary_cost(e, n, nnz, square)
    digits = _base_q_digits(e, q)
    k = len(digits)
    columns = _reduce(_or, digits)
    loop = (columns.bit_length() - 1) * square + (columns.bit_count() - 1) * n * n
    store = _kept(f)
    table = store.get("table")
    kept = len(table).bit_length() - 1 if table else 0
    if k <= kept:
        return binary, loop, 0
    entries = (1 << k) - (1 << kept if kept else 1)
    steps = k - max(kept, 2)
    build = entries * (n - 1) * nnz + (entries - (k - kept)) * n * n
    if "xq" not in store:
        build += _binary_cost(q, n, nnz, square)
    if steps > 0 and "rows" not in store:
        build += (n - 2) * (n * n + (n - 1) * nnz) + steps * n * n
    elif steps > 0:
        build += steps * sum(len(row) for row in store["rows"][0])
    return binary, loop, build


def _binary_cost(e: int, n: int, nnz: int, square: int) -> int:
    """_pow_x_costs' figure for the binary route at e >= 1, a squaring
    predicted at `square` and a clearing multiply by x at nnz."""
    bits = e.bit_length()
    monomial = 1
    while monomial < bits and e >> bits - monomial - 1 < n:
        monomial += 1
    rest = bits - monomial
    return monomial - 1 + rest * square + (e & (1 << rest) - 1).bit_count() * nnz


# ---------------------------------------------------------------------------
# Frobenius maps
# ---------------------------------------------------------------------------


def _frobenius_map(f: FqPoly, steps: int):
    """x^q mod f and a map h -> h^q for `steps` further calls.

    f is monic.  The map takes h reduced modulo f or modulo a monic
    divisor g of f, and returns h^q modulo f or g.  It uses the Frobenius
    matrix, whose rows are x^(iq) mod f, when that is predicted cheaper
    over `steps` calls than pow_mod (von zur Gathen and Shoup 1992): for
    h in GF(q)[x], h^q = sum h_i x^(iq), one vector-matrix product
    (_frobenius_step), then reduced modulo g by _rem_monic when
    deg g < deg f.  x^q and the rows are kept on f (_x_to_the_q,
    _frobenius_rows), so a second chain on f, or x^e's base-q route,
    builds neither again, and the prediction then leaves the rows out.
    """
    spec = f.spec
    n, q = f.degree(), spec.q
    xq = _x_to_the_q(f)
    build = 0 if "rows" in _kept(f) else max(0, n - 2) * _mulmod_cost(n)
    if build + steps * n * n >= steps * _pow_mod_cost(q, n, spec.p, by_x=False):
        return xq, lambda h, g: h.pow_mod(q, g)

    def by_matrix(h, g):
        out = _frobenius_step(h.coeffs, f)
        return FqPoly._from_vals(spec, _rem_monic(out, g) if g.degree() < n else out)

    return xq, by_matrix


def _x_to_the_q(f: FqPoly) -> FqPoly:
    """x^q mod a monic f of degree >= 2, by pow_mod at its first use and
    kept on f."""
    kept = _kept(f)
    if "xq" not in kept:
        kept["xq"] = FqPoly.x(f.spec).pow_mod(f.spec.q, f)
    return kept["xq"]


def _frobenius_rows(f: FqPoly) -> tuple:
    """The Frobenius rows x^(iq) mod a monic f of degree n >= 2, i < n, each
    as its nonzero (j, c), and over GF(2^gamma), gamma > 8, the rows in the
    field's prepared form (_prepare_raw), else None; built at their first
    use and kept on f.  Row i >= 2 is row i - 1 times x^q (_x_to_the_q),
    one product and one _rem_monic, counted as they count, which over
    GF(2^gamma), gamma > 8, run on lanes (_frobenius_powers_on_lanes)."""
    kept = _kept(f)
    if "rows" not in kept:
        spec, n = f.spec, f.degree()
        xq = _x_to_the_q(f).coeffs
        rows = [(1,), xq]
        if spec._has_lanes and n > 2:
            rows += _frobenius_powers_on_lanes(xq, f)
        while len(rows) < n:
            rows.append(_rem_monic(_product(spec, rows[-1], xq), f))
        full = tuple((*row, *(0,) * (n - len(row))) for row in rows)
        nonzero = tuple(tuple((j, r) for j, r in enumerate(row) if r) for row in rows)
        kept["rows"] = nonzero, spec._prepare_raw(full) if spec._has_lanes else None
    return kept["rows"]


def _frobenius_powers_on_lanes(xq, f: FqPoly) -> list:
    """x^(iq) mod f for 2 <= i < n, over GF(2^gamma), gamma > 8, each
    x^((i - 1)q) times x^q: the product as a row times the prepared rows
    x^j x^q, j < n, unreduced, and its remainder by _divide_lanes, whose
    quotient lanes are the top coefficients _rem_monic clears.  Counted as
    _product and _rem_monic count: nnz(a) nnz(x^q), and nnz(f_0 .. f_(n-1))
    per nonzero quotient coefficient."""
    spec = f.spec
    n, nb, _, top, mask, low = _layout(f)
    b = (*xq, *(0,) * (n - len(xq)))
    shifts = spec._prepare_raw(tuple((*(0,) * j, *b, *(0,) * (n - 1 - j)) for j in range(n)))
    red = _clear_rows(f)
    nnz_xq = n - b.count(0)
    rows, a, count = [], b, 0
    for _ in range(n - 2):
        s = _divide_lanes(_pack(spec._mul_prepared_raw((a,), shifts)[0], nb), red, top, nb)
        count += (n - a.count(0)) * nnz_xq + low * (n - 1 - _lanes(s >> top, n - 1, nb).count(0))
        a = tuple(_lanes(s & mask, n, nb))
        rows.append(a)
    _count_muls(count)
    return rows


def _frobenius_step(h, f: FqPoly) -> list:
    """h^q mod a monic f of degree n, for h reduced modulo f, as n
    coefficients: sum h_i x^(iq) over f's Frobenius rows
    (_frobenius_rows), one multiplication per nonzero h_i and nonzero
    entry of its row, on the field's lanes where it has them."""
    spec = f.spec
    rows, prepared = _frobenius_rows(f)
    _count_muls(sum(len(row) for hi, row in zip(h, rows) if hi))
    if prepared is not None:
        return list(spec._mul_prepared_raw(((*h, *(0,) * (len(rows) - len(h))),), prepared)[0])
    mul, add = spec._mul_raw, spec._add_raw
    out = [0] * len(rows)
    for hi, row in zip(h, rows):
        if hi:
            for j, r in row:
                out[j] = add(out[j], mul(hi, r))
    return out


# ---------------------------------------------------------------------------
# predicted field multiplications (upper bounds), for choosing a route
# ---------------------------------------------------------------------------


def _mulmod_cost(n: int) -> int:
    """Product of two residues modulo a monic degree-n polynomial."""
    return n * n + (n - 1) * n


def _pow_mod_cost(e: int, n: int, p: int, by_x: bool) -> int:
    """pow_mod(e) of a reduced base modulo a monic degree-n polynomial.  In
    characteristic 2 a squaring adds at most floor(n/2) squaring rows of
    n entries, after the rows' one build, (n - 1) n, if e >= 2 makes a
    squaring at all; otherwise it is divided by the modulus.  x^e's
    base-q route runs only where _pow_x_costs predicts it, with what it
    builds, below the binary route's figure there, which is at most this
    one, so this figure bounds it too, and so does the figure of a power
    before which keep_base_q_table builds a modulus's table."""
    if p == 2:
        square, build = n + n // 2 * n, (n - 1) * n if e > 1 else 0
    else:
        square, build = n * (n + 1) // 2 + (n - 1) * n, 0
    step = n if by_x else _mulmod_cost(n)
    return build + (e.bit_length() - 1) * square + (e.bit_count() - 1) * step


def _char_poly_cost(n: int) -> int:
    """char_poly of an n x n matrix: Hessenberg reduction, then the
    recurrence on leading principal minors."""
    hessenberg = sum((n - c - 2) * (2 * n - c + 1) for c in range(n - 2))
    recurrence = sum(4 * k - 2 + k * (k - 1) // 2 for k in range(1, n + 1))
    return hessenberg + recurrence


def cayley_hamilton_cost(d: int, e: int, p: int) -> int:
    """Field multiplications, at most, of M^e = (x^e mod chi_M)(M) for a
    d x d matrix M in characteristic p and e >= 1, by either evaluation
    of matrix.mat_pow and matrix.KeyField: chi_M, x^e mod chi_M
    (_pow_mod_cost: in characteristic 2, d + floor(d/2) d per squaring
    through chi_M's squaring rows, after their build, (d - 1) d, which the
    figure counts even where chi_M keeps rows from an earlier power; it
    bounds the base-q route too, with the build of the table that
    KeyField has chi_M keep before a power where that route pays) and
    Horner's evaluation, d^2 + (d - 2) d^3.  It leaves out deciding M's
    certificate (is_irreducible), which only a KeyField power on an
    undecided certificate runs (keygen and encrypt decide theirs before
    any power), and the base-q table that KeyField.serve has chi_M keep
    between messages, built outside the powers.  The power basis's build,
    (d - 2) d^3, and evaluation on it, (d - 1) d^2, come only after an
    earlier power has cached chi_M, and their surcharge over Horner,
    (d - 2) d^2, is below _char_poly_cost(d) = d^3 + d^2/2 - 3d/2 + 2, so
    the figure bounds them too.  The evaluation of an M = g(B) on B's
    basis, 2 (d - 1) d^2, runs only where it is no more than Horner's, for
    d >= 3.  KeyField splits the power of an M in a field at the norm,
    M^e = det(M)^k M^s, only when this figure at s (at 1 for s = 0) plus
    det(M)^k's bits(k) + popcount(k) - 2 and d for the scaled remainder is
    below this figure at e, so the figure at e bounds the split route
    too."""
    reduce_x = 1 if d == 1 else 0
    horner = d * d + (d - 2) * d**3 if d >= 2 else 0
    return reduce_x + _pow_mod_cost(e, d, p, by_x=True) + _char_poly_cost(d) + horner


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
    """Reduction to Hessenberg form by similarity, then the recurrence on
    its leading principal minors, constant coefficient first."""
    spec, n = m.spec, m.d
    mul, add, sub = spec._mul_raw, spec._add_raw, spec._sub_raw
    h = [list(r) for r in m.vals]
    count = 0
    for c in range(n - 2):
        piv = next((r for r in range(c + 1, n) if h[r][c]), None)
        if piv is None:
            continue
        if piv != c + 1:
            h[piv], h[c + 1] = h[c + 1], h[piv]
            for hr in h:
                hr[piv], hr[c + 1] = hr[c + 1], hr[piv]
        hp = h[c + 1]
        pinv = spec._inv_raw(hp[c])
        for r in range(c + 2, n):
            hr = h[r]
            if hr[c]:
                f = mul(hr[c], pinv)
                count += 1
                for k in range(c, n):
                    if hp[k]:
                        hr[k] = sub(hr[k], mul(f, hp[k]))
                        count += 1
                for ha in h:
                    if ha[r]:
                        ha[c + 1] = add(ha[c + 1], mul(f, ha[r]))
                        count += 1
    ps = [[1]]
    for k in range(1, n + 1):
        prev, hkk = ps[k - 1], h[k - 1][k - 1]
        # (x - h_kk) * prev: one product per pair of nonzero coefficients
        term = [0] + prev
        count += (len(prev) - prev.count(0)) * (2 if hkk else 1)
        if hkk:
            for t, v in enumerate(prev):
                if v:
                    term[t] = sub(term[t], mul(hkk, v))
        run = 1
        for i in range(1, k):
            run = mul(run, h[k - i][k - i - 1])
            coef = mul(h[k - i - 1][k - 1], run)
            count += 2
            if coef:
                minor = ps[k - i - 1]
                count += len(minor)
                for t, v in enumerate(minor):
                    term[t] = sub(term[t], mul(coef, v))
        ps.append(term)
    _count_muls(count)
    return FqPoly._from_vals(spec, ps[n])


def companion_matrix(f: FqPoly) -> Matrix:
    """Companion matrix of a monic polynomial; char_poly inverts this."""
    if not f.is_monic() or f.degree() < 1:
        raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
    spec, n = f.spec, f.degree()
    neg = spec._neg_raw
    return Matrix._from_vals(spec, tuple(
        tuple(neg(f.coeffs[i]) if j == n - 1 else int(j == i - 1) for j in range(n))
        for i in range(n)
    ))


# ---------------------------------------------------------------------------
# irreducibility and factorization
# ---------------------------------------------------------------------------


def is_irreducible(f: FqPoly) -> bool:
    """gcd-with-Frobenius-powers test over GF(p^gamma) (Ben-Or 1981):
    gcd(f, x^(q^k) - x) = 1 for k = 1 .. deg f // 2, run as the first
    component of the distinct-degree chain."""
    n = f.degree()
    if n < 1:
        return False
    if n == 1:
        return True
    spec = f.spec
    f = f.monic()
    # cheap screens: roots 0 and 1 give linear factors
    if not f.coeffs[0] or not _horner(spec, f.coeffs, 1):
        return False
    # an irreducible f passes every gcd and comes back whole; a reducible
    # f yields a factor of degree at most n // 2 before that
    return next(_distinct_degree(f))[1] == n


def squarefree_part(f: FqPoly) -> FqPoly:
    """Product of the distinct irreducible factors of f."""
    spec = f.spec
    f = f.monic()
    d = f.derivative()
    if d.is_zero():
        # f is a p-th power: take the p-th root coefficientwise, by the
        # inverse Frobenius c -> c^(q/p)
        k = spec.q // spec.p
        root = [_pow_raw(spec, c, k) if c else 0 for c in f.coeffs[::spec.p]]
        return squarefree_part(FqPoly._from_vals(spec, root))
    g = f.gcd(d)
    if g.is_one():
        return f
    # f//g carries the factors of multiplicity prime to p, each once;
    # the rest still hides inside g.  Join the two radicals as an lcm.
    part = (f // g).monic()
    rest = squarefree_part(g)
    return (part * (rest // part.gcd(rest))).monic()


def _distinct_degree(f: FqPoly):
    """Ben-Or's gcd chain: yield the (product, degree) components of a
    squarefree monic f, each before it is divided out.

    The i-th gcd, with x^(q^i) - x, takes the irreducible factors of
    degree i.  On a monic f that is not squarefree, a repeated factor g
    still shows by step deg g, so is_irreducible's reading of the first
    component holds for any monic f.
    """
    x = FqPoly.x(f.spec)
    h = x
    frob = None
    i = 0
    while f.degree() >= 2 * (i + 1):
        i += 1
        if frob is None:
            h, frob = _frobenius_map(f, f.degree() // 2 - 1)
        else:
            h = frob(h, f)
        g = f.gcd(h - x)
        if not g.is_one():
            yield g, i
            f = f // g
            h = h % f
    if f.degree() > 0:
        yield f, f.degree()


def _equal_degree_split(f: FqPoly, r: int, rng) -> list[FqPoly]:
    """Cantor-Zassenhaus split of a squarefree product of degree-r factors."""
    spec = f.spec
    n = f.degree()
    if n == r:
        return [f]
    q = spec.q
    while True:
        h = FqPoly._from_vals(spec, [rng.randrange(q) for _ in range(n)])
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


def irreducible_factors(f: FqPoly) -> list[tuple[FqPoly, int]]:
    """Distinct irreducible factors with multiplicities, sorted by degree.

    The equal-degree split draws from a generator with a fixed seed, so
    the output, ties broken by the coefficient value tuple, is the same
    on every run.
    """
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
    out.sort(key=lambda t: (t[0].degree(), t[0].coeffs))
    return out


def mod_inverse(a: FqPoly, modulus: FqPoly) -> FqPoly:
    """Inverse of a modulo a nonzero polynomial, by extended Euclid, or
    ZeroDivisionError when they share a factor.  Each step keeps
    s_i a = r_i mod modulus, and Euclid stops at the first remainder that
    is a nonzero constant c, whose cofactor divided by c is the inverse,
    or at a zero remainder, which leaves a common factor unless the
    modulus itself is constant: modulo a unit every residue is 0, and 0
    is its own inverse."""
    spec = a._check(modulus)
    r0, r1 = modulus.coeffs, _trim(_divmod(spec, a.coeffs, modulus.coeffs)[1])
    s0, s1 = [], [1]
    while len(r1) > 1:
        q, r = _divmod(spec, r0, r1)
        r0, r1 = r1, _trim(r)
        qs = _product(spec, q, s1)
        s0, s1 = s1, _trim([spec._sub_raw(u, v) for u, v in _zip_longest(s0, qs, fillvalue=0)])
    if not r1:
        if len(r0) == 1:
            return FqPoly.zero(spec)
        raise ZeroDivisionError("element is not invertible modulo this polynomial")
    # Euclid's cofactor s1 has degree below the modulus's: nothing to reduce
    return FqPoly._from_vals(spec, s1).scale(spec._inv_raw(r1[0]))


# ---------------------------------------------------------------------------
# the quotient ring F_q[x]/f
# ---------------------------------------------------------------------------


class Quotient:
    """The ring K = F_q[x]/f for a monic f of degree n >= 1, and, built on
    a d x d matrix B with f = chi_B, d >= 2, the algebra F_q[B] = K.  An
    odd extension field multiplies and inverts in GF(p)[x]/f,
    seclab.mw_reduce runs its BSGS group and order search in its
    eigenvalue field, and matrix.KeyField keeps a key's algebra in one.

    Elements are coefficient tuples of packed ints, constant first, of
    degree below n and without trailing zeros, as FqPoly.coeffs, so that
    == and hash compare them.  mul is _product then _rem_monic, inv
    extended Euclid (mod_inverse, ZeroDivisionError for a non-unit) and
    pow FqPoly.pow_mod, each counted as its kernel counts.  compose(r, g)
    is r(g) mod f, for n >= 2, by Horner's rule with the rows g, x g, ...,
    x^(n-1) g mod f, one row-by-matrix product per coefficient of r below
    its top one, and is counted as (n - 1) n^2, products by zero included,
    as matrix.mat_mul counts: (n - 1) n for the rows, n for r's top
    coefficient times g and n^2 for each further step.

    On B, eval(g) is the matrix g(B): g_0 1 plus the row
    (g_1, ..., g_(d-1)) times B's power basis B, ..., B^(d-1),
    (d - 1) d^2 multiplications.  read(X) is the g with X = g(B), or None
    when X is not in F_q[B]: X's entries at d positions where
    1, B, ..., B^(d-1) are independent, times the inverse of their d x d
    block there, d^2, and then eval(g) compared with X, d^3 in all.  It
    needs B cyclic, as an irreducible chi_B makes it.  The basis, d - 2
    products, and the coordinate reader, those positions and that
    inverse (one RowReducer pass over [1, B, ..., B^(d-1) | 1], whose
    pivot columns are the positions and whose right block is the
    inverse), are built on first need and kept; KeyField decides when
    that need comes."""

    __slots__ = ("spec", "f", "matrix", "_basis", "_reader")

    def __init__(self, f: FqPoly, matrix: Matrix | None = None):
        self.spec, self.f, self.matrix = f.spec, f, matrix
        self._basis, self._reader = None, None

    def mul(self, a, b) -> tuple:
        return tuple(_trim(_rem_monic(_product(self.spec, a, b), self.f)))

    def inv(self, a) -> tuple:
        return mod_inverse(FqPoly._from_vals(self.spec, a), self.f).coeffs

    def pow(self, a, e: int) -> tuple:
        return FqPoly._from_vals(self.spec, a).pow_mod(e, self.f).coeffs

    def compose(self, r, g) -> tuple:
        spec, fc = self.spec, self.f.coeffs
        n = len(fc) - 1
        mul, add = spec._mul_raw, spec._add_raw
        neg = [spec._neg_raw(c) for c in fc[:n]]
        rows = [(*g, *(0,) * (n - len(g)))]
        for _ in range(n - 1):
            row = rows[-1]
            rows.append(tuple(add(s, mul(row[-1], c)) for s, c in zip((0, *row[:-1]), neg)))
        prepared = spec._prepare_raw(tuple(rows))
        r = (*r, *(0,) * (n - len(r)))
        acc = (r[-1], *(0,) * (n - 1))
        for c in reversed(r[:-1]):
            acc = list(spec._mul_prepared_raw((acc,), prepared)[0])
            acc[0] = add(acc[0], c)
        _count_muls((n - 1) * n * n)
        return tuple(_trim(acc))

    def eval(self, g) -> Matrix:
        spec, d = self.spec, self.matrix.d
        r = (*g, *(0,) * (d - len(g)))
        _count_muls((d - 1) * d * d)
        flat = spec._mul_prepared_raw((r[1:],), self._built_basis()[1])[0]
        return _add_scalar(spec, [flat[i:i + d] for i in range(0, d * d, d)], r[0])

    def read(self, x: Matrix):
        spec, d = self.spec, self.matrix.d
        if self._reader is None:
            red = RowReducer(spec, d * d + d)
            flat_one = tuple(int(i == j) for i in range(d) for j in range(d))
            for k, row in enumerate((flat_one, *self._built_basis()[0])):
                red.add_row((*row, *(int(k == j) for j in range(d))))
            positions = sorted(red.pivot_rows)
            block_inverse = tuple(tuple(red.pivot_rows[c][d * d:]) for c in positions)
            self._reader = positions, spec._prepare_raw(block_inverse)
        positions, block_inverse = self._reader
        entries = tuple(x.vals[c // d][c % d] for c in positions)
        _count_muls(d * d)
        g = tuple(_trim(spec._mul_prepared_raw((entries,), block_inverse)[0]))
        return g if self.eval(g) == x else None

    def _built_basis(self) -> tuple:
        """B, ..., B^(d-1), each flattened into one row, as they are and in
        the field's prepared form.  Once built, it serves every evaluation
        at B, the first included."""
        if self._basis is None:
            powers = _accumulate([self.matrix] * (self.matrix.d - 1), mat_mul)
            rows = tuple(tuple(_chain.from_iterable(p.vals)) for p in powers)
            self._basis = rows, self.spec._prepare_raw(rows)
        return self._basis


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
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend((d, m // d))
    return out


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
