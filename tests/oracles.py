"""Reference implementations that the tests compare the engine against.

These are the plain algorithms the package used before its
exponentiation engine and its rank-one conjugator recovery: matrix
square-and-multiply, right-to-left square-and-multiply on FqPoly
products and remainders, the gcd(f, x^(q^k) - x) irreducibility loop
with one pow_mod(q) per step, square-and-multiply over compose on
automorphisms (with the order-based inverse and the decryption built on
it), and conjugator recovery by solving the d^2-unknown linear system.
They call neither matrix.mat_pow nor FqPoly.pow_mod nor the Frobenius
matrix, and only the compose decrypt's final inversion calls
autos.recover_conjugator, so an agreement checks the engine against
independent code.  Two more are the FieldElement forms of code that now
runs on raw ints: the x^e loop of FqPoly.pow_mod, whose multiplications
are counted one by one, and the coefficient-by-coefficient hex format.
The field's own kernels have oracles too: the 4-bit windowed binary
multiply with its nibble reduction table, and the multiplication and
inverse tables of a small field built from q^2 coefficient-tuple
products and an inverse search.
"""

import functools
import itertools

from morsl.autos import Automorphism, InvalidAutomorphismError, conjugator_solution_space
from morsl.field import _fp_mod, _fp_mul, _gf2_mod
from morsl.fqpoly import FqPoly
from morsl.matrix import Matrix, identity, mat_inv, mat_mul


@functools.lru_cache(maxsize=None)
def _nibble_reduction_rows(gamma, mod):
    """Row k maps a nibble v to (v * x^(gamma + 4k)) mod f."""
    return tuple(
        tuple(_gf2_mod(v << (gamma + 4 * k), mod) for v in range(16))
        for k in range((gamma + 3) // 4)
    )


def mul_gf2_window(spec, a, b):
    """a * b in a binary field: 4-bit windowed carry-less product, then
    a nibble-at-a-time reduction of the part above x^gamma."""
    if a.bit_length() < b.bit_length():
        a, b = b, a
    t1 = b
    t2 = b << 1
    t3 = t2 ^ b
    table = (0, t1, t2, t3, t2 << 1, t2 << 1 ^ t1, t3 << 1, t3 << 1 ^ t1,
             t1 << 3, t1 << 3 ^ t1, t1 << 3 ^ t2, t1 << 3 ^ t3,
             t3 << 2, t3 << 2 ^ t1, t3 << 2 ^ t2, t3 << 2 ^ t3)
    acc = 0
    shift = a.bit_length()
    shift -= shift % 4
    while shift >= 0:
        acc = (acc << 4) ^ table[(a >> shift) & 0xF]
        shift -= 4
    gamma = spec.gamma
    lo = acc & ((1 << gamma) - 1)
    hi = acc >> gamma
    red = _nibble_reduction_rows(gamma, spec._mod_packed)
    k = 0
    while hi:
        lo ^= red[k][hi & 0xF]
        hi >>= 4
        k += 1
    return lo


def field_tables_by_products(spec):
    """(mul, inv) tables of a small extension field: every product by the
    coefficient-tuple multiply, every inverse by search."""
    q, p = spec.q, spec.p

    def pack(coeffs):
        v = 0
        for c in reversed(coeffs):
            v = v * p + c
        return v

    mul = tuple(
        tuple(
            pack(_fp_mod(_fp_mul(spec._coeffs(a), spec._coeffs(b), p), spec.modulus, p))
            for b in range(q)
        )
        for a in range(q)
    )
    inv = [0] * q
    for a in range(1, q):
        inv[a] = next(b for b in range(1, q) if mul[a][b] == 1)
    return mul, tuple(inv)


def mat_pow_sqm(x, n):
    """x^n by square-and-multiply, d^3 multiplications per product."""
    if n < 0:
        return mat_pow_sqm(mat_inv(x), -n)
    result = identity(x.spec, x.d)
    base = x
    while n:
        if n & 1:
            result = mat_mul(result, base)
        n >>= 1
        if n:
            base = mat_mul(base, base)
    return result


def pow_mod_sqm(base, n, modulus):
    """base^n mod modulus by right-to-left square-and-multiply."""
    result = FqPoly.one(base.spec)
    base = base % modulus
    while n:
        if n & 1:
            result = (result * base) % modulus
        n >>= 1
        if n:
            base = (base * base) % modulus
    return result


def pow_x_elementwise(e, f):
    """x^e mod a monic f of degree >= 2, e >= 1, by left-to-right
    square-and-shift on FieldElement coefficients: one multiplication
    per nonzero coefficient squared, one per nonzero f_i when a nonzero
    top coefficient is cleared."""
    spec, n = f.spec, f.degree()
    zero = spec.zero()

    def reduce(a):
        for top in range(len(a) - 1, n - 1, -1):
            c = a[top]
            if c:
                for i in range(n):
                    if f.coeffs[i]:
                        a[top - n + i] = a[top - n + i] - c * f.coeffs[i]
        return a[:n]

    acc = [zero, spec.one()] + [zero] * (n - 2)
    for bit in bin(e)[3:]:
        sq = [zero] * (2 * n - 1)
        for i, c in enumerate(acc):
            if c:
                sq[2 * i] = c * c
        acc = reduce(sq)
        if bit == "1":
            acc = reduce([zero, *acc])
    return FqPoly(spec, acc)


def to_hex_loop(a):
    """Coefficients, constant term first, in hex, ':'-joined."""
    return ":".join(format(c, "x") for c in a.coeffs)


def from_hex_loop(spec, s):
    """Inverse of to_hex_loop; raises ValueError on a malformed string."""
    coeffs = [int(part, 16) for part in s.split(":")]
    if len(coeffs) != spec.gamma:
        raise ValueError("wrong number of coefficients for this spec")
    if any(not 0 <= c < spec.p for c in coeffs):
        raise ValueError("coefficient out of range")
    return spec.from_coeffs(coeffs)


def is_irreducible_gcd(f):
    """gcd(f, x^(q^k) - x) = 1 for k = 1 .. deg f // 2."""
    n = f.degree()
    if n < 1:
        return False
    if n == 1:
        return True
    spec = f.spec
    f = f.monic()
    x = FqPoly.x(spec)
    h = x
    for _ in range(n // 2):
        h = pow_mod_sqm(h, spec.q, f)
        if not f.gcd(h - x).is_one():
            return False
    return True


def compose_power(phi, m):
    """phi^m by square-and-multiply over compose; m >= 0."""
    result = Automorphism.identity(phi.spec, phi.d)
    base = phi
    while m:
        if m & 1:
            result = result.compose(base)
        m >>= 1
        if m:
            base = base.compose(base)
    return result


def invert_via_order(phi, max_order=1 << 16):
    """phi^(t-1) where phi^t = 1, walking the cyclic group by compose."""
    ident = Automorphism.identity(phi.spec, phi.d)
    acc = phi
    t = 1
    while acc != ident:
        acc = acc.compose(phi)
        t += 1
        if t > max_order:
            raise InvalidAutomorphismError("order exceeds the search cap")
    return compose_power(phi, t - 1)


def decrypt_compose(sk, ct):
    """Power phi^r to m over compose, invert, apply to the payload."""
    return compose_power(ct.phi_r, sk.m).invert().apply(ct.payload)


def _satisfies_all(phi, b):
    d = phi.d
    for (i, j), n in phi.images.items():
        rhs = mat_mul(b, n)
        # (1 + e_{i,j}) B adds row j of B to row i
        for a in range(d):
            for c in range(d):
                lhs = b.rows[a][c]
                if a == i - 1:
                    lhs = lhs + b.rows[j - 1][c]
                if lhs != rhs.rows[a][c]:
                    return False
    return True


def recover_conjugator_linalg(phi):
    """Nullspace of the d^2-unknown system, then a nonsingular point by
    scanning small basis combinations, then a check of every image."""
    spec = phi.spec
    basis = conjugator_solution_space(phi)
    if not basis:
        raise InvalidAutomorphismError("no conjugator: empty solution space")
    candidate = next((b for b in basis if b.is_gl()), None)
    if candidate is None and len(basis) > 1:
        scan_vals = [spec.from_val(v) for v in range(min(spec.q, 4))]
        for combo in itertools.product(scan_vals, repeat=len(basis)):
            if all(c.is_zero() for c in combo):
                continue
            acc = [[spec.zero()] * phi.d for _ in range(phi.d)]
            for c, mat in zip(combo, basis):
                if c:
                    acc = [[a + c * x for a, x in zip(r1, r2)] for r1, r2 in zip(acc, mat.rows)]
            point = Matrix(spec, acc)
            if point.is_gl():
                candidate = point
                break
    if candidate is None:
        raise InvalidAutomorphismError("no nonsingular solution")
    if not _satisfies_all(phi, candidate):
        raise InvalidAutomorphismError("presentation is not a conjugation")
    return candidate
