"""Reference implementations that the tests compare the engine against.

These are the plain algorithms the package used before its
exponentiation engine: matrix square-and-multiply, right-to-left
square-and-multiply on FqPoly products and remainders, and the
gcd(f, x^(q^k) - x) irreducibility loop with one pow_mod(q) per step.
They call neither matrix.mat_pow nor FqPoly.pow_mod nor the Frobenius
matrix, so an agreement checks the engine against independent code.
"""

from morsl.fqpoly import FqPoly
from morsl.matrix import identity, mat_inv, mat_mul


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
