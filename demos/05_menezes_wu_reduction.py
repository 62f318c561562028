#!/usr/bin/env python3
"""From a matrix discrete log to a field discrete log.

An automorphism acts linearly on the d^2-dimensional matrix algebra, so
the key pair lifts to d^2 x d^2 matrices.  The reduction maps a matrix
power problem into the extension field cut out by an irreducible factor
of the characteristic polynomial; the discrete log then lives in
GF(q^k), solved here by baby-step giant-step at desk scale.

One structural fact matters: conjugation fixes the identity matrix, so
the lifted operator always has eigenvalue 1 and a reducible
characteristic polynomial.  The reduction therefore works inside its
largest irreducible factor.
"""

import random

from morsl import (
    char_poly,
    field_spec,
    is_irreducible,
    lift_operator,
    mat_pow,
    mw_reduce,
    random_gl,
)
from morsl.fqpoly import irreducible_factors

gf5 = field_spec(5)
rng = random.Random(5)

while True:
    a = random_gl(gf5, 3, rng)
    chi = char_poly(a)
    if is_irreducible(chi):
        break
print("conjugator charpoly degree:", chi.degree(), "irreducible:", is_irreducible(chi))
# coefficients are packed ints, constant term first; over GF(5) each is
# the residue itself
print("conjugator charpoly coefficients:", chi.coeffs)

lifted = lift_operator(a)
chi_lift = char_poly(lifted.matrix)
print("lifted operator dimension:", lifted.dim)
print("lift charpoly degree:", chi_lift.degree())
print("lift charpoly irreducible:", is_irreducible(chi_lift),
      "(never: x - 1 divides it)")
print("lift factor degrees:",
      [(g.degree(), mult) for g, mult in irreducible_factors(chi_lift)])

secret = 911
target = mat_pow(lifted.matrix, secret)
recovered = mw_reduce(lifted.matrix, target, allow_reducible=True)
print("recovered exponent:", recovered)
print("verifies against the target:", mat_pow(lifted.matrix, recovered) == target)

# Direct matrices with irreducible charpoly use the clean path.
direct_target = mat_pow(a, secret)
n = mw_reduce(a, direct_target)
print("direct reduction verifies:", mat_pow(a, n) == direct_target)
