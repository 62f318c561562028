#!/usr/bin/env python3
"""Walk through the arithmetic layers: GF(p^gamma), matrices, transvections.

Everything downstream (keys, attacks, cost accounting) is built from these
pieces, so this is the place to get a feel for the API.
"""

import random

from morsl import (
    cost_counter,
    cost_reset,
    det,
    field_spec,
    identity,
    mat_inv,
    mat_mul,
    mat_pow,
    random_sl,
    transvection,
)

# A field is described by its characteristic, extension degree and modulus.
# Omitting the modulus picks the lexicographically smallest irreducible.
gf8 = field_spec(2, 3)
print("GF(8) with modulus coefficients (constant term first):", gf8.modulus)

x = gf8.monomial(1)
print("x * x^2 =", (x * gf8.monomial(2)).coeffs, " (reduced by the modulus)")
print("x^(q-1) =", (x ** 7).coeffs, " (multiplicative group has order 7)")
# An element packs its coefficient digits into one int, val; matrices and
# polynomials store entries and coefficients as these packed ints.
print("x^2 + 1 packs to", (x * x + gf8.one()).val, "(binary 101)")

# Field multiplications are counted globally; additions are free.
cost_reset()
_ = x * x
_ = x + x
print("counter after one mul and one add:", cost_counter())

# Elementary transvections 1 + lam*e_{i,j} generate SL(d,q).
gf7 = field_spec(7)
lam = gf7.from_val(3)
mu = gf7.from_val(2)
t1 = transvection(gf7, 3, 1, 2, lam)
t2 = transvection(gf7, 3, 2, 3, mu)

# The commutator relation: [1+lam*e_{1,2}, 1+mu*e_{2,3}] = 1 + lam*mu*e_{1,3}
comm = mat_mul(mat_mul(t1, t2), mat_mul(mat_inv(t1), mat_inv(t2)))
print("commutator equals corner transvection:",
      comm == transvection(gf7, 3, 1, 3, lam * mu))

# Adding coefficients at one position, and the wrap at the characteristic:
print("product at same position merges coefficients:",
      mat_mul(t1, transvection(gf7, 3, 1, 2, mu)) == transvection(gf7, 3, 1, 2, lam + mu))
print("7th power of a transvection over GF(7) is the identity:",
      mat_pow(t1, 7) == identity(gf7, 3))

# Random unimodular matrices come from rejection-sampled GL plus a row fix.
rng = random.Random(1)
m = random_sl(gf7, 3, rng)
print("random SL(3,7) element has determinant", det(m).val)
