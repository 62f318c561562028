#!/usr/bin/env python3
"""The special conjugacy problem: reading the conjugator off the images.

An automorphism presented by generator images hides the matrix behind
it only up to the center: each image contributes linear constraints on
the conjugator's entries, and the solution space is one-dimensional.
recover_conjugator reads the same matrix off the rank-one shape of the
images without solving that system.  This is why inverting an
automorphism never needs the secret key.
"""

import random

from morsl import (
    Automorphism,
    conjugator_solution_space,
    field_spec,
    mat_inv,
    mat_mul,
    random_gl,
    recover_conjugator,
)

gf7 = field_spec(7)
rng = random.Random(3)

a = random_gl(gf7, 3, rng)
phi = Automorphism.from_conjugator(a)

# The solution space of (1 + e_{i,j}) B = B * image is spanned by A alone
# (up to scalars): generators of SL span the full matrix algebra.
basis = conjugator_solution_space(phi)
print("solution space dimension:", len(basis))

b = recover_conjugator(phi)
ratio = mat_mul(b, mat_inv(a))
print("recovered conjugator over planted one is scalar:",
      all(not ratio.vals[i][j] for i in range(3) for j in range(3) if i != j)
      and ratio.vals[0][0] == ratio.vals[1][1] == ratio.vals[2][2])

# The scalar ambiguity cancels under conjugation, so inversion is exact.
ident = Automorphism.identity(gf7, 3)
print("phi composed with its inverse is the identity:",
      phi.compose(phi.invert()) == ident)

# The order-based inverse (walk the cyclic group to phi^(t-1)) agrees at
# toy scale.
small = Automorphism.from_conjugator(random_gl(field_spec(3), 2, rng))
t, acc = 1, small
while acc != Automorphism.identity(small.spec, 2):
    t, acc = t + 1, acc.compose(small)
print("order-based inverse matches:", small.power(t - 1) == small.invert())
