"""fqpoly.Quotient, the ring F_q[x]/f and, on a matrix B with f = chi_B,
the algebra F_q[B], against FqPoly arithmetic, matrix products and the
elementwise oracles, with the counts its docstring gives."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import PolyElementwise, mod_inverse_elementwise, pow_mod_sqm

from morsl.field import cost_counter, field_spec
from morsl.fqpoly import FqPoly, Quotient, char_poly, is_irreducible
from morsl.matrix import identity, mat_mul, random_gl

fields = st.sampled_from(
    [field_spec(7), field_spec(3, 2), field_spec(2, 4), field_spec(2, 8), field_spec(2, 16)]
)


def _counted(fn, *args):
    c0 = cost_counter()
    return fn(*args), cost_counter() - c0


def _element(spec, d, rng):
    return FqPoly(spec, [rng.randrange(spec.q) for _ in range(d)]).coeffs


@settings(max_examples=60, deadline=None)
@given(spec=fields, d=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_the_algebra_of_a_matrix_matches_its_oracles_and_counts(spec, d, seed):
    rng = random.Random(seed)
    b = random_gl(spec, d, rng)
    while not is_irreducible(char_poly(b)):
        b = random_gl(spec, d, rng)
    chi = char_poly(b)
    algebra = Quotient(chi, b)
    a, c, r = (_element(spec, d, rng) for _ in range(3))

    # the basis is built on first need; eval is one product with it
    assert _counted(algebra._built_basis)[1] == (d - 2) * d**3
    eval_a, count = _counted(algebra.eval, a)
    assert count == (d - 1) * d * d
    assert eval_a == FqPoly(spec, a).eval_matrix(b)
    product = algebra.mul(a, c)
    assert product == ((FqPoly(spec, a) * FqPoly(spec, c)) % chi).coeffs
    assert algebra.eval(product) == mat_mul(eval_a, algebra.eval(c))
    e = rng.randrange(2 * spec.q**d)
    assert algebra.pow(a, e) == pow_mod_sqm(FqPoly(spec, a), e, chi).coeffs

    # chi is irreducible: every nonzero element is a unit
    if a:
        inverse = algebra.inv(a)
        oracle = mod_inverse_elementwise(*map(PolyElementwise.of, (FqPoly(spec, a), chi)))
        assert inverse == oracle.packed().coeffs
        assert mat_mul(algebra.eval(inverse), eval_a) == identity(spec, d)
    else:
        with pytest.raises(ZeroDivisionError):
            algebra.inv(a)

    # read gives back the coordinates of a member, and None off F_q[B];
    # the first read builds the coordinate reader
    algebra.read(algebra.eval(c))
    g, count = _counted(algebra.read, eval_a)
    assert (g, count) == (a, d**3)
    other = random_gl(spec, d, rng)
    if mat_mul(other, b) != mat_mul(b, other):
        assert _counted(algebra.read, other) == (None, d**3)

    # compose(r, g) = r(g) mod chi
    composed, count = _counted(algebra.compose, r, a)
    horner = FqPoly.zero(spec)
    for coefficient in reversed(r):
        horner = (horner * FqPoly(spec, a) + FqPoly(spec, [coefficient])) % chi
    assert (composed, count) == (horner.coeffs, (d - 1) * d * d)
    assert algebra.eval(composed) == FqPoly(spec, r).eval_matrix(eval_a)

