"""One elimination engine: mat_inv and the lab's solves run on linalg.

mat_inv is linalg.solve(A, 1), and the Menezes-Wu helpers of seclab
restrict to invariant subspaces and express powers as polynomials
through solve as well.  Each is checked against the elimination it
replaced, kept in tests/oracles.py: values over prime, odd-extension and
binary fields, singular and inconsistent inputs, and for mat_inv the
number of field multiplications.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    express_as_polynomial_nullspace,
    mat_inv_gauss_jordan,
    restrict_to_subspace_gauss,
)

from morsl.field import FieldElement, cost_counter, cost_reset, field_spec
from morsl.fqpoly import char_poly, irreducible_factors
from morsl.linalg import nullspace, solve
from morsl.matrix import Matrix, SingularMatrixError, identity, mat_inv, mat_mul, mat_pow, random_gl
from morsl.seclab import _express_as_polynomial, _restrict_to_subspace

PROPERTY = settings(max_examples=60)

# prime, odd-extension and binary fields
fields = st.one_of(
    st.builds(field_spec, st.sampled_from((3, 5, 7, 11, 13))),
    st.builds(field_spec, st.sampled_from((3, 5, 7)), st.integers(2, 4)),
    st.builds(field_spec, st.just(2), st.integers(1, 16)),
)


def _random_rows(spec, n, k, rng, zero_share):
    """n rows of k entries, each zero with probability zero_share."""
    return [
        [spec.zero() if rng.random() < zero_share else spec.random(rng) for _ in range(k)]
        for _ in range(n)
    ]


def _combine(spec, rows, rng):
    """A random linear combination of rows."""
    out = [spec.zero()] * len(rows[0])
    for row in rows:
        c = spec.random(rng)
        out = [a + c * b for a, b in zip(out, row)]
    return out


def _cost(fn, *args):
    cost_reset()
    try:
        return fn(*args), cost_counter()
    except SingularMatrixError:
        return SingularMatrixError, cost_counter()


@PROPERTY
@given(
    spec=fields,
    d=st.integers(1, 8),
    seed=st.integers(0, 2**32),
    zero_share=st.sampled_from((0.0, 0.3, 0.7)),
    singular=st.booleans(),
)
def test_mat_inv_matches_gauss_jordan(spec, d, seed, zero_share, singular):
    rng = random.Random(seed)
    rows = _random_rows(spec, d, d, rng, zero_share)
    if singular:
        # one row a combination of the others (the zero row when d = 1)
        r = rng.randrange(d)
        rows[r] = _combine(spec, rows[:r] + rows[r + 1:], rng) if d > 1 else [spec.zero()]
    x = Matrix(spec, rows)
    got, cost = _cost(mat_inv, x)
    want, oracle_cost = _cost(mat_inv_gauss_jordan, x)
    assert got == want
    if singular:
        assert got is SingularMatrixError
    if got is not SingularMatrixError:
        assert cost <= oracle_cost


@pytest.mark.parametrize(
    "spec,d",
    [(field_spec(7), 3), (field_spec(2, 16), 5), (field_spec(2, 160), 7), (field_spec(2, 4), 16)],
)
def test_mat_inv_costs_no_more_than_gauss_jordan(spec, d):
    rng = random.Random(d)
    for x in (random_gl(spec, d, rng), random_gl(spec, d, rng), identity(spec, d)):
        inv, cost = _cost(mat_inv, x)
        want, oracle_cost = _cost(mat_inv_gauss_jordan, x)
        assert inv == want
        assert mat_mul(x, inv) == identity(spec, d)
        assert cost <= oracle_cost


def test_dense_paper_size_inverse_count():
    x = random_gl(field_spec(2, 160), 7, random.Random(7))
    assert _cost(mat_inv, x)[1] == 392
    assert _cost(mat_inv_gauss_jordan, x)[1] == 686


def _product(spec, lhs, x):
    return [[sum((a * b for a, b in zip(row, col)), spec.zero()) for col in zip(*x)] for row in lhs]


def _ints(rows):
    """FieldElement rows as the packed-int rows linalg takes."""
    return [[v.val for v in row] for row in rows]


def _elements(spec, rows):
    return [tuple(FieldElement(spec, v) for v in row) for row in rows]


@PROPERTY
@given(spec=fields, n=st.integers(1, 7), data=st.data())
def test_solve_rank_deficient_and_inconsistent(spec, n, data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    k = data.draw(st.integers(1, n))
    lhs = _random_rows(spec, n, k, rng, 0.2)
    x = _random_rows(spec, k, data.draw(st.integers(1, 3)), rng, 0.2)
    unique = solve(spec, _ints(lhs), _ints(_product(spec, lhs, x)))
    if unique is None:
        # only when the columns of lhs are dependent
        kernel = _elements(spec, nullspace(spec, _ints(lhs), k))
        assert kernel and _product(spec, lhs, [[v] for v in kernel[0]]) == [[spec.zero()]] * n
    else:
        assert _elements(spec, unique) == [tuple(r) for r in x]
    if k >= 2:
        # one column a combination of the others: X exists but is not unique
        c = rng.randrange(k)
        cols = [list(col) for col in zip(*lhs)]
        cols[c] = _combine(spec, cols[:c] + cols[c + 1:], rng)
        dependent = [list(r) for r in zip(*cols)]
        assert solve(spec, _ints(dependent), _ints(_product(spec, dependent, x))) is None
    if n > k and unique is not None:
        # y^T lhs = 0 with y_j != 0, so e_j lies outside the column space
        y = _elements(spec, nullspace(spec, _ints(zip(*lhs)), n))[0]
        assert _product(spec, [y], lhs) == [[spec.zero()] * k]
        j = next(i for i, v in enumerate(y) if v)
        e_j = [[spec.one() if i == j else spec.zero()] for i in range(n)]
        assert solve(spec, _ints(lhs), _ints(e_j)) is None


# a random conjugator A and a power A^e, as in a key pair; ker g(A) for
# each irreducible factor g of chi_A is invariant under both (the whole
# space when chi_A is irreducible)
@settings(max_examples=30)
@given(spec=fields, d=st.integers(2, 6), seed=st.integers(0, 2**32), e=st.integers(2, 10**6))
def test_restriction_and_expression_match_their_oracles(spec, d, seed, e):
    a = random_gl(spec, d, random.Random(seed))
    a_e = mat_pow(a, e)
    for g, _ in irreducible_factors(char_poly(a)):
        basis, deg = nullspace(spec, g.eval_matrix(a).vals, d), g.degree()
        a_res = _restrict_to_subspace(a, basis)
        ae_res = _restrict_to_subspace(a_e, basis)
        assert a_res == restrict_to_subspace_gauss(a, _elements(spec, basis))
        assert ae_res == restrict_to_subspace_gauss(a_e, _elements(spec, basis))
        poly = _express_as_polynomial(a_res, ae_res, deg)
        assert poly == express_as_polynomial_nullspace(a_res, ae_res, deg)
        assert poly.eval_matrix(a_res) == ae_res


def test_restriction_rejects_a_span_that_is_not_invariant():
    spec = field_spec(5)
    one, zero = spec.one(), spec.zero()
    # the shift e1 -> e2 -> e3 does not keep span(e1) fixed
    shift = Matrix(spec, [[zero, zero, zero], [one, zero, zero], [zero, one, one]])
    with pytest.raises(ValueError):
        _restrict_to_subspace(shift, [(1, 0, 0)])
    # the oracle never looks at the rows below the basis and answers anyway
    assert restrict_to_subspace_gauss(shift, [(one, zero, zero)]).d == 1
