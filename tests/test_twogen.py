import pytest

from morsl.field import field_spec
from morsl.matrix import (
    conjugate,
    identity,
    mat_inv,
    mat_mul,
    mat_pow,
    transvection,
)
from morsl.twogen import (
    CDWord,
    UnsupportedParametersError,
    albert_thompson_generators,
    c1_closed,
    ck_closed,
    ck_inv_closed,
    d_power_closed,
    rewrite_transvection_in_cd,
)

GF5 = field_spec(5)
GF7 = field_spec(7)


def _unit_plus(spec, d, i, j, sign=1):
    lam = spec.one() if sign == 1 else -spec.one()
    return transvection(spec, d, i, j, lam)


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("d", [5, 6, 7])
def test_generators_lie_in_sl(p, d):
    spec = field_spec(p)
    c, dm = albert_thompson_generators(spec, d)
    assert c.is_sl()
    assert dm.is_sl()


@pytest.mark.parametrize("d", [5, 6, 7])
def test_c1_identity(d):
    spec = GF7
    c, dm = albert_thompson_generators(spec, d)
    c1 = conjugate(c, dm)
    assert c1 == c1_closed(spec, d)


@pytest.mark.parametrize("d", [5, 6, 7])
def test_commutator_gives_bottom_row_start(d):
    spec = GF7
    c, dm = albert_thompson_generators(spec, d)
    c1 = conjugate(c, dm)
    comm = mat_mul(mat_mul(c, c1), mat_mul(mat_inv(c), mat_inv(c1)))
    assert comm == _unit_plus(spec, d, d, 2)


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("d", [5, 6, 7])
def test_d_power_closed_forms(p, d):
    # evaluate takes every D-run from d_power_closed, so both must equal
    # the literal generator's power at every run length, past the
    # reduction mod 2d on either side
    spec = field_spec(p)
    _, dm = albert_thompson_generators(spec, d)
    for k in range(-3 * d, 3 * d + 1):
        if k:
            assert d_power_closed(spec, d, k) == mat_pow(dm, k)
            assert CDWord(spec, d, [("D", k)]).evaluate() == mat_pow(dm, k)


def test_a_long_d_run_evaluates_through_its_residue():
    # D^(2d) = 1: a run near the cap costs one permutation, not |k| steps
    spec, d = GF7, 5
    _, dm = albert_thompson_generators(spec, d)
    k = 10**18 + 3
    assert CDWord(spec, d, [("D", k)]).evaluate() == mat_pow(dm, k % (2 * d))


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("d", [5, 6, 7])
def test_ck_closed_forms(p, d):
    spec = field_spec(p)
    c, dm = albert_thompson_generators(spec, d)
    for k in range(2, d - 1):
        ck = conjugate(c, mat_pow(dm, k))
        assert ck == ck_closed(spec, d, k)
        assert mat_inv(ck) == ck_inv_closed(spec, d, k)


@pytest.mark.parametrize("d", [5, 6, 7])
def test_bottom_row_step_identity(d):
    # (1 + e_{d,k}) C_k (1 - e_{d,k}) C_k^-1 is a single transvection at
    # (d, k+1) for k <= d-3: coefficient -1 at k = 2, +1 afterwards
    spec = GF5
    for k in range(2, d - 2):
        lhs = mat_mul(
            mat_mul(_unit_plus(spec, d, d, k), ck_closed(spec, d, k)),
            mat_mul(_unit_plus(spec, d, d, k, sign=-1), ck_inv_closed(spec, d, k)),
        )
        assert lhs == _unit_plus(spec, d, d, k + 1, sign=-1 if k == 2 else 1)


@pytest.mark.parametrize("d", [5, 6, 7])
def test_bottom_row_step_degenerates_at_last_column(d):
    # at k = d-2 the column-d component of C_k interferes and the product
    # is no longer a single transvection; the rewriting routes around it
    spec = GF5
    k = d - 2
    lhs = mat_mul(
        mat_mul(_unit_plus(spec, d, d, k), ck_closed(spec, d, k)),
        mat_mul(_unit_plus(spec, d, d, k, sign=-1), ck_inv_closed(spec, d, k)),
    )
    off_diag = sum(
        1
        for a in range(d)
        for b in range(d)
        if a != b and lhs.vals[a][b]
    )
    assert off_diag > 1


def test_flat_sign_power_formula_fails_past_k2():
    # the flat sign pattern (-, -, +, ..., +) for D^k is exact only for
    # k <= 2; crossings of position 2 flip further signs (ledgered defect)
    spec = GF7
    d = 6
    _, dm = albert_thompson_generators(spec, d)
    one = spec.one()
    flat = [[spec.zero()] * d for _ in range(d)]
    k = 3
    scal = -one if (d * k) % 2 else one
    flat[0][(1 + k - 1) % d] = -scal
    flat[1][(2 + k - 1) % d] = -scal
    for i in range(3, d + 1):
        flat[i - 1][(i + k - 1) % d] = scal
    from morsl.matrix import Matrix

    assert Matrix(spec, flat) != mat_pow(dm, k)
    assert d_power_closed(spec, d, k) == mat_pow(dm, k)


@pytest.mark.parametrize("d", [5, 6, 7])
def test_row_two_transport(d):
    spec = GF5
    _, dm = albert_thompson_generators(spec, d)
    d2 = mat_pow(dm, 2)
    got = conjugate(_unit_plus(spec, d, d, d - 1), d2)
    assert got == _unit_plus(spec, d, 2, 1)


def test_unsupported_parameters():
    with pytest.raises(UnsupportedParametersError):
        albert_thompson_generators(GF5, 4)
    with pytest.raises(UnsupportedParametersError):
        albert_thompson_generators(field_spec(2, 4), 5)
    with pytest.raises(UnsupportedParametersError):
        rewrite_transvection_in_cd(field_spec(3, 2), 5, 1, 2, field_spec(3, 2).one())


def test_cdword_evaluation_matches_matrix_products():
    spec = GF7
    d = 5
    c, dm = albert_thompson_generators(spec, d)
    cases = [
        ([("C", 1)], c),
        ([("D", 1)], dm),
        ([("D", -1)], mat_inv(dm)),
        ([("C", 3)], mat_pow(c, 3)),
        ([("D", 4)], mat_pow(dm, 4)),
        ([("C", 1), ("D", 2), ("C", -2)], mat_mul(mat_mul(c, mat_pow(dm, 2)), mat_pow(mat_inv(c), 2))),
    ]
    for letters, expected in cases:
        assert CDWord(spec, d, letters).evaluate() == expected


def test_cdword_inverse_and_merge():
    spec = GF5
    d = 5
    w = CDWord(spec, d, [("C", 2), ("D", -3)])
    assert mat_mul(w.evaluate(), w.inverse().evaluate()) == identity(spec, d)
    merged = CDWord(spec, d, [("C", 1), ("C", 2), ("D", 1), ("D", -1), ("C", 4)])
    assert merged.letters == (("C", 7),)
    with pytest.raises(ValueError):
        CDWord(spec, d, [("X", 1)])
    with pytest.raises(ValueError):
        CDWord(spec, d, [("C", 10**40)])



@pytest.mark.parametrize("d", [5, 6])
def test_bottom_row_words(d):
    spec = GF7
    for k in range(1, d):
        w = rewrite_transvection_in_cd(spec, d, d, k, spec.one())
        assert w.evaluate() == _unit_plus(spec, d, d, k)


def test_rewrite_chain_oracle_d5_p7():
    # matrix evaluation of the inductive chain at d=5, p=7
    spec = GF7
    w = rewrite_transvection_in_cd(spec, 5, 5, 3, spec.one())
    assert w.evaluate() == _unit_plus(spec, 5, 5, 3)


def test_rewrite_row_two_entry():
    spec = GF7
    w = rewrite_transvection_in_cd(spec, 5, 2, 1, spec.one())
    assert w.evaluate() == _unit_plus(spec, 5, 2, 1)


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("d", [5, 7])
def test_rewrite_completeness(p, d):
    spec = field_spec(p)
    for lam_int in (1, 2):
        lam = spec.from_val(lam_int)
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                if i == j:
                    continue
                w = rewrite_transvection_in_cd(spec, d, i, j, lam)
                assert w.evaluate() == transvection(spec, d, i, j, lam)


def test_rewrite_validation():
    with pytest.raises(ValueError):
        rewrite_transvection_in_cd(GF5, 5, 2, 2, GF5.one())
    with pytest.raises(ValueError):
        rewrite_transvection_in_cd(GF5, 5, 1, 2, GF5.zero())
