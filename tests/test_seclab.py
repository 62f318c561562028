import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import mat_pow_sqm, monomial_positions_by_entries

from morsl.autos import Automorphism
from morsl.field import field_spec
from morsl.fqpoly import FqPoly, Quotient, char_poly, companion_matrix, is_irreducible
from morsl.linalg import RowReducer
from morsl.matrix import (
    Matrix,
    Permutation,
    SingularMatrixError,
    conjugate,
    diagonal_matrix,
    identity,
    mat_mul,
    mat_pow,
    permutation_matrix,
    random_gl,
    random_sl,
    scalar_matrix,
)
from morsl.protocol import MorParams, MorPublicKey, keygen
from morsl.seclab import (
    IterationBudgetExceeded,
    ReducibleCharPolyError,
    WrongAttackModelError,
    _read_monomial,
    bsgs_dlog,
    centralizer_space,
    field_group_ops,
    lift_operator,
    matrix_group_ops,
    monomial_cycle_attack,
    mw_reduce,
    validate_params,
)

GF3 = field_spec(3)
GF5 = field_spec(5)
GF7 = field_spec(7)


# -- lift --------------------------------------------------------------------


def test_lift_of_identity():
    lifted = lift_operator(identity(GF5, 3))
    assert lifted.matrix == identity(GF5, 9)
    assert lifted.dim == 9


def test_lift_of_scalar_is_identity_operator():
    lifted = lift_operator(scalar_matrix(GF5, 3, GF5.from_val(4)))
    assert lifted.matrix == identity(GF5, 9)


def test_lift_action_matches_conjugation():
    r = random.Random(1)
    for spec, d in ((GF5, 2), (GF5, 3), (GF7, 3)):
        for _ in range(10):
            a = random_gl(spec, d, r)
            lifted = lift_operator(a)
            x = random_sl(spec, d, r)
            assert lifted.apply_matrix(x) == conjugate(x, a)


def test_lift_respects_composition_convention():
    r = random.Random(2)
    for d in (2, 3):
        for _ in range(5):
            a, b = random_gl(GF5, d, r), random_gl(GF5, d, r)
            lhs = lift_operator(mat_mul(a, b)).matrix
            rhs = mat_mul(lift_operator(b).matrix, lift_operator(a).matrix)
            assert lhs == rhs


def test_lift_charpoly_degree_and_trivial_eigenvalue():
    r = random.Random(3)
    one = GF5.one()
    for _ in range(5):
        a = random_gl(GF5, 3, r)
        f = char_poly(lift_operator(a).matrix)
        assert f.degree() == 9
        # conjugation fixes the identity matrix: x - 1 always divides
        assert f(one).is_zero()
        assert not is_irreducible(f)


# -- validate_params -----------------------------------------------------------


def test_validate_params_paper_scale_figures():
    est = validate_params(7, field_spec(2, 160))
    assert est.dlp_field_exponent == 49
    assert est.q == 2**160
    assert "GF(2^7840)" in est.table()
    assert est.index_calculus_regime == "subexponential"  # 7 < 160
    assert not est.warnings
    assert est.sqrt_attack_bits == pytest.approx(3920.0)


def test_validate_params_regimes():
    assert validate_params(3, field_spec(2)).index_calculus_regime == "exponential"
    assert (
        validate_params(2, field_spec(2, 64)).index_calculus_regime == "subexponential"
    )


def test_validate_params_warning_below_reference():
    est = validate_params(3, GF5)
    assert est.warnings


def test_validate_params_with_conjugator():
    r = random.Random(4)
    pk, sk = keygen(MorParams(GF5, 3), r)
    est = validate_params(3, GF5, sk.conjugator)
    assert est.conjugator_charpoly_irreducible is True
    assert est.lift_charpoly_irreducible is False  # never irreducible
    # the figure the estimate states without building the lift
    assert char_poly(lift_operator(sk.conjugator).matrix)(GF5.one()).is_zero()
    obj = est.to_json()
    assert obj["dlp_field_exponent"] == 9


@pytest.mark.parametrize("rows", [
    [[1, 2, 0], [2, 4, 0], [0, 0, 1]],  # dependent rows
    [[0, 1, 0], [0, 0, 1], [0, 0, 0]],  # nilpotent
    [[0] * 3] * 3,
])
def test_validate_params_refuses_a_singular_conjugator(rows):
    a = Matrix(GF5, [[GF5.from_val(v) for v in row] for row in rows])
    with pytest.raises(SingularMatrixError):
        validate_params(3, GF5, a)


# -- bsgs ----------------------------------------------------------------------


def test_bsgs_base_equals_target():
    gf101 = field_spec(101)
    ops = field_group_ops(gf101)
    g = gf101.from_val(2)
    assert bsgs_dlog(g, g, 100, ops) == 1


def test_bsgs_field_instance():
    gf101 = field_spec(101)
    ops = field_group_ops(gf101)
    g = gf101.from_val(2)
    target = g**45
    assert bsgs_dlog(g, target, 100, ops) == 45


def test_bsgs_matrix_instance():
    r = random.Random(5)
    ops = matrix_group_ops(GF5, 2)
    m = random_sl(GF5, 2, r)
    n = bsgs_dlog(m, mat_pow(m, 12), 120, ops)
    assert n is not None
    assert mat_pow_sqm(m, n) == mat_pow_sqm(m, 12)


def test_bsgs_agrees_with_brute_force():
    gf = field_spec(997)
    ops = field_group_ops(gf)
    r = random.Random(6)
    for _ in range(20):
        g = gf.random_nonzero(r)
        n_true = r.randrange(996)
        target = g**n_true
        found = bsgs_dlog(g, target, 996, ops)
        brute = next(k for k in range(997) if g**k == target)
        assert found == brute


def test_bsgs_not_found_and_budget():
    gf7 = GF7
    ops = field_group_ops(gf7)
    g = gf7.from_val(2)  # order 3: powers {1, 2, 4}
    assert bsgs_dlog(g, gf7.from_val(3), 6, ops) is None
    gf = field_spec(65537)
    with pytest.raises(IterationBudgetExceeded):
        bsgs_dlog(
            gf.from_val(3), gf.from_val(7), 65536, field_group_ops(gf), budget=10
        )


# -- centralizer ------------------------------------------------------------------


def test_centralizer_of_identity_is_full_space():
    assert len(centralizer_space(identity(GF5, 3))) == 9


def test_centralizer_of_irreducible_companion_has_dimension_d():
    f = FqPoly(GF5, (1, 1, 0, 1))  # x^3 + x + 1, irreducible mod 5
    assert is_irreducible(f)
    basis = centralizer_space(companion_matrix(f))
    assert len(basis) == 3


def test_centralizer_contains_scalars_and_commutes():
    r = random.Random(7)
    for _ in range(5):
        x = random_gl(GF5, 3, r)
        basis = centralizer_space(x)
        for y in basis:
            assert mat_mul(x, y) == mat_mul(y, x)
        # the reducer's rows are packed ints
        red = RowReducer(GF5, 9)
        for y in basis:
            red.add_row([v for row in y.vals for v in row])
        scal = scalar_matrix(GF5, 3, GF5.from_val(2))
        assert not red.add_row([v for row in scal.vals for v in row])


# -- monomial cycle attack ----------------------------------------------------------


def _monomial_key(spec, d, m, rng):
    w = [spec.random_nonzero(rng) for _ in range(d)]
    alpha = Permutation.random(d, rng)
    conj = mat_mul(diagonal_matrix(w), permutation_matrix(spec, alpha))
    phi = Automorphism.from_conjugator(conj)
    phi_m = Automorphism.from_conjugator(mat_pow(conj, m))
    params = MorParams(spec, d, require_irreducible_lift=False)
    return MorPublicKey(params, phi, phi_m)


def test_monomial_attack_recovers_true_residue():
    r = random.Random(8)
    for spec in (GF5, GF7, field_spec(7, 2)):
        for _ in range(5):
            d = r.randrange(3, 6)
            m = r.randrange(2, 10_000)
            pk = _monomial_key(spec, d, m, r)
            report = monomial_cycle_attack(pk)
            assert m % report.nu == report.shift
            assert m % report.modulus in report.residues
            for orbit in report.orbits:
                assert report.nu % len(orbit) == 0


def test_monomial_attack_identity_permutation_degenerates_to_field_dlp():
    r = random.Random(9)
    spec = GF7
    d = 3
    w = [spec.random_nonzero(r) for _ in range(d)]
    conj = diagonal_matrix(w)
    m = 17
    pk = MorPublicKey(
        MorParams(spec, d, require_irreducible_lift=False),
        Automorphism.from_conjugator(conj),
        Automorphism.from_conjugator(mat_pow(conj, m)),
    )
    report = monomial_cycle_attack(pk)
    assert report.nu == 1
    assert all(len(orbit) == 1 for orbit in report.orbits)
    assert m % report.modulus in report.residues


def test_monomial_attack_rejects_generic_key():
    r = random.Random(10)
    pk, _ = keygen(MorParams(GF5, 3), r)
    with pytest.raises(WrongAttackModelError):
        monomial_cycle_attack(pk)


def test_factor_reading_of_monomial_images_matches_entry_reading():
    r = random.Random(12)
    for spec in (GF5, GF7, field_spec(2, 4), field_spec(7, 2)):
        for d in range(2, 6):
            pk = _monomial_key(spec, d, r.randrange(2, 10_000), r)
            for phi in (pk.phi, pk.phi_m):
                _, pos, coef = _read_monomial(phi)
                assert (pos, coef) == monomial_positions_by_entries(phi)


def test_factor_and_entry_readings_both_refuse_a_generic_key():
    r = random.Random(13)
    for spec, d in ((GF5, 3), (field_spec(2, 4), 4)):
        pk, _ = keygen(MorParams(spec, d), r)
        with pytest.raises(WrongAttackModelError):
            _read_monomial(pk.phi)
        with pytest.raises(WrongAttackModelError):
            monomial_positions_by_entries(pk.phi)


def test_monomial_attack_report_json():
    r = random.Random(11)
    pk = _monomial_key(GF5, 4, 7, r)
    obj = monomial_cycle_attack(pk).to_json()
    assert set(obj) >= {"beta", "nu", "shift", "orbits", "residues", "modulus"}


# -- Menezes-Wu -----------------------------------------------------------------


def test_mw_trivial_exponent():
    f = FqPoly(GF7, (3, 1, 1))  # irreducible quadratic mod 7
    assert is_irreducible(f)
    a = companion_matrix(f)
    assert mw_reduce(a, a) == 1


def test_mw_direct_matrix_instance():
    f = FqPoly(GF7, (3, 1, 1))
    a = companion_matrix(f)
    target = mat_pow_sqm(a, 23)
    n = mw_reduce(a, target)
    assert mat_pow_sqm(a, n) == target
    assert n == 23  # 23 is below the eigenvalue order (divides 48)


def test_mw_rejects_reducible_by_default():
    r = random.Random(12)
    a = random_gl(GF5, 2, r)
    lifted = lift_operator(a).matrix
    with pytest.raises(ReducibleCharPolyError):
        mw_reduce(lifted, lifted)


def test_mw_lifted_operator_instance():
    # d=2 over GF(3), lifted to dimension 4; m = 11 as in the worked case
    r = random.Random(13)
    while True:
        a = random_gl(GF3, 2, r)
        if is_irreducible(char_poly(a)):
            break
    lifted = lift_operator(a).matrix
    target = mat_pow_sqm(lifted, 11)
    n = mw_reduce(lifted, target, allow_reducible=True)
    assert n is not None
    assert mat_pow_sqm(lifted, n) == target


def test_mw_lifted_operator_d3():
    r = random.Random(14)
    while True:
        a = random_gl(GF3, 3, r)
        if is_irreducible(char_poly(a)):
            break
    lifted = lift_operator(a).matrix
    m = 202
    target = mat_pow_sqm(lifted, m)
    n = mw_reduce(lifted, target, allow_reducible=True)
    assert n is not None
    assert mat_pow_sqm(lifted, n) == target


def test_mw_not_a_power_returns_none():
    f = FqPoly(GF5, (1, 1, 0, 1))  # x^3 + x + 1 irreducible mod 5
    a = companion_matrix(f)
    r = random.Random(15)
    while True:
        other = random_gl(GF5, 3, r)
        if char_poly(other) != char_poly(a):
            break
    assert mw_reduce(a, other) is None


def test_mw_result_is_reduced_mod_order():
    f = FqPoly(GF7, (3, 1, 1))
    a = companion_matrix(f)
    # the eigenvalue order divides 48; a large exponent comes back reduced
    big = 1000
    n = mw_reduce(a, mat_pow_sqm(a, big))
    assert n is not None
    assert mat_pow_sqm(a, n) == mat_pow_sqm(a, big)
    assert n <= 48


@settings(max_examples=30)
@given(
    p=st.sampled_from((3, 5, 7)), d=st.integers(2, 3), seed=st.integers(0, 2**32),
    is_power=st.booleans(),
)
def test_mw_returns_only_verified_exponents(p, d, seed, is_power):
    # attack --model mw reports verified = (n is not None) on this promise
    spec, rng = field_spec(p), random.Random(seed)
    a = random_gl(spec, d, rng)
    b = mat_pow(a, rng.randrange(2, spec.q**d)) if is_power else random_gl(spec, d, rng)
    lifted, target = lift_operator(a).matrix, lift_operator(b).matrix
    n = mw_reduce(lifted, target, allow_reducible=True)
    if n is not None:
        assert mat_pow_sqm(lifted, n) == target


@settings(max_examples=60)
@given(
    spec=st.sampled_from((field_spec(7), field_spec(3, 2), field_spec(2, 4), field_spec(2, 16))),
    n=st.integers(1, 7),
    data=st.data(),
)
def test_quotient_group_product_is_the_product_mod_g(spec, n, data):
    # the BSGS group of mw_reduce, Quotient(g), reduces by the monic g without divmod
    coeffs = st.lists(st.integers(0, spec.q - 1), max_size=n)
    g = FqPoly(spec, [*data.draw(st.lists(st.integers(0, spec.q - 1), min_size=n, max_size=n)), 1])
    a, b = (FqPoly(spec, data.draw(coeffs)) for _ in range(2))
    assert Quotient(g).mul(a.coeffs, b.coeffs) == ((a * b) % g).coeffs
