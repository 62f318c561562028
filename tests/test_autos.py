import random

import pytest
from oracles import compose_power, identity_automorphism_via_init, invert_via_order

from morsl.autos import (
    Automorphism,
    BAutomorphism,
    InvalidAutomorphismError,
    apply_field,
    apply_graph,
    conjugator_solution_space,
    generator_pairs,
    recover_conjugator,
)
from morsl.field import cost_counter, field_spec
from morsl.matrix import (
    Matrix,
    Permutation,
    conjugate,
    diagonal_matrix,
    identity,
    mat_inv,
    mat_mul,
    permutation_matrix,
    random_gl,
    random_sl,
    scalar_matrix,
    transvection,
)
from morsl.protocol import MorParams, keygen
from morsl.words import NotInSLError

GF5 = field_spec(5)
GF7 = field_spec(7)
GF9 = field_spec(3, 2)


def _monomial_auto(spec, d, rng):
    """Conjugation by diag(w) * P(alpha): the cycle-attack target shape."""
    w = [spec.random_nonzero(rng) for _ in range(d)]
    alpha = Permutation.random(d, rng)
    m = mat_mul(diagonal_matrix(w), permutation_matrix(spec, alpha))
    return Automorphism.from_conjugator(m), w, alpha


def test_identity_automorphism_fixes_everything():
    phi = Automorphism.identity(GF5, 3)
    r = random.Random(1)
    for _ in range(10):
        x = random_sl(GF5, 3, r)
        assert phi.apply(x) == x


@pytest.mark.parametrize("spec", [GF7, field_spec(3, 3), field_spec(2, 4)], ids=repr)
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_identity_equals_the_transvection_route(spec, d):
    phi, oracle = Automorphism.identity(spec, d), identity_automorphism_via_init(spec, d)
    assert phi.images == oracle.images
    assert phi._rank1 == oracle._rank1


def test_from_conjugator_identity_gives_unit_images():
    phi = Automorphism.from_conjugator(identity(GF5, 3))
    for (i, j), img in phi.images.items():
        assert img == transvection(GF5, 3, i, j, GF5.one())


def test_from_conjugator_permutation_effect():
    r = random.Random(2)
    alpha = Permutation.random(4, r)
    beta = alpha.inverse()
    phi = Automorphism.from_conjugator(permutation_matrix(GF7, alpha))
    for (i, j), img in phi.images.items():
        assert img == transvection(GF7, 4, beta(i), beta(j), GF7.one())


def test_from_conjugator_diagonal_effect():
    r = random.Random(3)
    w = [GF7.random_nonzero(r) for _ in range(4)]
    phi = Automorphism.from_conjugator(diagonal_matrix(w))
    for (i, j), img in phi.images.items():
        assert img == transvection(GF7, 4, i, j, w[i - 1].inv() * w[j - 1])


def test_apply_matches_direct_conjugation():
    r = random.Random(4)
    for spec, d in ((GF5, 3), (GF7, 4), (GF9, 3)):
        for _ in range(10):
            a = random_gl(spec, d, r)
            phi = Automorphism.from_conjugator(a)
            x = random_sl(spec, d, r)
            assert phi.apply(x) == conjugate(x, a)


def test_apply_lambda_linearity():
    r = random.Random(5)
    a = random_gl(GF7, 3, r)
    phi = Automorphism.from_conjugator(a)
    one = GF7.one()
    for (i, j), n in phi.images.items():
        for _ in range(5):
            lam = GF7.random_nonzero(r)
            got = phi.apply(transvection(GF7, 3, i, j, lam))
            expected = Matrix(
                GF7,
                [
                    [
                        (one if r_ == c_ else GF7.zero())
                        + lam * (GF7.from_val(n.vals[r_][c_]) - (one if r_ == c_ else GF7.zero()))
                        for c_ in range(3)
                    ]
                    for r_ in range(3)
                ],
            )
            assert got == expected


def test_apply_is_a_homomorphism():
    r = random.Random(6)
    a = random_gl(GF9, 3, r)
    phi = Automorphism.from_conjugator(a)
    for _ in range(10):
        x, y = random_sl(GF9, 3, r), random_sl(GF9, 3, r)
        assert phi.apply(mat_mul(x, y)) == mat_mul(phi.apply(x), phi.apply(y))


def test_apply_rejects_non_sl():
    r = random.Random(7)
    phi = Automorphism.from_conjugator(random_gl(GF5, 3, r))
    while True:
        m = random_gl(GF5, 3, r)
        if not m.is_sl():
            break
    with pytest.raises(NotInSLError):
        phi.apply(m)


def test_compose_with_identity():
    r = random.Random(8)
    phi = Automorphism.from_conjugator(random_gl(GF5, 3, r))
    ident = Automorphism.identity(GF5, 3)
    assert phi.compose(ident) == phi
    assert ident.compose(phi) == phi


def test_compose_convention_matches_conjugator_product():
    r = random.Random(9)
    for _ in range(10):
        a, b = random_gl(GF7, 3, r), random_gl(GF7, 3, r)
        lhs = Automorphism.from_conjugator(a).compose(Automorphism.from_conjugator(b))
        rhs = Automorphism.from_conjugator(mat_mul(a, b))
        assert lhs == rhs


def test_compose_diagonal_then_permutation_positions():
    r = random.Random(10)
    d = 5
    w = [GF7.random_nonzero(r) for _ in range(d)]
    alpha = Permutation.random(d, r)
    beta = alpha.inverse()
    phi1 = Automorphism.from_conjugator(diagonal_matrix(w))
    phi2 = Automorphism.from_conjugator(permutation_matrix(GF7, alpha))
    phi = phi1.compose(phi2)
    for (i, j), img in phi.images.items():
        lam = w[i - 1].inv() * w[j - 1]
        assert img == transvection(GF7, d, beta(i), beta(j), lam)


def test_power_small_matches_iterated_compose():
    r = random.Random(11)
    phi = Automorphism.from_conjugator(random_gl(GF5, 3, r))
    assert phi.power(0) == Automorphism.identity(GF5, 3)
    assert phi.power(1) == phi
    acc = phi
    for m in range(2, 6):
        acc = acc.compose(phi)
        assert phi.power(m) == acc


def test_power_via_conjugator_agrees():
    r = random.Random(12)
    for _ in range(5):
        phi = Automorphism.from_conjugator(random_gl(GF7, 3, r))
        for m in (0, 1, 2, 7, 23):
            assert phi.power(m) == compose_power(phi, m)
        assert phi.power(-5) == compose_power(phi.invert(), 5)


def test_power_keeps_its_key_field():
    # the first power decides B's certificate; the later ones reuse it,
    # and the algebra B's basis serves from its second evaluation on
    params = MorParams(field_spec(2, 16), 5)
    pk, sk = keygen(params, random.Random(1))
    counts = []
    for _ in range(3):
        c0 = cost_counter()
        assert pk.phi.power(sk.m) == pk.phi_m
        counts.append(cost_counter() - c0)
    assert counts[1] < counts[0] and counts[2] < counts[0]
    assert pk.phi._field is not None and pk.phi._field.b is recover_conjugator(pk.phi)


def test_power_application_is_m_fold_up_to_64():
    r = random.Random(64)
    spec = field_spec(5)
    phi = Automorphism.from_conjugator(random_gl(spec, 2, r))
    x = random_sl(spec, 2, r)
    iterated = x
    for m in range(1, 65):
        iterated = phi.apply(iterated)
        assert phi.power(m).apply(x) == iterated


def test_monomial_power_formula():
    r = random.Random(13)
    d = 4
    phi, w, alpha = _monomial_auto(GF7, d, r)
    beta = alpha.inverse()
    lam = {
        (i, j): w[i - 1].inv() * w[j - 1] for i, j in generator_pairs(d)
    }
    for m in (1, 2, 3, 7):
        pm = phi.power(m)
        for i, j in generator_pairs(d):
            # coefficient is the product of lam along the first m steps
            coeff = GF7.one()
            ci, cj = i, j
            for _ in range(m):
                coeff = coeff * lam[(ci, cj)]
                ci, cj = beta(ci), beta(cj)
            assert pm.images[(i, j)] == transvection(GF7, d, ci, cj, coeff)


def test_monomial_cycle_closure():
    r = random.Random(14)
    phi, w, alpha = _monomial_auto(GF5, 5, r)
    nu = alpha.order()
    pnu = phi.power(nu)
    for (i, j), img in pnu.images.items():
        # position returns to (i, j) after nu steps
        assert img.vals[i - 1][j - 1] or img == identity(GF5, 5)
        for a in range(5):
            for b in range(5):
                if a != b and (a, b) != (i - 1, j - 1):
                    assert not img.vals[a][b]


def test_recover_conjugator_scalar_multiple():
    r = random.Random(15)
    for spec, d in ((GF5, 3), (GF7, 3), (GF9, 3)):
        for _ in range(10):
            a = random_gl(spec, d, r)
            b = recover_conjugator(Automorphism.from_conjugator(a))
            ratio = mat_mul(b, mat_inv(a))
            z = spec.from_val(ratio.vals[0][0])
            assert not z.is_zero()
            assert ratio == scalar_matrix(spec, d, z)


def test_recover_conjugator_of_identity_is_scalar():
    b = recover_conjugator(Automorphism.identity(GF5, 3))
    assert b == scalar_matrix(GF5, 3, GF5.from_val(b.vals[0][0]))


def test_solution_space_dimension_one():
    r = random.Random(16)
    for _ in range(10):
        a = random_gl(GF5, 3, r)
        basis = conjugator_solution_space(Automorphism.from_conjugator(a))
        assert len(basis) == 1


def test_recover_conjugator_rejects_invalid_presentation():
    # transpose-flip images do not come from any single conjugation
    d = 3
    images = {}
    for i, j in generator_pairs(d):
        images[(i, j)] = transvection(GF5, d, j, i, GF5.one())
    phi = Automorphism(GF5, d, images)
    with pytest.raises(InvalidAutomorphismError):
        recover_conjugator(phi)


def test_invert():
    r = random.Random(17)
    ident = Automorphism.identity(GF7, 3)
    assert ident.invert() == ident
    for _ in range(10):
        a = random_gl(GF7, 3, r)
        phi = Automorphism.from_conjugator(a)
        assert phi.compose(phi.invert()) == ident
        assert phi.invert() == Automorphism.from_conjugator(mat_inv(a))


def test_invert_via_order_toy_scale():
    r = random.Random(18)
    spec = field_spec(3)
    phi = Automorphism.from_conjugator(random_gl(spec, 2, r))
    assert invert_via_order(phi, max_order=48) == phi.invert()


def test_apply_graph_on_transvection():
    r = random.Random(19)
    lam = GF7.random_nonzero(r)
    got = apply_graph(transvection(GF7, 3, 1, 2, lam))
    assert got == transvection(GF7, 3, 2, 1, -lam)


def test_apply_graph_is_involution():
    r = random.Random(20)
    for _ in range(10):
        x = random_sl(GF9, 3, r)
        assert apply_graph(apply_graph(x)) == x


def test_apply_field_on_transvection():
    spec = field_spec(2, 3)
    r = random.Random(21)
    lam = spec.random_nonzero(r)
    got = apply_field(transvection(spec, 3, 1, 2, lam), 1)
    assert got == transvection(spec, 3, 1, 2, lam * lam)
    with pytest.raises(ValueError):
        apply_field(identity(spec, 2), 3)


def test_graph_normalizes_conjugations():
    # f(conj_A(f(X))) equals conjugation by f(A) for the graph flip f
    r = random.Random(22)
    for _ in range(10):
        a = random_gl(GF7, 3, r)
        x = random_sl(GF7, 3, r)
        lhs = apply_graph(conjugate(apply_graph(x), a))
        assert lhs == conjugate(x, apply_graph(a))


def test_b_automorphism_orders_divide_two_gamma():
    spec = field_spec(2, 6)
    for graph in (False, True):
        for fp in range(6):
            psi = BAutomorphism(spec, graph, fp)
            assert (2 * spec.gamma) % psi.order() == 0
    psi = BAutomorphism(spec, True, 1)
    r = random.Random(23)
    x = random_sl(spec, 3, r)
    acc = x
    for _ in range(psi.order()):
        acc = psi.apply(acc)
    assert acc == x


def test_b_automorphism_compose():
    spec = field_spec(3, 4)
    a = BAutomorphism(spec, True, 1)
    b = BAutomorphism(spec, True, 3)
    c = a.compose(b)
    assert c == BAutomorphism(spec, False, 0)
    r = random.Random(24)
    x = random_sl(spec, 2, r)
    assert b.apply(a.apply(x)) == x


def test_automorphism_serialization_round_trip():
    r = random.Random(25)
    phi = Automorphism.from_conjugator(random_gl(GF9, 3, r))
    obj = phi.to_json()
    assert obj["images"][0]["i"] == 1 and obj["images"][0]["j"] == 2
    assert Automorphism.from_json(obj) == phi


def test_automorphism_rejects_non_sl_images():
    r = random.Random(26)
    images = {
        (i, j): transvection(GF5, 3, i, j, GF5.one()) for i, j in generator_pairs(3)
    }
    bad = random_gl(GF5, 3, r)
    while bad.is_sl():
        bad = random_gl(GF5, 3, r)
    images[(1, 2)] = bad
    with pytest.raises(InvalidAutomorphismError):
        Automorphism(GF5, 3, images)
