import random

import pytest

from morsl.field import cost_counter, cost_reset, field_spec
from morsl.matrix import identity, mat_mul, random_sl, transvection
from morsl.words import (
    NotInSLError,
    TransvectionWord,
    decompose,
    evaluate,
    simplify,
    split_ground,
)

GF7 = field_spec(7)
GF8 = field_spec(2, 3, modulus=(1, 1, 0, 1))


def test_empty_word_evaluates_to_identity():
    assert evaluate(TransvectionWord(GF7, 3)) == identity(GF7, 3)


def test_cancelling_pair_evaluates_to_identity():
    lam = GF7.from_val(4)
    w = TransvectionWord(GF7, 3, [(1, 2, lam), (1, 2, -lam)])
    assert evaluate(w) == identity(GF7, 3)


def test_commutator_word_gives_corner_transvection():
    r = random.Random(1)
    for _ in range(20):
        lam, mu = GF7.random_nonzero(r), GF7.random_nonzero(r)
        w = TransvectionWord(
            GF7, 3, [(1, 2, lam), (2, 3, mu), (1, 2, -lam), (2, 3, -mu)]
        )
        assert evaluate(w) == transvection(GF7, 3, 1, 3, lam * mu)


def test_evaluate_letter_cost_at_most_d():
    r = random.Random(2)
    d = 5
    letters = []
    for _ in range(10):
        i, j = r.sample(range(1, d + 1), 2)
        letters.append((i, j, GF7.random_nonzero(r)))
    w = TransvectionWord(GF7, d, letters)
    cost_reset()
    evaluate(w)
    assert cost_counter() <= d * len(letters)


def test_word_validation():
    with pytest.raises(ValueError):
        TransvectionWord(GF7, 3, [(2, 2, GF7.one())])
    with pytest.raises(ValueError):
        TransvectionWord(GF7, 3, [(1, 4, GF7.one())])
    with pytest.raises(ValueError):
        TransvectionWord(GF7, 3, [(1, 2, GF7.zero())])


def test_decompose_identity_is_empty():
    assert len(decompose(identity(GF7, 4))) == 0


def test_decompose_transvection_is_single_letter():
    lam = GF7.from_val(3)
    for i, j in ((1, 3), (3, 1), (2, 3), (1, 2)):
        w = decompose(transvection(GF7, 3, i, j, lam))
        assert w.letters == ((i, j, lam),)


def test_decompose_round_trip_and_length_bound():
    for d in range(2, 8):
        for p, gamma in ((2, 1), (3, 1), (5, 1), (2, 3), (3, 2), (7, 2)):
            spec = field_spec(p, gamma)
            r = random.Random(d * 1000 + spec.q)
            for _ in range(500 // (d + 3)):
                m = random_sl(spec, d, r)
                w = decompose(m)
                assert len(w) <= d * d
                assert evaluate(w) == m
                # decompose skips the letter checks: its letters must pass them
                assert TransvectionWord(spec, d, w.letters) == w


def test_decompose_rejects_non_sl():
    r = random.Random(3)
    spec = field_spec(5)
    while True:
        from morsl.matrix import random_gl

        m = random_gl(spec, 3, r)
        if not m.is_sl():
            break
    with pytest.raises(NotInSLError):
        decompose(m)
    z = spec.zero()
    from morsl.matrix import Matrix

    singular = Matrix(spec, [[z, z, z], [z, z, z], [z, z, z]])
    with pytest.raises(NotInSLError):
        decompose(singular)


def test_simplify_merges_same_position():
    lam, mu = GF7.from_val(2), GF7.from_val(3)
    w = TransvectionWord(GF7, 3, [(1, 2, lam), (1, 2, mu)])
    assert simplify(w).letters == ((1, 2, lam + mu),)


def test_simplify_cancels_to_empty():
    lam = GF7.from_val(2)
    w = TransvectionWord(GF7, 3, [(1, 2, lam), (1, 2, -lam)])
    assert len(simplify(w)) == 0


def test_simplify_cascades_through_cancellation():
    lam, mu = GF7.from_val(2), GF7.from_val(3)
    w = TransvectionWord(
        GF7, 3, [(1, 2, lam), (2, 3, mu), (2, 3, -mu), (1, 2, mu)]
    )
    assert simplify(w).letters == ((1, 2, lam + mu),)


def test_simplify_fixed_point_and_preservation():
    r = random.Random(4)
    d = 4
    for _ in range(50):
        letters = []
        for _ in range(r.randrange(12)):
            i, j = r.sample(range(1, d + 1), 2)
            letters.append((i, j, GF7.random_nonzero(r)))
        w = TransvectionWord(GF7, d, letters)
        s = simplify(w)
        assert len(s) <= len(w)
        assert evaluate(s) == evaluate(w)
        assert simplify(s) == s  # idempotent
    untouched = TransvectionWord(
        GF7, 3, [(1, 2, GF7.one()), (2, 3, GF7.one()), (1, 2, GF7.one())]
    )
    assert simplify(untouched) == untouched


def test_split_ground_prime_field_unchanged():
    w = TransvectionWord(GF7, 3, [(1, 2, GF7.from_val(4))])
    assert split_ground(w) is w


def test_split_ground_gf8_letter():
    lam = GF8.from_coeffs((1, 0, 1))  # x^2 + 1
    w = TransvectionWord(GF8, 3, [(1, 2, lam)])
    s = split_ground(w)
    assert s.letters == (
        (1, 2, GF8.from_coeffs((1,))),
        (1, 2, GF8.from_coeffs((0, 0, 1))),
    )
    # oracle: re-merging with the addition relation recovers the original
    assert simplify(s) == w


def test_split_ground_preserves_evaluation():
    spec = field_spec(3, 3)
    r = random.Random(5)
    d = 4
    for _ in range(30):
        letters = []
        for _ in range(r.randrange(1, 8)):
            i, j = r.sample(range(1, d + 1), 2)
            letters.append((i, j, spec.random_nonzero(r)))
        w = TransvectionWord(spec, d, letters)
        s = split_ground(w)
        assert len(s) <= spec.gamma * len(w)
        assert evaluate(s) == evaluate(w)

