"""Conjugator recovery from the rank-one generator images.

recover_conjugator reads B off the rank-one factors of the images and
caches it on the automorphism; the certificate of protocol._conj_pow is
cached on the matrix.  Recovery is checked against the linear-algebra
oracle in tests/oracles.py, value and scalar included, and on
presentations that are not conjugations; the caches and the cost are
guarded by field-multiplication counts and call counts.  The factors
from_conjugator writes in closed form are checked against the ones
_factor_rank1 reads off its images.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import recover_conjugator_linalg

import morsl.autos as autos
import morsl.fqpoly as fqpoly
import morsl.matrix as matrix
import morsl.protocol as protocol
from morsl.autos import (
    Automorphism,
    InvalidAutomorphismError,
    _factor_rank1,
    recover_conjugator,
)
from morsl.field import FieldElement, cost_counter, cost_reset, field_spec
from morsl.matrix import Matrix, SingularMatrixError, identity, mat_pow, random_gl, random_sl
from morsl.protocol import MorParams, decode_message, decrypt, encode_message, encrypt, keygen

PROPERTY = settings(max_examples=40)

# prime, odd-extension and binary fields
fields = st.one_of(
    st.builds(field_spec, st.sampled_from((3, 5, 7, 11, 13))),
    st.builds(field_spec, st.sampled_from((3, 5, 7)), st.integers(2, 4)),
    st.builds(field_spec, st.just(2), st.integers(1, 16)),
)


def _both_raise(phi):
    with pytest.raises(InvalidAutomorphismError):
        recover_conjugator_linalg(phi)
    with pytest.raises(InvalidAutomorphismError):
        recover_conjugator(phi)


@PROPERTY
@given(spec=fields, d=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_recovery_matches_oracle(spec, d, seed):
    a = random_gl(spec, d, random.Random(seed))
    phi = Automorphism.from_conjugator(a)
    assert recover_conjugator(phi) == recover_conjugator_linalg(phi)


# d = 2 is left out of both rejections: there, swapping the two images and
# the transpose flip are each conjugation by the antidiagonal times A
@PROPERTY
@given(spec=fields, d=st.integers(3, 6), seed=st.integers(0, 2**32))
def test_one_swapped_image_is_rejected(spec, d, seed):
    rng = random.Random(seed)
    images = dict(Automorphism.from_conjugator(random_gl(spec, d, rng)).images)
    first, second = rng.sample(sorted(images), 2)
    images[first], images[second] = images[second], images[first]
    _both_raise(Automorphism(spec, d, images))


@PROPERTY
@given(spec=fields, d=st.integers(3, 6), seed=st.integers(0, 2**32))
def test_transpose_flip_is_rejected(spec, d, seed):
    images = Automorphism.from_conjugator(random_gl(spec, d, random.Random(seed))).images
    _both_raise(Automorphism(spec, d, {(i, j): images[(j, i)] for i, j in images}))


@PROPERTY
@given(spec=fields, d=st.integers(2, 7), seed=st.integers(0, 2**32))
def test_from_conjugator_factors_match_the_images(spec, d, seed):
    phi = Automorphism.from_conjugator(random_gl(spec, d, random.Random(seed)))
    for key, img in phi.images.items():
        assert img.is_sl()
        assert phi._rank1[key] == _factor_rank1(spec, d, img)


def _assert_canonical_factors(phi):
    spec, d = phi.spec, phi.d
    one, zero = spec.one(), spec.zero()
    assert phi._rank1.keys() == phi.images.keys()
    for key, img in phi.images.items():
        # the factors are stored as packed ints
        u, v = (tuple(FieldElement(spec, x) for x in w) for w in phi._rank1[key])
        assert next(x for x in u if x) == one
        assert any(v)
        assert sum((x * y for x, y in zip(v, u)), zero) == zero
        assert img == Matrix(
            spec, [[(one if a == b else zero) + u[a] * v[b] for b in range(d)] for a in range(d)]
        )


@PROPERTY
@given(spec=fields, d=st.integers(2, 5), seed=st.integers(0, 2**32), m=st.integers(0, 50))
def test_every_constructor_stores_a_canonical_transvection_factor(spec, d, seed, m):
    # u's first nonzero entry is 1, v != 0 and v . u = 0: image = 1 + u v^T
    rng = random.Random(seed)
    phi = Automorphism.from_conjugator(random_gl(spec, d, rng))
    psi = Automorphism.from_conjugator(random_gl(spec, d, rng))
    for made in (
        phi,
        Automorphism.identity(spec, d),
        phi.compose(psi),
        phi.power(m),
        phi.invert(),
        Automorphism.from_json(phi.to_json()),
    ):
        _assert_canonical_factors(made)


def test_from_conjugator_takes_no_determinant(monkeypatch):
    sizes = ((field_spec(7), 3), (field_spec(3, 2), 4), (field_spec(2, 160), 7))
    conjugators = [random_gl(spec, d, random.Random(d)) for spec, d in sizes]
    calls = {}
    _counting(monkeypatch, matrix, "det", calls)
    for a in conjugators:
        Automorphism.from_conjugator(a)
    assert calls == {}


def test_from_conjugator_rejects_a_singular_matrix():
    spec = field_spec(5)
    one, zero = spec.one(), spec.zero()
    a = Matrix(spec, [[one, one, zero], [one, one, zero], [zero, zero, one]])
    with pytest.raises(SingularMatrixError):
        Automorphism.from_conjugator(a)


def test_identity_automorphism_recovers_the_identity():
    for spec, d in ((field_spec(5), 3), (field_spec(2, 8), 4)):
        phi = Automorphism.identity(spec, d)
        assert recover_conjugator(phi) == recover_conjugator_linalg(phi) == identity(spec, d)


def test_paper_size_instance_matches_oracle():
    a = random_gl(field_spec(2, 160), 7, random.Random(7))
    phi = Automorphism.from_conjugator(a)
    assert recover_conjugator(phi) == recover_conjugator_linalg(phi)


def test_second_recovery_is_cached_and_free():
    phi = Automorphism.from_conjugator(random_gl(field_spec(7), 3, random.Random(1)))
    b = recover_conjugator(phi)
    cost_reset()
    assert recover_conjugator(phi) is b
    assert cost_counter() == 0


def test_recovery_costs_at_most_half_the_oracle():
    for (p, gamma), d in (((7, 1), 3), ((2, 16), 5), ((2, 160), 7)):
        phi = Automorphism.from_conjugator(random_gl(field_spec(p, gamma), d, random.Random(d)))
        cost_reset()
        got = recover_conjugator(phi)
        fast = cost_counter()
        cost_reset()
        want = recover_conjugator_linalg(phi)
        oracle = cost_counter()
        assert got == want
        assert 2 * fast <= oracle


def _counting(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def wrapper(*args):
        calls[name] = calls.get(name, 0) + 1
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)


def test_second_message_pays_no_recovery_and_no_certificate(monkeypatch):
    calls = {}
    _counting(monkeypatch, autos, "_conjugator_from_rank1", calls)
    _counting(monkeypatch, fqpoly, "_hessenberg_char_poly", calls)
    _counting(monkeypatch, protocol, "divides_x_qk_minus_x", calls)
    params = MorParams(field_spec(2, 16), 5)
    rng = random.Random(3)
    pk, sk = keygen(params, rng)
    encrypt(pk, encode_message(b"a", params), rng)
    assert calls["_conjugator_from_rank1"] == 2
    after_first = dict(calls)
    ct = encrypt(pk, encode_message(b"b", params), rng)
    assert calls == after_first
    assert decode_message(decrypt(sk, ct)) == b"b"


def test_keygen_with_irreducible_lift_skips_the_certificate(monkeypatch):
    calls = {}
    _counting(monkeypatch, protocol, "divides_x_qk_minus_x", calls)
    spec = field_spec(2, 16)
    for seed in range(3):
        pk, sk = keygen(MorParams(spec, 5), random.Random(seed))
        assert calls == {}
        assert sk.conjugator._split is True
        assert pk.phi_m == Automorphism.from_conjugator(
            mat_pow(sk.conjugator, sk.m % (spec.q**5 - 1))
        )
    keygen(MorParams(spec, 5, require_irreducible_lift=False), random.Random(0))
    assert calls == {"divides_x_qk_minus_x": 1}


def test_decrypt_inverts_once(monkeypatch):
    # matrix.conjugate would invert again through the matrix module
    calls = {}
    _counting(monkeypatch, protocol, "mat_inv", calls)
    _counting(monkeypatch, matrix, "mat_inv", calls)
    params = MorParams(field_spec(7), 3)
    rng = random.Random(4)
    pk, sk = keygen(params, rng)
    msg = random_sl(params.spec, 3, rng)
    ct = encrypt(pk, msg, rng)
    calls.clear()
    assert decrypt(sk, ct) == msg
    assert calls == {"mat_inv": 1}
