import contextlib
import io
import json
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import decrypt_compose, mat_mul_elementwise, mat_pow_plan, mat_pow_sqm

from morsl import fqpoly, protocol
from morsl.autos import Automorphism, recover_conjugator
from morsl.cli import PRESETS, main
from morsl.field import FieldElement, cost_counter, field_spec
from morsl.fqpoly import FqPoly, Quotient, char_poly, mod_inverse
from morsl.matrix import (
    KeyField,
    Matrix,
    conjugate,
    diagonal_matrix,
    Permutation,
    identity,
    mat_inv,
    mat_mul,
    mat_pow,
    permutation_matrix,
    random_gl,
    random_sl,
)
from morsl.protocol import (
    CapacityError,
    DegenerateKeyError,
    InvalidCiphertextError,
    KeygenFailureError,
    MessageFormatError,
    MorCiphertext,
    MorParams,
    MorPrivateKey,
    MorPublicKey,
    decode_message,
    decrypt,
    encode_message,
    encrypt,
    keygen,
    message_capacity,
)
from morsl.words import NotInSLError

TOY = MorParams(field_spec(5), 3)
TOY7 = MorParams(field_spec(7), 3)


def test_keygen_invariants():
    r = random.Random(1)
    pk, sk = keygen(TOY, r)
    assert sk.m >= 2
    assert pk.phi_m == pk.phi.power(sk.m % _order_cap(pk, sk))  # small check below
    # direct check with the true exponent via the conjugator
    assert pk.phi_m == Automorphism.from_conjugator(mat_pow_sqm(sk.conjugator, sk.m))


def _order_cap(pk, sk):
    # compose-based power at the raw exponent is infeasible; reduce by the
    # conjugator's multiplicative order for the small-scale consistency check
    a = sk.conjugator
    acc = a
    order = 1
    ident = identity(a.spec, a.d)
    while acc != ident:
        acc = acc @ a
        order += 1
    return order


def test_keygen_accepts_only_irreducible_charpoly():
    from morsl.fqpoly import char_poly, is_irreducible

    r = random.Random(2)
    for _ in range(5):
        pk, sk = keygen(TOY, r)
        assert is_irreducible(char_poly(sk.conjugator))


def test_keygen_retry_cap(monkeypatch):
    monkeypatch.setattr(protocol, "KEYGEN_RETRY_CAP", 0)
    r = random.Random(3)
    with pytest.raises(KeygenFailureError):
        keygen(TOY, r)


def test_round_trip_small_fields():
    for params in (TOY, TOY7, MorParams(field_spec(7), 4), MorParams(field_spec(2, 4), 5)):
        r = random.Random(params.spec.q * params.d)
        pk, sk = keygen(params, r)
        for _ in range(3):
            a = random_sl(params.spec, params.d, r)
            ct = encrypt(pk, a, r)
            assert decrypt(sk, ct) == a


def test_decrypt_methods_agree():
    r = random.Random(4)
    pk, sk = keygen(TOY, r)
    # compose-based decryption walks log2(m) compositions; keep m small by
    # crafting a key with a modest exponent
    a = sk.conjugator
    small = MorPrivateKey(11, a)
    pk_small = MorPublicKey(TOY, pk.phi, Automorphism.from_conjugator(mat_pow(a, 11)))
    msg = random_sl(TOY.spec, 3, r)
    ct = encrypt(pk_small, msg, r)
    assert decrypt(small, ct) == msg
    assert decrypt_compose(small, ct) == msg


def test_payload_stays_sl_and_transvection_trace():
    r = random.Random(5)
    pk, _ = keygen(TOY7, r)
    msg = encode_message(b"", TOY7)
    ct = encrypt(pk, msg, r)
    assert ct.payload.is_sl()
    # conjugation preserves trace: always d for transvection plaintexts
    assert ct.payload.trace() == TOY7.spec.scalar(TOY7.d)


def test_decrypt_of_identity_payload():
    r = random.Random(6)
    pk, sk = keygen(TOY, r)
    ct = encrypt(pk, identity(TOY.spec, TOY.d), r)
    assert decrypt(sk, ct) == identity(TOY.spec, TOY.d)


def test_tampered_payload_rejected():
    r = random.Random(7)
    pk, sk = keygen(TOY, r)
    ct = encrypt(pk, random_sl(TOY.spec, 3, r), r)
    bad = random_gl(TOY.spec, 3, r)
    while bad.is_sl():
        bad = random_gl(TOY.spec, 3, r)
    with pytest.raises(InvalidCiphertextError):
        decrypt(sk, MorCiphertext(ct.conjugator, bad))


def test_mismatched_degree_rejected():
    r = random.Random(8)
    pk, sk = keygen(TOY, r)
    other_pk, _ = keygen(MorParams(field_spec(5), 4), r)
    ct = encrypt(other_pk, identity(field_spec(5), 4), r)
    with pytest.raises(InvalidCiphertextError):
        decrypt(sk, ct)


def test_encrypt_rejects_non_sl_plaintext():
    r = random.Random(9)
    pk, _ = keygen(TOY, r)
    bad = random_gl(TOY.spec, 3, r)
    while bad.is_sl():
        bad = random_gl(TOY.spec, 3, r)
    with pytest.raises(NotInSLError):
        encrypt(pk, bad, r)


def test_message_capacity_values():
    assert message_capacity(field_spec(2, 64)) == 7
    assert message_capacity(field_spec(2, 160)) == 19
    assert message_capacity(field_spec(7)) == 0
    assert message_capacity(field_spec(1019)) == 1


def test_encode_decode_round_trip():
    params = MorParams(field_spec(2, 64), 3)
    r = random.Random(10)
    assert decode_message(encode_message(b"", params)) == b""
    for n in (1, 3, 7):
        data = bytes(r.randrange(256) for _ in range(n))
        m = encode_message(data, params)
        assert m.trace() == params.spec.scalar(params.d)
        assert decode_message(m) == data


def test_encode_capacity_error():
    with pytest.raises(CapacityError):
        encode_message(b"xx", MorParams(field_spec(1019), 2))


def test_decode_rejects_non_transvection():
    r = random.Random(11)
    m = random_sl(field_spec(2, 64), 3, r)
    while True:
        try:
            decode_message(m)
        except MessageFormatError:
            break
        m = random_sl(field_spec(2, 64), 3, r)
        continue


def test_encode_non_binary_field_injective_at_capacity():
    params = MorParams(field_spec((1 << 61) - 1), 2)  # Mersenne prime, gamma=1
    cap = message_capacity(params.spec)
    assert cap == 7
    data = bytes(range(7))
    assert decode_message(encode_message(data, params)) == data


def test_full_byte_message_round_trip():
    params = MorParams(field_spec(2, 64), 3)
    data = b"\xff" * message_capacity(params.spec)
    assert decode_message(encode_message(data, params)) == data


@pytest.mark.parametrize("preset", ["toy", "small"])
@settings(max_examples=15)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_every_message_length_round_trips(preset, seed, data):
    # in memory, and with key and ciphertext through their JSON files
    p = PRESETS[preset]
    params = MorParams(field_spec(p["p"], p["gamma"]), p["d"])
    rng = random.Random(seed)
    pk, sk = keygen(params, rng)
    pk2 = MorPublicKey.from_json(json.loads(json.dumps(pk.to_json())))
    sk2 = MorPrivateKey.from_json(params.spec, json.loads(json.dumps(sk.to_json())))
    for n in range(message_capacity(params.spec) + 1):
        msg = data.draw(st.binary(min_size=n, max_size=n))
        ct = encrypt(pk, encode_message(msg, params), rng)
        assert decode_message(decrypt(sk, ct)) == msg
        ct2 = MorCiphertext.from_json(json.loads(json.dumps(
            encrypt(pk2, encode_message(msg, params), rng).to_json()
        )))
        assert decode_message(decrypt(sk2, ct2)) == msg


def test_key_serialization_round_trip():
    r = random.Random(12)
    pk, sk = keygen(TOY, r)
    pk2 = MorPublicKey.from_json(json.loads(json.dumps(pk.to_json())))
    assert pk2.phi == pk.phi and pk2.phi_m == pk.phi_m
    assert pk2.params == pk.params
    sk2 = MorPrivateKey.from_json(TOY.spec, json.loads(json.dumps(sk.to_json())))
    assert sk2.m == sk.m and sk2.conjugator == sk.conjugator
    a = random_sl(TOY.spec, 3, r)
    ct = encrypt(pk, a, r)
    ct2 = MorCiphertext.from_json(json.loads(json.dumps(ct.to_json())))
    assert ct2.phi_r == ct.phi_r and ct2.payload == ct.payload
    assert decrypt(sk2, ct2) == a


def test_a_ciphertext_equals_its_parse_and_no_other():
    params = MorParams(field_spec(2, 16), 5)
    r = random.Random(1)
    pk, sk = keygen(params, r)
    ct = encrypt(pk, encode_message(b"h", params), r)
    parsed = MorCiphertext.from_json(json.loads(json.dumps(ct.to_json())))
    # encrypt holds B_phi^r as raised, the parse its normalized B_r
    assert ct.conjugator != parsed.conjugator
    assert ct == parsed and parsed == ct and hash(ct) == hash(parsed)
    spec, b_r = params.spec, ct.conjugator
    c = spec.from_val(3)
    scaled = Matrix(spec, [[spec.from_val(v) * c for v in row] for row in b_r.vals])
    assert ct == MorCiphertext(scaled, ct.payload)
    other = encrypt(pk, encode_message(b"o", params), r)
    assert ct != MorCiphertext(b_r, other.payload)
    assert ct != MorCiphertext(other.conjugator, ct.payload)
    # B_r with one entry changed is not a multiple of it
    vals = [list(row) for row in b_r.vals]
    vals[2][3] ^= 1
    assert ct != MorCiphertext(Matrix._from_vals(spec, tuple(map(tuple, vals))), ct.payload)
    assert ct != ct.to_json()


def test_format_version_required():
    r = random.Random(13)
    pk, _ = keygen(TOY, r)
    obj = pk.to_json()
    obj["format_version"] = 99
    with pytest.raises(ValueError):
        MorPublicKey.from_json(obj)


def test_payload_rarely_equals_plaintext():
    # flagged statistic, not an assertion: conjugation by a random power
    # fixing the plaintext is possible over tiny fields
    r = random.Random(14)
    pk, _ = keygen(TOY, r)
    hits = 0
    for _ in range(20):
        a = random_sl(TOY.spec, 3, r)
        ct = encrypt(pk, a, r)
        if ct.payload == a:
            hits += 1
    print(f"payload==plaintext in {hits}/20 toy encryptions")


# -- degenerate keys and exponents ---------------------------------------------


def _is_identity(phi):
    return phi == Automorphism.from_conjugator(identity(phi.spec, phi.d))


def test_keygen_redraws_a_key_with_phi_m_equal_to_one():
    # this seed's first draw has phi^m = 1
    pk, sk = keygen(MorParams(field_spec(2, 4), 3), random.Random(5))
    assert not _is_identity(pk.phi_m)
    assert pk.phi_m != pk.phi
    assert pk.phi_m == Automorphism.from_conjugator(mat_pow(sk.conjugator, sk.m))


@pytest.mark.parametrize(
    "params", [TOY7, MorParams(field_spec(2, 4), 3)], ids=["gf7-d3", "gf2_4-d3"]
)
def test_no_ciphertext_carries_its_plaintext(params):
    # before the degeneracy checks about one run in twenty sent phi^{mr} = 1
    for seed in range(150):
        rng = random.Random(seed)
        pk, sk = keygen(params, rng)
        a = random_sl(params.spec, params.d, rng)
        ct = encrypt(pk, a, rng)
        assert ct.payload != a
        assert not _is_identity(ct.phi_r) and ct.phi_r != pk.phi
        assert decrypt(sk, ct) == a


def _cycle_key(m):
    """phi is conjugation by a 3-cycle, so phi has order 3."""
    spec = TOY7.spec
    b = permutation_matrix(spec, Permutation([2, 3, 1]))
    phi = Automorphism.from_conjugator(b)
    return MorPublicKey(TOY7, phi, Automorphism.from_conjugator(mat_pow(b, m))), b


@pytest.mark.parametrize("m", [3, 4])
def test_encrypt_refuses_a_degenerate_public_key(m):
    pk, _ = _cycle_key(m)  # phi^3 = 1, phi^4 = phi
    with pytest.raises(DegenerateKeyError):
        encrypt(pk, random_sl(TOY7.spec, 3, random.Random(0)), random.Random(1))


def test_encrypt_redraws_r_until_phi_mr_is_not_one():
    # m = 2: phi^r in {1, phi} for r = 0, 1 mod 3 is drawn again, and
    # r = 2 mod 3 leaves phi^r = phi^2 and phi^{mr} = phi
    pk, b = _cycle_key(2)
    for seed in range(20):
        rng = random.Random(seed)
        a = random_sl(TOY7.spec, 3, rng)
        ct = encrypt(pk, a, rng)
        assert ct.phi_r == pk.phi_m
        assert decrypt(MorPrivateKey(2, b), ct) == a


# -- decrypt's per-key certificate ---------------------------------------------


def _parsed_route(sk, ct):
    """decrypt with the key and ciphertext parsed afresh: no chi or
    conjugator is cached, and the key's certificate is not known."""
    sk2 = MorPrivateKey.from_json(ct.payload.spec, sk.to_json())
    assert sk2.field._certificate is None
    return decrypt(sk2, MorCiphertext.from_json(ct.to_json()))


def _sqm_route(sk, ct):
    """decrypt by square-and-multiply with the full exponent m."""
    b = mat_pow_sqm(ct.conjugator, sk.m)
    return mat_mul(mat_mul(b, ct.payload), mat_inv(b))


def _decrypt_checked(sk, ct):
    """decrypt(sk, ct), checked against both routes above, and whether it
    handed the key's certificate to the ciphertext's B_r: that path raises
    B_r without a certificate of its own, where an m from q^d - 1 on
    decides one for any other B_r, and an m below q^d - 1 decides none."""
    b, b_r = sk.conjugator, ct.conjugator
    small = sk.m < b.spec.q**b.d - 1
    fast = (
        not small
        and sk.field._certificate is True
        and mat_mul_elementwise(b, b_r) == mat_mul_elementwise(b_r, b)
    )
    with mock.patch.object(fqpoly, "is_irreducible", wraps=fqpoly.is_irreducible) as test:
        plaintext = decrypt(sk, ct)
    assert test.call_count == (not small and not fast)
    assert plaintext == _parsed_route(sk, ct) == _sqm_route(sk, ct)
    return plaintext, fast


def _key_failing_the_certificate(params, rng):
    """A key drawn without the irreducibility filter whose conjugator
    failed its certificate, or None in 64 draws."""
    loose = MorParams(params.spec, params.d, require_irreducible_lift=False)
    for _ in range(64):
        pk, sk = keygen(loose, rng)
        if sk.field._certificate is False:
            return pk, sk
    return None


@settings(max_examples=40)
@given(
    spec=st.sampled_from([field_spec(7), field_spec(2, 4), field_spec(2, 8), field_spec(2, 16)]),
    d=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_decrypt_with_the_key_certificate_equals_the_full_exponent(spec, d, seed):
    rng = random.Random(seed)
    params = MorParams(spec, d)
    pk, sk = keygen(params, rng)
    assert sk.field._certificate is True  # keygen's irreducibility test
    msg = random_sl(spec, d, rng)
    plaintext, fast = _decrypt_checked(sk, encrypt(pk, msg, rng))
    assert plaintext == msg
    assert fast == (sk.m >= spec.q**d - 1)

    # phi^r of another key over the same group: B_r rarely commutes with B
    other, _ = keygen(params, rng)
    _decrypt_checked(sk, encrypt(other, random_sl(spec, d, rng), rng))

    failing = _key_failing_the_certificate(params, rng)
    if failing is None:
        return
    pk, sk_loose = failing
    msg = random_sl(spec, d, rng)
    ct = encrypt(pk, msg, rng)
    # its own key keeps the full exponent
    assert _decrypt_checked(sk_loose, ct) == (msg, False)
    # and to the certified key it is a foreign B_r whose order need not
    # divide q^d - 1
    _decrypt_checked(sk, ct)


# -- decrypt on the private conjugator's power basis --------------------------


def _counted(fn, *args):
    c0 = cost_counter()
    return fn(*args), cost_counter() - c0


def _spied_decrypt(sk, ct):
    """decrypt(sk, ct), and the value and count of each KeyField step it
    takes, by name: the membership test (_test), the power (_power) and
    the power with its inverse (_with_inverse)."""
    calls = {}

    def spy(name):
        real = getattr(KeyField, name)

        def counted(self, *args):
            calls[name] = _counted(real, self, *args)
            return calls[name][0]

        return counted

    names = ("_test", "_power", "_with_inverse")
    with mock.patch.multiple(KeyField, **{n: spy(n) for n in names}):
        plaintext = decrypt(sk, ct)
    return plaintext, calls


def _bare(x):
    """x with nothing cached on it: no chi."""
    return Matrix._from_vals(x.spec, x.vals)


def _algebra_state(field):
    """Whether the key's field K_B has run a membership test, and whether
    its algebra holds B's power basis and coordinate reader."""
    tested, algebra = "membership test" in field._uses, field._algebra
    if algebra is None:
        return tested, False, False
    return tested, algebra._basis is not None, algebra._reader is not None


def _hand_on_count(b, tested, basis, reader):
    """The membership test's documented count, given the key's field
    state before it: the commutation test at the first, 2 d^3; the
    reading, d^3, from the second on, after the basis, (d - 2) d^3 unless
    built, and the reader's elimination at the second."""
    d = b.d
    if not tested:
        return 2 * d**3
    build = 0
    if not reader:
        # a fresh algebra's first read of B, less the read itself
        fresh = Quotient(char_poly(b), b)
        fresh._built_basis()
        build = (0 if basis else (d - 2) * d**3) + _counted(fresh.read, _bare(b))[1] - d**3
    return build + d**3


def _power_count(b_r, m, read):
    """The power's documented count for a B_r known to lie in K_B, split at
    the norm as x^n = det^k x^s (mat_pow_plan) for n = m mod q^d - 1: chi,
    det^k, x^s mod chi scaled by det^k unless that is 1, and the
    evaluation, on B's basis for a B_r read in K_B at d >= 3,
    2 (d - 1) d^2, and Horner's otherwise; or square-and-multiply where it
    is predicted cheaper."""
    spec, d = b_r.spec, b_r.d
    k, s, route = mat_pow_plan(spec, d, m, True)
    if route == "identity":
        return 0
    if route == "square-and-multiply":
        return d**3 * (s.bit_length() + s.bit_count() - 2)
    chi, chi_count = _counted(char_poly, _bare(b_r))
    scalar = k and k.bit_length() + k.bit_count() - 2
    if route == "scalar":
        return chi_count + scalar
    r, pow_count = _counted(FqPoly.x(spec).pow_mod, s, chi)
    det = FieldElement(spec, chi.coeffs[0] if d % 2 == 0 else spec._neg_raw(chi.coeffs[0]))
    scaled = len(r.coeffs) if k and (det**k).val != 1 else 0
    if read and d > 2:
        evaluation = 2 * (d - 1) * d * d
    else:
        evaluation = d * d + (len(r.coeffs) - 2) * d**3 if len(r.coeffs) >= 2 else 0
    return chi_count + scalar + pow_count + scaled + evaluation


def _inverse_count(x, h, algebra):
    """The inverse's documented count: for x = h(B), mod_inverse of h
    modulo chi_B and (d - 1) d^2 for the product with B's basis;
    otherwise the elimination's."""
    if h is None:
        return _counted(mat_inv, _bare(x))[1]
    return _counted(mod_inverse, FqPoly(x.spec, h), algebra.f)[1] + (x.d - 1) * x.d**2


@settings(max_examples=50)
@given(
    spec=st.sampled_from(
        [field_spec(7), field_spec(3, 2), field_spec(2, 4), field_spec(2, 8), field_spec(2, 16)]
    ),
    d=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_decrypt_on_the_key_basis_matches_the_oracles_and_its_counts(spec, d, seed):
    rng = random.Random(seed)
    params = MorParams(spec, d)
    pk, sk = keygen(params, rng)
    other, _ = keygen(params, rng)
    b, hand_on = sk.conjugator, sk.m >= spec.q**d - 1
    # three messages under the key, then one of another key, parsed so
    # that its B_r carries nothing from encrypt
    for k in range(4):
        msg = random_sl(spec, d, rng)
        ct = encrypt(pk, msg, rng) if k < 3 else MorCiphertext.from_json(
            encrypt(other, msg, rng).to_json()
        )
        b_r, state = ct.conjugator, _algebra_state(sk.field)
        commutes = mat_mul_elementwise(b, b_r) == mat_mul_elementwise(b_r, b)
        assert commutes or k == 3  # the key's own B_r lie in K_B
        plaintext, calls = _spied_decrypt(sk, ct)
        ((power, h), power_count), ((_, inverse), inverse_count) = (
            calls["_power"], calls["_with_inverse"]
        )
        assert plaintext == _parsed_route(sk, ct)
        if k < 3:
            assert plaintext == msg
        assert power == mat_pow(_bare(b_r), sk.m) == mat_pow_sqm(b_r, sk.m)
        assert mat_mul(power, inverse) == identity(spec, d)
        if not hand_on:
            assert "_test" not in calls
            continue
        found, test_count = calls["_test"]
        assert test_count == _hand_on_count(b, *state)
        assert bool(found) == commutes
        # read from the second test on, a member has coordinates in K_B
        read = isinstance(found, tuple)
        assert read == (state[0] and commutes)
        if read:
            assert b_r == sk.field._algebra.eval(found)
        if commutes:
            assert power_count == _power_count(b_r, sk.m, read)
            assert inverse_count == _inverse_count(power, h, sk.field._algebra)
        else:
            # outside K_B: B_r's own certificate, Horner, elimination
            assert power_count == _counted(KeyField(_bare(b_r)).power, sk.m)[1]
            assert h is None
            assert inverse_count == _counted(mat_inv, _bare(power))[1]


# -- encrypt's certificate for B_phim -------------------------------------------


def _encrypt_checked(pk, msg, rng):
    """encrypt(pk, msg, rng), checked against square-and-multiply with the
    full r of its first draw, and whether it handed K_phi's certificate to
    B_phim: that path leaves the key's field_m a member of K_phi instead of
    a field with a certificate of its own."""
    params, state = pk.params, rng.getstate()
    b_phi, b_phim = recover_conjugator(pk.phi), recover_conjugator(pk.phi_m)
    undecided = "field_m" not in pk.__dict__
    ct = encrypt(pk, msg, rng)
    after = rng.getstate()
    # K_phi's certificate is decided once some draw of r reached q^d - 1
    fast = (
        undecided
        and pk.field._certificate is True
        and mat_mul_elementwise(b_phi, b_phim) == mat_mul_elementwise(b_phim, b_phi)
    )
    assert pk.field_m._member == fast
    rng.setstate(state)
    r = rng.randrange(2, params.spec.q ** (params.d**2) - 1)
    if rng.getstate() == after:  # encrypt kept its first r
        assert ct.conjugator == mat_pow_sqm(b_phi, r)
        assert ct.payload == conjugate(msg, mat_pow_sqm(b_phim, r))
    return ct, fast


@settings(max_examples=40)
@given(
    spec=st.sampled_from([field_spec(7), field_spec(2, 4), field_spec(2, 8), field_spec(2, 16)]),
    d=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_encrypt_with_the_phi_certificate_equals_the_full_exponent(spec, d, seed):
    rng = random.Random(seed)
    params = MorParams(spec, d)
    pk, sk = keygen(params, rng)
    msg = random_sl(spec, d, rng)

    # keygen's key: B_phim ~ B_phi^m commutes with the certified B_phi
    state = rng.getstate()
    ct, fast = _encrypt_checked(pk, msg, rng)
    assert decrypt(sk, ct) == msg
    # keygen's B_phi has irreducible chi: its certificate finds a field
    assert fast == (pk.field._certificate is True)

    # the same key parsed afresh takes the same route to the same ciphertext
    rng.setstate(state)
    parsed = MorPublicKey.from_json(pk.to_json())
    assert _encrypt_checked(parsed, msg, rng) == (ct, fast)

    # the member fact lives in pk.field_m and vouches for no other key:
    # with phi^m as the first automorphism of a key, its field decides a
    # certificate of its own, and B_phim as a private conjugator does not
    # reduce decrypt's exponent.  Keys built from another key's parts can
    # be degenerate in a small group, where phi^m or phi^(m^2) may have
    # tiny order.
    b_phim = recover_conjugator(pk.phi_m)
    with contextlib.suppress(DegenerateKeyError):
        if fast:
            chained = MorPublicKey(params, pk.phi_m, Automorphism.from_json(pk.phi.to_json()))
            _encrypt_checked(chained, msg, rng)
            assert chained.field is not pk.field_m and chained.field._certificate is not None
            phi_mm = Automorphism.from_conjugator(mat_pow_sqm(b_phim, sk.m))
            ct = _encrypt_checked(MorPublicKey(params, pk.phi_m, phi_mm), msg, rng)[0]
            assert _decrypt_checked(MorPrivateKey(sk.m, b_phim), ct) == (msg, False)

    # a foreign phi_m rarely commutes with B_phi and keeps a certificate of its own
    other, _ = keygen(params, rng)
    swapped = MorPublicKey.from_json({**pk.to_json(), "phi_m": other.phi_m.to_json()})
    with contextlib.suppress(DegenerateKeyError):
        _encrypt_checked(swapped, msg, rng)

    failing = _key_failing_the_certificate(params, rng)
    if failing is None:
        return
    pk_loose, sk_loose = failing
    ct, fast = _encrypt_checked(pk_loose, msg, rng)
    assert not fast  # K_phi failed its certificate: nothing to hand on
    assert decrypt(sk_loose, ct) == msg


@pytest.mark.parametrize("m", ["0", "1", "-3", 0, "bound"])
def test_private_exponent_outside_the_keygen_range_is_refused(m):
    spec, d = TOY7.spec, TOY7.d
    _, sk = keygen(TOY7, random.Random(15))
    obj = sk.to_json()
    obj["m"] = str(spec.q ** (d * d) - 1) if m == "bound" else m
    with pytest.raises(ValueError, match="private exponent"):
        MorPrivateKey.from_json(spec, obj)
    for edge in (2, spec.q ** (d * d) - 2):
        obj["m"] = str(edge)
        assert MorPrivateKey.from_json(spec, obj).m == edge


# -- keys that own odd fields -------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def test_degenerate_and_hand_built_private_keys_decrypt(tmp_path):
    # decrypt needs only m: the private conjugator B only lets K_B hand its
    # certificate on.  The golden key file with B replaced by the zero
    # matrix, the identity, a diagonal matrix (chi reducible) or a random
    # matrix with irreducible chi that is not the key's still decrypts the
    # golden ciphertext, through the CLI and in memory, where K_B's
    # certificate is decided and fails or finds B_r outside K_B at the
    # commutation test and at a read
    ct = MorCiphertext.from_json(json.loads((GOLDEN / "ct.json").read_text()))
    spec, d = ct.payload.spec, ct.payload.d
    rng = random.Random(30)
    foreign = random_gl(spec, d, rng)
    while not KeyField(foreign).certificate:
        foreign = random_gl(spec, d, rng)
    conjugators = {
        "zero": Matrix._from_vals(spec, ((0,) * d,) * d),
        "identity": identity(spec, d),
        "reducible": diagonal_matrix([spec.from_val(v) for v in (2, 3, 5)]),
        "foreign": foreign,
    }
    for name, b in conjugators.items():
        obj = json.loads((GOLDEN / "priv.json").read_text())
        obj["conjugator"] = b.to_json()
        priv, out = tmp_path / f"{name}.json", tmp_path / f"{name}.out"
        priv.write_text(json.dumps(obj))
        argv = ["decrypt", "--priv", str(priv), "--in", str(GOLDEN / "ct.json"), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert out.read_bytes() == b"golden"
        sk = MorPrivateKey.from_json(spec, obj)
        assert sk.field.certificate is (name == "foreign")
        for _ in range(2):
            assert decode_message(decrypt(sk, ct)) == b"golden"

    # the benchmark's hand-built keys: a monomial conjugator C without the
    # irreducibility filter, and an exponent n = m mod q^d - 1 with the
    # recovered conjugator B_phi, as a discrete log would give it
    loose = MorParams(TOY7.spec, 3, require_irreducible_lift=False)
    for seed in range(4):
        rng = random.Random(seed)
        w = [TOY7.spec.random_nonzero(rng) for _ in range(3)]
        c = mat_mul(diagonal_matrix(w), permutation_matrix(TOY7.spec, Permutation.random(3, rng)))
        m = rng.randrange(2, 7**9 - 1)
        pk = MorPublicKey(
            loose, Automorphism.from_conjugator(c), Automorphism.from_conjugator(mat_pow(c, m))
        )
        msg = random_sl(TOY7.spec, 3, rng)
        with contextlib.suppress(DegenerateKeyError):  # a monomial phi may have tiny order
            ct = encrypt(pk, msg, rng)
            assert decrypt(MorPrivateKey(m, c), ct) == msg
            assert decrypt(MorPrivateKey(m, recover_conjugator(pk.phi)), ct) == msg
        pk, sk = keygen(TOY7, rng)
        ct = encrypt(pk, msg, rng)
        n = sk.m % (7**3 - 1)
        assert decrypt(MorPrivateKey(n, recover_conjugator(pk.phi)), ct) == msg


class _RecordingRandom(random.Random):
    """A Random that keeps the last value randrange drew."""

    def randrange(self, *args):
        self.last = super().randrange(*args)
        return self.last


@settings(max_examples=30, deadline=None)
@given(
    spec=st.sampled_from([field_spec(7), field_spec(3, 2), field_spec(2, 8), field_spec(2, 16)]),
    d=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_session_power_is_the_full_exponent_power(spec, d, seed):
    # three messages under a fresh key, then under its v1 parse: each B_r
    # is B_phi^r at the full exponent r that encrypt drew last, however
    # the key's fields reduced, split, evaluated and inverted it, and
    # every plaintext comes back
    rng = _RecordingRandom(seed)
    params = MorParams(spec, d)
    pk, sk = keygen(params, rng)
    parsed = MorPublicKey.from_json(pk.to_json()), MorPrivateKey.from_json(spec, sk.to_json())
    b_phi = recover_conjugator(pk.phi)
    for pk, sk in ((pk, sk), parsed):
        for _ in range(3):
            msg = random_sl(spec, d, rng)
            ct = encrypt(pk, msg, rng)
            assert ct.conjugator == mat_pow_sqm(b_phi, rng.last)
            assert decrypt(sk, ct) == msg
