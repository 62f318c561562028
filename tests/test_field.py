import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    field_tables_by_products,
    from_hex_loop,
    inv_fp_long_division,
    mul_gf2_window,
    to_hex_loop,
)

from morsl.field import (
    FieldElement,
    FieldSpec,
    FieldMismatchError,
    cost_counter,
    cost_reset,
    field_add,
    field_inv,
    field_mul,
    field_neg,
    field_pow,
    field_spec,
    frobenius,
    _check_file_field,
    _gf2_mod,
    is_probable_prime,
    smallest_irreducible_poly,
)

GF7 = field_spec(7)
GF8 = field_spec(2, 3, modulus=(1, 1, 0, 1))  # x^3 + x + 1


def test_mul_gf7_matches_integer_arithmetic():
    a = GF7.from_val(3)
    b = GF7.from_val(5)
    assert field_mul(a, b).val == 15 % 7


def test_mul_identity():
    for spec in (GF7, GF8, field_spec(2, 16), field_spec(3, 2)):
        a = spec.from_val(spec.q - 1)
        assert field_mul(a, spec.one()) == a


def test_mul_gf8_polynomial_division_oracle():
    # oracle: x * x^2 = x^3, and long division of x^3 by x^3+x+1 leaves x+1
    x = GF8.monomial(1)
    x2 = GF8.monomial(2)
    assert (x * x2).coeffs == (1, 1, 0)


def test_pow_basics():
    a = GF7.from_val(3)
    assert field_pow(a, 1) == a
    assert field_pow(a, 0) == GF7.one()
    assert field_pow(a, 6) == GF7.one()  # Fermat: 3^6 = 729 = 1 mod 7


def test_pow_group_order_gf8():
    for v in range(1, 8):
        g = GF8.from_val(v)
        assert field_pow(g, 7) == GF8.one()


def test_pow_negative_exponent_rejected():
    with pytest.raises(ValueError):
        field_pow(GF7.from_val(3), -1)


def test_frobenius():
    x = GF8.monomial(1)
    assert frobenius(x, 0) == x
    assert frobenius(x, 1) == x * x
    spec = field_spec(3, 4)
    r = random.Random(7)
    for _ in range(20):
        a = spec.random(r)
        b = a
        for _ in range(spec.gamma):
            b = frobenius(b, 1)
        assert b == a  # full Frobenius orbit closes
    with pytest.raises(ValueError):
        frobenius(x, 3)


def test_frobenius_is_ring_homomorphism():
    spec = field_spec(5, 3)
    r = random.Random(11)
    for _ in range(200):
        a, b = spec.random(r), spec.random(r)
        assert frobenius(a * b, 1) == frobenius(a, 1) * frobenius(b, 1)
        assert frobenius(a + b, 1) == frobenius(a, 1) + frobenius(b, 1)


def test_cost_counter_single_mul():
    cost_reset()
    field_mul(GF7.from_val(2), GF7.from_val(3))
    assert cost_counter() == 1


def test_cost_counter_pow8():
    a = GF7.from_val(3)
    cost_reset()
    field_pow(a, 8)
    assert cost_counter() <= 4


def test_cost_counter_additions_free():
    a, b = GF8.from_val(3), GF8.from_val(5)
    cost_reset()
    field_add(a, b)
    field_neg(a)
    a - b
    assert cost_counter() == 0


def test_field_axioms_random_triples():
    for spec in (GF7, GF8, field_spec(2, 16), field_spec(7, 2), field_spec(3, 4)):
        r = random.Random(spec.q)
        one = spec.one()
        for _ in range(1000):
            a, b, c = spec.random(r), spec.random(r), spec.random(r)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a + b == b + a
            assert a * (b + c) == a * b + a * c
            if a:
                assert a * field_inv(a) == one


def test_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        field_inv(GF8.zero())


@pytest.mark.parametrize(
    "spec", [GF7, GF8, field_spec(2, 4), field_spec(3, 4), field_spec(2, 16), field_spec(3, 6)],
    ids=repr,
)
def test_every_raw_inverse_refuses_zero(spec):
    # prime, table, binary and odd-extension fields each bind their own
    with pytest.raises(ZeroDivisionError):
        spec._inv_raw(0)
    assert spec._mul_raw(spec._inv_raw(spec.q - 1), spec.q - 1) == 1


@pytest.mark.parametrize(
    "p, gamma",
    [(7, 1), (2, 16), (2, 160), (2, 1024), (3, 16), ((1 << 61) - 1, 16), ((1 << 1024) - 1, 1)],
)
def test_file_field_bound_admits(p, gamma):
    _check_file_field(p, gamma)


@pytest.mark.parametrize(
    "p, gamma",
    [(2, 1025), (2, 2281), (3, 17), ((1 << 64) + 13, 16), (1 << 1024, 1), (5, 10**9)],
)
def test_file_field_bound_refuses(p, gamma):
    with pytest.raises(ValueError):
        _check_file_field(p, gamma)


def test_spec_from_json_checks_the_modulus_length_before_its_entries():
    obj = field_spec(2, 16).to_json()
    obj["modulus"] = obj["modulus"] * 1000
    with pytest.raises(ValueError, match="list of 17 entries"):
        FieldSpec.from_json(obj)


def test_fermat_exhaustive_small_fields():
    for p, gamma in ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (2, 4),
                     (2, 5), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2)):
        spec = field_spec(p, gamma)
        if spec.q > 64:
            continue
        for a in spec.elements():
            if a:
                assert field_pow(a, spec.q - 1) == spec.one()


def test_spec_mismatch_raises():
    with pytest.raises(FieldMismatchError):
        field_add(GF7.from_val(1), field_spec(5).from_val(1))
    with pytest.raises(FieldMismatchError):
        field_mul(GF8.from_val(1), field_spec(2, 3).from_val(1))  # different modulus


def test_large_binary_field():
    spec = field_spec(2, 160)
    r = random.Random(99)
    one = spec.one()
    for _ in range(50):
        a, b, c = spec.random(r), spec.random(r), spec.random(r)
        assert (a * b) * c == a * (b * c)
        if a:
            assert a * a.inv() == one
        assert frobenius(a, 1) == a * a


def test_large_prime_field():
    p = (1 << 160) + 7  # prime
    assert is_probable_prime(p)
    spec = field_spec(p)
    a = spec.from_val(12345678901234567890)
    assert a * a.inv() == spec.one()


def test_generic_extension_path():
    # q = 729 exceeds the table threshold, exercising tuple arithmetic
    spec = field_spec(3, 6)
    r = random.Random(3)
    for _ in range(50):
        a, b = spec.random(r), spec.random(r)
        assert (a * b).coeffs == (b * a).coeffs
        if a:
            assert a * a.inv() == spec.one()


def test_element_equality_and_hash():
    a = GF8.from_val(5)
    b = GF8.from_coeffs((1, 0, 1))
    assert a == b
    assert hash(a) == hash(b)
    assert a != GF8.from_val(4)
    assert GF7.from_val(5) != a


def test_serialization_round_trip():
    spec = field_spec(11, 2)
    for v in (0, 1, 10, 12, 120):
        a = spec.from_val(v)
        s = a.to_hex()
        assert FieldElement.from_hex(spec, s) == a
    a = spec.from_coeffs((10, 3))
    assert a.to_hex() == "a:3"


binary_fields = st.builds(field_spec, st.just(2), st.sampled_from((1, 2, 3, 8, 9, 16, 33, 160)))


def _outcome(parse, spec, s):
    try:
        return parse(spec, s)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=80)
@given(spec=binary_fields, data=st.data())
def test_binary_hex_matches_the_coefficient_loop(spec, data):
    a = spec.from_val(data.draw(st.integers(0, spec.q - 1)))
    s = a.to_hex()
    assert s == to_hex_loop(a)
    assert FieldElement.from_hex(spec, s) == from_hex_loop(spec, s) == a


# parts the general parse accepts ("00", " 1", "0x1", "+1") or rejects
odd_parts = st.sampled_from(("00", " 1", "1 ", "0x1", "+1", "-0", "_1", "2", "f", "", "0:1", "\u0661"))


@settings(max_examples=120)
@given(spec=binary_fields, data=st.data())
def test_binary_from_hex_falls_back_on_other_strings(spec, data):
    parts = data.draw(st.lists(st.sampled_from("01"), min_size=spec.gamma, max_size=spec.gamma))
    for _ in range(data.draw(st.integers(1, 3))):
        parts[data.draw(st.integers(0, spec.gamma - 1))] = data.draw(odd_parts)
    if data.draw(st.booleans()):
        parts = parts[:-1] if data.draw(st.booleans()) else [*parts, "0"]
    s = ":".join(parts)
    assert _outcome(FieldElement.from_hex, spec, s) == _outcome(from_hex_loop, spec, s)


def test_binary_from_hex_edge_strings():
    spec = field_spec(2, 3)
    for s in ("00:1:0", " 1:0:0", "0x1:0:0", "2:0:0", "1:0", "1:0:0:0", "1:0:", "1::0", "", "100"):
        assert _outcome(FieldElement.from_hex, spec, s) == _outcome(from_hex_loop, spec, s)
    assert FieldElement.from_hex(spec, "0x1:0:0") == spec.one()
    with pytest.raises(ValueError, match="coefficient out of range"):
        FieldElement.from_hex(spec, "2:0:0")
    with pytest.raises(ValueError, match="wrong number of coefficients"):
        FieldElement.from_hex(spec, "1:0")


def _binary_values(q):
    # the edge values, the top bit forced in, or anything
    top = q >> 1
    return st.one_of(
        st.sampled_from((0, 1, q - 1, top)),
        st.integers(top, q - 1),
        st.integers(0, q - 1),
    )


@settings(max_examples=150)
@given(gamma=st.sampled_from((9, 16, 17, 33, 64, 160, 233)), data=st.data())
def test_binary_multiply_matches_the_window_oracle(gamma, data):
    spec = field_spec(2, gamma)
    a = data.draw(_binary_values(spec.q))
    b = data.draw(_binary_values(spec.q))
    want = mul_gf2_window(spec, a, b)
    assert spec._mul_gf2(a, b) == spec._mul_gf2(b, a) == want
    assert (spec.from_val(a) * spec.from_val(b)).val == want


# odd characteristic, too large for tables: inversion runs extended Euclid
ODD_EXTENSIONS = (field_spec(3, 6), field_spec(5, 5), field_spec(7, 4))


@settings(max_examples=100)
@given(spec=st.sampled_from(ODD_EXTENSIONS), data=st.data())
def test_odd_extension_inverse_matches_the_long_division_oracle(spec, data):
    a = data.draw(st.sampled_from((1, 2, spec.p, spec.q - 1)) | st.integers(1, spec.q - 1))
    assert spec._inv_raw(a) == inv_fp_long_division(spec, a)
    x = spec.from_val(a)
    cost_reset()
    y = x.inv()
    assert cost_counter() == 0  # inversions are not counted
    assert x * y == spec.one()
    assert spec._inv_table is None


def test_binary_reduction_table_is_one_byte_row():
    spec = FieldSpec(2, 160)
    red = spec._red_table
    assert len(red) == 256
    assert red == tuple(_gf2_mod(v << 160, spec._mod_packed) for v in range(256))


@pytest.mark.parametrize(
    "p,gamma",
    [(p, g) for p in (2, 3, 5, 7, 11, 13) for g in range(2, 9) if p**g <= 256],
)
def test_small_field_tables_match_the_product_oracle(p, gamma):
    spec = FieldSpec(p, gamma)
    spec._build_tables()
    assert (spec._mul_table, spec._inv_table) == field_tables_by_products(spec)


def test_spec_json_round_trip():
    spec = field_spec(2, 8)
    obj = spec.to_json()
    assert obj["p"] == "2"
    assert obj["gamma"] == 8
    assert all(isinstance(c, str) for c in obj["modulus"])
    from morsl.field import FieldSpec

    assert FieldSpec.from_json(obj) is spec


def test_spec_validation():
    with pytest.raises(ValueError):
        field_spec(9)  # not prime
    with pytest.raises(ValueError):
        field_spec(2, 3, modulus=(1, 1, 1, 1))  # x^3+x^2+x+1 reducible
    with pytest.raises(ValueError):
        field_spec(2, 3, modulus=(1, 1, 1))  # wrong degree
    with pytest.raises(ValueError):
        field_spec(3, 2, modulus=(2, 0, 1))  # x^2 - 1 reducible


@pytest.mark.parametrize("p, gamma, test", [(2, 160, "_gf2_is_irreducible"), (3, 4, "_fp_is_irreducible")])
def test_default_modulus_is_proved_irreducible_once(monkeypatch, p, gamma, test):
    # the search proves its result irreducible; FieldSpec does not test it again
    import morsl.field as field

    accepted = []
    real = getattr(field, test)

    def counted(*args):
        ok = real(*args)
        if ok:
            accepted.append(args)
        return ok

    monkeypatch.setattr(field, test, counted)
    spec = FieldSpec(p, gamma)
    assert len(accepted) == 1
    assert spec.modulus == smallest_irreducible_poly(p, gamma)


def _irreducible_by_trial_division(coeffs, p):
    """Oracle: try dividing by every monic polynomial of lower degree."""
    from morsl.field import _fp_mod, _fp_trim

    n = len(coeffs) - 1
    for deg in range(1, n // 2 + 1):
        for k in range(p ** deg):
            digits = []
            kk = k
            for _ in range(deg):
                digits.append(kk % p)
                kk //= p
            div = tuple(digits) + (1,)
            if not _fp_mod(_fp_trim(coeffs), div, p):
                return False
    return True


@pytest.mark.parametrize("p,gamma", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_smallest_irreducible_matches_trial_division_scan(p, gamma):
    found = smallest_irreducible_poly(p, gamma)
    assert len(found) == gamma + 1 and found[-1] == 1
    assert _irreducible_by_trial_division(found, p)
    # nothing lexicographically smaller is irreducible
    for c0 in range(0, p):
        for k in range(p ** (gamma - 1)):
            digits = []
            kk = k
            for _ in range(gamma - 1):
                digits.append(kk % p)
                kk //= p
            cand = (c0,) + tuple(reversed(digits)) + (1,)
            if cand == found:
                return
            assert not _irreducible_by_trial_division(cand, p)


def test_default_modulus_for_presets_is_irreducible():
    from morsl.field import _gf2_is_irreducible

    for gamma in (16, 160):
        mod = smallest_irreducible_poly(2, gamma)
        packed = sum(c << i for i, c in enumerate(mod))
        assert _gf2_is_irreducible(packed)


def test_is_probable_prime():
    primes = [2, 3, 5, 101, 1019, (1 << 89) - 1]
    composites = [1, 4, 561, 1 << 20, (1 << 89) - 3]
    assert all(is_probable_prime(n) for n in primes)
    assert not any(is_probable_prime(n) for n in composites)
