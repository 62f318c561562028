"""The exponentiation engine against its oracles.

mat_pow picks Cayley-Hamilton or square-and-multiply from a predicted
multiplication count; FqPoly.pow_mod squares without cross terms in
characteristic 2, and raises x on raw ints over binary fields without a
multiplication table, squaring short residues through a table cached on
the modulus; is_irreducible, which is also mat_pow's certificate, takes
q-th powers through the Frobenius matrix.  Each is checked for value
against tests/oracles.py and, where it matters, for its count.
"""

import random
from unittest import mock

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    compose_power,
    is_irreducible_gcd,
    mat_pow_plan,
    mat_pow_sqm,
    pow_mod_sqm,
    pow_x_elementwise,
)

import morsl.fqpoly as fqpoly
import morsl.matrix as matrix
from morsl.autos import Automorphism, recover_conjugator
from morsl.field import FieldElement, FieldSpec, cost_counter, cost_reset, field_spec
from morsl.fqpoly import FqPoly, char_poly, companion_matrix, is_irreducible
from morsl.matrix import (
    Matrix,
    Permutation,
    _field_verdict,
    _hand_on_verdict,
    conjugate,
    diagonal_matrix,
    identity,
    mat_mul,
    mat_pow,
    permutation_matrix,
    random_gl,
    random_sl,
    transvection,
)
from morsl.protocol import MorParams, encrypt, keygen

GF7 = field_spec(7)

PROPERTY = settings(max_examples=60)

fields = st.builds(
    field_spec, st.sampled_from((2, 3, 5, 7)), st.sampled_from((1, 2, 4, 8, 16))
)


def _random_matrix(spec, d, rng):
    return Matrix(spec, [[spec.random(rng) for _ in range(d)] for _ in range(d)])


def _poly(spec, coeffs):
    return FqPoly(spec, [c % spec.q for c in coeffs])


@PROPERTY
@given(
    spec=fields,
    d=st.integers(1, 9),
    kind=st.sampled_from(("0", "1", "d-1", "d", "d+1", "random", "negative")),
    bits=st.integers(1, 200),
    seed=st.integers(0, 2**32),
    singular=st.booleans(),
)
def test_mat_pow_matches_oracle(spec, d, kind, bits, seed, singular):
    rng = random.Random(seed)
    e = {"0": 0, "1": 1, "d-1": d - 1, "d": d, "d+1": d + 1}.get(kind)
    if e is None:
        e = rng.getrandbits(bits) | 1 << (bits - 1)
    if kind == "negative":
        e, singular = -e, False
    b = _random_matrix(spec, d, rng) if singular else random_gl(spec, d, rng)
    assert mat_pow(b, e) == mat_pow_sqm(b, e)


@PROPERTY
@given(
    spec=fields,
    parts=st.lists(
        st.lists(st.integers(0, 2**64), min_size=1, max_size=4), min_size=1, max_size=2
    ),
    repeat=st.booleans(),
)
def test_is_irreducible_matches_oracle(spec, parts, repeat):
    # products of random monic factors; repeat squares the first one
    f = FqPoly.one(spec)
    for coeffs in parts:
        f = f * FqPoly(spec, (*_poly(spec, coeffs).coeffs, 1))
    if repeat:
        g = FqPoly(spec, (*_poly(spec, parts[0]).coeffs, 1))
        f = f * g
    assert is_irreducible(f) == is_irreducible_gcd(f)


@PROPERTY
@given(
    spec=fields,
    base=st.lists(st.integers(0, 2**64), max_size=12),
    modulus=st.lists(st.integers(0, 2**64), min_size=2, max_size=10),
    e=st.integers(0, 2**64),
)
def test_pow_mod_matches_oracle(spec, base, modulus, e):
    f = _poly(spec, modulus)
    if f.degree() < 1:
        f = FqPoly.x(spec)
    for b in (_poly(spec, base), FqPoly.x(spec)):
        assert b.pow_mod(e, f) == pow_mod_sqm(b, e, f)


def _counted(fn, *args):
    cost_reset()
    out = fn(*args)
    return out, cost_counter()


def _monic(spec, coeffs):
    return FqPoly(spec, [*(c % spec.q for c in coeffs), 1])


# gamma = 9 is the smallest binary field without a multiplication table
kernel_fields = st.builds(field_spec, st.just(2), st.sampled_from((9, 12, 16, 33, 160)))


@settings(max_examples=40)
@given(
    spec=kernel_fields,
    # zero coefficients, and the reducible f they allow, come often
    coeffs=st.lists(st.one_of(st.just(0), st.just(1), st.integers(0, 2**160)), min_size=2,
                    max_size=8),
    e=st.integers(1, 2**1200),
)
def test_binary_kernel_matches_the_counting_oracle(spec, coeffs, e):
    f = _monic(spec, coeffs)
    got = _counted(FqPoly.x(spec).pow_mod, e, f)
    assert got == _counted(pow_x_elementwise, e, f)


def test_binary_kernel_paper_size_is_pinned():
    spec = field_spec(2, 160)
    rng = random.Random(7)
    f = char_poly(random_gl(spec, 7, rng))
    e = rng.getrandbits(1120)
    got, count = _counted(FqPoly.x(spec).pow_mod, e, f)
    assert (got, count) == _counted(pow_x_elementwise, e, f)
    # the route model's bound, 1116 squarings at 49 and 562 shifts at 7, is 58618
    assert count == 58488 <= fqpoly._pow_mod_cost(e, 7, 2, by_x=True)


def test_kernel_runs_only_on_binary_fields_without_tables(x_power_routes):
    routes = x_power_routes
    e = 3**90
    # odd characteristic (GF(3^6) has no table either), and table fields
    for p, gamma in ((7, 1), (3, 6), (2, 1), (2, 4), (2, 8)):
        spec = field_spec(p, gamma)
        f = _monic(spec, (1, 2, 3))
        assert FqPoly.x(spec).pow_mod(e, f) == pow_mod_sqm(FqPoly.x(spec), e, f)
    spec = field_spec(2, 9)
    f = _monic(spec, (5, 0, 7))
    # a base other than x, and x modulo a linear f, keep the element loop
    x_plus_1 = _monic(spec, (1,))
    assert x_plus_1.pow_mod(e, f) == pow_mod_sqm(x_plus_1, e, f)
    linear = _monic(spec, (5,))
    assert FqPoly.x(spec).pow_mod(e, linear) == pow_mod_sqm(FqPoly.x(spec), e, linear)
    assert routes == []
    # a short residue (6 bytes) with e > q takes the table, x^q squares by lanes
    assert FqPoly.x(spec).pow_mod(e, f) == pow_x_elementwise(e, f)
    assert FqPoly.x(spec).pow_mod(spec.q, f) == pow_x_elementwise(spec.q, f)
    assert routes == [("table", spec, 3), ("lanes", spec, 3)]
    # the cap: 32 bytes take the table, 35 and the paper preset's 140 do not
    routes.clear()
    for gamma, n in ((64, 4), (33, 7), (160, 7)):
        wide = field_spec(2, gamma)
        g = _monic(wide, range(1, n + 1))
        assert FqPoly.x(wide).pow_mod(wide.q + 1, g) == pow_x_elementwise(wide.q + 1, g)
    assert routes == [
        ("table", field_spec(2, 64), 4),
        ("lanes", field_spec(2, 33), 7),
        ("lanes", field_spec(2, 160), 7),
    ]


# (gamma, deg f) for residues of 30, 32 and 33 bytes; a residue of n >= 2
# lanes of ceil(gamma/8) >= 2 bytes cannot take 31, which is prime
@pytest.mark.parametrize("gamma, n", [(80, 3), (128, 2), (32, 8), (88, 3), (24, 11)])
def test_table_cap_at_e_q_and_q_plus_1(gamma, n, x_power_routes):
    spec = field_spec(2, gamma)
    f = _monic(spec, range(1, n + 1))
    for e in (spec.q, spec.q + 1):
        assert _counted(FqPoly.x(spec).pow_mod, e, f) == _counted(pow_x_elementwise, e, f)
    # only e > q on a residue of at most 32 bytes asks for the table
    short = n * ((gamma + 7) // 8) <= fqpoly._SQUARE_TABLE_MAX_BYTES
    assert x_power_routes == [("lanes", spec, n), ("table" if short else "lanes", spec, n)]
    assert (f._sq_table is not None) == short


def _dense_modulus_field(gamma, seed):
    """GF(2^gamma) under a random irreducible modulus with about gamma/2 terms."""
    rng = random.Random(seed)
    while True:
        try:
            return FieldSpec(2, gamma, (1, *(rng.getrandbits(1) for _ in range(gamma - 1)), 1))
        except ValueError:  # reducible
            pass


@pytest.mark.parametrize("gamma", (9, 10, 16, 17, 33, 64))
@settings(max_examples=20)
@given(
    dense=st.booleans(),
    seed=st.integers(0, 2**32),
    n=st.integers(2, 8),
    # x^n, x^n + 1 and sparse random f give zero lanes in residues and quotients
    kind=st.sampled_from(("x^n", "x^n+1", "sparse", "dense")),
)
def test_table_route_matches_the_counting_oracle(gamma, dense, seed, n, kind):
    spec = _dense_modulus_field(gamma, seed) if dense else field_spec(2, gamma)
    rng = random.Random(seed)
    coeffs = {
        "x^n": [0] * n,
        "x^n+1": [1] + [0] * (n - 1),
        "sparse": [rng.choice((0, rng.randrange(spec.q))) for _ in range(n)],
        "dense": [rng.randrange(1, spec.q) for _ in range(n)],
    }[kind]
    f = _monic(spec, coeffs)
    short = n * ((gamma + 7) // 8) <= fqpoly._SQUARE_TABLE_MAX_BYTES
    table = None
    # several exponents above q through one f: the table is built once
    for _ in range(3):
        e = spec.q + 1 + rng.getrandbits(rng.randrange(1, 201))
        assert _counted(FqPoly.x(spec).pow_mod, e, f) == _counted(pow_x_elementwise, e, f)
        if short:
            assert f._sq_table is not None and table in (None, f._sq_table)
            table = f._sq_table
        else:
            assert f._sq_table is None
    if short:
        # f owns n*ceil(gamma/8) rows of 256 entries: lane 0's are the field's
        rows, clear, _ = table
        assert len(rows) == n * len(clear) and all(len(row) == 256 for row in rows + clear)
        assert all(row is own for row, own in zip(rows, spec._square_rows()))


def test_squaring_table_is_built_on_first_use():
    spec = FieldSpec(2, 33)
    assert spec._sq_table is None
    f = _monic(spec, (3, 0, 1))
    assert _counted(FqPoly.x(spec).pow_mod, 99, f) == _counted(pow_x_elementwise, 99, f)
    table = spec._sq_table
    assert len(table) == 5 and all(len(row) == 256 for row in table)
    FqPoly.x(spec).pow_mod(5, f)
    assert spec._sq_table is table


def _mat_pow_counts(spec, d, bits, seed):
    rng = random.Random(seed)
    b = random_gl(spec, d, rng)
    e = rng.getrandbits(bits) | 1 << (bits - 1)
    cost_reset()
    got = mat_pow(b, e)
    engine = cost_counter()
    cost_reset()
    want = mat_pow_sqm(b, e)
    oracle = cost_counter()
    assert got == want
    return engine, oracle


def test_mat_pow_never_costs_more_than_the_oracle():
    # the first three take Cayley-Hamilton; the 25 x 25 one takes
    # square-and-multiply from x, saving the oracle's product by the identity
    cases = (((2, 16), 5, 80), ((7, 1), 9, 20), ((2, 4), 16, 16), ((3, 1), 25, 8))
    for (p, gamma), d, bits in cases:
        engine, oracle = _mat_pow_counts(field_spec(p, gamma), d, bits, seed=d)
        assert engine < oracle
        assert d != 25 or oracle - engine == d**3


@pytest.mark.parametrize("d", (5, 6, 7))
def test_square_and_multiply_starts_from_the_base(d):
    # n = 0 is the identity and n = 1 is x itself, both free; 2^k takes
    # k squarings and no product, the route mat_pow takes for k <= 5 here
    x = random_gl(GF7, d, random.Random(d))
    assert _counted(mat_pow, x, 0) == (identity(GF7, d), 0)
    got, count = _counted(mat_pow, x, 1)
    assert got is x and count == 0
    for k in range(1, 6):
        got, count = _counted(mat_pow, x, 2**k)
        assert got == mat_pow_sqm(x, 2**k) and count == k * d**3


def test_cayley_hamilton_count_is_pinned():
    # every coefficient squaring goes through the counted multiply
    engine, oracle = _mat_pow_counts(field_spec(2, 16), 5, 80, seed=2)
    assert (engine, oracle) == (2629, 14250)


@pytest.mark.parametrize("degrees", [(4,), (2, 2), (6,), (3, 3), (2, 2, 2), (1, 2, 3)])
def test_certificate_level_needs_every_prime_of_d(degrees):
    # over GF(7): a product of distinct irreducible factors whose degrees
    # divide d = sum(degrees) divides x^(q^d) - x, as an irreducible chi
    # does; the certificate's gcds with x^(q^k) - x, k <= d/2, find its
    # least factor, at k = d/l for a prime l of d when every factor is
    # long (k = 3 = 6/2 for (3, 3), k = 2 = 6/3 for (2, 2, 2)), so only
    # the irreducible chi gives the field verdict and a reduced exponent
    rng = random.Random(sum(degrees))
    f, d = FqPoly.one(GF7), sum(degrees)
    for n in degrees:
        g = _monic(GF7, [rng.randrange(7) for _ in range(n)])
        while not is_irreducible(g) or not f.gcd(g).is_one():
            g = _monic(GF7, [rng.randrange(7) for _ in range(n)])
        f = f * g
    b = conjugate(companion_matrix(f), random_gl(GF7, d, rng))
    e = (7**d - 1) * rng.randrange(1, 2**16) + rng.randrange(7**d - 1)
    assert mat_pow(b, e) == mat_pow_sqm(b, e)
    assert b._split == (matrix._FIELD if len(degrees) == 1 else False)


def test_certificate_rejects_repeated_eigenvalue():
    t = transvection(GF7, 3, 1, 2, GF7.from_val(3))
    assert not is_irreducible(char_poly(t))
    e = (7**3 - 1) * 2**100 + 1
    # reducing e mod 7^3 - 1 would change the power of this order-7 matrix
    assert mat_pow_sqm(t, e % (7**3 - 1)) != mat_pow_sqm(t, e)
    assert mat_pow(t, e) == mat_pow_sqm(t, e)
    assert t._split is False


def test_keygen_without_irreducible_lift_uses_the_certificate(monkeypatch):
    # mat_pow prices its route on the exponent it raises to, reduced or not
    exponents = []
    real = fqpoly.cayley_hamilton_cost

    def recording_cost(d, e, p):
        exponents.append(e)
        return real(d, e, p)

    monkeypatch.setattr(fqpoly, "cayley_hamilton_cost", recording_cost)
    params = MorParams(GF7, 3, require_irreducible_lift=False)
    certified = 0
    for seed in range(6):
        pk, sk = keygen(params, random.Random(seed))
        assert pk.phi_m == Automorphism.from_conjugator(mat_pow_sqm(sk.conjugator, sk.m))
        reduced = sk.m % (7**3 - 1)
        if is_irreducible(char_poly(sk.conjugator)):
            # a field: the power also splits at the norm 7^2 + 7 + 1
            certified += 1
            assert sk.conjugator._split == matrix._FIELD
            assert exponents[-2:] == [reduced, max(reduced % 57, 1)]
        else:
            assert sk.conjugator._split is False and exponents[-1] == sk.m
    assert 0 < certified < 6


# q >= 7, so that d <= 6 distinct nonzero eigenvalues exist in GF(q)
certificate_fields = st.sampled_from(
    [field_spec(7), field_spec(3, 2), field_spec(2, 4), field_spec(2, 8)]
)


def _with_eigenvalues(spec, d, kind, rng):
    """A random invertible matrix ("gl"), a conjugate of a diagonal matrix
    with distinct nonzero eigenvalues ("split", chi reducible for d >= 2),
    of a scalar plus a strictly upper triangular matrix ("scalar plus
    nilpotent", chi = (t - c)^d), a singular matrix ("singular", its first
    row zero) or the zero matrix ("zero")."""
    if kind == "gl":
        return random_gl(spec, d, rng)
    if kind in ("singular", "zero"):
        rows = [[0] * d] + [[rng.randrange(spec.q) * (kind == "singular") for _ in range(d)]
                            for _ in range(d - 1)]
        return Matrix._from_vals(spec, tuple(map(tuple, rows)))
    if kind == "split":
        core = diagonal_matrix([spec.from_val(v) for v in rng.sample(range(1, spec.q), d)])
    else:
        c = rng.randrange(spec.q)
        core = Matrix._from_vals(spec, tuple(
            tuple(c if i == j else rng.randrange(spec.q) * (j > i) for j in range(d))
            for i in range(d)
        ))
    return conjugate(core, random_gl(spec, d, rng))


@settings(max_examples=60, deadline=None)
@example(spec=field_spec(7), d=1, kind="zero", seed=0)
@given(
    spec=certificate_fields,
    d=st.integers(1, 6),
    kind=st.sampled_from(("gl", "split", "scalar plus nilpotent", "singular", "zero")),
    seed=st.integers(0, 2**32),
)
def test_mat_pow_reduces_only_certified_exponents(spec, d, kind, seed):
    # the verdict is the field, _FIELD, exactly when chi(0) != 0 and chi is
    # irreducible, else False: a chi that splits or repeats a root keeps
    # the full exponent, as does the 1 x 1 zero matrix, whose chi = t is
    # irreducible.  It is decided once, by one test, at the first power
    # from q^d - 1 on, and the powers equal the oracle's below, at and
    # above the bound
    rng = random.Random(seed)
    b = _with_eigenvalues(spec, d, kind, rng)
    bound = spec.q**d - 1
    exponents = (bound // (spec.q - 1), bound, bound + 1, rng.randrange(spec.q ** (d * d)))
    with mock.patch.object(fqpoly, "is_irreducible", wraps=is_irreducible) as test:
        for n in exponents:
            assert mat_pow(b, n) == mat_pow_sqm(b, n)
    chi = char_poly(b)
    field = bool(chi.coeffs[0]) and is_irreducible(chi)
    assert b._split == (matrix._FIELD if field else False)
    assert test.call_count == bool(chi.coeffs[0])
    if kind == "zero" or (d > 1 and kind != "gl"):
        assert b._split is False
    if field:
        assert mat_pow_sqm(b, bound) == identity(spec, d)


def test_mat_pow_below_the_bound_decides_no_certificate():
    b = random_gl(GF7, 3, random.Random(5))
    with mock.patch.object(fqpoly, "is_irreducible") as test:
        assert mat_pow(b, 7**3 - 2) == mat_pow_sqm(b, 7**3 - 2)
    assert test.call_count == 0 and b._split is None


def test_route_prediction_is_horners_figure():
    # the basis build's surcharge over Horner, (d - 2) d^2, is smaller than
    # chi's cost, which the build never pays, so the bound prices every
    # route as before the power basis and the lab's lifts keep their routes
    for d in range(1, 65):
        horner = d * d + (d - 2) * d**3 if d >= 2 else 0
        for e, p in ((3, 2), (2**80 + 1, 2), (7**9 - 2, 7)):
            chi_and_power = fqpoly._char_poly_cost(d) + fqpoly._pow_mod_cost(e, d, p, by_x=True)
            assert fqpoly.cayley_hamilton_cost(d, e, p) == chi_and_power + (d == 1) + horner


basis_fields = st.sampled_from(
    [field_spec(7), field_spec(3, 2), field_spec(2, 4), field_spec(2, 8), field_spec(2, 16)]
)


def _evaluation_count(d, r, k):
    """mat_pow's count for evaluating the remainder r at a d x d matrix, as
    the k-th remainder evaluated at a matrix with a verdict: Horner's for
    the first (and for every one at a matrix without), the power basis's
    build and product for the second, the product alone from the third."""
    if k == 1:
        return d * d + (len(r.coeffs) - 2) * d**3 if len(r.coeffs) >= 2 else 0
    return (k == 2) * (d - 2) * d**3 + (d - 1) * d * d


@PROPERTY
@given(
    spec=basis_fields,
    d=st.integers(2, 7),
    verdict=st.booleans(),
    big=st.lists(st.booleans(), min_size=3, max_size=3),
    seed=st.integers(0, 2**32),
)
def test_power_basis_powers_match_the_oracle_and_their_counts(spec, d, verdict, big, seed):
    # a key's conjugator as keygen certifies it: chi irreducible, cached
    rng = random.Random(seed)
    b = random_gl(spec, d, rng)
    while not is_irreducible(char_poly(b)):
        b = random_gl(spec, d, rng)
    if verdict:
        _field_verdict(b)
    chi, bound, evaluations = char_poly(b), spec.q**d - 1, 0
    det = FieldElement(spec, chi.coeffs[0] if d % 2 == 0 else spec._neg_raw(chi.coeffs[0]))
    for large in big:
        # without a verdict, an exponent from q^d - 1 on would decide one
        n = rng.randrange(2, bound) + (bound * rng.randrange(1, 2**16) if large and verdict else 0)
        reduced = n % bound if verdict else n
        # a certified b has irreducible chi: its powers may split at the norm
        k, s, route = mat_pow_plan(spec, d, n, b._split)
        want = k and k.bit_length() + k.bit_count() - 2
        if route == "cayley-hamilton":
            r, count = _counted(FqPoly.x(spec).pow_mod, s, chi)
            scaled = (det**k).val != 1 if k else False
            evaluations += 1
            want += count + scaled * len(r.coeffs)
            want += _evaluation_count(d, r, evaluations if verdict else 1)
        elif route == "square-and-multiply":
            want = d**3 * (s.bit_length() + s.bit_count() - 2)
        got, count = _counted(mat_pow, b, n)
        assert got == mat_pow_sqm(b, reduced)
        assert count == want
        # every route, the split included, keeps within Cayley-Hamilton's figure at n
        assert route == "square-and-multiply" or count <= fqpoly.cayley_hamilton_cost(
            d, reduced, spec.p
        )
        # no algebra before any evaluation, b's algebra after the first, then its basis
        algebra = b._element[0] if b._element is not None else None
        kept = algebra and ("basis" if algebra._basis is not None else "algebra")
        assert kept == ((None, "algebra", "basis")[min(evaluations, 2)] if verdict else None)


def test_automorphism_power_near_the_exponent_bound_matches_compose():
    # the toy preset, d = 3 over GF(7): exponents reach q^(d^2) = 7^9
    params = MorParams(GF7, 3)
    for seed in range(2):
        pk, _sk = keygen(params, random.Random(seed))
        for m in (7**9 - 2, 7**9 - 1, 7**9, 7**9 + 5):
            assert pk.phi.power(m) == compose_power(pk.phi, m)
        # the recovered B has irreducible chi, so its exponents were reduced
        assert recover_conjugator(pk.phi)._split == matrix._FIELD


# -- powers split at the norm -------------------------------------------------

split_fields = st.sampled_from(
    [field_spec(7), field_spec(3, 2), field_spec(2, 4), field_spec(2, 8), field_spec(2, 16)]
)


def _member(spec, d, b, rng):
    """g(b) for a random nonzero g of degree < d: a unit of the field F_q[b]."""
    while True:
        g = FqPoly(spec, [rng.randrange(spec.q) for _ in range(d)])
        if not g.is_zero():
            return g.eval_matrix(b)


def _split_source(spec, d, source, rng):
    """A matrix from `source` and the verdict its powers from q^d - 1 on
    carry: keygen's conjugator and an undecided matrix with irreducible chi
    ("chain", certified by mat_pow) reach _FIELD; a key's own B_r and a
    unit of F_q[B] reach _IN_A_FIELD by a hand-on, by the commutation test
    or, for the "read" ones, through the key's coordinate reader; a
    diagonal matrix with distinct eigenvalues and a monomial one with
    reducible chi fail the certificate, and another diagonal matrix, which
    the first hands nothing on, as F_q[B] is no field, fails its own."""
    if source == "diagonal member":
        b, _ = _split_source(spec, d, "diagonal", rng)
        mat_pow(b, spec.q**d - 1)  # decides b's verdict, False
        x = diagonal_matrix([spec.random_nonzero(rng) for _ in range(d)])
        _hand_on_verdict(b, x)
        assert x._split is None
        return x, False
    if source in ("diagonal", "monomial"):
        for _ in range(64 if source == "monomial" else 0):
            w = [spec.random_nonzero(rng) for _ in range(d)]
            x = mat_mul(diagonal_matrix(w), permutation_matrix(spec, Permutation.random(d, rng)))
            if not is_irreducible(char_poly(x)):
                return Matrix._from_vals(spec, x.vals), False
        return diagonal_matrix([spec.from_val(v) for v in rng.sample(range(1, spec.q), d)]), False
    if source == "chain":
        while True:
            b = random_gl(spec, d, rng)
            if is_irreducible(char_poly(b)):
                return Matrix._from_vals(spec, b.vals), matrix._FIELD
    pk, sk = keygen(MorParams(spec, d), rng)
    b = sk.conjugator
    if source == "keygen":
        return b, matrix._FIELD
    if source.startswith("read"):
        _hand_on_verdict(b, _member(spec, d, b, rng))  # the first hand-on builds no reader
    if source.endswith("B_r"):
        x = encrypt(pk, random_sl(spec, d, rng), rng).conjugator
    else:
        x = _member(spec, d, b, rng)
    _hand_on_verdict(b, x)
    assert (x._element is not None and x._element[0].matrix is b) == source.startswith("read")
    return x, matrix._IN_A_FIELD


def _det(x):
    chi = char_poly(x)
    return FieldElement(x.spec, chi.coeffs[0] if x.d % 2 == 0 else x.spec._neg_raw(chi.coeffs[0]))


def _exponent(kind, spec, d, rng):
    bound = spec.q**d - 1
    norm = bound // (spec.q - 1)
    top = spec.q ** (d * d)
    if kind == "uniform":
        return rng.randrange(top)
    if kind == "multiple":  # n = kN, 0 mod N
        return norm * rng.randrange(top // norm)
    if kind == "below":
        return rng.randrange(norm)
    return rng.randrange(norm, bound)  # a split without the reduction


@settings(max_examples=60, deadline=None)
@given(
    spec=split_fields,
    d=st.integers(2, 6),
    source=st.sampled_from(
        ("keygen", "member", "read member", "B_r", "read B_r", "chain", "diagonal", "monomial",
         "diagonal member")
    ),
    kinds=st.lists(st.sampled_from(("uniform", "multiple", "below", "between")), min_size=1,
                   max_size=4),
    seed=st.integers(0, 2**32),
)
def test_powers_split_at_the_norm_where_the_verdict_is_a_field(spec, d, source, kinds, seed):
    rng = random.Random(seed)
    x, verdict = _split_source(spec, d, source, rng)
    bound = spec.q**d - 1
    decided = x._split is not None
    for kind in kinds:
        n = _exponent(kind, spec, d, rng)
        with mock.patch.object(matrix, "_cayley_hamilton", wraps=matrix._cayley_hamilton) as ch:
            got = mat_pow(x, n)
        assert got == mat_pow_sqm(x, n)
        decided = decided or n >= bound
        assert x._split == (verdict if decided else None)
        k, s, route = mat_pow_plan(spec, d, n, x._split)
        # a split needs the field: never at a diagonal or monomial matrix
        # or at what commutes with one
        assert k == 0 or verdict in (matrix._FIELD, matrix._IN_A_FIELD)
        c = (_det(x) ** k).val if k else 1
        calls = [call.args[1:] for call in ch.call_args_list]
        assert calls == ([(s, c)] if route == "cayley-hamilton" else [])
        if route == "scalar":
            assert got == Matrix._from_vals(
                spec, tuple(tuple(c * (i == j) for j in range(d)) for i in range(d))
            )


@settings(max_examples=40, deadline=None)
@given(
    spec=split_fields,
    d=st.integers(2, 6),
    source=st.sampled_from(("keygen", "member", "read member", "read B_r")),
    shapes=st.lists(st.sampled_from(("random", "dense", "zero", "power of two")), min_size=3,
                    max_size=3),
    seed=st.integers(0, 2**32),
)
def test_cayley_hamilton_cost_bounds_the_split_route(spec, d, source, shapes, seed):
    # a power of two n in [N, q^d - 1) leaves a remainder s of about half
    # its bits set, and may price above the unsplit power; mat_pow then
    # keeps n, so the figure at n mod q^d - 1 bounds every route, the
    # split included, whose basis and coordinates the source varies
    rng = random.Random(seed)
    x, _ = _split_source(spec, d, source, rng)
    bound = spec.q**d - 1
    norm = bound // (spec.q - 1)
    for shape in shapes:
        k = rng.randrange(1, spec.q - 1)
        reduced = {
            "random": k * norm + rng.randrange(norm),
            "dense": k * norm + (1 << rng.randrange(1, norm.bit_length())) - 1,
            "zero": k * norm,
            "power of two": 1 << rng.randrange(norm.bit_length(), bound.bit_length()),
        }[shape]
        n = reduced + bound * rng.randrange(2**16)
        with mock.patch.object(matrix, "_cayley_hamilton", wraps=matrix._cayley_hamilton) as ch:
            got, count = _counted(mat_pow, x, n)
        assert got == mat_pow_sqm(x, reduced)
        _, s, route = mat_pow_plan(spec, d, n, x._split)
        assert [call.args[1] for call in ch.call_args_list] == [s] * (route == "cayley-hamilton")
        if route == "square-and-multiply":
            assert count == d**3 * (reduced.bit_length() + reduced.bit_count() - 2)
        else:
            assert count <= fqpoly.cayley_hamilton_cost(d, reduced, spec.p)


def test_a_singular_matrix_is_handed_no_verdict():
    # only a unit's order divides q^d - 1.  The zero matrix commutes with a
    # key's conjugator B: at B's first hand-on (the commutation test) and
    # at its third (B's reader, built at the second) it is refused.
    # diag(2, 3, 5) spans no field and fails the certificate, so it hands
    # nothing to the idempotent diag(1, 0, 0).  Each keeps its own
    # certificate's verdict.
    spec, d = GF7, 3
    bound = spec.q**d - 1
    _, sk = keygen(MorParams(spec, d), random.Random(3))
    b = sk.conjugator
    zeros = [Matrix._from_vals(spec, ((0,) * d,) * d) for _ in range(2)]
    member = _member(spec, d, b, random.Random(4))
    for x in (zeros[0], member, zeros[1]):
        _hand_on_verdict(b, x)
    diagonal = diagonal_matrix([spec.from_val(v) for v in (2, 3, 5)])
    mat_pow(diagonal, bound)
    assert diagonal._split is False
    idempotent = Matrix._from_vals(spec, ((1, 0, 0), (0, 0, 0), (0, 0, 0)))
    _hand_on_verdict(diagonal, idempotent)
    verdicts = [x._split for x in (*zeros, member, idempotent)]
    assert verdicts == [None, None, matrix._IN_A_FIELD, None]
    for x in (*zeros, idempotent):
        for n in (bound, bound + 5, 2 * bound + 1):
            assert mat_pow(x, n) == mat_pow_sqm(x, n)


@pytest.mark.parametrize("seed", range(4))
def test_each_algebra_keeps_its_own_schedule(seed):
    # B's second hand-on reads, building B's basis and reader, and the
    # basis then serves B's first power: (d - 1) d^2 after x^n mod chi_B,
    # not Horner's.  A power of B, recorded as r(B) and certified on its
    # own, hands its verdict on by the commutation test, 2 d^3, every
    # time, as it keeps no algebra of its own.
    spec, d, rng = GF7, 4, random.Random(seed)
    b = random_gl(spec, d, rng)
    while not _field_verdict(b):
        b = random_gl(spec, d, rng)
    _hand_on_verdict(b, _member(spec, d, b, rng))
    assert _counted(_hand_on_verdict, b, _member(spec, d, b, rng))[1] > d**3  # builds
    norm = (spec.q**d - 1) // (spec.q - 1)
    n = rng.randrange(d**3, norm)
    assert mat_pow_plan(spec, d, n, b._split)[2] == "cayley-hamilton"
    power, count = _counted(mat_pow, b, n)
    assert count == _counted(FqPoly.x(spec).pow_mod, n, char_poly(b))[1] + (d - 1) * d * d
    assert power == mat_pow_sqm(b, n) and power._element[0] is b._element[0]
    mat_pow(power, spec.q**d - 1)
    while power._split != matrix._FIELD:  # r(B) in a proper subfield: another power
        power = mat_pow(b, rng.randrange(d**3, norm))
        mat_pow(power, spec.q**d - 1)
    for _ in range(3):
        assert _counted(_hand_on_verdict, power, _member(spec, d, b, rng))[1] == 2 * d**3
