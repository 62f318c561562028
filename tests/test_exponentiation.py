"""The exponentiation engine against its oracles.

mat_pow picks Cayley-Hamilton or square-and-multiply from a predicted
multiplication count; FqPoly.pow_mod squares through the modulus's
squaring rows in characteristic 2, and raises x on raw ints over binary
fields without a multiplication table, squaring short residues through a
table cached on the modulus; is_irreducible, which is also a KeyField's
certificate, takes q-th powers through the Frobenius matrix.  KeyField
reduces the exponents of its matrices where that is exact.  Each is
checked for value against tests/oracles.py and, where it matters, for
its count.
"""

import contextlib
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
    pow_x_base_q_elementwise,
    pow_x_elementwise,
)

import morsl.fqpoly as fqpoly
from morsl.autos import Automorphism, recover_conjugator
from morsl.field import FieldElement, FieldSpec, cost_counter, cost_reset, field_spec
from morsl.fqpoly import FqPoly, char_poly, companion_matrix, is_irreducible
from morsl.matrix import (
    KeyField,
    Matrix,
    Permutation,
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
from morsl.protocol import MorParams, decrypt, encode_message, encrypt, keygen

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


def _oracle_counted(e, f):
    """pow_x_elementwise's value and count on f as the kernel finds it: the
    squaring rows' build is counted unless f keeps rows it built before."""
    return _counted(pow_x_elementwise, e, f, "squaring" in fqpoly._kept(f))


# gamma = 9 is the smallest binary field without a multiplication table
kernel_fields = st.builds(field_spec, st.just(2), st.sampled_from((9, 12, 16, 33, 160)))
# e just below, at and just above q, where the table route starts, or long
kernel_exponents = st.one_of(st.sampled_from((-1, 0, 1)), st.integers(2, 2**1200))


def _kernel_exponent(spec, e):
    """An exponent drawn from kernel_exponents: q + e for e in {-1, 0, 1}."""
    return spec.q + e if e in (-1, 0, 1) else e


@settings(max_examples=40)
@given(
    spec=kernel_fields,
    # zero coefficients, and the reducible f they allow, come often
    coeffs=st.lists(st.one_of(st.just(0), st.just(1), st.integers(0, 2**160)), min_size=2,
                    max_size=8),
    e=kernel_exponents,
)
def test_binary_kernel_matches_the_counting_oracle(spec, coeffs, e):
    e = _kernel_exponent(spec, e)
    # each route on a fresh f: the lanes whatever the residue's length, and
    # the table wherever e > q
    for cap in (0, 2**20):
        f = _monic(spec, coeffs)
        with mock.patch.object(fqpoly, "_SQUARE_TABLE_MAX_BYTES", cap):
            got = _counted(FqPoly.x(spec).pow_mod, e, f)
        assert got == _counted(pow_x_elementwise, e, f)
        assert ("square" in fqpoly._kept(f)) == (cap > 0 and e > spec.q)


def test_binary_kernel_paper_size_is_pinned():
    spec = field_spec(2, 160)
    rng = random.Random(7)
    f = char_poly(random_gl(spec, 7, rng))
    e = rng.getrandbits(1120)
    got, count = _counted(FqPoly.x(spec).pow_mod, e, f)
    assert (got, count) == _counted(pow_x_elementwise, e, f)
    # a squaring adds at most 3 squaring rows of 7 to the 7 coefficient
    # squarings, 28 where long division counted up to 7 + 6 * 7 = 49, after
    # the rows' build, 6 clears of 7: the route model's bound, 42 + 1116
    # squarings at 28 and 562 shifts at 7, is 35224 (58618 at 49)
    assert count == 35150 <= fqpoly._pow_mod_cost(e, 7, 2, by_x=True)


@settings(max_examples=60)
@given(
    gamma=st.sampled_from((1, 4, 8, 9, 16, 33)),
    n=st.integers(1, 9),
    kind=st.sampled_from(("x^n", "x^n+1", "sparse", "dense")),
    by_x=st.booleans(),
    seed=st.integers(0, 2**32),
    e=st.one_of(st.integers(1, 64), st.integers(1, 2**300)),
)
def test_pow_mod_cost_bounds_the_binary_count(gamma, n, kind, by_x, seed, e):
    # over table fields and lane fields alike, the rows' build included
    spec = field_spec(2, gamma)
    rng = random.Random(seed)
    coeffs = {
        "x^n": [0] * n,
        "x^n+1": [1] + [0] * (n - 1),
        "sparse": [rng.choice((0, 0, rng.randrange(spec.q))) for _ in range(n)],
        "dense": [rng.randrange(1, spec.q) for _ in range(n)],
    }[kind]
    f = _monic(spec, coeffs)
    base = FqPoly.x(spec) if by_x else FqPoly(spec, [rng.randrange(spec.q) for _ in range(n)])
    base = base % f
    got, count = _counted(base.pow_mod, e, f)
    assert got == pow_mod_sqm(base, e, f)
    assert count <= fqpoly._pow_mod_cost(e, n, 2, by_x=by_x and n >= 2)


# the base-q route's fields: the small preset's, a wider one, the paper's
base_q_fields = st.sampled_from((16, 32, 160))


@settings(max_examples=30)
@given(
    gamma=base_q_fields,
    n=st.integers(2, 7),
    seed=st.integers(0, 2**32),
    kept=st.sampled_from(("nothing", "x^q", "frobenius rows", "table")),
    cap=st.sampled_from((0, fqpoly._PRODUCT_TABLES_MAX_BYTES)),
)
def test_base_q_route_matches_the_counting_oracle(gamma, n, seed, kept, cap):
    # s below the norm (q^n - 1)/(q - 1), as a key field raises it, on an f
    # that keeps nothing, x^q, the Frobenius rows too, or a table for as
    # many digits as s has or fewer, which the route extends; with no byte
    # tables (cap 0) or under the cap, so both product kernels count
    with mock.patch.object(fqpoly, "_PRODUCT_TABLES_MAX_BYTES", cap):
        _base_q_route_against_the_oracle(gamma, n, seed, kept)


def _base_q_route_against_the_oracle(gamma, n, seed, kept):
    spec = field_spec(2, gamma)
    rng = random.Random(seed)
    q = spec.q
    f = _monic(spec, [rng.randrange(q) for _ in range(n)])
    s = rng.randrange(q, (q**n - 1) // (q - 1))
    k = len(fqpoly._base_q_digits(s, q))
    fqpoly._squaring_rows(f)  # built before either route
    if kept != "nothing":
        fqpoly._x_to_the_q(f)
    if kept == "frobenius rows":
        fqpoly._frobenius_rows(f)
    table = rng.randrange(2, k + 1) if kept == "table" else 0
    if table:
        fqpoly._base_q_table(f, table)
    for _ in range(2):
        want = _counted(pow_x_base_q_elementwise, s, f, True, kept != "nothing",
                        "rows" in fqpoly._kept(f), table)
        assert _counted(fqpoly._lane_power, s, f, True) == want
        assert want[0] == pow_x_elementwise(s, f)
        # the second time f keeps the whole table
        kept, table = "table", k


@settings(max_examples=30)
@given(
    gamma=st.sampled_from((16, 32)),
    n=st.integers(2, 7),
    seed=st.integers(0, 2**32),
    extend=st.booleans(),
)
def test_byte_table_products_match_the_lane_products(gamma, n, seed, extend):
    # the whole table for up to n digits, built at once or extended from
    # fewer; at GF(2^16), n <= 5, and GF(2^32), n <= 4, every entry keeps
    # its byte table, above those some entries are over the cap
    spec = field_spec(2, gamma)
    rng = random.Random(seed)
    q, nb = spec.q, (gamma + 7) // 8
    f = _monic(spec, [rng.randrange(q) for _ in range(n)])
    k = rng.randrange(1, n + 1)
    if extend and k > 1:
        fqpoly._base_q_table(f, rng.randrange(1, k))
    table = fqpoly._base_q_table(f, k)
    size = 256 * n * nb * (n * nb + 36)
    spans = [entry[2] is not None for entry in table[1:]]
    # entries keep their byte tables in build order, up to the cap
    assert spans == [i < fqpoly._PRODUCT_TABLES_MAX_BYTES // size for i in range(len(spans))]
    x = FqPoly.x(spec)
    conjugates = [pow_mod_sqm(x, q**i, f) for i in range(k)]
    for s in range(1, 1 << k):
        t = FqPoly(spec, table[s][0])
        want = FqPoly.one(spec)
        for i in range(k):
            if s >> i & 1:
                want = want * conjugates[i] % f
        assert t == want
        rows = [(*(x.pow_mod(j, f) * t % f).coeffs,) for j in range(n)]
        rows = tuple((*row, *(0,) * (n - len(row))) for row in rows)
        r = tuple(rng.randrange(q) for _ in range(n))
        want = spec._mul_prepared_raw((r,), spec._prepare_raw(rows))[0]
        got = fqpoly._times_entry(spec, table[s], fqpoly._pack(r, nb), n)
        assert fqpoly._lanes(got, n, nb) == list(want)


@settings(max_examples=30)
@given(
    gamma=base_q_fields,
    n=st.integers(2, 7),
    seed=st.integers(0, 2**32),
    kept=st.sampled_from(("nothing", "certificate", "table")),
)
def test_base_q_route_is_taken_only_below_the_binary_route(gamma, n, seed, kept):
    # a power as a KeyField raises it, on an f that keeps nothing, what its
    # irreducibility test keeps (x^q and the Frobenius rows), or a table
    spec = field_spec(2, gamma)
    rng = random.Random(seed)
    q = spec.q
    f = _monic(spec, [rng.randrange(q) for _ in range(n)])
    s = rng.randrange(q, (q**n - 1) // (q - 1))
    fqpoly._squaring_rows(f)
    if kept == "certificate":
        is_irreducible(f)
    elif kept == "table":
        fqpoly._base_q_table(f, rng.randrange(2, len(fqpoly._base_q_digits(s, q)) + 1))
    binary, loop, build = fqpoly._pow_x_costs(s, f)
    binary_route = _counted(fqpoly._lane_power, s, _twin(f), False)
    got, count = _counted(_kept_power, s, f)
    assert got == binary_route[0]
    # the base-q route runs, its table then kept, exactly below the binary
    # route's prediction, and counts no more than its own, nor than the
    # binary route counts on the same f
    assert bool(fqpoly._kept(f)["table"]) == (kept == "table" or loop + build < binary)
    assert count <= min(binary, loop + build)
    assert count <= binary_route[1]


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
    # the cap: 112 bytes take the table, 114 and the paper preset's 140 do not
    routes.clear()
    for gamma, n in ((128, 7), (152, 6), (160, 7)):
        wide = field_spec(2, gamma)
        g = _monic(wide, range(1, n + 1))
        assert FqPoly.x(wide).pow_mod(wide.q + 1, g) == pow_x_elementwise(wide.q + 1, g)
    assert routes == [
        ("table", field_spec(2, 128), 7),
        ("lanes", field_spec(2, 152), 6),
        ("lanes", field_spec(2, 160), 7),
    ]


# (gamma, deg f) for residues of 30, 32 and 33 bytes, well below the cap,
# and of 110, 112 and 114 bytes, around it; a residue of n >= 2 lanes of
# ceil(gamma/8) >= 2 bytes cannot take 113, which is prime
@pytest.mark.parametrize("gamma, n", [
    (80, 3), (128, 2), (32, 8), (88, 3), (24, 11),
    (88, 10), (128, 7), (64, 14), (152, 6), (456, 2),
])
def test_table_cap_at_e_q_and_q_plus_1(gamma, n, x_power_routes):
    spec = field_spec(2, gamma)
    f = _monic(spec, range(1, n + 1))
    for e in (spec.q, spec.q + 1):
        assert _oracle_counted(e, f) == _counted(FqPoly.x(spec).pow_mod, e, f)
    # only e > q on a residue of at most 112 bytes asks for the table
    short = n * ((gamma + 7) // 8) <= fqpoly._SQUARE_TABLE_MAX_BYTES
    assert x_power_routes == [("lanes", spec, n), ("table" if short else "lanes", spec, n)]
    assert ("square" in fqpoly._kept(f)) == short


def _dense_modulus_field(gamma, seed):
    """GF(2^gamma) under a random irreducible modulus with about gamma/2 terms."""
    rng = random.Random(seed)
    while True:
        try:
            return FieldSpec(2, gamma, (1, *(rng.getrandbits(1) for _ in range(gamma - 1)), 1))
        except ValueError:  # reducible
            pass


def _kind_coeffs(kind, spec, n, rng):
    return {
        "x^n": [0] * n,
        "x^n+1": [1] + [0] * (n - 1),
        "sparse": [rng.choice((0, rng.randrange(spec.q))) for _ in range(n)],
        "dense": [rng.randrange(1, spec.q) for _ in range(n)],
    }[kind]


@pytest.mark.parametrize("gamma", (9, 10, 16, 17, 33, 64))
@settings(max_examples=20)
@given(
    dense=st.booleans(),
    seed=st.integers(0, 2**32),
    n=st.integers(2, 8),
    # x^n, x^n + 1 and sparse random f give zero lanes in residues and rows
    kind=st.sampled_from(("x^n", "x^n+1", "sparse", "dense")),
    e=kernel_exponents,
)
def test_table_route_matches_the_counting_oracle(gamma, dense, seed, n, kind, e):
    spec = _dense_modulus_field(gamma, seed) if dense else field_spec(2, gamma)
    rng = random.Random(seed)
    f = _monic(spec, _kind_coeffs(kind, spec, n, rng))
    short = n * ((gamma + 7) // 8) <= fqpoly._SQUARE_TABLE_MAX_BYTES
    table = None
    # several exponents through one f, from e just below q up: the rows are
    # built once, at the first, and the table at the first e > q
    for e in (_kernel_exponent(spec, e), *(spec.q + 1 + rng.getrandbits(rng.randrange(1, 401))
                                     for _ in range(2))):
        assert _oracle_counted(e, f) == _counted(FqPoly.x(spec).pow_mod, e, f)
        kept = fqpoly._kept(f)
        assert "squaring" in kept
        if short and e > spec.q:
            assert "square" in kept and table in (None, kept["square"])
            table = kept["square"]
        else:
            assert kept.get("square") is table
    if short:
        # n lanes per entry, n*ceil(gamma/8) rows of 256 entries; the rows of
        # the lanes below ceil(n/2) are the field's, the same objects for
        # every modulus of the field, and lane 0's are its squaring rows
        rows, clear = table, fqpoly._kept(f)["clear"]
        nb, lane, h = len(clear), 8 * len(clear), (n + 1) // 2
        assert len(rows) == n * nb and all(len(row) == 256 for row in rows + clear)
        assert max(v.bit_length() for row in rows for v in row) <= n * lane
        other = _monic(spec, [rng.randrange(1, spec.q) for _ in range(n)])
        FqPoly.x(spec).pow_mod(spec.q + 1, other)
        assert all(a is b for a, b in zip(rows[:h * nb], fqpoly._kept(other)["square"][:h * nb]))
        assert all(a is b for a, b in zip(rows[:nb], spec._square_rows()))


def test_squaring_table_is_built_on_first_use():
    spec = FieldSpec(2, 33)
    assert spec._sq_table is None
    f = _monic(spec, (3, 0, 1))
    assert _oracle_counted(99, f) == _counted(FqPoly.x(spec).pow_mod, 99, f)
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
    # every coefficient squaring goes through the counted multiply; chi's
    # squaring rows take at most 15 per squaring where division took up
    # to 25, after their build, at most 20: 2,629 -> 1,879
    engine, oracle = _mat_pow_counts(field_spec(2, 16), 5, 80, seed=2)
    assert (engine, oracle) == (1879, 14250)




@contextlib.contextmanager
def _remainders():
    """What the powers raised in the block compute modulo chi: ("pow", s)
    for each x^s mod chi, ("scale", c) for each remainder scaled by c,
    leaving out the powers and gcds of a certificate (is_irreducible)."""
    raised, certifying = [], []
    real_pow, real_scale, real_test = FqPoly.pow_mod, FqPoly.scale, fqpoly.is_irreducible

    def pow_mod(self, e, f):
        if not certifying:
            raised.append(("pow", e))
        return real_pow(self, e, f)

    def scale(self, c):
        if not certifying:
            raised.append(("scale", c))
        return real_scale(self, c)

    def is_irreducible(f):
        certifying.append(f)
        try:
            return real_test(f)
        finally:
            certifying.pop()

    with (
        mock.patch.object(FqPoly, "pow_mod", pow_mod),
        mock.patch.object(FqPoly, "scale", scale),
        mock.patch.object(fqpoly, "is_irreducible", is_irreducible),
    ):
        yield raised


def _remainder_plan(k, s, c, route):
    """_remainders' record of a power that mat_pow_plan routes so."""
    if route != "cayley-hamilton":
        return []
    return [("pow", s)] + ([("scale", c)] if k and c != 1 else [])


@pytest.mark.parametrize("degrees", [(4,), (2, 2), (6,), (3, 3), (2, 2, 2), (1, 2, 3)])
def test_certificate_level_needs_every_prime_of_d(degrees):
    # over GF(7): a product of distinct irreducible factors whose degrees
    # divide d = sum(degrees) divides x^(q^d) - x, as an irreducible chi
    # does; the certificate's gcds with x^(q^k) - x, k <= d/2, find its
    # least factor, at k = d/l for a prime l of d when every factor is
    # long (k = 3 = 6/2 for (3, 3), k = 2 = 6/3 for (2, 2, 2)), so only
    # the irreducible chi gives a field and a reduced exponent
    rng = random.Random(sum(degrees))
    f, d = FqPoly.one(GF7), sum(degrees)
    for n in degrees:
        g = _monic(GF7, [rng.randrange(7) for _ in range(n)])
        while not is_irreducible(g) or not f.gcd(g).is_one():
            g = _monic(GF7, [rng.randrange(7) for _ in range(n)])
        f = f * g
    b = conjugate(companion_matrix(f), random_gl(GF7, d, rng))
    e = (7**d - 1) * rng.randrange(1, 2**16) + rng.randrange(7**d - 1)
    field = KeyField(b)
    assert field.power(e) == mat_pow_sqm(b, e) == mat_pow(b, e)
    assert field._certificate is (len(degrees) == 1)


def test_certificate_rejects_repeated_eigenvalue():
    t = transvection(GF7, 3, 1, 2, GF7.from_val(3))
    assert not is_irreducible(char_poly(t))
    e = (7**3 - 1) * 2**100 + 1
    # reducing e mod 7^3 - 1 would change the power of this order-7 matrix
    assert mat_pow_sqm(t, e % (7**3 - 1)) != mat_pow_sqm(t, e)
    field = KeyField(t)
    assert field.power(e) == mat_pow(t, e) == mat_pow_sqm(t, e)
    assert field._certificate is False


def test_keygen_without_irreducible_lift_uses_the_certificate(monkeypatch):
    # the key's field prices its route on the exponent it raises to,
    # reduced or not
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
            assert sk.field._certificate is True
            assert exponents[-2:] == [reduced, max(reduced % 57, 1)]
        else:
            assert sk.field._certificate is False and exponents[-1] == sk.m
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
    # a KeyField's certificate holds exactly when chi(0) != 0 and chi is
    # irreducible: a chi that splits or repeats a root keeps the full
    # exponent, as does the 1 x 1 zero matrix, whose chi = t is
    # irreducible.  It is decided once, by one test, at the first power
    # from q^d - 1 on, and the powers equal the oracle's below, at and
    # above the bound; mat_pow decides nothing
    rng = random.Random(seed)
    b = _with_eigenvalues(spec, d, kind, rng)
    field = KeyField(b)
    bound = spec.q**d - 1
    exponents = (bound // (spec.q - 1), bound, bound + 1, rng.randrange(spec.q ** (d * d)))
    with mock.patch.object(fqpoly, "is_irreducible", wraps=is_irreducible) as test:
        for n in exponents:
            assert field.power(n) == mat_pow_sqm(b, n)
        certified = test.call_count
        mat_pow(b, exponents[-1])
    chi = char_poly(b)
    in_a_field = bool(chi.coeffs[0]) and is_irreducible(chi)
    assert field._certificate is in_a_field
    assert certified == test.call_count == bool(chi.coeffs[0])
    if kind == "zero" or (d > 1 and kind != "gl"):
        assert field._certificate is False
    if in_a_field:
        assert mat_pow_sqm(b, bound) == identity(spec, d)


def test_mat_pow_below_the_bound_decides_no_certificate():
    b = random_gl(GF7, 3, random.Random(5))
    field = KeyField(b)
    with mock.patch.object(fqpoly, "is_irreducible") as test:
        assert field.power(7**3 - 2) == mat_pow_sqm(b, 7**3 - 2)
        # mat_pow never certifies, whatever the exponent
        assert mat_pow(b, 7**9) == mat_pow_sqm(b, 7**9)
    assert test.call_count == 0 and field._certificate is None


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


def _twin(f):
    """A copy of the monic f that keeps what f keeps, a copy of its store:
    its squaring rows, lanes, clearing and squaring tables, x^q, its
    Frobenius rows and, as a list of its own, its base-q table."""
    g = FqPoly._from_vals(f.spec, f.coeffs)
    kept = fqpoly._kept(g)
    kept.update(fqpoly._kept(f))
    if kept.get("table"):
        kept["table"] = list(kept["table"])
    return g


def _kept_power(s, f):
    """x^s mod f as a KeyField raises it: f keeps its base-q table first
    where that route, the table's build included, is predicted cheaper."""
    fqpoly.keep_base_q_table(f, s)
    return FqPoly.x(f.spec).pow_mod(s, f)


def _evaluation_count(d, r, k):
    """A KeyField's count for evaluating the remainder r at its d x d B,
    as B's k-th evaluation: Horner's for the first, the power basis's
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
    field = KeyField(b)
    if verdict:
        assert field.certificate
    chi, bound, evaluations = char_poly(b), spec.q**d - 1, 0
    det = FieldElement(spec, chi.coeffs[0] if d % 2 == 0 else spec._neg_raw(chi.coeffs[0]))
    for large in big:
        # without a certificate, an exponent from q^d - 1 on would decide one
        n = rng.randrange(2, bound) + (bound * rng.randrange(1, 2**16) if large and verdict else 0)
        reduced = n % bound if verdict else n
        # a certified b has irreducible chi: its powers may split at the norm
        k, s, route = mat_pow_plan(spec, d, n, verdict)
        want = k and k.bit_length() + k.bit_count() - 2
        if route == "cayley-hamilton":
            # on a twin of chi, so that chi keeps only what the KeyField builds
            r, count = _counted(_kept_power, s, _twin(chi))
            scaled = (det**k).val != 1 if k else False
            evaluations += 1
            want += count + scaled * len(r.coeffs) + _evaluation_count(d, r, evaluations)
        elif route == "square-and-multiply":
            want = d**3 * (s.bit_length() + s.bit_count() - 2)
        got, count = _counted(field.power, n)
        assert got == mat_pow_sqm(b, reduced)
        assert count == want
        # every route, the split included, keeps within Cayley-Hamilton's figure at n
        assert route == "square-and-multiply" or count <= fqpoly.cayley_hamilton_cost(
            d, reduced, spec.p
        )
        # no algebra before the second evaluation, then B's basis
        assert (field._algebra is not None) == (evaluations >= 2)
        assert evaluations < 2 or field._algebra._basis is not None


@settings(max_examples=30)
@given(
    gamma=st.sampled_from((8, 16, 32)),
    d=st.integers(2, 7),
    seed=st.integers(0, 2**32),
    before=st.sampled_from(("nothing", "certificate", "power")),
)
def test_serve_keeps_a_table_at_its_second_call_where_the_loop_pays(gamma, d, seed, before):
    # B's chi keeps nothing, what its certificate keeps (x^q and the
    # Frobenius rows), or what a first power decided; the step keeps the
    # table for d - 1 digits at its second call, exactly where the loop at
    # q^(d - 1) - 1 is predicted below the binary route, and counts no more
    # than the build predicted; its other calls build nothing
    spec = field_spec(2, gamma)
    rng = random.Random(seed)
    q = spec.q
    b = random_gl(spec, d, rng)
    field, chi = KeyField(b), char_poly(b)
    if before == "certificate":
        field.certificate
    elif before == "power":
        field.power(rng.randrange(2, spec.q**d - 1))
    if gamma > 8:
        fqpoly._squaring_rows(chi)  # read by the prediction
    kept = dict(fqpoly._kept(chi))
    assert _counted(field.serve)[1] == 0
    assert fqpoly._kept(chi) == kept
    e = q ** (d - 1) - 1
    priced = gamma > 8 and e >= q
    binary, loop, build = fqpoly._pow_x_costs(e, _twin(chi)) if priced else (0, 0, 0)
    pays = loop < binary
    count = _counted(field.serve)[1]
    table = fqpoly._kept(chi).get("table")
    assert bool(table) == (pays or bool(kept.get("table")))
    assert count <= (build if pays else 0)
    if pays:
        assert len(table) >= 1 << d - 1
    kept = dict(fqpoly._kept(chi))
    assert _counted(field.serve)[1] == 0
    assert fqpoly._kept(chi) == kept


def test_a_small_preset_session_takes_the_base_q_route_from_its_second_message(monkeypatch):
    # keygen key seed 1: the first message's two encrypt powers take the
    # binary route, and from the second message on, where both fields keep
    # their tables, the base-q route.  Every power, decrypt's included,
    # keeps within cayley_hamilton_cost: the tables are built outside the
    # powers, and so is K_phi's certificate, decided when encrypt's first
    # serve builds field_m
    params = MorParams(field_spec(2, 16), 5)
    spec, d = params.spec, params.d
    rng = random.Random(1)
    pk, sk = keygen(params, rng)
    msg = encode_message(b"h", params)
    real_power, real_lanes = KeyField._power, fqpoly._lane_power
    inside, routes, counts = [], [], []

    def power(self, x, g, n):
        inside.append(True)
        c0 = cost_counter()
        try:
            return real_power(self, x, g, n)
        finally:
            inside.pop()
            counts.append((n % (spec.q**d - 1), cost_counter() - c0))

    def lane_power(e, f, base_q):
        if inside:
            routes.append(base_q)
        return real_lanes(e, f, base_q)

    monkeypatch.setattr(KeyField, "_power", power)
    monkeypatch.setattr(fqpoly, "_lane_power", lane_power)
    for message in range(4):
        routes.clear()
        counts.clear()
        ct = encrypt(pk, msg, rng)
        assert routes == [message > 0] * 2
        assert decrypt(sk, ct) == msg
        assert len(counts) == 3
        for n, count in counts:
            assert count <= fqpoly.cayley_hamilton_cost(d, n, spec.p)


def test_automorphism_power_near_the_exponent_bound_matches_compose():
    # the toy preset, d = 3 over GF(7): exponents reach q^(d^2) = 7^9
    params = MorParams(GF7, 3)
    for seed in range(2):
        pk, _sk = keygen(params, random.Random(seed))
        for m in (7**9 - 2, 7**9 - 1, 7**9, 7**9 + 5):
            assert pk.phi.power(m) == compose_power(pk.phi, m)
        # the recovered B has irreducible chi, so its exponents were reduced
        assert KeyField(recover_conjugator(pk.phi)).certificate is True


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
    """A matrix x from `source`, raised as x^n = field._power(x, g, n), and
    whether it is a unit of a field GF(q^d) once known: keygen's conjugator
    (its key's field) and an undecided matrix with irreducible chi
    ("chain", certified at its first power from q^d - 1 on) are; so are a
    key's own B_r and a unit of F_q[B], handed the key's certificate by
    the commutation test (KeyField.member) or, for the "read" ones, read
    in K_B and raised there (g, their coordinates, as decrypt does from
    its second message on).  A diagonal matrix with distinct eigenvalues
    and a monomial one with reducible chi fail their certificates, and
    another diagonal matrix, which the first hands nothing on, as F_q[B]
    is no field, fails its own."""
    if source == "diagonal member":
        b, _, _, _ = _split_source(spec, d, "diagonal", rng)
        diagonal = KeyField(b)
        diagonal.power(spec.q**d - 1)  # decides b's certificate, False
        x = diagonal_matrix([spec.random_nonzero(rng) for _ in range(d)])
        field = diagonal.member(x)
        assert field._member is False and field._certificate is None
        return x, field, None, False
    if source in ("diagonal", "monomial"):
        for _ in range(64 if source == "monomial" else 0):
            w = [spec.random_nonzero(rng) for _ in range(d)]
            x = mat_mul(diagonal_matrix(w), permutation_matrix(spec, Permutation.random(d, rng)))
            if not is_irreducible(char_poly(x)):
                x = Matrix._from_vals(spec, x.vals)
                return x, KeyField(x), None, False
        x = diagonal_matrix([spec.from_val(v) for v in rng.sample(range(1, spec.q), d)])
        return x, KeyField(x), None, False
    if source == "chain":
        while True:
            b = random_gl(spec, d, rng)
            if is_irreducible(char_poly(b)):
                x = Matrix._from_vals(spec, b.vals)
                return x, KeyField(x), None, True
    pk, sk = keygen(MorParams(spec, d), rng)
    key_field = sk.field
    if source == "keygen":
        return key_field.b, key_field, None, True
    if source.startswith("read"):
        key_field.member(_member(spec, d, key_field.b, rng))  # the first test reads nothing
    if source.endswith("B_r"):
        x = encrypt(pk, random_sl(spec, d, rng), rng).conjugator
    else:
        x = _member(spec, d, key_field.b, rng)
    if source.startswith("read"):
        g = key_field._test(x)
        assert isinstance(g, tuple) and key_field._quotient().eval(g) == x
        return x, key_field, g, True
    field = key_field.member(x)
    assert field._member is True
    return x, field, None, True


def _known_unit(field, g):
    return g is not None or field._member or field._certificate is True


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
    x, field, g, unit = _split_source(spec, d, source, rng)
    bound = spec.q**d - 1
    known, decided = _known_unit(field, g), field._certificate is not None
    for kind in kinds:
        n = _exponent(kind, spec, d, rng)
        with _remainders() as raised:
            got = field._power(x, g, n)[0]
        assert got == mat_pow_sqm(x, n)
        # a certificate is decided at the first power from q^d - 1 on
        decided = decided or n >= bound
        known = known or (unit and n >= bound)
        assert _known_unit(field, g) == known
        if g is None and not field._member:
            assert field._certificate is (unit if decided else None)
        k, s, route = mat_pow_plan(spec, d, n, known)
        # a split needs the field: never at a diagonal or monomial matrix
        # or at what commutes with one
        assert k == 0 or unit
        c = (_det(x) ** k).val if k else 1
        assert raised == _remainder_plan(k, s, c, route)
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
    # its bits set, and may price above the unsplit power; the field then
    # keeps n, so the figure at n mod q^d - 1 bounds every route, the
    # split included, whose basis and coordinates the source varies
    rng = random.Random(seed)
    x, field, g, _ = _split_source(spec, d, source, rng)
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
        with _remainders() as raised:
            (got, _), count = _counted(field._power, x, g, n)
        assert got == mat_pow_sqm(x, reduced)
        k, s, route = mat_pow_plan(spec, d, n, True)
        assert [e for kind, e in raised if kind == "pow"] == [s] * (route == "cayley-hamilton")
        if route == "square-and-multiply":
            assert count == d**3 * (reduced.bit_length() + reduced.bit_count() - 2)
        else:
            assert count <= fqpoly.cayley_hamilton_cost(d, reduced, spec.p)


def test_a_singular_matrix_is_handed_no_verdict():
    # only a unit's order divides q^d - 1.  The zero matrix commutes with a
    # key's conjugator B: before B's first membership test (the
    # commutation test) and after it it is refused, at no cost.
    # diag(2, 3, 5) spans no field and fails the certificate, so it hands
    # nothing to the idempotent diag(1, 0, 0).  Each keeps its own
    # certificate, which fails.
    spec, d = GF7, 3
    bound = spec.q**d - 1
    _, sk = keygen(MorParams(spec, d), random.Random(3))
    zeros = [Matrix._from_vals(spec, ((0,) * d,) * d) for _ in range(2)]
    member = _member(spec, d, sk.conjugator, random.Random(4))
    fields = [_counted(sk.field.member, x) for x in (zeros[0], member, zeros[1])]
    assert [count for _, count in fields] == [0, 2 * d**3, 0]
    diagonal = KeyField(diagonal_matrix([spec.from_val(v) for v in (2, 3, 5)]))
    diagonal.power(bound)
    assert diagonal._certificate is False
    idempotent = Matrix._from_vals(spec, ((1, 0, 0), (0, 0, 0), (0, 0, 0)))
    fields = [f for f, _ in fields] + [diagonal.member(idempotent)]
    assert [f._member for f in fields] == [False, True, False, False]
    for field in (fields[0], fields[2], fields[3]):
        for n in (bound, bound + 5, 2 * bound + 1):
            assert field.power(n) == mat_pow_sqm(field.b, n)
        assert field._certificate is False


@pytest.mark.parametrize("seed", range(4))
def test_each_algebra_keeps_its_own_schedule(seed):
    # B's second membership test reads, building B's basis and reader,
    # and the basis then serves B's first power: (d - 1) d^2 after x^n mod
    # chi_B, not Horner's.  A power of B in a KeyField of its own, certified
    # on its own, starts its own schedule: the commutation test, 2 d^3,
    # then a read that builds its reader, then reads at d^3.
    spec, d, rng = GF7, 4, random.Random(seed)
    b = random_gl(spec, d, rng)
    while not KeyField(b).certificate:
        b = random_gl(spec, d, rng)
    field = KeyField(b)
    assert field.member(_member(spec, d, b, rng))._member
    assert _counted(field.member, _member(spec, d, b, rng))[1] > d**3  # builds
    norm = (spec.q**d - 1) // (spec.q - 1)
    n = rng.randrange(d**3, norm)
    assert mat_pow_plan(spec, d, n, True)[2] == "cayley-hamilton"
    (power, h), count = _counted(field._power, b, None, n)
    assert count == _counted(FqPoly.x(spec).pow_mod, n, char_poly(b))[1] + (d - 1) * d * d
    assert power == mat_pow_sqm(b, n) == field._quotient().eval(h)
    own = KeyField(power)
    while not own.certificate:  # r(B) in a proper subfield: another power
        own = KeyField(field.power(rng.randrange(d**3, norm)))
    counts = [_counted(own.member, _member(spec, d, b, rng)) for _ in range(3)]
    assert all(member._member for member, _ in counts)
    tested, built, read = (count for _, count in counts)
    assert (tested, read) == (2 * d**3, d**3) and built > d**3
