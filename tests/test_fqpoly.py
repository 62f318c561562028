import operator
import random

import pytest
from oracles import char_poly_cofactor

from morsl.field import FieldMismatchError, cost_counter, cost_reset, field_spec
from morsl.fqpoly import (
    FqPoly,
    char_poly,
    companion_matrix,
    factor_int,
    irreducible_factors,
    is_irreducible,
    mod_inverse,
    multiplicative_order,
    squarefree_part,
)
from morsl.matrix import diagonal_matrix, identity, random_gl, random_sl

GF5 = field_spec(5)
GF7 = field_spec(7)
GF4 = field_spec(2, 2)


def _random_monic(spec, deg, rng):
    coeffs = [rng.randrange(spec.q) for _ in range(deg)] + [1]
    return FqPoly(spec, coeffs)


def test_poly_ring_axioms():
    r = random.Random(1)
    for _ in range(100):
        a = _random_monic(GF5, r.randrange(5), r)
        b = _random_monic(GF5, r.randrange(5), r)
        c = _random_monic(GF5, r.randrange(5), r)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a


def test_divmod_round_trip():
    r = random.Random(2)
    for _ in range(100):
        a = _random_monic(GF7, r.randrange(1, 8), r)
        b = _random_monic(GF7, r.randrange(1, 5), r)
        q, rem = divmod(a, b)
        assert q * b + rem == a
        assert rem.degree() < b.degree()


def test_char_poly_of_identity():
    f = char_poly(identity(GF5, 4))
    x = FqPoly.x(GF5)
    xm1 = x - FqPoly.one(GF5)
    assert f == xm1 * xm1 * xm1 * xm1


def test_char_poly_of_diagonal():
    r = random.Random(3)
    w = [GF7.random_nonzero(r) for _ in range(4)]
    f = char_poly(diagonal_matrix(w))
    x = FqPoly.x(GF7)
    expected = FqPoly.one(GF7)
    for wi in w:
        expected = expected * (x - FqPoly(GF7, (wi.val,)))
    assert f == expected


def test_char_poly_of_companion_matrix_is_the_polynomial():
    r = random.Random(4)
    for spec in (GF5, GF7, GF4):
        for deg in range(1, 7):
            f = _random_monic(spec, deg, r)
            assert char_poly(companion_matrix(f)) == f


def test_char_poly_matches_cofactor_oracle():
    r = random.Random(5)
    for spec in (GF5, GF4):
        for d in (2, 3, 4):
            for _ in range(10):
                m = random_gl(spec, d, r)
                assert char_poly(m) == char_poly_cofactor(m)


def test_char_poly_similarity_invariant():
    r = random.Random(6)
    for _ in range(10):
        m = random_sl(GF7, 4, r)
        a = random_gl(GF7, 4, r)
        from morsl.matrix import conjugate

        assert char_poly(conjugate(m, a)) == char_poly(m)


def test_cayley_hamilton():
    r = random.Random(7)
    for d in (2, 3, 4):
        m = random_gl(GF5, d, r)
        f = char_poly(m)
        cost_reset()
        result = f.eval_matrix(m)
        # Horner from c_d*M + c_(d-1)*1: d^2 scalings, then d - 1 products
        assert cost_counter() == d * d + (d - 1) * d**3
        assert not any(x for row in result.vals for x in row)


def test_char_poly_is_cached_on_the_matrix():
    m = random_gl(GF7, 4, random.Random(9))
    f = char_poly(m)
    cost_reset()
    assert char_poly(m) is f
    assert cost_counter() == 0


def test_is_irreducible_small_scan():
    # oracle: quadratic or cubic f over GF(5) is irreducible iff it has no root
    for spec, deg in ((GF5, 2), (GF5, 3), (GF7, 2)):
        r = random.Random(deg)
        for _ in range(60):
            f = _random_monic(spec, deg, r)
            has_root = any(f(v).is_zero() for v in spec.elements())
            assert is_irreducible(f) == (not has_root)


def test_is_irreducible_known_cases():
    # x^2 + 1 over GF(7): -1 is not a square mod 7
    f = FqPoly(GF7, (1, 0, 1))
    assert is_irreducible(f)
    g = FqPoly(GF7, (6, 0, 1))  # x^2 - 1 = (x-1)(x+1)
    assert not is_irreducible(g)
    assert not is_irreducible(FqPoly.one(GF7))


def test_squarefree_part():
    x = FqPoly.x(GF5)
    one = FqPoly.one(GF5)
    f = (x - one) * (x - one) * x * x * x * (x + one)
    rad = squarefree_part(f)
    assert rad == ((x - one) * x * (x + one)).monic()
    # p-th power case: (x^2+x+1)^5 over GF(5)
    g = FqPoly(GF5, (1, 1, 1))
    gp = one
    for _ in range(5):
        gp = gp * g
    assert squarefree_part(gp) == g


def test_irreducible_factors_round_trip():
    r = random.Random(8)
    for spec in (GF5, GF4, field_spec(3)):
        for _ in range(15):
            f = _random_monic(spec, r.randrange(2, 7), r)
            facs = irreducible_factors(f)
            prod = FqPoly.one(spec)
            for g, mult in facs:
                assert is_irreducible(g)
                for _ in range(mult):
                    prod = prod * g
            assert prod == f.monic()


def test_factor_int():
    assert factor_int(1) == {}
    assert factor_int(2 * 2 * 3 * 2400) == {2: 7, 3: 2, 5: 2}
    n = (2**31 - 1) * 97
    assert factor_int(n) == {2**31 - 1: 1, 97: 1}


def test_multiplicative_order():
    spec = GF7
    g = spec.from_val(3)  # 3 generates GF(7)*
    order = multiplicative_order(lambda n: g**n, lambda x: x == spec.one(), 6)
    assert order == 6
    h = spec.from_val(2)  # 2 has order 3 mod 7
    assert multiplicative_order(lambda n: h**n, lambda x: x == spec.one(), 6) == 3



def test_coefficients_are_packed_ints():
    assert FqPoly(GF7, (3, 0, 5, 0, 0)).coeffs == (3, 0, 5)
    assert char_poly(identity(GF7, 2)).coeffs == (1, 5, 1)
    for bad in (GF7.one(), 7, -1, True):
        with pytest.raises(ValueError):
            FqPoly(GF7, (bad,))


# two fields of the same q under different moduli: the packed ints of one
# are valid ints of the other, so only the spec check tells them apart
SAME_Q = {
    "GF(2^4)": (field_spec(2, 4, (1, 1, 0, 0, 1)), field_spec(2, 4, (1, 0, 0, 1, 1))),
    "GF(3^2)": (field_spec(3, 2, (1, 0, 1)), field_spec(3, 2, (2, 1, 1))),
}
BINARY_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "divmod": divmod,
    "gcd": FqPoly.gcd,
    "pow_mod": lambda a, b: a.pow_mod(5, b),
    "mod_inverse": mod_inverse,
}


@pytest.mark.parametrize("op", sorted(BINARY_OPS))
@pytest.mark.parametrize("fields", sorted(SAME_Q))
def test_polynomials_over_different_moduli_do_not_mix(fields, op):
    s, t = SAME_Q[fields]
    assert s.q == t.q and s != t
    a, b = FqPoly(s, (1, 2, 3, 1)), FqPoly(t, (3, 2, 1))
    cost_reset()
    for left, right in ((a, b), (b, a)):
        with pytest.raises(FieldMismatchError):
            BINARY_OPS[op](left, right)
    assert cost_counter() == 0


@pytest.mark.parametrize("spec, coeffs, n, route", [
    (GF7, (3, 1, 0, 1), 5, None),
    (field_spec(2, 160), (1, 2, 3, 4, 5, 6, 7, 1), 5, "lanes"),
    (field_spec(2, 16), (3, 0, 1, 1), 2**16 + 5, "table"),
], ids=("generic", "binary", "table"))
def test_negative_exponents_are_refused(spec, coeffs, n, route, x_power_routes):
    routes = x_power_routes
    f, x = FqPoly(spec, coeffs), FqPoly.x(spec)
    bases = (x, FqPoly(spec, (2, 1))) if route is None else (x,)
    for base in bases:
        # the positive power takes the route; its negative once read as
        # another positive power (bin(-n) without the sign)
        base.pow_mod(n, f)
        assert [r[0] for r in routes] == ([route] if route else [])
        routes.clear()
        cost_reset()
        with pytest.raises(ValueError):
            base.pow_mod(-n, f)
        assert routes == [] and cost_counter() == 0
