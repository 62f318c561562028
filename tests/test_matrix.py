import random

import pytest
from oracles import random_sl_second_det

import morsl.matrix as matrix
from morsl.field import cost_counter, cost_reset, field_spec
from morsl.linalg import RowReducer, nullspace
from morsl.matrix import (
    Matrix,
    Permutation,
    SingularMatrixError,
    conjugate,
    det,
    diagonal_matrix,
    gl_order,
    identity,
    mat_inv,
    mat_mul,
    mat_pow,
    permutation_matrix,
    random_gl,
    random_sl,
    scalar_matrix,
    sl_order,
    transvection,
)

GF5 = field_spec(5)
GF7 = field_spec(7)
GF9 = field_spec(3, 2)


def test_mat_mul_identity():
    r = random.Random(1)
    x = random_gl(GF5, 3, r)
    assert mat_mul(x, identity(GF5, 3)) == x
    assert mat_mul(identity(GF5, 3), x) == x


def test_det_of_transposition_is_minus_one():
    alpha = Permutation([2, 1, 3])
    p = permutation_matrix(GF7, alpha)
    assert det(p) == -GF7.one()


def test_inverse_round_trip():
    r = random.Random(2)
    for _ in range(20):
        x = random_gl(GF5, 3, r)
        assert mat_mul(x, mat_inv(x)) == identity(GF5, 3)
        assert mat_mul(mat_inv(x), x) == identity(GF5, 3)


def test_singular_inverse_raises():
    z = GF5.zero()
    m = Matrix(GF5, [[z, z], [z, z]])
    with pytest.raises(SingularMatrixError):
        mat_inv(m)


def test_transvection_inverse_relation():
    r = random.Random(3)
    for _ in range(20):
        lam = GF7.random_nonzero(r)
        t = transvection(GF7, 4, 2, 3, lam)
        tinv = transvection(GF7, 4, 2, 3, -lam)
        assert mat_mul(t, tinv) == identity(GF7, 4)


def test_transvection_addition_relation():
    r = random.Random(4)
    for _ in range(20):
        lam, mu = GF7.random(r), GF7.random(r)
        prod = mat_mul(
            transvection(GF7, 3, 1, 3, lam), transvection(GF7, 3, 1, 3, mu)
        )
        assert prod == transvection(GF7, 3, 1, 3, lam + mu)


def test_transvection_commutator_relation():
    r = random.Random(5)
    one = GF7.one()
    for _ in range(20):
        lam, mu = GF7.random_nonzero(r), GF7.random_nonzero(r)
        a = transvection(GF7, 3, 1, 2, lam)
        b = transvection(GF7, 3, 2, 3, mu)
        comm = mat_mul(mat_mul(a, b), mat_mul(mat_inv(a), mat_inv(b)))
        assert comm == transvection(GF7, 3, 1, 3, lam * mu)


def test_transvection_power_relation_wraps_at_characteristic():
    lam = GF5.from_val(2)
    t = transvection(GF5, 3, 2, 1, lam)
    for k in range(2 * 5):
        expected = identity(GF5, 3) if (k * 2) % 5 == 0 else transvection(
            GF5, 3, 2, 1, GF5.scalar(k) * lam
        )
        assert mat_pow(t, k) == expected


def test_transvection_validation():
    with pytest.raises(ValueError):
        transvection(GF5, 3, 2, 2, GF5.one())
    with pytest.raises(ValueError):
        transvection(GF5, 3, 0, 2, GF5.one())
    with pytest.warns(UserWarning):
        t = transvection(GF5, 3, 1, 2, GF5.zero())
    assert t == identity(GF5, 3)


def test_permutation_matrix_basics():
    assert permutation_matrix(GF5, Permutation.identity(4)) == identity(GF5, 4)
    r = random.Random(6)
    for _ in range(20):
        alpha = Permutation.random(5, r)
        p = permutation_matrix(GF5, alpha)
        assert mat_mul(p.transpose(), p) == identity(GF5, 5)
        expected = GF5.one() if alpha.parity() == 1 else -GF5.one()
        assert det(p) == expected


def test_diagonal_matrix_rejects_zero():
    with pytest.raises(ValueError):
        diagonal_matrix([GF5.one(), GF5.zero()])


def test_conjugate_by_identity():
    r = random.Random(7)
    x = random_sl(GF5, 3, r)
    assert conjugate(x, identity(GF5, 3)) == x


def test_conjugate_transvection_by_permutation():
    r = random.Random(8)
    for _ in range(10):
        alpha = Permutation.random(4, r)
        beta = alpha.inverse()
        p = permutation_matrix(GF7, alpha)
        lam = GF7.random_nonzero(r)
        for i in range(1, 5):
            for j in range(1, 5):
                if i == j:
                    continue
                got = conjugate(transvection(GF7, 4, i, j, lam), p)
                assert got == transvection(GF7, 4, beta(i), beta(j), lam)


def test_conjugate_transvection_by_diagonal():
    r = random.Random(9)
    for _ in range(10):
        w = [GF7.random_nonzero(r) for _ in range(4)]
        dm = diagonal_matrix(w)
        lam = GF7.random_nonzero(r)
        for i in range(1, 5):
            for j in range(1, 5):
                if i == j:
                    continue
                got = conjugate(transvection(GF7, 4, i, j, lam), dm)
                assert got == transvection(
                    GF7, 4, i, j, w[i - 1].inv() * lam * w[j - 1]
                )


def test_conjugate_round_trip():
    r = random.Random(10)
    for _ in range(10):
        x = random_sl(GF9, 3, r)
        a = random_gl(GF9, 3, r)
        assert conjugate(conjugate(x, a), mat_inv(a)) == x


def test_det_multiplicative():
    r = random.Random(11)
    for _ in range(30):
        x, y = random_gl(GF7, 3, r), random_gl(GF7, 3, r)
        assert det(mat_mul(x, y)) == det(x) * det(y)


def test_random_sl_has_det_one():
    r = random.Random(12)
    for _ in range(20):
        assert random_sl(GF9, 3, r).is_sl()
        assert det(random_gl(GF9, 3, r))


class _CountingRandom(random.Random):
    calls = 0

    def randrange(self, *args):
        self.calls += 1
        return super().randrange(*args)


def test_random_sl_takes_one_det_per_draw(monkeypatch):
    dets = []
    real = matrix.det
    monkeypatch.setattr(matrix, "det", lambda x: dets.append(x) or real(x))
    # GF(2) rejects most draws, GF(2^16) almost none
    for spec, d in ((field_spec(2), 3), (GF5, 3), (GF9, 4), (field_spec(2, 16), 5)):
        for seed in range(10):
            rng = _CountingRandom(seed)
            dets.clear()
            m = random_sl(spec, d, rng)
            assert len(dets) == rng.calls // (d * d)
            assert m == random_sl_second_det(spec, d, random.Random(seed))
            assert m.is_sl()


def test_random_gl_over_gf2_lands_in_the_six_invertibles():
    gf2 = field_spec(2)
    # oracle: exhaustive enumeration of GL(2, 2)
    invertible = set()
    for bits in range(16):
        vals = [(bits >> k) & 1 for k in range(4)]
        m = Matrix(gf2, [[gf2.from_val(vals[0]), gf2.from_val(vals[1])],
                         [gf2.from_val(vals[2]), gf2.from_val(vals[3])]])
        if det(m):
            invertible.add(m)
    assert len(invertible) == gl_order(2, 2) == 6
    r = random.Random(13)
    for _ in range(30):
        assert random_gl(gf2, 2, r) in invertible


def test_mat_mul_cost_is_schoolbook_cubed():
    r = random.Random(14)
    for d in (2, 3, 4):
        x, y = random_gl(GF7, d, r), random_gl(GF7, d, r)
        cost_reset()
        mat_mul(x, y)
        assert cost_counter() == d**3


def test_mat_pow():
    r = random.Random(15)
    x = random_sl(GF7, 3, r)
    acc = identity(GF7, 3)
    for n in range(8):
        assert mat_pow(x, n) == acc
        acc = mat_mul(acc, x)
    assert mat_pow(x, -2) == mat_inv(mat_mul(x, x))


def test_matrix_serialization_round_trip():
    r = random.Random(16)
    x = random_gl(GF9, 3, r)
    obj = x.to_json()
    assert obj["d"] == 3
    assert Matrix.from_json(GF9, obj) == x


def test_permutation_helpers():
    alpha = Permutation([3, 1, 2, 4])
    assert alpha.order() == 3
    assert alpha.inverse().compose(alpha) == Permutation.identity(4)
    assert alpha.to_json() == [3, 1, 2, 4]
    with pytest.raises(ValueError):
        Permutation([1, 1, 2])


def test_group_orders():
    assert gl_order(2, 2) == 6
    assert sl_order(2, 3) == 24
    assert sl_order(3, 2) == gl_order(3, 2)


def test_scalar_matrix_commutes():
    r = random.Random(17)
    z = scalar_matrix(GF7, 3, GF7.from_val(4))
    x = random_gl(GF7, 3, r)
    assert mat_mul(z, x) == mat_mul(x, z)


def test_rowreducer_nullspace():
    # x + y = 0 over GF(5): nullspace spanned by (1, -1)
    spec = GF5
    rows = [[1, 1]]
    basis = nullspace(spec, rows, 2)
    assert len(basis) == 1
    v = basis[0]
    assert spec.from_val(v[0]) + spec.from_val(v[1]) == spec.zero()
    # the reducer's rows are packed ints too
    red = RowReducer(spec, 2)
    assert red.add_row(rows[0])
    assert not red.add_row([2, 2])
    assert red.rank == 1
