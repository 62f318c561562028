"""Packed-int kernels against their FieldElement loops.

Every kernel that runs on Matrix.vals is checked against the loop it
replaced, kept in tests/oracles.py.  Both must give the same matrix,
vector, factor, None or exception, and add the same number to
cost_counter().  The fields cover each raw arithmetic: GF(7) (prime),
GF(3^4) and GF(2^4) (tables), GF(2^16) and GF(2^160) (byte-stride binary
multiply).  Inputs draw zeros with a share up to one half and include
singular matrices and rank-deficient rows, so every zero-skip branch and
every early exit runs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    RowReducerElementwise,
    apply_elementwise,
    conjugator_from_rank1_elementwise,
    det_elementwise,
    dot_elementwise,
    eval_matrix_elementwise,
    factor_rank1_elementwise,
    factors_as_elements,
    from_conjugator_elementwise,
    mat_inv_elementwise,
    mat_mul_elementwise,
    nullspace_elementwise,
    scaled_elementwise,
    solve_elementwise,
)

from morsl.autos import (
    Automorphism,
    InvalidAutomorphismError,
    _conjugator_from_rank1,
    _dot,
    _factor_rank1,
    _scaled,
)
from morsl.field import FieldElement, cost_counter, field_spec
from morsl.fqpoly import FqPoly
from morsl.linalg import RowReducer, nullspace, solve
from morsl.matrix import Matrix, SingularMatrixError, det, mat_inv, mat_mul, random_gl, random_sl
from morsl.protocol import MorParams, decrypt, encode_message, encrypt, keygen

PROPERTY = settings(max_examples=40)

FIELDS = (field_spec(7), field_spec(3, 4), field_spec(2, 4), field_spec(2, 16), field_spec(2, 160))
fields = st.sampled_from(FIELDS)
seeds = st.integers(0, 2**32)
zero_shares = st.sampled_from((0.0, 0.2, 0.5))
SHAPES = ("full", "zero row", "zero column", "repeated row")


def _run(fn, *args):
    """(result or exception type, multiplications counted)."""
    c0 = cost_counter()
    try:
        out = fn(*args)
    except (SingularMatrixError, InvalidAutomorphismError) as exc:
        out = type(exc)
    return out, cost_counter() - c0


def _entries(spec, n, rng, zero_share):
    return [0 if rng.random() < zero_share else rng.randrange(spec.q) for _ in range(n)]


def _matrix(spec, d, rng, zero_share, shape="full"):
    rows = [_entries(spec, d, rng, zero_share) for _ in range(d)]
    if shape == "zero row":
        rows[rng.randrange(d)] = [0] * d
    elif shape == "zero column":
        c = rng.randrange(d)
        for r in rows:
            r[c] = 0
    elif shape == "repeated row" and d > 1:
        rows[rng.randrange(1, d)] = list(rows[0])
    return Matrix._from_vals(spec, tuple(map(tuple, rows)))


def _elements(spec, vals):
    return tuple(FieldElement(spec, v) for v in vals)


@PROPERTY
@given(spec=fields, d=st.integers(1, 6), seed=seeds, zero_share=zero_shares)
def test_mat_mul_matches_its_oracle(spec, d, seed, zero_share):
    rng = random.Random(seed)
    x, y = _matrix(spec, d, rng, zero_share), _matrix(spec, d, rng, zero_share)
    got = _run(mat_mul, x, y)
    assert got == _run(mat_mul_elementwise, x, y)
    assert got[1] == d**3


@PROPERTY
@given(spec=fields, d=st.integers(1, 6), seed=seeds, zero_share=zero_shares,
       shape=st.sampled_from(SHAPES))
def test_det_and_mat_inv_match_their_oracles(spec, d, seed, zero_share, shape):
    x = _matrix(spec, d, random.Random(seed), zero_share, shape)
    assert _run(det, x) == _run(det_elementwise, x)
    assert _run(mat_inv, x) == _run(mat_inv_elementwise, x)


@PROPERTY
@given(spec=fields, n=st.integers(1, 7), k=st.integers(1, 7), m=st.integers(1, 3),
       seed=seeds, zero_share=zero_shares)
def test_row_reducer_solve_and_nullspace_match_their_oracles(spec, n, k, m, seed, zero_share):
    rng = random.Random(seed)
    rows = [_entries(spec, k, rng, zero_share) for _ in range(n)]
    # a repeated row and a zero row add no rank
    rows.insert(rng.randrange(n + 1), list(rows[rng.randrange(n)]))
    rows.insert(rng.randrange(n + 2), [0] * k)
    red, oracle = RowReducer(spec, k), RowReducerElementwise(spec, k)
    for row in rows:
        assert _run(red.add_row, row) == _run(oracle.add_row, _elements(spec, row))
    assert red.rank == oracle.rank
    assert {c: _elements(spec, r) for c, r in red.pivot_rows.items()} == {
        c: tuple(r) for c, r in oracle.pivot_rows.items()
    }
    assert [_elements(spec, v) for v in red.nullspace_basis()] == oracle.nullspace_basis()
    lhs = [_elements(spec, r) for r in rows]
    rhs = [_elements(spec, _entries(spec, m, rng, zero_share)) for _ in rows]
    assert _run(nullspace, spec, lhs, k) == _run(nullspace_elementwise, spec, lhs, k)
    assert _run(solve, spec, lhs, rhs) == _run(solve_elementwise, spec, lhs, rhs)


@PROPERTY
@given(spec=fields, d=st.integers(1, 5), deg=st.integers(-1, 6), seed=seeds,
       zero_share=zero_shares)
def test_eval_matrix_matches_its_oracle(spec, d, deg, seed, zero_share):
    rng = random.Random(seed)
    f = FqPoly(spec, _elements(spec, _entries(spec, deg + 1, rng, zero_share)))
    m = _matrix(spec, d, rng, zero_share)
    assert _run(f.eval_matrix, m) == _run(eval_matrix_elementwise, f, m)


@PROPERTY
@given(spec=fields, n=st.integers(1, 8), seed=seeds, zero_share=zero_shares)
def test_scaled_and_dot_match_their_oracles(spec, n, seed, zero_share):
    rng = random.Random(seed)
    s = 0 if rng.random() < zero_share else rng.randrange(spec.q)
    a, b = _entries(spec, n, rng, zero_share), _entries(spec, n, rng, zero_share)
    ea, eb = _elements(spec, a), _elements(spec, b)
    scaled, count = _run(_scaled, spec, s, a)
    assert (_elements(spec, scaled), count) == _run(scaled_elementwise, FieldElement(spec, s), ea)
    dot, count = _run(_dot, spec, a, b)
    assert (FieldElement(spec, dot), count) == _run(dot_elementwise, ea, eb, spec.zero())


def _from_conjugator(a):
    phi = Automorphism.from_conjugator(a)
    return phi.images, factors_as_elements(phi)


@PROPERTY
@given(spec=fields, d=st.integers(2, 5), seed=seeds, zero_share=zero_shares,
       shape=st.sampled_from(SHAPES))
def test_from_conjugator_matches_its_oracle(spec, d, seed, zero_share, shape):
    a = _matrix(spec, d, random.Random(seed), zero_share, shape)
    assert _run(_from_conjugator, a) == _run(from_conjugator_elementwise, a)


def _factor(spec, d, img):
    uv = _factor_rank1(spec, d, img)
    return None if uv is None else tuple(_elements(spec, w) for w in uv)


@PROPERTY
@given(spec=fields, d=st.integers(2, 5), seed=seeds, zero_share=zero_shares,
       change=st.sampled_from(("none", "one entry", "identity", "random")))
def test_factor_rank1_matches_its_oracle(spec, d, seed, zero_share, change):
    rng = random.Random(seed)
    if change == "random":
        imgs = [_matrix(spec, d, rng, zero_share)]
    elif change == "identity":
        imgs = [Matrix._from_vals(spec, tuple(tuple(int(a == b) for b in range(d)) for a in range(d)))]
    else:
        a = random_gl(spec, d, rng)
        imgs = list(Automorphism.from_conjugator(a).images.values())
        if change == "one entry":
            # a changed entry of a rank-one image: the check fails there,
            # or the change lands on a zero and the image stays rank one
            vals = [list(r) for r in imgs[0].vals]
            r, c = rng.randrange(d), rng.randrange(d)
            vals[r][c] = rng.randrange(spec.q)
            imgs = [Matrix._from_vals(spec, tuple(map(tuple, vals)))]
    for img in imgs:
        assert _run(_factor, spec, d, img) == _run(factor_rank1_elementwise, spec, d, img)


@PROPERTY
@given(spec=fields, d=st.integers(2, 5), seed=seeds,
       kind=st.sampled_from(("conjugation", "transpose flip", "swapped images")))
def test_conjugator_from_rank1_matches_its_oracle(spec, d, seed, kind):
    rng = random.Random(seed)
    phi = Automorphism.from_conjugator(random_gl(spec, d, rng))
    images = phi.images
    if kind == "transpose flip":
        phi = Automorphism(spec, d, {(i, j): images[(j, i)] for i, j in images})
    elif kind == "swapped images":
        keys = list(images)
        i, j = rng.sample(range(len(keys)), 2)
        swap = {keys[i]: keys[j], keys[j]: keys[i]}
        phi = Automorphism(spec, d, {k: images[swap.get(k, k)] for k in keys})
    assert _run(_conjugator_from_rank1, phi) == _run(conjugator_from_rank1_elementwise, phi)


@PROPERTY
@given(spec=fields, d=st.integers(2, 5), seed=seeds)
def test_apply_matches_its_oracle(spec, d, seed):
    rng = random.Random(seed)
    phi = Automorphism.from_conjugator(random_gl(spec, d, rng))
    x = random_sl(spec, d, rng)
    assert _run(phi.apply, x) == _run(apply_elementwise, phi, x)


@pytest.mark.parametrize("spec", FIELDS, ids=repr)
def test_kernels_check_the_field_of_their_operands(spec):
    other = field_spec(5)
    m = Matrix._from_vals(spec, ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        mat_mul(m, Matrix._from_vals(other, ((1, 0), (0, 1))))
    with pytest.raises(ValueError):
        FqPoly.x(other).eval_matrix(m)


# cost_counter() totals of seeded runs at the binary presets, taken with
# the FieldElement loops before the kernels moved to packed ints; the
# toy preset's counts, over GF(7), are pinned by tests/golden/bench-toy.txt
PINNED_COUNTS = {
    "small": ((2, 16, 5), (7247, 8449, 4067)),
    "paper": ((2, 160, 7), (100249, 143943, 71534)),
}


@pytest.mark.parametrize("preset", sorted(PINNED_COUNTS))
def test_seeded_binary_preset_counts_are_pinned(preset):
    (p, gamma, d), pinned = PINNED_COUNTS[preset]
    params = MorParams(field_spec(p, gamma), d)
    rng = random.Random(1)
    msg = encode_message(b"h", params)
    (pk, sk), keygen_count = _run(keygen, params, rng)
    ct, encrypt_count = _run(encrypt, pk, msg, rng)
    pt, decrypt_count = _run(decrypt, sk, ct)
    assert pt == msg
    assert (keygen_count, encrypt_count, decrypt_count) == pinned
