"""Packed-int kernels against their FieldElement loops.

Every kernel that runs on Matrix.vals is checked against the loop it
replaced, kept in tests/oracles.py.  Both must give the same matrix,
vector, factor, None or exception, and add the same number to
cost_counter().  The fields cover each raw arithmetic: GF(7) (prime),
GF(3^4) and GF(2^4) (tables), GF(2^16) and GF(2^160) (byte-stride binary
multiply).  Inputs draw zeros with a share up to one half and include
singular matrices, determinants other than 1 and rank-deficient rows, so
every zero-skip branch and every early exit runs; decompose must raise
the same NotInSLError after the same count.
"""

import functools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    PolyElementwise,
    RowReducerElementwise,
    apply_elementwise,
    apply_lifted_elementwise,
    char_poly_elementwise,
    commutator_rows_elementwise,
    conjugator_from_rank1_elementwise,
    conjugator_rows_elementwise,
    decompose_elementwise,
    det_elementwise,
    dot_elementwise,
    eval_matrix_elementwise,
    factor_rank1_elementwise,
    factors_as_elements,
    from_conjugator_elementwise,
    frobenius_map_elementwise,
    irreducible_factors_elementwise,
    is_irreducible_elementwise,
    lift_operator_elementwise,
    mat_inv_elementwise,
    mat_mul_elementwise,
    mod_inverse_elementwise,
    nullspace_elementwise,
    outer_elementwise,
    packed,
    scaled_elementwise,
    solve_elementwise,
    squarefree_part_elementwise,
)

from morsl.autos import (
    Automorphism,
    InvalidAutomorphismError,
    _conjugator_from_rank1,
    _factor_rank1,
    _scaled,
)
from morsl import fqpoly
from morsl.field import FieldElement, FieldSpec, cost_counter, field_spec
from morsl.fqpoly import (
    FqPoly,
    char_poly,
    irreducible_factors,
    is_irreducible,
    mod_inverse,
    squarefree_part,
)
from morsl.linalg import RowReducer, nullspace, solve, sylvester_rows
from morsl.matrix import (
    Matrix,
    Permutation,
    SingularMatrixError,
    _dot,
    _outer,
    det,
    diagonal_matrix,
    mat_inv,
    mat_mul,
    mat_pow,
    permutation_matrix,
    random_gl,
    random_sl,
)
from morsl.protocol import (
    MorCiphertext,
    MorParams,
    MorPrivateKey,
    MorPublicKey,
    decrypt,
    encode_message,
    encrypt,
    keygen,
)
from morsl.seclab import (
    centralizer_space,
    lift_operator,
    monomial_cycle_attack,
    mw_reduce,
    validate_params,
)
from morsl.words import NotInSLError, decompose

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


def _with_unit_det(x):
    """x with its last row divided by det(x) when x is invertible, so a
    sparse draw lands in SL; a singular x is returned as it is."""
    dt = det(x).val
    if not dt:
        return x
    spec = x.spec
    dinv = spec._inv_raw(dt)
    last = tuple(spec._mul_raw(v, dinv) for v in x.vals[-1])
    return Matrix._from_vals(spec, x.vals[:-1] + (last,))


def _word_or_message(decompose_fn, x):
    try:
        return decompose_fn(x)
    except NotInSLError as exc:
        return f"NotInSLError: {exc}"


@PROPERTY
@given(spec=fields, d=st.integers(1, 6), seed=seeds, zero_share=zero_shares,
       shape=st.sampled_from(("SL", *SHAPES)))
def test_decompose_and_char_poly_match_their_oracles(spec, d, seed, zero_share, shape):
    # "full" mostly draws det != 1, the other shapes are singular
    x = _matrix(spec, d, random.Random(seed), zero_share, "full" if shape == "SL" else shape)
    if shape == "SL":
        x = _with_unit_det(x)
    assert _run(_word_or_message, decompose, x) == _run(_word_or_message, decompose_elementwise, x)
    assert _run(char_poly, x) == _run(char_poly_elementwise, x)


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
    rhs = [_entries(spec, m, rng, zero_share) for _ in rows]
    lhs_e, rhs_e = [_elements(spec, r) for r in rows], [_elements(spec, r) for r in rhs]
    basis, count = _run(nullspace, spec, rows, k)
    assert ([_elements(spec, v) for v in basis], count) == _run(
        nullspace_elementwise, spec, lhs_e, k
    )
    x, count = _run(solve, spec, rows, rhs)
    x = None if x is None else [_elements(spec, r) for r in x]
    assert (x, count) == _run(
        solve_elementwise, spec, lhs_e, rhs_e
    )


@PROPERTY
@given(spec=fields, d=st.integers(2, 5), seed=seeds, zero_share=zero_shares)
def test_sylvester_rows_match_the_centralizer_and_conjugator_rows(spec, d, seed, zero_share):
    rng = random.Random(seed)
    x, n = _matrix(spec, d, rng, zero_share), _matrix(spec, d, rng, zero_share)
    rows, count = _run(list, sylvester_rows(spec, x.vals, x.vals))
    assert ([_elements(spec, r) for r in rows], count) == _run(commutator_rows_elementwise, x)
    i, j = rng.sample(range(1, d + 1), 2)
    left = [[int(a == b or (a, b) == (i - 1, j - 1)) for b in range(d)] for a in range(d)]
    rows, count = _run(list, sylvester_rows(spec, left, n.vals))
    assert ([_elements(spec, r) for r in rows], count) == _run(
        conjugator_rows_elementwise, i, j, n
    )


@PROPERTY
@given(spec=fields, d=st.integers(1, 4), seed=seeds, zero_share=zero_shares,
       shape=st.sampled_from(SHAPES))
def test_lift_operator_and_its_action_match_their_oracles(spec, d, seed, zero_share, shape):
    rng = random.Random(seed)
    a = _matrix(spec, d, rng, zero_share, shape)
    lifted, count = _run(lift_operator, a)
    want = _run(lift_operator_elementwise, a)
    assert (getattr(lifted, "matrix", lifted), count) == want
    if lifted is not SingularMatrixError:
        x = _matrix(spec, d, rng, zero_share)
        assert _run(lifted.apply_matrix, x) == _run(apply_lifted_elementwise, want[0], x)


@PROPERTY
@given(spec=fields, d=st.integers(1, 5), deg=st.integers(-1, 6), seed=seeds,
       zero_share=zero_shares)
def test_eval_matrix_matches_its_oracle(spec, d, deg, seed, zero_share):
    rng = random.Random(seed)
    f = FqPoly(spec, _entries(spec, deg + 1, rng, zero_share))
    m = _matrix(spec, d, rng, zero_share)
    assert _run(f.eval_matrix, m) == _run(eval_matrix_elementwise, f, m)


# -- the lane kernels of binary fields above 2^8 ------------------------------

# 10 is the smallest degree whose bits above x^gamma just spill into a
# second byte
LANE_GAMMAS = (9, 10, 16, 17, 33, 64, 160, 233)


@functools.lru_cache(maxsize=None)
def _dense_modulus_spec(gamma, k):
    """A binary field with the k-th dense random irreducible modulus of
    degree gamma drawn from a fixed seed, built through FieldSpec."""
    rng = random.Random(f"dense:{gamma}:{k}")
    while True:
        bits = rng.getrandbits(gamma - 1) << 1 | 1
        try:
            return FieldSpec(2, gamma, [(bits >> i) & 1 for i in range(gamma)] + [1])
        except ValueError:  # reducible: draw again
            continue


lane_specs = st.one_of(
    st.sampled_from(LANE_GAMMAS).map(lambda g: field_spec(2, g)),
    st.tuples(st.sampled_from(LANE_GAMMAS), st.integers(0, 1)).map(
        lambda gk: _dense_modulus_spec(*gk)
    ),
)


def _lane_entries(draw, spec, n):
    """n entries, each 0, 1, q - 1, the top bit x^(gamma - 1) or uniform."""
    special = st.sampled_from((0, 1, spec.q - 1, 1 << (spec.gamma - 1)))
    return [draw(st.one_of(special, st.integers(0, spec.q - 1))) for _ in range(n)]


@st.composite
def lane_matrices(draw, spec, d):
    rows = [_lane_entries(draw, spec, d) for _ in range(d)]
    shape = draw(st.sampled_from(SHAPES))
    if shape == "zero row":
        rows[draw(st.integers(0, d - 1))] = [0] * d
    elif shape == "zero column":
        c = draw(st.integers(0, d - 1))
        for r in rows:
            r[c] = 0
    return Matrix._from_vals(spec, tuple(map(tuple, rows)))


@PROPERTY
@given(data=st.data(), spec=lane_specs, d=st.integers(1, 8))
def test_lane_mat_mul_matches_its_oracle(data, spec, d):
    assert (spec._prepare_raw, spec._mul_prepared_raw) == (
        spec._prepare_lanes, spec._mul_prepared_lanes
    )
    x, y = data.draw(lane_matrices(spec, d)), data.draw(lane_matrices(spec, d))
    got = _run(mat_mul, x, y)
    assert got == _run(mat_mul_elementwise, x, y)
    assert got[1] == d**3


@PROPERTY
@given(data=st.data(), spec=lane_specs, d=st.integers(1, 8))
def test_lane_outer_matches_its_oracle(data, spec, d):
    assert spec._outer_raw == spec._outer_lanes
    col = _lane_entries(data.draw, spec, d)
    if data.draw(st.booleans()):
        col[data.draw(st.integers(0, d - 1))] = 0
    row = _lane_entries(data.draw, spec, d)
    rows, count = _run(_outer, spec, col, row)
    want = _run(outer_elementwise, _elements(spec, col), _elements(spec, row), spec.zero())
    assert ([list(_elements(spec, r)) for r in rows], count) == want


@pytest.mark.parametrize(
    "spec",
    [field_spec(2), field_spec(7), field_spec(2, 4), field_spec(2, 8), field_spec(3, 3),
     field_spec(3, 6), field_spec(5, 4)],
    ids=repr,
)
def test_prime_table_and_odd_extension_fields_keep_the_loops(spec):
    # lab-attacks runs prime and table fields only, so it runs no lane code
    assert (spec._prepare_raw, spec._mul_prepared_raw) == (tuple, spec._mat_mul_loop)
    assert spec._outer_raw == spec._outer_loop


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
# toy preset's counts, over GF(7), are pinned by tests/golden/bench-toy.txt.
# decrypt with keygen's key reduces m by the key's certificate (2d^3 for
# the commutation test, no x^(q^d) certificate of B_r): 4,067 -> 3,750 and
# 71,534 -> 63,797.  A parsed key carries no verdict, so decrypt with it
# (the CLI's route) keeps the old counts: the fourth figure.  encrypt
# certifies B_phi and hands the verdict to B_phim, which commutes with it
# (2d^3 for the test, no x^(q^d) certificate of B_phim): 8,449 -> 8,132
# and 143,943 -> 136,206.  The last figure is encrypt with the public key
# parsed afresh, the CLI's route; at this seed it equals the third, as
# keygen's public key caches no recovered conjugator either.  A ciphertext
# holds B_r, so encrypt builds no images of phi^r (from_conjugator, 750
# and 2,744) and tests phi^r = phi by B_r = c B_phi (1 multiplication at
# this seed): 8,132 -> 7,383 and 136,206 -> 133,463.  decrypt reads B_r
# instead of recovering it (401 and 1,079), with either key: 3,750 ->
# 3,349, 4,067 -> 3,666, 63,797 -> 62,718 and 71,534 -> 70,455; a parsed
# ciphertext pays the recovery in from_json.  Every conjugator the protocol
# raises lies in a field F_q[B] (keygen's B, the certificate's B_phi and
# parsed B_r, whose chi is irreducible, and the members they hand their
# verdict to), so mat_pow splits each long power at the norm
# N = (q^d - 1)/(q - 1), x^n = det(x)^k x^s, and raises 64 bits instead
# of 80 (small) and 960 instead of 1,120 (paper): 427 to 435 and 8,053
# to 8,459 fewer per power at this seed, det^k and the scaled remainder
# included.  The certificate's Rabin gcd costs 41 and 71: 7,247 -> 6,812,
# 7,383 -> 6,570, 3,349 -> 2,914, 3,666 -> 3,272, 100,249 -> 91,790,
# 133,463 -> 117,428, 62,718 -> 54,259 and 70,455 -> 62,067.  The
# certificate (encrypt's of B_phi, and the parsed key's of its conjugator)
# is is_irreducible, Ben-Or's gcds for k <= d/2, in place of the Frobenius
# chain to x^(q^d) and Rabin's gcd: 16 and 22 fewer, 6,570 -> 6,554,
# 3,272 -> 3,256, 117,428 -> 117,406 and 62,067 -> 62,045.  A squaring
# modulo chi adds a_i^2 times the squaring row x^(2i) mod chi for each
# nonzero a_i, i >= ceil(d/2), instead of dividing the square by chi: at
# most d + floor(d/2) d multiplications instead of d + (d - 1) d, 15
# instead of 25 (small) and 28 instead of 49 (paper), after the rows'
# one build per chi, at most (d - 1) d (20 and 42).  Every long power,
# x^q certificates included, moves: 6,812 -> 5,587, 6,554 -> 5,229,
# 2,914 -> 2,334 and 3,256 -> 2,531; 91,790 -> 58,701, 117,406 -> 73,964,
# 54,259 -> 34,260 and 62,045 -> 38,742.  At the paper preset every long
# power x^s mod chi, s < (q^7 - 1)/(q - 1), takes the base-q route: chi
# keeps its base-q table of the 63 products of x^(q^i), i < 6, each as its
# multiplication matrix, and Straus's walk over the digits' bit columns
# squares 159 times instead of about 959 and multiplies by a table entry,
# 49, at each column.  Where chi was certified first (keygen's B, the
# parsed key's B_phi and the parsed decrypt's B_r) its chain kept x^q and
# the Frobenius rows, and the power counts 12,291 less at this seed:
# 58,701 -> 46,410 and 38,742 -> 26,451.  B_phim and keygen-key decrypt's
# B_r, handed a certificate, pay x^q and the Frobenius rows as well (4,448
# with chi's squaring rows, and 455, at B_phim): encrypt 73,964 -> 54,201
# and decrypt 34,260 -> 26,830.  The small
# preset keeps the binary route, whose count is below the base-q route's
# with its table build.
PINNED_COUNTS = {
    "small": ((2, 16, 5), (5587, 5229, 2334, 2531, 5229)),
    "paper": ((2, 160, 7), (46410, 54201, 26830, 26451, 54201)),
}


@pytest.mark.parametrize("preset", sorted(PINNED_COUNTS))
def test_seeded_binary_preset_counts_are_pinned(preset):
    (p, gamma, d), pinned = PINNED_COUNTS[preset]
    params = MorParams(field_spec(p, gamma), d)
    rng = random.Random(1)
    msg = encode_message(b"h", params)
    (pk, sk), keygen_count = _run(keygen, params, rng)
    state = rng.getstate()
    ct, encrypt_count = _run(encrypt, pk, msg, rng)
    pt, decrypt_count = _run(decrypt, sk, ct)
    parsed_sk = MorPrivateKey.from_json(params.spec, sk.to_json())
    parsed_ct = MorCiphertext.from_json(ct.to_json())
    parsed_pt, parsed_decrypt_count = _run(decrypt, parsed_sk, parsed_ct)
    assert pt == parsed_pt == msg
    rng.setstate(state)
    parsed_ct, parsed_encrypt_count = _run(encrypt, MorPublicKey.from_json(pk.to_json()), msg, rng)
    assert parsed_ct.to_json() == ct.to_json()
    counts = (
        keygen_count, encrypt_count, decrypt_count, parsed_decrypt_count, parsed_encrypt_count,
    )
    assert counts == pinned


# cost_counter() totals of a session of three messages under one keygen
# key at the binary presets, encrypts then decrypts.  encrypt raises the
# key's conjugators B_phi and B_phim, which carry verdicts, to a fresh r:
# the first message evaluates both remainders by Horner, d^2 + (d - 2) d^3,
# as PINNED_COUNTS' second figure; the second builds each power basis and
# evaluates on it, (d - 2) d^3 + (d - 1) d^2, which is (d - 2) d^2 more
# per power (5,422 -> 5,572 and 121,756 -> 122,246 against Horner);
# the third evaluates on the bases only, (d - 1) d^2, which is
# d^2 + (d - 2) d^3 - (d - 1) d^2 less per power (5,382 -> 4,782 and
# 121,672 -> 118,732).  From the second message on, encrypt inverts
# B_mr on B_phim's basis (matrix.mat_inv): mod_inverse and one product
# with the basis, 61 + 100 and 115 + 294 at this seed, against 150 and 392
# for the elimination (5,572 -> 5,583, 4,782 -> 4,793, 122,246 -> 122,263
# and 118,732 -> 118,749).  decrypt hands the key's verdict to B_r by the
# commutation test, 2 d^3, at the first message.  The second builds the
# private conjugator's power basis, (d - 2) d^3, and its coordinate
# reader (446 and 1,856), and from it on B_r is read on that basis, d^3;
# B_r^m is evaluated there, 2 (d - 1) d^2 instead of Horner's
# d^2 + (d - 2) d^3 (200 and 588 instead of 400 and 1,764), and inverted
# there as B_mr is: 3,349 -> 3,856 and 3,349 -> 3,035, 62,718 -> 64,787
# and 62,718 -> 61,216.  Each long power splits at the norm, as in
# PINNED_COUNTS: 412 to 435 fewer per small power and 8,053 to 8,459 per
# paper power, the first encrypt paying the certificate's gcd as well.
# That certificate is is_irreducible, as in PINNED_COUNTS: 6,570 -> 6,554
# and 117,428 -> 117,406 at the first encrypt, the only one that runs it.
# Squaring through chi's squaring rows, as in PINNED_COUNTS (15 instead
# of 25 and 28 instead of 49 per squaring at most, the rows built once
# per chi): encrypt (6,554, 4,759, 3,945) -> (5,229, 3,529, 2,755) and
# decrypt (2,914, 3,421, 2,600) -> (2,334, 2,841, 2,020) at the small
# preset; (117,406, 105,945, 102,575) -> (73,964, 65,765, 62,395) and
# (54,259, 56,328, 52,757) -> (34,260, 36,329, 32,758) at the paper's.
# The base-q route of PINNED_COUNTS: the first message builds the base-q
# tables of chi_(B_phi) and chi_(B_phim), which every later encrypt's two
# powers use at the loop's count alone, and each decrypt builds its B_r's:
# encrypt (73,964, 65,765, 62,395) -> (54,201, 29,891, 26,661) and decrypt
# (34,260, 36,329, 32,758) -> (26,830, 28,899, 25,328).  The small preset
# keeps the binary route.
SESSION_PINNED_COUNTS = {
    "small": ((2, 16, 5), ((5229, 3529, 2755), (2334, 2841, 2020))),
    "paper": ((2, 160, 7), ((54201, 29891, 26661), (26830, 28899, 25328))),
}


@pytest.mark.parametrize("preset", sorted(SESSION_PINNED_COUNTS))
def test_seeded_three_message_session_counts_are_pinned(preset):
    (p, gamma, d), pinned = SESSION_PINNED_COUNTS[preset]
    params = MorParams(field_spec(p, gamma), d)
    rng = random.Random(1)
    msg = encode_message(b"h", params)
    pk, sk = keygen(params, rng)
    encrypt_counts, decrypt_counts = [], []
    for _ in range(3):
        ct, count = _run(encrypt, pk, msg, rng)
        encrypt_counts.append(count)
        pt, count = _run(decrypt, sk, ct)
        decrypt_counts.append(count)
        assert pt == msg
    assert (tuple(encrypt_counts), tuple(decrypt_counts)) == pinned


# cost_counter() totals of seeded lab runs on random_gl conjugators, taken
# before the lab's products moved onto the shared packed-int kernels:
# lift_operator, centralizer_space, mw_reduce on the lifted pair (A, A^e),
# validate_params with A, and monomial_cycle_attack on a monomial key.
# validate_params counts chi_A and its irreducibility test only: it states
# the lift's polynomial reducible (x - 1 divides it) without building it.
# mw_reduce's BSGS group reduces its products by the monic g through
# _rem_monic instead of divmod, which multiplied each cleared coefficient
# by 1/lead(g) = 1 and built a quotient: 4,463 -> 4,459 and 20,182 ->
# 20,178; at gf7 g is x + 1 and its two products are of constants,
# which neither reduction touches.  No power or product chain starts from
# the identity or from one: mat_pow's check of the lifted power and the
# powers of the restricted A start from A (1,307, 3,703 and 16,055), and
# the monomial attack reads the cycle product and the shift's prefix off
# the running products of one orbit walk (24, 31 and 18).  The BSGS
# group's mod_inverse stops at the first nonzero constant remainder,
# which saves a division by that constant and a cofactor nobody reads:
# 1,307 -> 1,301, 3,703 -> 3,693 and 16,055 -> 16,045.  Over GF(2^4) a
# squaring modulo a cubic adds at most one squaring row of 3, 6
# multiplications instead of 3 + 2 * 3 = 9, after the row's build, at
# most 2 * 3: mw_reduce 3,693 -> 3,570 and validate_params' x^q of chi_A
# 49 -> 40.  The odd fields still divide by the modulus.
LAB_PINNED_COUNTS = {
    "gf7": ((7, 1, 3), (75, 73, 1301, 4, 24)),
    "gf2_4": ((2, 4, 3), (78, 124, 3570, 40, 31)),
    "gf3": ((3, 1, 4), (192, 168, 16045, 18, 18)),
}


@pytest.mark.parametrize("name", sorted(LAB_PINNED_COUNTS))
def test_seeded_lab_counts_are_pinned(name):
    (p, gamma, d), pinned = LAB_PINNED_COUNTS[name]
    spec = field_spec(p, gamma)
    rng = random.Random(f"pin:{name}")
    a = random_gl(spec, d, rng)
    e = rng.randrange(2, spec.q**d)
    lifted, lift_count = _run(lift_operator, a)
    lifted_e = lift_operator(mat_pow(a, e))
    _, centralizer_count = _run(centralizer_space, a)
    _, mw_count = _run(
        functools.partial(mw_reduce, allow_reducible=True), lifted.matrix, lifted_e.matrix
    )
    _, validate_count = _run(validate_params, d, spec, a)
    w = [spec.random_nonzero(rng) for _ in range(d)]
    conj = mat_mul(diagonal_matrix(w), permutation_matrix(spec, Permutation.random(d, rng)))
    m = rng.randrange(2, spec.q ** (d * d) - 1)
    pk = MorPublicKey(
        MorParams(spec, d, require_irreducible_lift=False),
        Automorphism.from_conjugator(conj),
        Automorphism.from_conjugator(mat_pow(conj, m)),
    )
    report, monomial_count = _run(monomial_cycle_attack, pk)
    assert m % report.modulus in report.residues
    counts = (lift_count, centralizer_count, mw_count, validate_count, monomial_count)
    assert counts == pinned


# -- FqPoly on packed ints --------------------------------------------------

POLY_FIELDS = (
    field_spec(3), field_spec(5), field_spec(7), field_spec(3, 2), field_spec(2, 4),
    field_spec(2, 8), field_spec(2, 16),
)
poly_fields = st.sampled_from(POLY_FIELDS)
# up to nine in ten coefficients zero: sparse products, remainders and gcds
poly_zero_shares = st.sampled_from((0.0, 0.5, 0.9))


def _run_poly(fn, *args):
    """_run for the polynomial kernels: the oracle's PolyElementwise values
    come back as FqPoly, and a failed division or inverse as its type."""
    c0 = cost_counter()
    try:
        out = packed(fn(*args))
    except ZeroDivisionError as exc:
        out = type(exc)
    return out, cost_counter() - c0


def _poly(spec, n, rng, zero_share, monic=False):
    """A polynomial of at most n coefficients, the top one 1 when monic."""
    vals = _entries(spec, n, rng, zero_share)
    return FqPoly(spec, vals + [1] if monic else vals)


def _both(fn, oracle, *polys):
    assert _run_poly(fn, *polys) == _run_poly(oracle, *map(PolyElementwise.of, polys))


@PROPERTY
@given(spec=poly_fields, seed=seeds, zero_share=poly_zero_shares)
def test_poly_arithmetic_matches_its_oracle(spec, seed, zero_share):
    rng = random.Random(seed)
    a, b = _poly(spec, rng.randrange(9), rng, zero_share), _poly(spec, rng.randrange(7), rng, zero_share)
    c = rng.randrange(spec.q)
    for op in (operator.add, operator.sub, operator.mul, divmod, lambda x, y: x.gcd(y)):
        _both(op, op, a, b)
    for op in (operator.neg, lambda x: x.monic(), lambda x: x.derivative()):
        _both(op, op, a)
    assert _run_poly(a.scale, c) == _run_poly(PolyElementwise.of(a).scale, FieldElement(spec, c))
    v = FieldElement(spec, c)
    assert _run_poly(a, v) == _run_poly(PolyElementwise.of(a), v)


@PROPERTY
@given(spec=poly_fields, seed=seeds, zero_share=poly_zero_shares, by_x=st.booleans(),
       e=st.one_of(st.integers(0, 64), st.integers(0, 2**80)))
def test_pow_mod_matches_its_oracle(spec, seed, zero_share, by_x, e):
    # over GF(2^16) the base x takes the lane kernels, whose count is the loop's
    rng = random.Random(seed)
    f = _poly(spec, rng.randrange(1, 8), rng, zero_share, monic=rng.random() < 0.7)
    if f.is_zero():
        f = FqPoly.x(spec)
    base = FqPoly.x(spec) if by_x else _poly(spec, rng.randrange(10), rng, zero_share)
    # one oracle modulus for both powers: each side builds f's squaring
    # rows once, at its first squaring, and keeps them
    oracle_base, oracle_f = PolyElementwise.of(base), PolyElementwise.of(f)
    for n in (e, spec.q):
        assert _run_poly(base.pow_mod, n, f) == _run_poly(oracle_base.pow_mod, n, oracle_f)


@PROPERTY
@given(spec=poly_fields, seed=seeds, zero_share=poly_zero_shares, repeat=st.booleans())
def test_factoring_kernels_match_their_oracles(spec, seed, zero_share, repeat):
    rng = random.Random(seed)
    f = _poly(spec, rng.randrange(1, 7), rng, zero_share, monic=True)
    if repeat and rng.random() < 0.5:
        f = f * f
    elif repeat:
        # a polynomial in x^p: its derivative vanishes, and it is a p-th power
        h = _poly(spec, rng.randrange(1, 3), rng, zero_share, monic=True)
        spread = [0] * (spec.p * h.degree() + 1)
        spread[::spec.p] = h.coeffs
        f = FqPoly(spec, spread)
    # one oracle polynomial for the three, as f keeps its squaring rows
    oracle_f = PolyElementwise.of(f)
    assert _run_poly(is_irreducible, f) == _run_poly(is_irreducible_elementwise, oracle_f)
    assert _run_poly(squarefree_part, f) == _run_poly(squarefree_part_elementwise, oracle_f)
    # the factors come out sorted by degree, then by coefficient tuple
    assert _run_poly(irreducible_factors, f) == _run_poly(irreducible_factors_elementwise, oracle_f)


def test_frobenius_map_reduces_modulo_the_divisor_it_is_given():
    # f = g1 g2 over GF(7): both maps are built for f and called with g1
    spec = field_spec(7)
    g1, g2 = FqPoly(spec, (3, 1, 1)), FqPoly(spec, (5, 2, 1))
    f = g1 * g2
    (_, frob), (_, frob_oracle) = fqpoly._frobenius_map(f, 1), frobenius_map_elementwise(
        PolyElementwise.of(f), 1
    )
    assert frob.__name__ == "by_matrix"  # the cost model picks the Frobenius matrix
    for h in (FqPoly.x(spec), FqPoly(spec, (4, 6))):
        got = _run_poly(frob, h, g1)
        assert got == _run_poly(frob_oracle, PolyElementwise.of(h), PolyElementwise.of(g1))
        assert got[0] == h.pow_mod(spec.q, g1) and got[0].degree() < 2
    # called with f itself, the map reduces nothing further
    assert _run_poly(frob, FqPoly.x(spec), f)[0] == FqPoly.x(spec).pow_mod(spec.q, f)


@PROPERTY
@given(spec=poly_fields, seed=seeds, zero_share=poly_zero_shares)
def test_mod_inverse_matches_its_oracle(spec, seed, zero_share):
    rng = random.Random(seed)
    f = _poly(spec, rng.randrange(1, 7), rng, zero_share, monic=True)
    # an irreducible factor of f, or f itself, which may share a root with a
    g = irreducible_factors(f)[-1][0] if rng.random() < 0.7 else f
    a = _poly(spec, rng.randrange(1, 9), rng, zero_share)
    _both(mod_inverse, mod_inverse_elementwise, a, g)
    # independently of Euclid: h is an inverse exactly when gcd(a, g) = 1
    if a.gcd(g).is_one():
        h = mod_inverse(a, g)
        assert h.degree() < g.degree() and (a * h) % g == FqPoly.one(spec)
    else:
        with pytest.raises(ZeroDivisionError):
            mod_inverse(a, g)
