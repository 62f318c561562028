"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
report lines; plain `pytest` shows pass/fail through the test names.
The printed-power-formula check that is expected to fail (a documented
sign defect in the source formulas, see the design notes) is a strict
xfail so the defect stays loud without breaking the suite.
"""

import random
import time

import pytest
from oracles import mat_pow_sqm

from morsl.autos import (
    Automorphism,
    apply_field,
    apply_graph,
    generator_pairs,
    recover_conjugator,
)
from morsl.bench import composition_cost_report, format_composition_report
from morsl.elgamal import (
    elgamal_decrypt,
    elgamal_encrypt,
    elgamal_keygen,
    scalar_mor_decrypt,
    scalar_mor_encrypt,
    scalar_mor_keygen,
)
from morsl.field import field_spec
from morsl.fqpoly import (
    FqPoly,
    char_poly,
    companion_matrix,
    is_irreducible,
    multiplicative_order,
)
from morsl.matrix import (
    Matrix,
    Permutation,
    conjugate,
    diagonal_matrix,
    identity,
    mat_inv,
    mat_mul,
    mat_pow,
    permutation_matrix,
    random_gl,
    random_sl,
    scalar_matrix,
    transvection,
)
from morsl.protocol import (
    MorParams,
    MorPublicKey,
    decode_message,
    decrypt,
    encode_message,
    encrypt,
    keygen,
)
from morsl.seclab import lift_operator, monomial_cycle_attack, mw_reduce, validate_params
from morsl.twogen import (
    albert_thompson_generators,
    c1_closed,
    ck_closed,
    ck_inv_closed,
    d_power_closed,
    rewrite_transvection_in_cd,
)
from morsl.words import decompose


def _report(num, name, detail=""):
    suffix = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: PASS{suffix}")


# ---------------------------------------------------------------------------


def test_c01_protocol_round_trips():
    combos = [
        (3, field_spec(5)),
        (3, field_spec(7)),
        (4, field_spec(7)),
        (5, field_spec(2, 4)),
    ]
    rng = random.Random(0xACCE01)
    start = time.monotonic()
    for d, spec in combos:
        params = MorParams(spec, d)
        for _ in range(50):
            pk, sk = keygen(params, rng)
            a = random_sl(spec, d, rng)
            assert decrypt(sk, encrypt(pk, a, rng)) == a
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(1, "protocol round trips", f"200 trips in {elapsed:.1f}s")


def test_c02_transvection_relation_suite():
    failures = 0
    for d in range(3, 8):
        rng = random.Random(0xACCE02 + d)
        for trial in range(1000):
            spec = field_spec(7) if trial % 2 == 0 else field_spec(3, 2)
            ident = identity(spec, d)
            lam, mu = spec.random_nonzero(rng), spec.random_nonzero(rng)
            i, j = rng.sample(range(1, d + 1), 2)
            k, l = rng.sample(range(1, d + 1), 2)
            a = transvection(spec, d, i, j, lam)
            b = transvection(spec, d, k, l, mu)
            comm = mat_mul(mat_mul(a, b), mat_mul(mat_inv(a), mat_inv(b)))
            if j == k and i != l:
                expected = transvection(spec, d, i, l, lam * mu)
            elif i == l and j != k:
                expected = transvection(spec, d, k, j, -(lam * mu))
            elif j != k and i != l:
                expected = ident
            else:
                expected = None  # (k,l) == (j,i): outside the relation
            if expected is not None and comm != expected:
                failures += 1
            # addition in the coefficient slot
            mu2 = spec.random(rng)
            prod = mat_mul(a, transvection(spec, d, i, j, mu2))
            lam_sum = lam + mu2
            expected_sum = (
                ident if lam_sum.is_zero() else transvection(spec, d, i, j, lam_sum)
            )
            if prod != expected_sum:
                failures += 1
            # inverse
            if mat_mul(a, transvection(spec, d, i, j, -lam)) != ident:
                failures += 1
            # k-th power wraps at the characteristic
            kk = rng.randrange(0, 2 * spec.p + 1)
            coeff = spec.scalar(kk) * lam
            expected_pow = (
                ident if coeff.is_zero() else transvection(spec, d, i, j, coeff)
            )
            if mat_pow(a, kk) != expected_pow:
                failures += 1
    assert failures == 0
    _report(2, "transvection relations", "5000 draws x 4 relations, zero failures")


def test_c03_action_table_exhaustive():
    rng = random.Random(0xACCE03)
    spec_ext = field_spec(3, 2)
    for d in range(2, 6):
        for spec in (field_spec(7), spec_ext):
            w = [spec.random_nonzero(rng) for _ in range(d)]
            dm = diagonal_matrix(w)
            alpha = Permutation.random(d, rng)
            beta = alpha.inverse()
            pm = permutation_matrix(spec, alpha)
            for i in range(1, d + 1):
                for j in range(1, d + 1):
                    if i == j:
                        continue
                    lam = spec.random_nonzero(rng)
                    t = transvection(spec, d, i, j, lam)
                    assert conjugate(t, dm) == transvection(
                        spec, d, i, j, w[i - 1].inv() * lam * w[j - 1]
                    )
                    assert conjugate(t, pm) == transvection(
                        spec, d, beta(i), beta(j), lam
                    )
                    assert apply_graph(t) == transvection(spec, d, j, i, -lam)
                    for fp in range(spec.gamma):
                        assert apply_field(t, fp) == transvection(
                            spec, d, i, j, lam.frobenius(fp)
                        )
    _report(3, "automorphism action table", "d in 2..5, all (i,j), four actions")


def test_c04_two_generator_machinery():
    checked_words = 0
    for p in (5, 7):
        spec = field_spec(p)
        one = spec.one()
        for d in (5, 7):
            c, dm = albert_thompson_generators(spec, d)
            # inverse closed form: (-1)^d (e_{2,1} - e_{3,2} + sum e_{i+1,i})
            scal = -one if d % 2 else one
            rows = [[spec.zero()] * d for _ in range(d)]
            rows[1][0] = scal
            rows[2][1] = -scal
            for i in range(3, d + 1):
                rows[(i % d)][i - 1] = scal
            assert mat_inv(dm) == Matrix(spec, rows)
            # first conjugate and the bottom-row commutator, verbatim
            c1 = conjugate(c, dm)
            assert c1 == c1_closed(spec, d)
            comm = mat_mul(mat_mul(c, c1), mat_mul(mat_inv(c), mat_inv(c1)))
            assert comm == transvection(spec, d, d, 2, one)
            for k in range(2, d - 1):
                dk = mat_pow(dm, k)
                assert d_power_closed(spec, d, k) == dk
                assert d_power_closed(spec, d, -k) == mat_inv(dk)
                ck = conjugate(c, dk)
                assert ck == ck_closed(spec, d, k)
                assert mat_inv(ck) == ck_inv_closed(spec, d, k)
                if k == 2:
                    # the flat-sign printed forms are exact here
                    flat = identity(spec, d)
                    flat_vals = [list(r) for r in flat.vals]
                    flat_vals[k - 2][k + 1] = flat_vals[k - 1][k] = (-one).val
                    assert ck == Matrix._from_vals(spec, tuple(map(tuple, flat_vals)))
            # constructive rewriting, every position and lam in {1, 2}
            for lam_int in (1, 2):
                lam = spec.from_val(lam_int)
                for i in range(1, d + 1):
                    for j in range(1, d + 1):
                        if i == j:
                            continue
                        word = rewrite_transvection_in_cd(spec, d, i, j, lam)
                        assert word.evaluate() == transvection(spec, d, i, j, lam)
                        checked_words += 1
    _report(4, "two-generator rewriting", f"{checked_words} words verified")


@pytest.mark.xfail(
    strict=True,
    reason="printed flat-sign closed forms for D^k/C_k hold only at k = 2; "
    "sign flips accumulate when shifted indices cross position 2 "
    "(documented defect; corrected forms verified in test_c04)",
)
def test_c04b_printed_power_formulas_verbatim():
    spec = field_spec(7)
    d = 7
    one = spec.one()
    _, dm = albert_thompson_generators(spec, d)
    k = 3
    scal = -one if (d * k) % 2 else one
    rows = [[spec.zero()] * d for _ in range(d)]
    rows[0][(k) % d] = -scal
    rows[1][(1 + k) % d] = -scal
    for i in range(3, d + 1):
        rows[i - 1][(i - 1 + k) % d] = scal
    print("\nACCEPTANCE 04b printed flat-sign k>=3 forms: FAIL (documented defect)")
    assert Matrix(spec, rows) == mat_pow(dm, k)


def test_c05_monomial_cycle_attack():
    rng = random.Random(0xACCE05)
    specs = [field_spec(5), field_spec(7), field_spec(3, 2), field_spec(5, 2), field_spec(7, 2)]
    for trial in range(50):
        spec = specs[trial % len(specs)]
        d = 3 + trial % 4  # 3..6
        m = rng.randrange(2, 10_000)
        w = [spec.random_nonzero(rng) for _ in range(d)]
        alpha = Permutation.random(d, rng)
        conj = mat_mul(diagonal_matrix(w), permutation_matrix(spec, alpha))
        pk = MorPublicKey(
            MorParams(spec, d, require_irreducible_lift=False),
            Automorphism.from_conjugator(conj),
            Automorphism.from_conjugator(mat_pow(conj, m)),
        )
        report = monomial_cycle_attack(pk)
        assert m % report.nu == report.shift
        assert m % report.modulus in report.residues
        # cycle closure: after nu steps every image position returns home
        phi_nu = Automorphism.from_conjugator(mat_pow(conj, report.nu))
        for (i, j), img in phi_nu.images.items():
            for a in range(d):
                for b in range(d):
                    if a != b and (a, b) != (i - 1, j - 1):
                        assert not img.vals[a][b]
        for orbit in report.orbits:
            assert report.nu % len(orbit) == 0
    _report(5, "monomial cycle attack", "50 instances, true residue recovered")


def test_c06_menezes_wu_reduction():
    rng = random.Random(0xACCE06)
    start = time.monotonic()

    def random_irreducible(spec, deg):
        while True:
            f = FqPoly(spec, [rng.randrange(spec.q) for _ in range(deg)] + [1])
            if is_irreducible(f):
                return f

    instances = 0
    direct_cases = [
        (2, 3), (2, 5), (2, 7),
        (3, 3), (3, 5), (3, 7),
        (4, 3), (4, 5), (4, 7),
        (5, 5), (5, 7),
        (6, 3), (6, 5),
        (7, 7),
        (8, 3),
        (9, 5), (9, 7),
    ]
    for n, q in direct_cases:
        spec = field_spec(q)
        a = companion_matrix(random_irreducible(spec, n))
        m = rng.randrange(1, 10_000)
        target = mat_pow_sqm(a, m)
        got = mw_reduce(a, target)
        assert got is not None
        assert mat_pow_sqm(a, got) == target  # cross-check by matrix multiplication
        order = multiplicative_order(
            lambda t: mat_pow(a, t), lambda x: x == identity(spec, n), q**n - 1
        )
        assert got == m % order
        if got <= 3000:
            acc = identity(spec, n)
            for _ in range(got):
                acc = mat_mul(acc, a)
            assert acc == target
        instances += 1

    lifted_cases = [(2, 3), (2, 5), (2, 7), (3, 3), (3, 5), (3, 7), (2, 3), (3, 5)]
    for d, q in lifted_cases:
        spec = field_spec(q)
        while True:
            a = random_gl(spec, d, rng)
            if is_irreducible(char_poly(a)):
                break
        lifted = lift_operator(a).matrix
        m = rng.randrange(1, 10_000)
        target = mat_pow_sqm(lifted, m)
        got = mw_reduce(lifted, target, allow_reducible=True)
        assert got is not None
        assert mat_pow_sqm(lifted, got) == target
        order = multiplicative_order(
            lambda t: mat_pow(lifted, t),
            lambda x: x == identity(spec, d * d),
            q**d - 1,
        )
        assert got == m % order
        instances += 1

    elapsed = time.monotonic() - start
    assert instances == 25
    assert elapsed < 120.0
    _report(6, "Menezes-Wu reduction", f"25 instances in {elapsed:.1f}s")


def test_c07_lift_fidelity():
    rng = random.Random(0xACCE07)
    checks = 0
    combos = [(2, field_spec(5)), (3, field_spec(5)), (3, field_spec(7)), (2, field_spec(3, 2))]
    while checks < 500:
        d, spec = combos[checks % len(combos)]
        a = random_gl(spec, d, rng)
        lifted = lift_operator(a)
        x = random_sl(spec, d, rng)
        assert lifted.apply_matrix(x) == conjugate(x, a)
        checks += 1
    for d, spec in combos:
        a = random_gl(spec, d, rng)
        f = char_poly(lift_operator(a).matrix)
        assert f.degree() == d * d
        # conjugation fixes the identity: x - 1 always divides the lift's
        # characteristic polynomial, so keygen's irreducibility filter
        # applies to the conjugator's own polynomial instead
        assert f(spec.one()).is_zero()
    for spec in (field_spec(5), field_spec(7)):
        pk, sk = keygen(MorParams(spec, 3), rng)
        assert is_irreducible(char_poly(sk.conjugator))
    _report(7, "lift fidelity", "500 conjugation checks; keygen filter verified")


def test_c08_special_conjugacy():
    rng = random.Random(0xACCE08)
    specs = [field_spec(5), field_spec(7), field_spec(3, 2)]
    for trial in range(200):
        spec = specs[trial % len(specs)]
        a = random_gl(spec, 3, rng)
        phi = Automorphism.from_conjugator(a)
        b = recover_conjugator(phi)
        ratio = mat_mul(b, mat_inv(a))
        z = spec.from_val(ratio.vals[0][0])
        assert not z.is_zero()
        assert ratio == scalar_matrix(spec, 3, z)
        assert phi.compose(phi.invert()) == Automorphism.identity(spec, 3)
    _report(8, "special conjugacy", "200 scalar-multiple + inversion checks")


def test_c09_cost_accounting():
    rng = random.Random(0xACCE09)
    reports = []
    for d, spec in ((3, field_spec(2, 4)), (5, field_spec(3, 2))):
        rep = composition_cost_report(spec, d, rng, trials=3)
        text = format_composition_report(rep)
        assert str(rep["bound_per_image"]) in text
        assert f"{rep['estimate']:.1f}" in text  # realistic estimate printed
        assert rep["per_image_max"] <= rep["bound_per_image"]
        reports.append(
            f"d={d},p={spec.p},gamma={spec.gamma}: "
            f"max {rep['per_image_max']} <= bound {rep['bound_per_image']}"
        )
        print("\n" + text)
    _report(9, "cost accounting", "; ".join(reports))


def test_c10_word_statistics():
    rng = random.Random(0xACCE10)
    total = 100_000
    per_degree = total // 6
    means = []
    for d in range(2, 8):
        spec = field_spec((2, 3, 5, 7)[d % 4])
        count = per_degree + (total - per_degree * 6 if d == 7 else 0)
        acc = 0
        for _ in range(count):
            w = decompose(random_sl(spec, d, rng))
            n = len(w)
            assert n <= d * d
            acc += n
        means.append((d, acc / count))
    detail = ", ".join(f"d={d}: mean {m:.1f} (informal reference ~{d})" for d, m in means)
    _report(10, "word statistics", detail)


def test_c11_parameter_report_and_full_size_run(tmp_path):
    est = validate_params(7, field_spec(2, 160))
    assert est.dlp_field_exponent == 49
    table = est.table()
    assert "GF(2^7840)" in table
    assert "49" in table

    from morsl.cli import main

    start = time.monotonic()
    pub = tmp_path / "pub.json"
    priv = tmp_path / "priv.json"
    assert main([
        "keygen", "--preset", "paper", "--seed", "161",
        "--out-pub", str(pub), "--out-priv", str(priv),
    ]) == 0
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"hello full size run")
    ct = tmp_path / "ct.json"
    assert main(["encrypt", "--pub", str(pub), "--in", str(msg),
                 "--out", str(ct), "--seed", "7"]) == 0
    out = tmp_path / "out.bin"
    assert main(["decrypt", "--priv", str(priv), "--in", str(ct),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == b"hello full size run"
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(11, "parameter report + full-size run", f"paper preset in {elapsed:.1f}s")


def test_c12_elgamal_degeneration():
    p = 1019
    rng = random.Random(0xACCE12)
    key = scalar_mor_keygen(p, rng)
    for _ in range(50):
        a = rng.randrange(1, p)
        assert scalar_mor_decrypt(key, scalar_mor_encrypt(key, a, rng)) == a
    # identical wire values against the classic formulation
    pub = (p, key.k, key.k_m)
    r1, r2 = random.Random(31), random.Random(31)
    msg = 555
    assert scalar_mor_encrypt(key, msg, r1) == elgamal_encrypt(pub, msg, r2)
    classic_pub, x = elgamal_keygen(p, key.k, random.Random(99))
    assert elgamal_decrypt(p, x, elgamal_encrypt(classic_pub, msg, random.Random(5))) == msg
    _report(12, "cyclic-group degeneration", "textbook round trips at p=1019")
