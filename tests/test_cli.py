import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from morsl.autos import Automorphism
from morsl.cli import main
from morsl.field import field_spec
from morsl.matrix import (
    Permutation,
    diagonal_matrix,
    mat_mul,
    mat_pow,
    permutation_matrix,
    transvection,
)
from morsl.protocol import MorParams, MorPublicKey, keygen


def run(*argv):
    return main([str(a) for a in argv])


def test_keygen_deterministic_under_seed(tmp_path):
    outs = []
    for tag in ("a", "b"):
        pub = tmp_path / f"pub-{tag}.json"
        priv = tmp_path / f"priv-{tag}.json"
        assert run(
            "keygen", "--d", 3, "--p", 7, "--seed", 1,
            "--out-pub", pub, "--out-priv", priv,
        ) == 0
        outs.append((pub.read_bytes(), priv.read_bytes()))
    assert outs[0] == outs[1]


def test_encrypt_decrypt_round_trip(tmp_path):
    pub = tmp_path / "pub.json"
    priv = tmp_path / "priv.json"
    assert run(
        "keygen", "--d", 3, "--p", 2, "--gamma", 64, "--seed", 5,
        "--out-pub", pub, "--out-priv", priv,
    ) == 0
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"hello")
    ct = tmp_path / "ct.json"
    assert run("encrypt", "--pub", pub, "--in", msg, "--out", ct, "--seed", 9) == 0
    out = tmp_path / "out.bin"
    assert run("decrypt", "--priv", priv, "--in", ct, "--out", out) == 0
    assert out.read_bytes() == b"hello"


def test_decrypt_with_mismatched_degree_exits_2(tmp_path):
    pub3 = tmp_path / "pub3.json"
    priv3 = tmp_path / "priv3.json"
    run("keygen", "--d", 3, "--p", 2, "--gamma", 64, "--seed", 1,
        "--out-pub", pub3, "--out-priv", priv3)
    pub4 = tmp_path / "pub4.json"
    priv4 = tmp_path / "priv4.json"
    run("keygen", "--d", 4, "--p", 2, "--gamma", 64, "--seed", 2,
        "--out-pub", pub4, "--out-priv", priv4)
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"x")
    ct = tmp_path / "ct.json"
    run("encrypt", "--pub", pub4, "--in", msg, "--out", ct, "--seed", 3)
    out = tmp_path / "o.bin"
    assert run("decrypt", "--priv", priv3, "--in", ct, "--out", out) == 2
    assert not out.exists()  # no partial output on error


def test_encrypt_with_degenerate_public_key_exits_2(tmp_path):
    spec = field_spec(7)
    phi = Automorphism.from_conjugator(permutation_matrix(spec, Permutation([2, 3, 1])))
    pub = tmp_path / "pub.json"
    pub.write_text(json.dumps(MorPublicKey(MorParams(spec, 3), phi, phi).to_json()))
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"")
    ct = tmp_path / "ct.json"
    assert run("encrypt", "--pub", pub, "--in", msg, "--out", ct, "--seed", 1) == 2
    assert not ct.exists()


def test_oversize_message_exits_3(tmp_path):
    pub = tmp_path / "pub.json"
    priv = tmp_path / "priv.json"
    run("keygen", "--d", 3, "--p", 7, "--seed", 1, "--out-pub", pub, "--out-priv", priv)
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"too big for GF(7)")
    assert run("encrypt", "--pub", pub, "--in", msg, "--out", tmp_path / "ct.json") == 3


def test_malformed_key_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("encrypt", "--pub", bad, "--in", bad, "--out", tmp_path / "x") == 2
    missing = tmp_path / "nope.json"
    assert run("encrypt", "--pub", missing, "--in", bad, "--out", tmp_path / "x") == 2


def test_huge_degree_with_few_images_exits_2_before_listing_pairs(tmp_path, monkeypatch):
    import morsl.autos as autos

    pub = tmp_path / "pub.json"
    run("keygen", "--d", 3, "--p", 7, "--seed", 1, "--out-pub", pub, "--out-priv", tmp_path / "s.json")
    obj = json.loads(pub.read_text())
    obj["phi"]["d"] = 1_000_000  # six images claim d(d - 1), about 10^12, pairs
    pub.write_text(json.dumps(obj))
    listed = autos.generator_pairs

    def guarded(d):
        # AssertionError is not one of the errors the CLI maps to an exit code
        assert d <= 6, f"generator_pairs({d}) asked for before the image count was checked"
        return listed(d)

    monkeypatch.setattr(autos, "generator_pairs", guarded)
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"x")
    assert run("encrypt", "--pub", pub, "--in", msg, "--out", tmp_path / "ct.json") == 2


def test_keygen_retry_exhaustion_exit_4(tmp_path, monkeypatch):
    import morsl.cli as climod

    monkeypatch.setattr(
        climod, "keygen",
        lambda params, rng: (_ for _ in ()).throw(climod.KeygenFailureError("nope")),
    )
    assert run(
        "keygen", "--d", 3, "--p", 7, "--seed", 1,
        "--out-pub", tmp_path / "p.json", "--out-priv", tmp_path / "s.json",
    ) == 4


def test_analyze_paper_parameters(tmp_path, capsys):
    assert run("analyze", "--d", 7, "--p", 2, "--gamma", 160) == 0
    out = capsys.readouterr().out
    assert "GF(2^7840)" in out
    assert "49" in out
    assert "subexponential" in out


def test_analyze_preset_and_json(tmp_path, capsys):
    dest = tmp_path / "est.json"
    assert run("analyze", "--preset", "toy", "--json", dest) == 0
    obj = json.loads(dest.read_text())
    assert obj["dlp_field_exponent"] == 9
    assert obj["warnings"]


def test_analyze_with_pub(tmp_path, capsys):
    pub = tmp_path / "pub.json"
    priv = tmp_path / "priv.json"
    run("keygen", "--d", 3, "--p", 5, "--seed", 2, "--out-pub", pub, "--out-priv", priv)
    assert run("analyze", "--d", 3, "--p", 5, "--pub", pub, "--json", "-") == 0
    out = capsys.readouterr().out
    assert "lift charpoly irreducible: False" in out
    assert "conjugator charpoly irred: True" in out


def _write_monomial_pub(tmp_path, spec, d, m, rng):
    w = [spec.random_nonzero(rng) for _ in range(d)]
    alpha = Permutation.random(d, rng)
    conj = mat_mul(diagonal_matrix(w), permutation_matrix(spec, alpha))
    pk = MorPublicKey(
        MorParams(spec, d, require_irreducible_lift=False),
        Automorphism.from_conjugator(conj),
        Automorphism.from_conjugator(mat_pow(conj, m)),
    )
    path = tmp_path / "monomial-pub.json"
    path.write_text(json.dumps(pk.to_json()))
    return path


def test_attack_monomial(tmp_path, capsys):
    rng = random.Random(4)
    m = 1234
    path = _write_monomial_pub(tmp_path, field_spec(7), 4, m, rng)
    assert run("attack", "--model", "monomial", "--pub", path) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert m % report["modulus"] in report["residues"]


def test_attack_monomial_on_generic_key_exits_5(tmp_path):
    pub = tmp_path / "pub.json"
    run("keygen", "--d", 3, "--p", 5, "--seed", 3, "--out-pub", pub,
        "--out-priv", tmp_path / "priv.json")
    assert run("attack", "--model", "monomial", "--pub", pub) == 5


def test_attack_bsgs(tmp_path, capsys):
    rng = random.Random(5)
    spec = field_spec(5)
    params = MorParams(spec, 2, require_irreducible_lift=False)
    from morsl.matrix import random_gl

    a = random_gl(spec, 2, rng)
    m = 13
    pk = MorPublicKey(
        params,
        Automorphism.from_conjugator(a),
        Automorphism.from_conjugator(mat_pow(a, m)),
    )
    path = tmp_path / "pub.json"
    path.write_text(json.dumps(pk.to_json()))
    assert run("attack", "--model", "bsgs", "--pub", path, "--budget", 100) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["found"]
    assert pk.phi.power(out["m"]) == pk.phi_m


def test_attack_mw(tmp_path, capsys):
    pub = tmp_path / "pub.json"
    run("keygen", "--d", 2, "--p", 5, "--seed", 6, "--out-pub", pub,
        "--out-priv", tmp_path / "priv.json")
    capsys.readouterr()  # drop keygen's status line
    assert run("attack", "--model", "mw", "--pub", pub) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["found"] and out["verified"]


@pytest.mark.parametrize("model", ["bsgs", "mw", "monomial"])
def test_attack_out_of_budget_exits_6(tmp_path, model):
    # a subprocess, so that a traceback would reach stderr
    if model in ("bsgs", "mw"):
        pub = Path(__file__).parent / "golden" / "pub.json"
    else:
        pub = _write_monomial_pub(tmp_path, field_spec(7), 4, 1234, random.Random(4))
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "morsl.cli", "attack", "--model", model, "--pub", str(pub),
         "--budget", "1"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    assert done.returncode == 6
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


def test_decrypt_of_a_ciphertext_with_a_foreign_transvection_exits_2(tmp_path):
    # a subprocess, so that a traceback would reach stderr.  The image of
    # (1, 2) becomes 1 + e_{1,2}: still a transvection, so the images parse,
    # but no conjugator realizes them all, and the parse's recovery of B_r
    # refuses them
    golden = Path(__file__).parent / "golden"
    obj = json.loads((golden / "ct.json").read_text())
    spec = field_spec(2, 64)
    item = obj["phi_r"]["images"][0]
    assert (item["i"], item["j"]) == (1, 2)
    foreign = transvection(spec, 3, 1, 2, spec.one()).to_json()
    assert item["matrix"] != foreign
    item["matrix"] = foreign
    ct, out = tmp_path / "ct.json", tmp_path / "out.bin"
    ct.write_text(json.dumps(obj))
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "morsl.cli", "decrypt", "--priv", str(golden / "priv.json"),
         "--in", str(ct), "--out", str(out)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
    assert not out.exists()


def test_bench_toy(capsys):
    assert run("bench", "--preset", "toy", "--trials", 1, "--seed", 1) == 0
    out = capsys.readouterr().out
    assert "worst-case bound" in out
    assert "d^2 + (gamma/2)*d^2.5" in out
    assert "within bound              : True" in out


def test_keygen_requires_params(tmp_path):
    assert run("keygen", "--out-pub", tmp_path / "a", "--out-priv", tmp_path / "b") == 2


def test_golden_files(tmp_path):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden"
    pub = tmp_path / "pub.json"
    priv = tmp_path / "priv.json"
    ct = tmp_path / "ct.json"
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"golden")
    run("keygen", "--d", 3, "--p", 2, "--gamma", 64, "--seed", 11,
        "--out-pub", pub, "--out-priv", priv)
    run("encrypt", "--pub", pub, "--in", msg, "--out", ct, "--seed", 12)
    assert pub.read_bytes() == (golden / "pub.json").read_bytes()
    assert priv.read_bytes() == (golden / "priv.json").read_bytes()
    assert ct.read_bytes() == (golden / "ct.json").read_bytes()
    out = tmp_path / "out.bin"
    run("decrypt", "--priv", golden / "priv.json", "--in", golden / "ct.json", "--out", out)
    assert out.read_bytes() == b"golden"


def test_golden_analyze_and_attack(tmp_path, capsys):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden"
    est = tmp_path / "est.json"
    assert run("analyze", "--d", 3, "--p", 5, "--json", est) == 0
    assert est.read_bytes() == (golden / "analyze.json").read_bytes()
    capsys.readouterr()
    rng = random.Random(21)
    path = _write_monomial_pub(tmp_path, field_spec(7), 4, 977, rng)
    assert run("attack", "--model", "monomial", "--pub", path) == 0
    out = capsys.readouterr().out
    assert out.encode() == (golden / "attack-monomial.json").read_bytes()


def test_golden_bench(capsys):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden"
    assert run("bench", "--preset", "toy", "--trials", 2, "--seed", 3) == 0
    out = capsys.readouterr().out
    assert out.encode() == (golden / "bench-toy.txt").read_bytes()


def test_oversized_field_in_key_file_exits_2_before_any_field_test(tmp_path, monkeypatch):
    import time

    import morsl.field as field

    # x^2281 + x^715 + 1 is irreducible: proving it takes over a second,
    # so the size bound must refuse the spec before the test starts
    pub = json.loads((Path(__file__).parent / "golden" / "pub.json").read_text())
    pub["params"]["spec"] = {
        "p": "2", "gamma": 2281,
        "modulus": ["1" if i in (0, 715, 2281) else "0" for i in range(2282)],
    }
    path, msg = tmp_path / "pub.json", tmp_path / "m.bin"
    path.write_text(json.dumps(pub))
    msg.write_bytes(b"x")

    def refuse(*args):
        raise AssertionError("irreducibility test run on an oversized field")

    monkeypatch.setattr(field, "_gf2_is_irreducible", refuse)
    t0 = time.perf_counter()
    assert run("encrypt", "--pub", path, "--in", msg, "--out", tmp_path / "ct.json") == 2
    assert time.perf_counter() - t0 < 0.25
