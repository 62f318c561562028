"""Parsing v1 keys and ciphertexts.

Automorphism.from_json factors every image first and checks SL by
v . u = 0, as det(1 + u v^T) = 1 + v . u, so it takes no determinant on
any input: an image with no rank-one factor (the identity, or rank 2 and
up) is never an automorphism's image and is refused.  The parse that
sent every image through Automorphism.__init__ is the oracle in
tests/oracles.py, refusals included; the determinant calls are counted
by wrapping matrix.det.  Files are untrusted: the degree, list lengths
and duplicate pairs are checked before any matrix is read, a value of
the wrong JSON type is a ValueError (exit 2), the parts of a key or
ciphertext must share one SL(d, q), and a derandomized fuzz of the
golden files checks that every mutant ends in exit 0 with the original
plaintext, exit 2 or exit 3, within a wall bound and without a
traceback.
"""

import ast
import copy
import json
import random
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import automorphism_from_json_via_init

import morsl
import morsl.autos as autos
import morsl.matrix as matrix
from morsl.autos import Automorphism, InvalidAutomorphismError, _factor_rank1, recover_conjugator
from morsl.cli import main
from morsl.field import FieldElement, FieldSpec, cost_counter, cost_reset, field_spec
from morsl.matrix import Matrix, diagonal_matrix, identity, random_gl, random_sl
from morsl.protocol import MorCiphertext, MorPublicKey

GOLDEN = Path(__file__).parent / "golden"
PROPERTY = settings(max_examples=30)

# prime, odd-extension and binary fields
fields = st.one_of(
    st.builds(field_spec, st.sampled_from((3, 5, 7, 11, 13))),
    st.builds(field_spec, st.sampled_from((3, 5, 7)), st.integers(2, 4)),
    st.builds(field_spec, st.just(2), st.integers(1, 16)),
)
# fields with a scalar other than 0 and 1, so GL is larger than SL
fields_beyond_gf2 = fields.filter(lambda spec: spec.q > 2)


def _counting_det():
    return mock.patch.object(matrix, "det", wraps=matrix.det)


def _parse(obj):
    """Automorphism.from_json and the number of determinants it took."""
    with _counting_det() as det:
        phi = Automorphism.from_json(obj)
    return phi, det.call_count


def _with_image(phi, key, img):
    obj = phi.to_json()
    for item in obj["images"]:
        if (item["i"], item["j"]) == key:
            item["matrix"] = img.to_json()
    return obj


def _of_rank_two_and_up(draw, spec, d, rng):
    # the identity has no factor either; it gets its own test
    while True:
        m = draw(spec, d, rng)
        if _factor_rank1(spec, d, m) is None and m != identity(spec, d):
            return m


def _refused_by_both_routes(obj):
    """from_json refuses obj without a determinant, and so does __init__."""
    with _counting_det() as det, pytest.raises(InvalidAutomorphismError):
        Automorphism.from_json(obj)
    assert det.call_count == 0
    with pytest.raises(InvalidAutomorphismError):
        automorphism_from_json_via_init(obj)


# -- the det-free parse ------------------------------------------------------------


@PROPERTY
@given(spec=fields, d=st.integers(2, 7), seed=st.integers(0, 2**32))
def test_round_trip_takes_no_determinant(spec, d, seed):
    phi = Automorphism.from_conjugator(random_gl(spec, d, random.Random(seed)))
    parsed, dets = _parse(phi.to_json())
    assert dets == 0
    assert parsed == phi
    assert parsed._rank1 == phi._rank1
    assert recover_conjugator(parsed) == recover_conjugator(phi)


@PROPERTY
@given(spec=fields, d=st.integers(2, 7), seed=st.integers(0, 2**32), k=st.integers(0, 3))
def test_parse_equals_the_init_route(spec, d, seed, k):
    # k images replaced by SL matrices that are mostly not rank-one
    # updates: both routes refuse them, or both give the same value
    rng = random.Random(seed)
    phi = Automorphism.from_conjugator(random_gl(spec, d, rng))
    obj = phi.to_json()
    for item in rng.sample(obj["images"], min(k, len(obj["images"]))):
        item["matrix"] = random_sl(spec, d, rng).to_json()
    try:
        want = automorphism_from_json_via_init(obj)
    except InvalidAutomorphismError:
        _refused_by_both_routes(obj)
        return
    parsed, dets = _parse(obj)
    assert dets == 0
    assert parsed == want
    assert parsed._rank1 == want._rank1


@PROPERTY
@given(spec=fields_beyond_gf2, d=st.integers(2, 7), seed=st.integers(0, 2**32))
def test_rank_one_image_outside_sl_is_refused_without_determinant(spec, d, seed):
    rng = random.Random(seed)
    phi = Automorphism.from_conjugator(random_gl(spec, d, rng))
    lam = spec.random_nonzero(rng)
    while lam == spec.one():
        lam = spec.random_nonzero(rng)
    bad = diagonal_matrix([lam] + [spec.one()] * (d - 1))  # 1 + (lam - 1) e_{1,1}
    _refused_by_both_routes(_with_image(phi, rng.choice(sorted(phi.images)), bad))


@PROPERTY
@given(spec=fields, d=st.integers(2, 7), seed=st.integers(0, 2**32))
def test_sl_image_without_rank_one_factor_is_refused_without_determinant(spec, d, seed):
    rng = random.Random(seed)
    phi = Automorphism.from_conjugator(random_gl(spec, d, rng))
    bad = _of_rank_two_and_up(random_sl, spec, d, rng)
    _refused_by_both_routes(_with_image(phi, rng.choice(sorted(phi.images)), bad))


@PROPERTY
@given(spec=fields, d=st.integers(2, 7), seed=st.integers(0, 2**32))
def test_identity_image_is_refused_without_determinant(spec, d, seed):
    rng = random.Random(seed)
    phi = Automorphism.from_conjugator(random_gl(spec, d, rng))
    _refused_by_both_routes(_with_image(phi, rng.choice(sorted(phi.images)), identity(spec, d)))


@PROPERTY
@given(spec=fields_beyond_gf2, d=st.integers(2, 7), seed=st.integers(0, 2**32))
def test_non_sl_image_without_rank_one_factor_is_refused(spec, d, seed):
    rng = random.Random(seed)
    phi = Automorphism.from_conjugator(random_gl(spec, d, rng))

    def non_sl(spec, d, rng):
        while True:
            m = random_gl(spec, d, rng)
            if not m.is_sl():
                return m

    bad = _of_rank_two_and_up(non_sl, spec, d, rng)
    _refused_by_both_routes(_with_image(phi, rng.choice(sorted(phi.images)), bad))


def test_golden_parse_takes_no_determinant_and_pinned_multiplications():
    # d = 3: at most d^2 + 2d = 15 multiplications per image; the
    # ciphertext's parse adds the recovery of B_r, 91 more
    for name, cls, muls in (("pub", MorPublicKey, 180), ("ct", MorCiphertext, 90 + 91)):
        obj = json.loads((GOLDEN / f"{name}.json").read_text())
        with _counting_det() as det:
            cost_reset()
            cls.from_json(obj)
            assert (cost_counter(), det.call_count) == (muls, 0), name


def test_paper_size_parse_cost():
    spec, d = field_spec(2, 160), 7
    obj = Automorphism.from_conjugator(random_gl(spec, d, random.Random(7))).to_json()
    cost_reset()
    _, dets = _parse(obj)
    assert dets == 0
    assert cost_counter() <= d * (d - 1) * (d * d + 2 * d)


# -- bounded, typed parse ------------------------------------------------------------


def run(*argv):
    return main([str(a) for a in argv])


def _golden():
    return {name: json.loads((GOLDEN / f"{name}.json").read_text()) for name in ("pub", "ct", "priv")}


def _encrypt(tmp, pub_obj):
    pub, msg = Path(tmp) / "pub.json", Path(tmp) / "msg.bin"
    pub.write_text(json.dumps(pub_obj))
    msg.write_bytes(b"golden")
    return run("encrypt", "--pub", pub, "--in", msg, "--out", Path(tmp) / "ct.json", "--seed", 12)


def _counting_calls(monkeypatch, cls, name):
    """Wrap the classmethod cls.name; returns the list of its calls' arguments."""
    calls = []
    real = getattr(cls, name).__func__

    def counted(owner, *args):
        calls.append(args)
        return real(owner, *args)

    monkeypatch.setattr(cls, name, classmethod(counted))
    return calls


@pytest.mark.parametrize("repeat", ["every image 1000 times", "one pair twice"])
def test_image_list_is_checked_before_any_matrix_is_parsed(tmp_path, monkeypatch, repeat):
    pub = _golden()["pub"]
    images = pub["phi"]["images"]
    if repeat == "one pair twice":
        images[1] = copy.deepcopy(images[0])
    else:
        pub["phi"]["images"] = images * 1000
    parsed = _counting_calls(monkeypatch, Matrix, "from_json")
    assert _encrypt(tmp_path, pub) == 2
    assert parsed == []


@pytest.mark.parametrize("rows", ["extra row", "long row"])
def test_matrix_shape_is_checked_before_any_entry(monkeypatch, rows):
    obj = _golden()["priv"]["conjugator"]
    if rows == "extra row":
        obj["rows"] = obj["rows"] * 1000
    else:
        obj["rows"][2] = obj["rows"][2] * 1000
    converted = _counting_calls(monkeypatch, FieldElement, "from_hex")
    with pytest.raises(ValueError):
        Matrix.from_json(field_spec(2, 64), obj)
    assert converted == []


@pytest.mark.parametrize(
    "name, path, value",
    [
        ("pub", ("phi", "images"), 6),
        ("pub", ("phi", "images", 0), "1:0"),
        ("pub", ("phi", "images", 0, "matrix", "rows"), 3),
        ("pub", ("phi", "images", 0, "matrix", "rows", 0, 0), 1),
        ("pub", ("phi", "images", 0, "matrix", "rows", 0, 0), None),
        ("pub", ("phi", "spec"), [2, 64]),
        ("ct", ("payload",), None),
    ],
)
def test_wrong_json_type_exits_2(tmp_path, name, path, value):
    files = _golden()
    _replace(files[name], path, value)
    assert _outcome(tmp_path, files, encrypt_first=name == "pub") == (2, None)


def _automorphism_over(spec_obj, d):
    spec = FieldSpec.from_json(spec_obj)
    return Automorphism.from_conjugator(random_gl(spec, d, random.Random(d))).to_json()


def _mismatched_part(files, case):
    pub, ct = files["pub"], files["ct"]
    spec_obj = pub["params"]["spec"]
    if case == "phi over d = 1":
        pub["phi"]["d"], pub["phi"]["images"] = 1, []
    elif case == "phi_m over d = 4":
        pub["phi_m"] = _automorphism_over(spec_obj, 4)
    elif case == "phi_m over GF(7)":
        pub["phi_m"] = _automorphism_over(field_spec(7).to_json(), 3)
    elif case == "phi_m over another modulus":
        # x^64 + x^4 + x^3 + x + 1, not the golden key's modulus
        modulus = (1, 1, 0, 1, 1) + (0,) * 59 + (1,)
        pub["phi_m"] = _automorphism_over(field_spec(2, 64, modulus).to_json(), 3)
    else:  # payload over d = 4
        ct["payload"] = identity(FieldSpec.from_json(spec_obj), 4).to_json()


@pytest.mark.parametrize(
    "case, message",
    [
        ("phi over d = 1", "degree must be at least 2, got 1"),
        ("phi_m over d = 4", "phi_m is over SL(4, GF(2^64)) but params over SL(3, GF(2^64))"),
        ("phi_m over GF(7)", "phi_m is over SL(3, GF(7)) but params over SL(3, GF(2^64))"),
        (
            "phi_m over another modulus",
            "phi_m is over SL(3, GF(2^64)) with another modulus but params over SL(3, GF(2^64))",
        ),
        ("payload over d = 4", "payload is over SL(4, GF(2^64)) but phi_r over SL(3, GF(2^64))"),
    ],
)
def test_parts_of_another_group_exit_2_before_recovery(tmp_path, monkeypatch, capsys, case, message):
    files = _golden()
    _mismatched_part(files, case)
    recovered = []
    real = autos._conjugator_from_rank1
    monkeypatch.setattr(
        autos, "_conjugator_from_rank1", lambda phi: recovered.append(phi) or real(phi)
    )
    assert _outcome(tmp_path, files, encrypt_first=not case.startswith("payload")) == (2, None)
    assert recovered == []
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "name, path, value",
    [
        ("pub", ("format_version",), True),
        ("pub", ("format_version",), 1.0),
        ("pub", ("format_version",), "1"),
        ("ct", ("format_version",), True),
        ("pub", ("params", "require_irreducible_lift"), "false"),
        ("pub", ("params", "require_irreducible_lift"), 0),
    ],
)
def test_scalar_field_of_another_json_type_exits_2(tmp_path, name, path, value):
    files = _golden()
    _replace(files[name], path, value)
    assert _outcome(tmp_path, files, encrypt_first=name == "pub") == (2, None)


# -- mutation fuzz of the v1 goldens -------------------------------------------------

WALL_BOUND_S = 5.0
JUNK = (None, True, 0, -1, 7, 2.5, "", "x", [], [1], {}, {"d": 3})


def _json_type(x):
    return type(x).__name__


def _is_number(x):
    return (isinstance(x, int) and not isinstance(x, bool)) or (
        isinstance(x, str) and x.lstrip("-").isdigit()
    )


def _nodes(node, path=()):
    yield path, node
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _nodes(v, path + (i,))


def _mutation_sites(golden):
    """file -> mutation kind -> the paths it applies to."""
    sites = {}
    for name, obj in golden.items():
        parents = dict(_nodes(obj))
        by_kind = sites[name] = {}
        for path, node in _nodes(obj):
            kinds = ["retype"]
            if path and isinstance(parents[path[:-1]], dict):
                kinds += ["drop", "duplicate"]
            if _is_number(node):
                kinds.append("number")
            if isinstance(node, list):
                kinds += ["truncate", "repeat"]
            for kind in kinds:
                by_kind.setdefault(kind, []).append(path)
    return sites


class _Pairs(tuple):
    """A JSON object written from (key, value) pairs, so a key may repeat."""


def _dump(node):
    if isinstance(node, dict):
        node = _Pairs(node.items())
    if isinstance(node, _Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(_dump(v) for v in node) + "]"
    return json.dumps(node)


def _get(root, path):
    for step in path:
        root = root[step]
    return root


def _replace(root, path, new):
    if not path:
        return new
    _get(root, path[:-1])[path[-1]] = new
    return root


def _mutate(root, path, kind, data):
    """root with one mutation applied at path."""
    node = _get(root, path)
    if kind == "drop":
        del _get(root, path[:-1])[path[-1]]
        return root
    if kind == "duplicate":
        # the key is written twice, the junk copy before or after the
        # original; json keeps the later one
        parent = _get(root, path[:-1])
        pairs = list(parent.items())
        at = list(parent).index(path[-1]) + data.draw(st.integers(0, 1))
        pairs.insert(at, (path[-1], data.draw(st.sampled_from(JUNK))))
        return _replace(root, path[:-1], _Pairs(pairs))
    if kind == "retype":
        new = data.draw(st.sampled_from([v for v in JUNK if _json_type(v) != _json_type(node)]))
    elif kind == "number":
        v = int(node)
        new = data.draw(st.sampled_from([v - 2, v - 1, v + 1, v + 2, 0, -1, 10**9]).filter(lambda n: n != v))
        if isinstance(node, str):
            new = str(new)
    elif kind == "truncate":
        new = node[: data.draw(st.integers(0, len(node) - 1))]
    else:  # repeat
        new = node * data.draw(st.sampled_from((2, 3, 1000)))
    return _replace(root, path, new)


def _outcome(tmp, files, encrypt_first):
    """Run the CLI on the files; (exit code, decrypted bytes or None)."""
    paths = {}
    for name, obj in files.items():
        paths[name] = Path(tmp) / f"{name}.json"
        paths[name].write_text(_dump(obj))
    msg, out = Path(tmp) / "msg.bin", Path(tmp) / "out.bin"
    msg.write_bytes(b"golden")
    if encrypt_first:
        code = run("encrypt", "--pub", paths["pub"], "--in", msg, "--out", paths["ct"], "--seed", 12)
        if code:
            return code, None
    code = run("decrypt", "--priv", paths["priv"], "--in", paths["ct"], "--out", out)
    return code, out.read_bytes() if code == 0 else None


_GOLDEN = _golden()
_SITES = _mutation_sites(_GOLDEN)


@settings(max_examples=200)
@given(data=st.data())
def test_mutated_golden_files_fail_cleanly(data):
    # file, then kind, then place: the many modulus digits do not crowd
    # out the rarer kinds and files
    name = data.draw(st.sampled_from(sorted(_SITES)))
    kind = data.draw(st.sampled_from(sorted(_SITES[name])))
    path = data.draw(st.sampled_from(_SITES[name][kind]))
    files = dict(_GOLDEN)
    files[name] = _mutate(copy.deepcopy(_GOLDEN[name]), path, kind, data)
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        code, plaintext = _outcome(tmp, files, encrypt_first=name == "pub")
        elapsed = time.perf_counter() - start
    assert code in (0, 2, 3)
    if code == 0:
        assert plaintext == b"golden"
    assert elapsed < WALL_BOUND_S


@pytest.mark.parametrize("m", ["0", "1", "-3"])
def test_golden_private_key_with_an_out_of_range_exponent_exits_2(tmp_path, m):
    # before the range check each decrypted without error to a wrong matrix
    files = dict(_GOLDEN)
    files["priv"] = dict(_GOLDEN["priv"], m=m)
    assert _outcome(tmp_path, files, encrypt_first=False) == (2, None)


# the parsers of format v1: a field, a matrix, an automorphism, and the
# parameter, key and ciphertext files built from them
V1_PARSERS = {
    "FieldSpec", "Matrix", "Automorphism",
    "MorParams", "MorPublicKey", "MorPrivateKey", "MorCiphertext",
}


def _parser_classes(source: str) -> set:
    """Names of the classes in source that define from_json."""
    return {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(s, ast.FunctionDef) and s.name == "from_json" for s in node.body)
    }


def test_only_the_v1_files_have_parsers():
    # every parse is untrusted input, so no other class may grow one
    modules = Path(morsl.__file__).parent.glob("*.py")
    found = set().union(*(_parser_classes(p.read_text()) for p in modules))
    assert found == V1_PARSERS


def test_the_parser_check_sees_a_new_parser():
    source = "class A:\n    def from_json(cls, obj): pass\nclass B:\n    def to_json(self): pass\n"
    assert _parser_classes(source) == {"A"}
