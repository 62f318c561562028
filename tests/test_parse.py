"""Parsing v1 keys and ciphertexts.

Automorphism.from_json factors every image first and checks SL by
v . u = 0, as det(1 + u v^T) = 1 + v . u, so only an image with no
rank-one factor pays for a determinant.  The parse that sent every image
through Automorphism.__init__ is the oracle in tests/oracles.py; the
determinant calls are counted by wrapping matrix.det.  Files are
untrusted: list lengths and duplicate pairs are checked before any
matrix is read, a value of the wrong JSON type is a ValueError (exit 2),
and a derandomized fuzz of the golden files checks that every mutant
ends in exit 0 with the original plaintext, exit 2 or exit 3, within a
wall bound and without a traceback.
"""

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

import morsl.matrix as matrix
from morsl.autos import Automorphism, InvalidAutomorphismError, _factor_rank1, recover_conjugator
from morsl.cli import main
from morsl.field import FieldElement, cost_counter, cost_reset, field_spec
from morsl.matrix import Matrix, diagonal_matrix, random_gl, random_sl
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


def _without_rank_one_factor(draw, spec, d, rng):
    while True:
        m = draw(spec, d, rng)
        if _factor_rank1(spec, d, m) is None:
            return m


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
    # k images replaced by SL matrices that are mostly not rank-one updates
    rng = random.Random(seed)
    phi = Automorphism.from_conjugator(random_gl(spec, d, rng))
    obj = phi.to_json()
    for item in rng.sample(obj["images"], min(k, len(obj["images"]))):
        item["matrix"] = random_sl(spec, d, rng).to_json()
    parsed, dets = _parse(obj)
    want = automorphism_from_json_via_init(obj)
    assert parsed == want
    assert parsed._rank1 == want._rank1
    assert dets == list(parsed._rank1.values()).count(None)


@PROPERTY
@given(spec=fields_beyond_gf2, d=st.integers(2, 7), seed=st.integers(0, 2**32))
def test_rank_one_image_outside_sl_is_refused_without_determinant(spec, d, seed):
    rng = random.Random(seed)
    phi = Automorphism.from_conjugator(random_gl(spec, d, rng))
    lam = spec.random_nonzero(rng)
    while lam == spec.one():
        lam = spec.random_nonzero(rng)
    bad = diagonal_matrix([lam] + [spec.one()] * (d - 1))  # 1 + (lam - 1) e_{1,1}
    obj = _with_image(phi, rng.choice(sorted(phi.images)), bad)
    with _counting_det() as det, pytest.raises(InvalidAutomorphismError):
        Automorphism.from_json(obj)
    assert det.call_count == 0
    with pytest.raises(InvalidAutomorphismError):
        automorphism_from_json_via_init(obj)


@PROPERTY
@given(spec=fields, d=st.integers(2, 7), seed=st.integers(0, 2**32))
def test_sl_image_without_rank_one_factor_takes_one_determinant(spec, d, seed):
    rng = random.Random(seed)
    phi = Automorphism.from_conjugator(random_gl(spec, d, rng))
    key = rng.choice(sorted(phi.images))
    obj = _with_image(phi, key, _without_rank_one_factor(random_sl, spec, d, rng))
    parsed, dets = _parse(obj)
    assert dets == 1
    assert parsed._rank1[key] is None
    assert parsed == automorphism_from_json_via_init(obj)


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

    obj = _with_image(phi, rng.choice(sorted(phi.images)), _without_rank_one_factor(non_sl, spec, d, rng))
    with _counting_det() as det, pytest.raises(InvalidAutomorphismError):
        Automorphism.from_json(obj)
    assert det.call_count == 1
    with pytest.raises(InvalidAutomorphismError):
        automorphism_from_json_via_init(obj)


def test_golden_parse_takes_no_determinant_and_pinned_multiplications():
    # d = 3: at most d^2 + 2d = 15 multiplications per image
    for name, cls, muls in (("pub", MorPublicKey, 180), ("ct", MorCiphertext, 90)):
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
