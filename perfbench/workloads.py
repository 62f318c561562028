"""The three benchmark workloads, their set-up, and field calibration.

Every workload is a closed loop: one client, one process, one thread.
Inputs come only from the seed.  A workload repeats its unit of work
(a paper round trip, a message, a mix of attacks) until `seconds` have
passed and at least `min_units` units are done; exact counts (field
multiplications, MW success) are taken over the first `min_units`
units only, so they repeat exactly at a seed whatever the machine speed.

morsl is imported inside the functions, never at module level, so that
set-up time includes the import.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import statistics
import tempfile
import time

# Fields each workload computes in, by calibration name.
FIELDS = {
    "gf2_160": (2, 160),
    "gf2_16": (2, 16),
    "gf2_8": (2, 8),
    "gf2_4": (2, 4),
    "gf7": (7, 1),
    "gf5": (5, 1),
    "gf3": (3, 1),
}
WORKLOAD_FIELDS = {
    "paper-roundtrip": ("gf2_160",),
    "small-session": ("gf2_16",),
    "lab-attacks": ("gf2_8", "gf2_4", "gf7", "gf5", "gf3"),
}

SMALL_MIN_MSGS = 100  # at least ten encrypt and decrypt samples beyond p90
LAB_MIN_MIXES = 4
LAB_PROBE_INSTANCES = 15  # tracing-overhead probe: head of the first mix
RUN_CAP_S = 150.0  # stop early rather than pass the 180 s exit limit

# One lab mix: (attack, d, field, instances).  MW runs on the same path
# as `morsl attack --model mw`; validate_params takes the recovered
# conjugator of the first MW key at each (d, q).
MW_CASES = (
    (3, "gf7", 4), (3, "gf2_4", 4), (3, "gf2_8", 4),
    (4, "gf7", 3), (4, "gf2_4", 3),
    (5, "gf3", 3),
)
BSGS_CASES = ((3, "gf5"), (3, "gf7"))
BSGS_ORDER_BOUND = 4096  # the CLI default for `attack --model bsgs`
MONOMIAL_CASES = tuple((d, "gf7") for d in range(3, 8))


def _rng(seed: int, *tags) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed,) + tags))


def _spec(name: str):
    from morsl import field_spec

    p, gamma = FIELDS[name]
    return field_spec(p, gamma)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int, rep: int = 0, reduced: bool = False) -> dict:
    """Import, field construction and lazy table warm-up; on
    small-session also the session key.  Returns the workload state."""
    import morsl  # noqa: F401  (the import is part of set-up)
    from morsl import cli  # noqa: F401

    state = {}
    for name in WORKLOAD_FIELDS[_base(workload, reduced)]:
        spec = _spec(name)
        _ = spec.one() * spec.from_val(spec.q - 1)  # builds tables for small q
        state[name] = spec
    if workload == "small-session":
        from morsl import MorParams, keygen

        params = MorParams(state["gf2_16"], 5)
        t0 = time.perf_counter()
        state["key"] = keygen(params, _rng(seed, "session-key", rep))
        state["keygen_s"] = time.perf_counter() - t0
        state["params"] = params
    return state


def _base(workload: str, reduced: bool) -> str:
    # the reduced paper round trip runs the same CLI path at the small preset
    if workload == "paper-roundtrip" and reduced:
        return "small-session"
    return workload


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


class Timer:
    """Wall time and field multiplications of one call."""

    def __init__(self):
        from morsl.field import cost_counter

        self._counter = cost_counter
        self.seconds = 0.0
        self.fmuls = 0

    def __enter__(self):
        self._c0 = self._counter()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._t0
        self.fmuls = self._counter() - self._c0
        return False


def p90(values) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


def _done(t_start, seconds, units, min_units) -> bool:
    elapsed = time.perf_counter() - t_start
    return elapsed >= RUN_CAP_S or (elapsed >= seconds and units >= min_units)


class Outcome:
    """What a workload hands back to run.py."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.e2e: dict[str, float] = {}
        self.detail: dict[str, tuple[float, str]] = {}
        self.layer: dict[str, float] = {}
        self.probe = None  # callable() -> (seconds, ops): tracing-overhead probe

    def fail(self, what: str) -> None:
        self.failed += 1
        self.detail.setdefault("first_failure", (what, "text"))


# ---------------------------------------------------------------------------
# paper-roundtrip
# ---------------------------------------------------------------------------


def paper_roundtrip(state, seed, seconds, tmp_root, tracer=None, reduced=False) -> Outcome:
    """Fresh paper-preset key per round trip, one message, all through
    `morsl.cli.main` on files (keygen -> encrypt -> decrypt)."""
    from morsl import cli, field_spec, message_capacity

    preset = "small" if reduced else "paper"
    cfg = cli.PRESETS[preset]
    cap = message_capacity(field_spec(cfg["p"], cfg["gamma"]))
    out = Outcome()
    kg, enc, dec, fm_kg, fm_msg, sizes = [], [], [], [], [], []
    t_start = time.perf_counter()
    trip = 0
    workdir = tempfile.mkdtemp(dir=tmp_root, prefix="paper-")
    while not _done(t_start, seconds, trip, 1):
        rng = _rng(seed, "paper", trip)
        msg = rng.randbytes(cap)
        files = {k: os.path.join(workdir, f"{trip}-{k}") for k in ("pub", "priv", "msg", "ct", "out")}
        with open(files["msg"], "wb") as fh:
            fh.write(msg)
        calls = (
            ["keygen", "--preset", preset, "--seed", str(rng.getrandbits(32)),
             "--out-pub", files["pub"], "--out-priv", files["priv"]],
            ["encrypt", "--pub", files["pub"], "--in", files["msg"], "--out", files["ct"],
             "--seed", str(rng.getrandbits(32))],
            ["decrypt", "--priv", files["priv"], "--in", files["ct"], "--out", files["out"]],
        )
        if tracer is not None:
            tracer.op = trip
        timers = []
        out.attempted += 1
        for argv in calls:
            with Timer() as t, contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            timers.append(t)
            if code != 0:
                break
        trip += 1
        if len(timers) < 3 or code != 0:
            out.fail(f"cli exit {code} at round trip {trip - 1}")
            continue
        with open(files["out"], "rb") as fh:
            if fh.read() != msg:
                out.fail(f"wrong plaintext at round trip {trip - 1}")
                continue
        kg.append(timers[0].seconds)
        enc.append(timers[1].seconds)
        dec.append(timers[2].seconds)
        fm_kg.append(timers[0].fmuls)
        fm_msg.append(timers[1].fmuls + timers[2].fmuls)
        sizes.append(tuple(os.path.getsize(files[k]) for k in ("pub", "priv", "ct")))
    if tracer is not None:
        tracer.op = None
    if not enc:
        return out
    last = files

    out.e2e = {
        "encrypt_s_p90": p90(enc),
        "decrypt_s_p90": p90(dec),
        "fmuls_per_op": fm_msg[0],
    }
    out.detail = {
        "round_trips": (len(enc), "count"),
        "keygen_s": (statistics.median(kg), "s"),
        "encrypt_s": (statistics.median(enc), "s"),
        "decrypt_s": (statistics.median(dec), "s"),
        "fmuls_per_msg": (fm_kg[0] + fm_msg[0], "count"),
        "file_bytes": (sum(sizes[0]), "bytes"),
        "error_rate": (out.failed / out.attempted, "ratio"),
    }
    out.layer = {
        "cli.pub_bytes": sizes[0][0],
        "cli.priv_bytes": sizes[0][1],
        "cli.ct_bytes": sizes[0][2],
    }

    def probe():
        # the decrypt call of the last round trip, replayed on its files
        with Timer() as t, contextlib.redirect_stdout(io.StringIO()):
            cli.main(["decrypt", "--priv", last["priv"], "--in", last["ct"], "--out", last["out"]])
        return t.seconds, 1

    out.probe = probe
    return out


# ---------------------------------------------------------------------------
# small-session
# ---------------------------------------------------------------------------


def small_session(state, seed, seconds, tmp_root, tracer=None, reduced=False) -> Outcome:
    """One small-preset key from set-up; random capacity-length messages
    encrypted and decrypted in memory."""
    from morsl import protocol

    params = state["params"]
    pk, sk = state["key"]
    cap = protocol.message_capacity(params.spec)
    min_msgs = 12 if reduced else SMALL_MIN_MSGS
    out = Outcome()

    def one(rng, i):
        msg = rng.randbytes(cap)
        if tracer is not None:
            tracer.op = i
        with Timer() as te:
            ct = protocol.encrypt(pk, protocol.encode_message(msg, params), rng)
        with Timer() as td:
            got = protocol.decode_message(protocol.decrypt(sk, ct))
        return te, td, got == msg

    enc, dec, fmuls = [], [], []
    rng = _rng(seed, "small-session")
    t_start = time.perf_counter()
    while not _done(t_start, seconds, len(enc), min_msgs):
        out.attempted += 1
        te, td, ok = one(rng, out.attempted - 1)
        if not ok:
            out.fail(f"wrong plaintext at message {out.attempted - 1}")
            continue
        enc.append(te.seconds)
        dec.append(td.seconds)
        fmuls.append(te.fmuls + td.fmuls)
    wall = time.perf_counter() - t_start
    if tracer is not None:
        tracer.op = None
    if not enc:
        return out
    exact = fmuls[:min_msgs]
    out.e2e = {
        "encrypt_s_p90": p90(enc),
        "decrypt_s_p90": p90(dec),
        "fmuls_per_op": sum(exact) / len(exact),
    }
    out.detail = {
        "messages": (len(enc), "count"),
        "samples_beyond_p90": (sum(1 for v in enc if v > p90(enc)), "count"),
        "keygen_s": (state["keygen_s"], "s"),
        "encrypt_s": (statistics.median(enc), "s"),
        "decrypt_s": (statistics.median(dec), "s"),
        "encrypt_s_p90": (p90(enc), "s"),
        "decrypt_s_p90": (p90(dec), "s"),
        "msgs_per_s": (len(enc) / wall, "1/s"),
        "fmuls_per_msg": (sum(exact) / len(exact), "count"),
        "error_rate": (out.failed / out.attempted, "ratio"),
    }

    def probe():
        prng = _rng(seed, "small-session-probe")
        t0 = time.perf_counter()
        for i in range(5):
            one(prng, f"probe-{i}")
        return time.perf_counter() - t0, 5

    out.probe = probe
    return out


# ---------------------------------------------------------------------------
# lab-attacks
# ---------------------------------------------------------------------------


def _lab_instances(seed: int, mix: int):
    """Instance list of one mix: (kind, d, field name, rng)."""
    insts = []
    for d, fname, count in MW_CASES:
        for k in range(count):
            insts.append(("mw", d, fname, _rng(seed, "lab", mix, "mw", d, fname, k)))
            if k == 0:
                insts.append(("validate", d, fname, None))  # uses the MW key above
    for d, fname in BSGS_CASES:
        insts.append(("bsgs", d, fname, _rng(seed, "lab", mix, "bsgs", d, fname)))
    for d, fname in MONOMIAL_CASES:
        insts.append(("monomial", d, fname, _rng(seed, "lab", mix, "monomial", d)))
    return insts


def _monomial_key(spec, d, rng):
    """Diagonal-times-permutation conjugator and its public key."""
    from morsl import matrix, protocol
    from morsl.autos import Automorphism

    w = [spec.random_nonzero(rng) for _ in range(d)]
    alpha = matrix.Permutation.random(d, rng)
    conj = matrix.mat_mul(matrix.diagonal_matrix(w), matrix.permutation_matrix(spec, alpha))
    m = rng.randrange(2, spec.q ** (d * d) - 1)
    params = protocol.MorParams(spec, d, require_irreducible_lift=False)
    pk = protocol.MorPublicKey(
        params,
        Automorphism.from_conjugator(conj),
        Automorphism.from_conjugator(matrix.mat_pow(conj, m)),
    )
    return pk, m


def lab_attacks(state, seed, seconds, tmp_root, tracer=None, reduced=False) -> Outcome:
    """A fixed mix of security-lab attacks on keys as keygen returns them."""
    from morsl import autos, matrix, protocol, seclab

    min_mixes = 1 if reduced else LAB_MIN_MIXES
    out = Outcome()
    attack_s, exact_fm, enc, dec = [], [], [], []
    kinds: dict[str, list[int]] = {}  # kind -> [attempted, verified]
    mw_cells: dict[str, list[int]] = {}  # "d<d>.<field>" -> [attempted, verified]
    exact_mw = [0, 0]  # MW [attempted, verified] in the first min_mixes mixes

    def gate_roundtrip(pk, n, b, rng):
        """Exponent n must decrypt a fresh ciphertext under pk."""
        msg = rng.randbytes(protocol.message_capacity(pk.params.spec))
        with Timer() as te:
            ct = protocol.encrypt(pk, protocol.encode_message(msg, pk.params), rng)
        with Timer() as td:
            got = protocol.decode_message(protocol.decrypt(protocol.MorPrivateKey(n, b), ct))
        return te.seconds, td.seconds, got == msg

    def run_instance(kind, d, fname, rng, last_mw):
        """(attack Timer, verified, wrong result, gate encrypt/decrypt
        seconds or None) for one attack."""
        spec = state[fname]
        if kind == "mw":
            pk, _sk = protocol.keygen(protocol.MorParams(spec, d), rng)
            with Timer() as t:
                b = autos.recover_conjugator(pk.phi)
                b_m = autos.recover_conjugator(pk.phi_m)
                lifted = seclab.lift_operator(b).matrix
                lifted_m = seclab.lift_operator(b_m).matrix
                n = seclab.mw_reduce(lifted, lifted_m, allow_reducible=True)
                verified = n is not None and matrix.mat_pow(lifted, n) == lifted_m
            last_mw[(d, fname)] = (pk, b)
            if n is None:
                return t, False, False, None  # found nothing: lowers mw_success only
            if not verified:
                return t, False, True, None
            e, dd, ok = gate_roundtrip(pk, n, b, rng)
            return t, ok, not ok, (e, dd)
        if kind == "validate":
            pk, b = last_mw[(d, fname)]
            with Timer() as t:
                est = seclab.validate_params(d, spec, b)
            ok = est.dlp_field_exponent == d * d and est.conjugator_charpoly_irreducible is True
            return t, ok, not ok, None
        if kind == "bsgs":
            pk, _sk = protocol.keygen(protocol.MorParams(spec, d), rng)
            with Timer() as t:
                ops = seclab.automorphism_group_ops(spec, d)
                n = seclab.bsgs_dlog(pk.phi, pk.phi_m, BSGS_ORDER_BOUND, ops)
            if n is None:
                return t, False, False, None
            ok = pk.phi.power(n) == pk.phi_m
            return t, ok, not ok, None
        # monomial
        pk, m = _monomial_key(spec, d, rng)
        with Timer() as t:
            report = seclab.monomial_cycle_attack(pk)
        ok = m % report.modulus in report.residues
        return t, ok, not ok, None

    def run_mix(mix_seed, mix, op_base, record=True, limit=None):
        last_mw = {}
        exact = mix < min_mixes
        for i, (kind, d, fname, rng) in enumerate(_lab_instances(mix_seed, mix)[:limit]):
            if tracer is not None:
                tracer.op = f"{op_base}{mix}.{i}"
            if not record:
                run_instance(kind, d, fname, rng, last_mw)
                continue
            out.attempted += 1
            try:
                t, verified, wrong, gate = run_instance(kind, d, fname, rng, last_mw)
            except Exception as exc:  # any raise is a failed operation, counted
                out.fail(f"{kind} d={d} {fname} mix {mix}: {exc!r}")
                continue
            tallies = [kinds.setdefault(kind, [0, 0])]
            if kind == "mw":
                tallies.append(mw_cells.setdefault(f"d{d}.{fname}", [0, 0]))
                if exact:
                    tallies.append(exact_mw)
            for tally in tallies:
                tally[0] += 1
                tally[1] += verified
            if wrong:
                out.fail(f"{kind} d={d} {fname} mix {mix}: wrong result")
                continue
            attack_s.append(t.seconds)
            if exact:
                exact_fm.append(t.fmuls)
            if gate is not None and d == 3:
                # one size class, so the p90 does not jump between sizes
                enc.append(gate[0])
                dec.append(gate[1])

    t_start = time.perf_counter()
    mixes = 0
    while not _done(t_start, seconds, mixes, min_mixes):
        run_mix(seed, mixes, "")
        mixes += 1
    if tracer is not None:
        tracer.op = None
    if not attack_s:
        return out
    mw_success = exact_mw[1] / exact_mw[0]
    out.e2e = {
        "encrypt_s_p90": p90(enc),
        "decrypt_s_p90": p90(dec),
        "fmuls_per_op": sum(exact_fm) / len(exact_fm),
    }
    out.detail = {
        "mixes": (mixes, "count"),
        "attacks": (len(attack_s), "count"),
        "attacks_per_s": (len(attack_s) / sum(attack_s), "1/s"),
        "fmuls_per_attack": (sum(exact_fm) / len(exact_fm), "count"),
        "mw_success": (mw_success, "ratio"),
        "gate_encrypt_s_p90": (p90(enc), "s"),
        "gate_decrypt_s_p90": (p90(dec), "s"),
        "error_rate": (out.failed / out.attempted, "ratio"),
    }
    for kind, (n, ok) in sorted(kinds.items()):
        out.detail[f"{kind}.verified"] = (ok / n, "ratio")
    for cell, (n, ok) in sorted(mw_cells.items()):
        out.detail[f"mw_success.{cell}"] = (ok / n, "ratio")
    out.layer = {"seclab.mw_reduce.success_ratio": mw_success}

    def probe():
        # the d=3 MW and validator instances at the head of the first mix
        t0 = time.perf_counter()
        run_mix(seed, 0, "probe-", record=False, limit=LAB_PROBE_INSTANCES)
        return time.perf_counter() - t0, LAB_PROBE_INSTANCES

    out.probe = probe
    return out


WORKLOADS = {
    "paper-roundtrip": paper_roundtrip,
    "small-session": small_session,
    "lab-attacks": lab_attacks,
}


# ---------------------------------------------------------------------------
# field calibration (traced runs)
# ---------------------------------------------------------------------------


def calibrate_fields(seed: int, n: int = 400, batches: int = 5) -> dict[str, tuple[float, float]]:
    """Median microseconds per `*` and per `.inv()` on seeded random
    nonzero elements of every field, after table warm-up."""
    rates = {}
    for name in FIELDS:
        spec = _spec(name)
        rng = _rng(seed, "calibrate", name)
        xs = [spec.random_nonzero(rng) for _ in range(n)]
        ys = [spec.random_nonzero(rng) for _ in range(n)]
        _ = xs[0] * ys[0], xs[0].inv()
        mul, inv = [], []
        for _b in range(batches):
            t0 = time.perf_counter()
            for x, y in zip(xs, ys):
                x * y
            t1 = time.perf_counter()
            for x in xs:
                x.inv()
            t2 = time.perf_counter()
            mul.append((t1 - t0) / n * 1e6)
            inv.append((t2 - t1) / n * 1e6)
        rates[name] = (statistics.median(mul), statistics.median(inv))
    return rates
