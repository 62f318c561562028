"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload paper-roundtrip --seed 1 --seconds 20 --trace 0

Run from the repository root; morsl is imported from `src/`.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end metrics of BENCHMARK.json, measured with tracing off; with
`--trace 1` they are its per-layer metrics, from spans recorded around
calls into each morsl module.  A full report (environment, the
workload's own metrics, per-layer numbers) goes to
`.perfbench-out/<workload>-s<seed>-t<trace>.json`, and a traced run
also writes its spans there.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
TMP_DIR = os.path.join(ROOT, ".perfbench-tmp")
SETUP_PROBES = 2  # fresh-process set-ups on top of the in-process one

sys.path.insert(0, HERE)
import workloads  # noqa: E402  (imports no morsl code)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="morsl benchmark: one workload, one seed")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true",
                    help="smoke-test size: small preset on the paper CLI path, fewer units")
    ap.add_argument("--setup-probe", type=int, metavar="REP", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "morsl", "__init__.py")):
        print(f"error: no morsl package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_probe is not None:
        t0 = time.perf_counter()
        workloads.setup(args.workload, args.seed, args.setup_probe, args.reduced)
        print(repr(time.perf_counter() - t0))
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    t0 = time.perf_counter()
    state = workloads.setup(args.workload, args.seed, 0, args.reduced)
    setup_samples = [time.perf_counter() - t0] + _probe_setups(args)

    os.makedirs(TMP_DIR, exist_ok=True)
    tmp_root = tempfile.mkdtemp(dir=TMP_DIR)
    try:
        result = _run(args, bench, state, setup_samples, tmp_root)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(TMP_DIR)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


def _probe_setups(args) -> list[float]:
    """Set-up seconds of SETUP_PROBES fresh processes, each run to completion."""
    samples = []
    for rep in range(1, SETUP_PROBES + 1):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(rep)]
        if args.reduced:
            cmd.append("--reduced")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def _run(args, bench, state, setup_samples, tmp_root) -> dict:
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        outcome = workloads.WORKLOADS[args.workload](
            state, args.seed, args.seconds, tmp_root, tracer, args.reduced
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - t0

    setup_s = statistics.median(setup_samples)
    values = dict(outcome.e2e, setup_s=setup_s)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reduced": args.reduced,
        "environment": _environment(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "wall_s": wall,
        "setup_samples_s": setup_samples,
        "workload_metrics": {
            k: {"value": v, "unit": u}
            for k, (v, u) in dict(outcome.detail, setup_s=(setup_s, "s")).items()
        },
    }
    if tracer is not None and outcome.probe is not None:
        overhead = _trace_overhead(args, outcome)
        values = _layer_values(args, tracer, outcome)
        values["trace.overhead_s"] = overhead["overhead_s_per_op"]
        values["trace.overhead_share"] = overhead["overhead_share"]
        report["tracing_overhead"] = overhead
        report["spans"] = len(tracer.spans)
    metrics_spec = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in metrics_spec if m["name"] in values
    }
    report["metrics"] = metrics
    correct = (
        outcome.attempted > 0 and outcome.failed == 0 and len(metrics) == len(metrics_spec)
    )
    report["correct"] = correct

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-t{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=str)
    if tracer is not None:
        tracer.write_spans(stem + "-spans.jsonl")
    for k, v in sorted(report["workload_metrics"].items()):
        print(f"{args.workload} {k} = {v['value']} {v['unit']}")
    print(f"report: {os.path.relpath(stem + '.json', ROOT)}")
    return {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def _layer_values(args, tracer, outcome) -> dict:
    """Per-layer values, normalised per operation of the workload."""
    from tracer import TRACED

    ops = max(outcome.attempted, 1)
    agg = tracer.aggregate()
    values = {}
    for mod, path in TRACED:
        name = f"{mod}.{path}"
        row = agg.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "fmuls": 0})
        for key in ("calls", "total_s", "self_s", "fmuls"):
            values[f"{name}.{key}"] = row[key] / ops
    notes = tracer.notes
    pow_calls = agg.get("matrix.mat_pow", {}).get("calls", 0)
    irr_calls = agg.get("fqpoly.is_irreducible", {}).get("calls", 0)
    kg_calls = agg.get("protocol.keygen", {}).get("calls", 0)
    bsgs_calls = agg.get("seclab.bsgs_dlog", {}).get("calls", 0)
    values.update({
        "field.inv.calls": tracer.inv_calls / ops,
        "matrix.mat_pow.exp_bits": notes["matrix.mat_pow.exp_bits"] / pow_calls if pow_calls else 0,
        "fqpoly.is_irreducible.accept_ratio":
            notes["fqpoly.is_irreducible.accepted"] / irr_calls if irr_calls else 0,
        "protocol.keygen.draws_per_key":
            tracer.parent_counts("matrix.random_gl", "protocol.keygen") / kg_calls if kg_calls else 0,
        "seclab.bsgs_dlog.group_ops":
            notes["seclab.bsgs_dlog.group_ops"] / bsgs_calls if bsgs_calls else 0,
        "seclab.mw_reduce.success_ratio": 0,
        "cli.pub_bytes": 0,
        "cli.priv_bytes": 0,
        "cli.ct_bytes": 0,
    })
    values.update(outcome.layer)

    rates = workloads.calibrate_fields(args.seed)
    for fname, (mul_us, inv_us) in rates.items():
        values[f"field.{fname}.mul_us"] = mul_us
        values[f"field.{fname}.inv_us"] = inv_us
    own = workloads.WORKLOAD_FIELDS[workloads._base(args.workload, args.reduced)]
    values["field.mul_us"] = statistics.mean(rates[f][0] for f in own)
    values["field.inv_us"] = statistics.mean(rates[f][1] for f in own)

    return values


def _trace_overhead(args, outcome) -> dict:
    """Traced minus untraced wall time of the same probe work, same seed.

    The order untraced-traced-traced-untraced makes a linear drift in
    machine speed cancel; the paper probe, a 10 s decrypt, runs once each
    way.
    """
    from tracer import Tracer

    order = (False, True) if args.workload == "paper-roundtrip" else (False, True, True, False)
    untraced_s = traced_s = 0.0
    for traced in order:
        probe_tracer = Tracer()
        if traced:
            probe_tracer.install()
        try:
            seconds, probe_ops = outcome.probe()
        finally:
            probe_tracer.uninstall()
        if traced:
            traced_s += seconds
        else:
            untraced_s += seconds
    return {
        "probe_untraced_s": untraced_s,
        "probe_traced_s": traced_s,
        "overhead_s_per_op": (traced_s - untraced_s) / probe_ops,
        "overhead_share": (traced_s - untraced_s) / untraced_s,
    }


def _environment() -> dict:
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": affinity,
        "git_commit": _git_commit(),
    }


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
