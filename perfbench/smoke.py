"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload reduced (`--reduced --seconds 1`), untraced and
traced, and checks that the last output line has exactly the result
keys, that it carries every metric BENCHMARK.json names for that mode
with its unit, that no operation failed, and that the full report holds
the workload's own metrics (those named in perfbench/NOTES.md) with
error_rate 0.  Exits 1 if any check fails.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

WORKLOAD_METRICS = {
    "paper-roundtrip": ("setup_s", "keygen_s", "encrypt_s", "decrypt_s",
                        "fmuls_per_msg", "file_bytes", "error_rate"),
    "small-session": ("setup_s", "keygen_s", "encrypt_s", "decrypt_s", "encrypt_s_p90",
                      "decrypt_s_p90", "msgs_per_s", "fmuls_per_msg", "error_rate"),
    "lab-attacks": ("setup_s", "attacks_per_s", "fmuls_per_attack", "mw_success",
                    "error_rate"),
}


def check(workload: str, trace: int, bench: dict) -> list[str]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--reduced"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: {got}")
    report_path = os.path.join(".perfbench-out", f"{workload}-s1-t{trace}.json")
    with open(report_path) as fh:
        report = json.load(fh)
    own = report["workload_metrics"]
    for name in WORKLOAD_METRICS[workload]:
        if name not in own or not own[name].get("unit"):
            problems.append(f"report lacks {name}")
    if own.get("error_rate", {}).get("value") != 0:
        problems.append(f"error_rate {own.get('error_rate')}")
    if trace and not os.path.isfile(report_path.replace(".json", "-spans.jsonl")):
        problems.append("no span file")
    return problems


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    failed = False
    for workload in WORKLOAD_METRICS:
        for trace in (0, 1):
            problems = check(workload, trace, bench)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace={trace}")
            for p in problems:
                print(f"     {p}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
