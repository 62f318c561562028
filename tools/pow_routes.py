"""Predicted and counted multiplications, and times, of each route of a
key's long power.

    python3 tools/pow_routes.py [RUNS]

For the key that keygen draws with seed 1 at the toy, small and paper
presets, raises x^s modulo chi_B, B the private conjugator, for one s
below the norm (q^d - 1)/(q - 1), drawn with seed 1, as matrix.KeyField
raises it.  chi_B is taken as keygen leaves it, its certificate decided,
so its store keeps x^q, its Frobenius rows and its squaring table.  Each route
runs on its own copy of chi_B, and each line gives fqpoly's predicted
figure, the count and the best of RUNS (default 5) wall times in
microseconds.  A route that builds runs each time on a fresh copy; a
route on what chi keeps runs each time on the same copy, as a key's
later messages do.  A route that counts less can still take longer, so
compare both columns:

- binary: left-to-right square-and-multiply (fqpoly._pow_mod_cost over
  a field without lanes, fqpoly._pow_x_costs over one with them);
- x^q and Frobenius rows: their build on a chi without a certificate;
- table build: the base-q table for s's digits;
- base-q, with build: the base-q route building the table;
- base-q, table kept: the base-q route once chi keeps the table, its
  products by byte tables where fqpoly._PRODUCT_TABLES_MAX_BYTES allows
  (the small preset) and on the field's lanes otherwise (the paper's).

Only binary fields without multiplication tables (gamma > 8) have lanes
and the base-q route; the toy preset, over GF(7), has the binary line
only.  Standard library only: run it from the repository's root.
"""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from morsl import fqpoly  # noqa: E402
from morsl.cli import PRESETS  # noqa: E402
from morsl.field import cost_counter, field_spec  # noqa: E402
from morsl.fqpoly import FqPoly, char_poly  # noqa: E402
from morsl.protocol import MorParams, keygen  # noqa: E402


def measured(fn, args, runs: int) -> tuple[int, float]:
    """fn's count on the arguments args() returns, and its best wall time
    in microseconds over `runs` calls, each on args()'s arguments."""
    count, best = None, float("inf")
    for _ in range(runs):
        call = args()
        c0, t0 = cost_counter(), time.perf_counter()
        fn(*call)
        best = min(best, time.perf_counter() - t0)
        count = cost_counter() - c0 if count is None else count
    return count, best * 1e6


def twin(f, certified=True):
    """A copy of the monic f that keeps a copy of f's store: its squaring
    rows, lanes, clearing and squaring tables and, if certified, x^q and
    its Frobenius rows; never its base-q table, which keygen's power has
    chi_B keep where it pays."""
    g = FqPoly._from_vals(f.spec, f.coeffs)
    left_out = {"table"} if certified else {"table", "xq", "rows"}
    fqpoly._kept(g).update((k, v) for k, v in fqpoly._kept(f).items() if k not in left_out)
    return g


def routes(preset: str, runs: int) -> list[tuple[str, int, int, float]]:
    cfg = PRESETS[preset]
    spec, d = field_spec(cfg["p"], cfg["gamma"]), cfg["d"]
    _, sk = keygen(MorParams(spec, d), random.Random(1))
    chi = char_poly(sk.conjugator)
    q = spec.q
    s = random.Random(1).randrange(q, (q**d - 1) // (q - 1))
    same = twin(chi)
    if not spec._has_lanes:
        predicted = fqpoly._pow_mod_cost(s, d, spec.p, by_x=True)
        x = FqPoly.x(spec)
        return [("binary", predicted, *measured(x.pow_mod, lambda: (s, same), runs))]
    assert sk.field.certificate  # keygen decided it: chi keeps x^q and its rows
    binary, loop, build = fqpoly._pow_x_costs(s, twin(chi))
    k = len(fqpoly._base_q_digits(s, q))
    frobenius = fqpoly._pow_x_costs(s, twin(chi, certified=False))[2] - build
    fqpoly._base_q_table(same, k)
    return [
        ("binary", binary, *measured(fqpoly._lane_power, lambda: (s, twin(chi), False), runs)),
        ("x^q and Frobenius rows", frobenius,
         *measured(fqpoly._frobenius_rows, lambda: (twin(chi, certified=False),), runs)),
        ("table build", build, *measured(fqpoly._base_q_table, lambda: (twin(chi), k), runs)),
        ("base-q, with build", loop + build,
         *measured(fqpoly._lane_power, lambda: (s, twin(chi), True), runs)),
        ("base-q, table kept", loop, *measured(fqpoly._lane_power, lambda: (s, same, True), runs)),
    ]


def main(runs: int) -> None:
    print(f"{'preset':8} {'route':24} {'predicted':>10} {'counted':>10} {'best µs':>10}")
    for preset in ("toy", "small", "paper"):
        for name, predicted, count, micros in routes(preset, runs):
            print(f"{preset:8} {name:24} {predicted:>10,} {count:>10,} {micros:>10,.0f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
