"""Predicted and counted multiplications of each route of a key's long power.

    python3 tools/pow_routes.py

For the key that keygen draws with seed 1 at the toy, small and paper
presets, raises x^s modulo chi_B, B the private conjugator, for one s
below the norm (q^d - 1)/(q - 1), drawn with seed 1, as matrix.KeyField
raises it.  chi_B is taken as keygen leaves it, its certificate decided,
so it keeps x^q and its Frobenius rows.  Each route runs on its own copy
of chi_B, and each line gives fqpoly's predicted figure and the count:

- binary: left-to-right square-and-multiply (fqpoly._pow_mod_cost over
  a field without lanes, fqpoly._pow_x_costs over one with them);
- x^q and Frobenius rows: their build on a chi without a certificate;
- table build: the base-q table for s's digits;
- base-q, with build: the base-q route building the table;
- base-q, table kept: the base-q route once chi keeps the table.

Only binary fields without multiplication tables (gamma > 8) have lanes
and the base-q route; the toy preset, over GF(7), has the binary line
only.  Standard library only: run it from the repository's root.
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from morsl import fqpoly  # noqa: E402
from morsl.cli import PRESETS  # noqa: E402
from morsl.field import _TABLE_MAX_Q, cost_counter, field_spec  # noqa: E402
from morsl.fqpoly import FqPoly, char_poly  # noqa: E402
from morsl.protocol import MorParams, keygen  # noqa: E402


def counted(fn, *args):
    c0 = cost_counter()
    fn(*args)
    return cost_counter() - c0


def twin(f, certified=True):
    """A copy of the monic f that keeps its squaring rows and, if
    certified, x^q and its Frobenius rows: never its base-q table, which
    keygen's power has chi_B keep where it pays."""
    g = FqPoly._from_vals(f.spec, f.coeffs)
    object.__setattr__(g, "_sq_rows", f._sq_rows)
    if certified:
        frob = fqpoly._kept(f)
        object.__setattr__(g, "_frob", {k: frob[k] for k in ("xq", "rows") if k in frob})
    return g


def routes(preset: str) -> list[tuple[str, int, int]]:
    cfg = PRESETS[preset]
    spec, d = field_spec(cfg["p"], cfg["gamma"]), cfg["d"]
    _, sk = keygen(MorParams(spec, d), random.Random(1))
    chi = char_poly(sk.conjugator)
    q = spec.q
    s = random.Random(1).randrange(q, (q**d - 1) // (q - 1))
    if spec.p != 2 or q <= _TABLE_MAX_Q:
        predicted = fqpoly._pow_mod_cost(s, d, spec.p, by_x=True)
        return [("binary", predicted, counted(FqPoly.x(spec).pow_mod, s, twin(chi)))]
    assert sk.field.certificate  # keygen decided it: chi keeps x^q and its rows
    binary, loop, build = fqpoly._pow_x_costs(s, twin(chi))
    k = len(fqpoly._base_q_digits(s, q))
    fresh = twin(chi, certified=False)
    frobenius = fqpoly._pow_x_costs(s, fresh)[2] - build
    kept = twin(chi)
    table = counted(fqpoly._base_q_table, kept, k)
    return [
        ("binary", binary, counted(fqpoly._lane_power, s, twin(chi), False)),
        ("x^q and Frobenius rows", frobenius, counted(fqpoly._frobenius_rows, fresh)),
        ("table build", build, table),
        ("base-q, with build", loop + build, counted(fqpoly._lane_power, s, twin(chi), True)),
        ("base-q, table kept", loop, counted(fqpoly._lane_power, s, kept, True)),
    ]


def main() -> None:
    print(f"{'preset':8} {'route':24} {'predicted':>10} {'counted':>10}")
    for preset in ("toy", "small", "paper"):
        for name, predicted, count in routes(preset):
            print(f"{preset:8} {name:24} {predicted:>10,} {count:>10,}")


if __name__ == "__main__":
    main()
