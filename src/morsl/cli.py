"""Command-line surface: key lifecycle, encryption, analysis, attacks, bench.

Exit codes: 0 success, 2 malformed input, 3 capacity or plaintext format
error, 4 keygen retry exhaustion, 5 attack model mismatch, 6 attack
stopped by its --budget.  Output files are written to a temporary
sibling and renamed on success, so failures never leave partial files
behind.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile

from .autos import InvalidAutomorphismError, recover_conjugator
from .bench import (
    composition_cost_report,
    format_composition_report,
    format_word_stats,
    orbit_length_stats,
    split_ground_stats,
    word_length_stats,
)
from .field import field_spec
from .protocol import (
    CapacityError,
    InvalidCiphertextError,
    KeygenFailureError,
    MessageFormatError,
    MorCiphertext,
    MorParams,
    MorPrivateKey,
    MorPublicKey,
    decode_message,
    decrypt,
    encode_message,
    encrypt,
    keygen,
)
from .seclab import (
    IterationBudgetExceeded,
    WrongAttackModelError,
    automorphism_group_ops,
    bsgs_dlog,
    lift_operator,
    monomial_cycle_attack,
    mw_reduce,
    validate_params,
)

PRESETS = {
    "toy": {"d": 3, "p": 7, "gamma": 1},
    "small": {"d": 5, "p": 2, "gamma": 16},
    "paper": {"d": 7, "p": 2, "gamma": 160},
}

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_FORMAT = 3
EXIT_KEYGEN = 4
EXIT_WRONG_MODEL = 5
EXIT_BUDGET = 6

# largest exponent `attack --model bsgs` searches
BSGS_ORDER_BOUND = 4096


def _write_atomic(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".morsl-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(obj: dict) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _make_rng(seed):
    return random.Random(seed) if seed is not None else random.SystemRandom()


def _params_from_args(args) -> MorParams:
    if getattr(args, "preset", None):
        cfg = PRESETS[args.preset]
        d, p, gamma = cfg["d"], cfg["p"], cfg["gamma"]
    else:
        if args.d is None or args.p is None:
            raise ValueError("either --preset or --d/--p must be given")
        d, p, gamma = args.d, args.p, args.gamma
    modulus = None
    if getattr(args, "modulus", None):
        modulus = tuple(int(c) for c in args.modulus.split(","))
    return MorParams(field_spec(p, gamma, modulus), d)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_keygen(args) -> int:
    params = _params_from_args(args)
    rng = _make_rng(args.seed)
    pk, sk = keygen(params, rng)
    _write_atomic(args.out_pub, _dump_json(pk.to_json()))
    _write_atomic(args.out_priv, _dump_json(sk.to_json()))
    print(f"wrote {args.out_pub} and {args.out_priv}")
    return EXIT_OK


def cmd_encrypt(args) -> int:
    with open(args.pub, "rb") as fh:
        pk = MorPublicKey.from_json(json.load(fh))
    with open(args.infile, "rb") as fh:
        data = fh.read()
    rng = _make_rng(args.seed)
    ct = encrypt(pk, encode_message(data, pk.params), rng)
    _write_atomic(args.out, _dump_json(ct.to_json()))
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_decrypt(args) -> int:
    with open(args.infile, "rb") as fh:
        ct = MorCiphertext.from_json(json.load(fh))
    with open(args.priv, "rb") as fh:
        sk = MorPrivateKey.from_json(ct.payload.spec, json.load(fh))
    data = decode_message(decrypt(sk, ct))
    _write_atomic(args.out, data)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    params = _params_from_args(args)
    conj = None
    if args.pub:
        with open(args.pub, "rb") as fh:
            pk = MorPublicKey.from_json(json.load(fh))
        if pk.params.d != params.d or pk.params.spec != params.spec:
            raise ValueError("public key does not match the requested parameters")
        conj = recover_conjugator(pk.phi)
    est = validate_params(params.d, params.spec, conj)
    print(est.table())
    if args.json:
        if args.json == "-":
            print(json.dumps(est.to_json(), sort_keys=True))
        else:
            _write_atomic(args.json, _dump_json(est.to_json()))
    return EXIT_OK


def cmd_attack(args) -> int:
    with open(args.pub, "rb") as fh:
        pk = MorPublicKey.from_json(json.load(fh))
    spec, d = pk.params.spec, pk.params.d
    if args.model == "monomial":
        report = monomial_cycle_attack(pk, dlog_budget=args.budget)
        out = {"model": "monomial", "report": report.to_json()}
    elif args.model == "bsgs":
        ops = automorphism_group_ops(spec, d)
        n = bsgs_dlog(pk.phi, pk.phi_m, BSGS_ORDER_BOUND, ops, budget=args.budget)
        out = {"model": "bsgs", "order_bound": BSGS_ORDER_BOUND, "found": n is not None, "m": n}
    elif args.model == "mw":
        try:
            b = recover_conjugator(pk.phi)
            b_m = recover_conjugator(pk.phi_m)
        except InvalidAutomorphismError as exc:
            raise WrongAttackModelError(str(exc)) from exc
        lifted = lift_operator(b).matrix
        lifted_m = lift_operator(b_m).matrix
        n = mw_reduce(lifted, lifted_m, allow_reducible=True, dlog_budget=args.budget)
        # mw_reduce returns n only once lifted^n == lifted_m has been checked
        out = {"model": "mw", "found": n is not None, "m": n, "verified": n is not None}
    else:
        raise WrongAttackModelError(f"unknown model {args.model!r}")
    print(json.dumps(out, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = PRESETS[args.preset]
    spec = field_spec(cfg["p"], cfg["gamma"])
    d = cfg["d"]
    rng = random.Random(args.seed if args.seed is not None else 0)
    comp = composition_cost_report(spec, d, rng, trials=args.trials)
    print(format_composition_report(comp))
    samples = 200 if args.preset != "paper" else 20
    print(format_word_stats(word_length_stats(spec, d, samples, rng)))
    sg = split_ground_stats(spec, d, max(20, samples // 4), rng)
    print(
        f"ground-field split expansion: mean {sg['expansion_mean']:.2f} "
        f"(reference gamma/2 = {sg['reference_expansion']:.1f})"
    )
    orbits = orbit_length_stats(d, 50, rng)
    print(f"ordered-pair orbit lengths for random permutations: {orbits['orbit_length_counts']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morsl",
        description="MOR cryptosystem over SL(d,q) with a desk-scale security lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--d", type=int)
        p.add_argument("--p", type=int)
        p.add_argument("--gamma", type=int, default=1)
        p.add_argument("--modulus", help="comma-separated coefficients, constant term first")
        p.add_argument("--preset", choices=sorted(PRESETS))

    p = sub.add_parser("keygen", help="generate a key pair")
    add_params(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-pub", required=True)
    p.add_argument("--out-priv", required=True)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt a byte file")
    p.add_argument("--pub", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    p.add_argument("--priv", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("analyze", help="security estimate for parameters")
    add_params(p)
    p.add_argument("--pub", help="optional public key; lifts its conjugator")
    p.add_argument("--json", help="write the estimate as JSON ('-' for stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("attack", help="run an attack against a public key")
    p.add_argument("--model", choices=("monomial", "bsgs", "mw"), required=True)
    p.add_argument("--pub", required=True)
    p.add_argument("--budget", type=int, help="cap on group operations; exit 6 when hit")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("bench", help="cost accounting report")
    p.add_argument("--preset", choices=sorted(PRESETS), required=True)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CapacityError, MessageFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except KeygenFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_KEYGEN
    except WrongAttackModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WRONG_MODEL
    except IterationBudgetExceeded as exc:
        print(f"error: attack stopped: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (
        InvalidCiphertextError,
        InvalidAutomorphismError,
        ValueError,
        KeyError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
