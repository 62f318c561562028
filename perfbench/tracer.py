"""Span tracing around the public functions of each morsl layer.

Wrappers live in the benchmark, not in the program: `Tracer.install`
replaces a function in every loaded morsl module that binds it (a
`from .matrix import mat_pow` makes a per-module binding) and a method
on its class.  Each call records a span (name, start, end, parent span,
operation id, field multiplications) in memory; `aggregate` turns them
into per-layer self time and self multiplication counts, and
`write_spans` saves them when the run ends.

`FieldElement.__mul__` is never wrapped: the multiplication count comes
from `cost_counter()` deltas at span boundaries.  `FieldElement.inv` is
wrapped with a bare call counter, without a span.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute path) of every traced callable; the span name is
# "<module>.<attribute path>".
TRACED = (
    ("matrix", "mat_mul"),
    ("matrix", "mat_inv"),
    ("matrix", "mat_pow"),
    ("matrix", "det"),
    ("matrix", "conjugate"),
    ("matrix", "random_gl"),
    ("autos", "recover_conjugator"),
    ("autos", "Automorphism.from_conjugator"),
    ("autos", "Automorphism.__init__"),
    ("autos", "Automorphism.apply"),
    ("autos", "Automorphism.compose"),
    ("fqpoly", "char_poly"),
    ("fqpoly", "is_irreducible"),
    ("fqpoly", "irreducible_factors"),
    ("fqpoly", "FqPoly.pow_mod"),
    ("linalg", "RowReducer.add_row"),
    ("words", "decompose"),
    ("protocol", "keygen"),
    ("protocol", "encrypt"),
    ("protocol", "decrypt"),
    ("protocol", "MorPublicKey.to_json"),
    ("protocol", "MorPublicKey.from_json"),
    ("protocol", "MorPrivateKey.to_json"),
    ("protocol", "MorPrivateKey.from_json"),
    ("protocol", "MorCiphertext.to_json"),
    ("protocol", "MorCiphertext.from_json"),
    ("seclab", "lift_operator"),
    ("seclab", "mw_reduce"),
    ("seclab", "validate_params"),
    ("seclab", "monomial_cycle_attack"),
    ("seclab", "bsgs_dlog"),
    ("cli", "main"),
)


class Tracer:
    """Spans and counters of one run; `install` before, `uninstall` after."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = None  # id of the message or attack instance in progress
        self.inv_calls = 0
        self.notes: dict[str, int] = defaultdict(int)
        self._undo: list = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        from morsl import field

        counter = field.cost_counter
        for mod_name, path in TRACED:
            module = importlib.import_module(f"morsl.{mod_name}")
            name = f"{mod_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._span(name, raw.__func__, counter))
                else:
                    new = self._span(name, raw, counter)
                self._set(cls, attr, new)
            else:
                orig = getattr(module, path)
                new = self._span(name, self._pre(name, orig), counter)
                for mod in _morsl_modules():
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._set(mod, key, new)
        elem = field.FieldElement
        orig_inv = elem.__dict__["inv"]

        def inv(x):
            self.inv_calls += 1
            return orig_inv(x)

        self._set(elem, "inv", inv)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def _set(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _pre(self, name, fn):
        """Argument and result notes for the layers that report ratios."""
        notes = self.notes
        if name == "matrix.mat_pow":
            def mat_pow(x, n):
                notes["matrix.mat_pow.exp_bits"] += n.bit_length()
                return fn(x, n)
            return mat_pow
        if name == "fqpoly.is_irreducible":
            def is_irreducible(f):
                ok = fn(f)
                notes["fqpoly.is_irreducible.accepted"] += bool(ok)
                return ok
            return is_irreducible
        if name == "seclab.bsgs_dlog":
            def bsgs_dlog(base, target, order_bound, ops, budget=None):
                def mul(a, b):
                    notes["seclab.bsgs_dlog.group_ops"] += 1
                    return ops.mul(a, b)

                def inv(a):
                    notes["seclab.bsgs_dlog.group_ops"] += 1
                    return ops.inv(a)

                counted = dataclasses.replace(ops, mul=mul, inv=inv)
                return fn(base, target, order_bound, counted, budget)
            return bsgs_dlog
        return fn

    def _span(self, name, fn, counter):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            c0 = counter()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                c1 = counter()
                stack.pop()
                parent = stack[-1] if stack else -1
                spans[idx] = (name, t0, t1, parent, self.op, c1 - c0)

        return functools.wraps(fn)(traced)

    # -- results --------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s, fmuls (self)."""
        child_s = [0.0] * len(self.spans)
        child_f = [0] * len(self.spans)
        for name, t0, t1, parent, _op, fm in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
                child_f[parent] += fm
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "fmuls": 0}
        )
        for idx, (name, t0, t1, _parent, _op, fm) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child_s[idx]
            row["fmuls"] += fm - child_f[idx]
        return dict(out)

    def parent_counts(self, name: str, parent_name: str) -> int:
        """Number of `name` spans whose direct parent is a `parent_name` span."""
        spans = self.spans
        return sum(
            1 for s in spans
            if s[0] == name and s[3] >= 0 and spans[s[3]][0] == parent_name
        )

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, op, fmuls."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start_s", "end_s", "parent", "op", "fmuls"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _morsl_modules():
    return [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == "morsl" or key.startswith("morsl."))
    ]
