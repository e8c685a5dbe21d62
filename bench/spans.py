"""Spans around the public functions of each rthy module, from outside.

``Tracer.install()`` wraps every public module-level function of each layer
and rebinds the wrapper under every name that refers to the original in any
``rthy`` module, so calls through ``from .exactmath import lp_solve`` in
``majorize``, ``measures`` and ``channels`` are seen too.  ``uninstall()``
puts the originals back.  Spans are (name, start, end, parent, query id)
tuples kept in memory; ``dump()`` writes them out.

Class methods (``Encoding.from_json``, ``FiniteQuantaleModule.build`` ...)
are not wrapped: their time counts as self time of the layer that calls them.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from time import perf_counter

LAYERS = ("cli", "exactmath", "majorize", "measures", "channels",
          "possibilistic", "quantale", "order", "monotone")
MAJORIZE_BUCKETS = tuple(range(3, 9))          # outcome counts
FMK_BUCKETS = (8, 16, 32, 64, 128, 256)         # n^h, each bucket up to its label
PROBED = frozenset(("exactmath.lp_solve", "measures.deterministic_encodings",
                    "majorize.majorizes", "measures.weight_fmk", "channels.channel_yield"))


def _max_bits(outcome) -> int:
    best = 0
    for vec in (outcome.primal, outcome.dual, outcome.farkas):
        for v in vec or ():
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.spans = []     # (name, start, end, parent, qid); None while open
        self.tags = {}      # span id -> probe data
        self.stack = []
        self.qid = None
        self.counters = {"lp_cells": 0, "lp_infeasible": 0, "lp_max_bits": 0,
                         "columns": 0, "yield_inputs": 0}
        self._saved = []

    # -- probes: counts taken from arguments and results, outside the span --

    def _probe(self, name, sid, args, kwargs, result):
        c = self.counters
        if name == "exactmath.lp_solve":
            problem = args[0]
            c["lp_cells"] += problem.nrows * problem.ncols
            c["lp_infeasible"] += result.status == "Infeasible"
            c["lp_max_bits"] = max(c["lp_max_bits"], _max_bits(result))
        elif name == "measures.deterministic_encodings":
            c["columns"] += len(result)
        elif name == "majorize.majorizes":
            self.tags[sid] = args[0].outcomes
        elif name == "measures.weight_fmk":
            self.tags[sid] = args[0].outcomes ** args[0].hypotheses
        elif name == "channels.channel_yield":
            mode = args[2] if len(args) > 2 else kwargs.get("mode", "deltas")
            if mode == "deltas":
                c["yield_inputs"] += args[0].inputs
                self.tags[sid] = True

    def _wrap(self, fn, name):
        tracer = self
        spans, stack = self.spans, self.stack
        probed = name in PROBED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, tracer.qid)
            if probed:
                tracer._probe(name, sid, args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "rthy" or k.startswith("rthy.")]
        for layer in LAYERS:
            mod = sys.modules[f"rthy.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(fn, f"{layer}.{attr}")
                for holder in modules:
                    for hattr, value in list(vars(holder).items()):
                        if value is fn:
                            self._saved.append((holder, hattr, fn))
                            setattr(holder, hattr, wrapper)

    def uninstall(self):
        for holder, attr, fn in reversed(self._saved):
            setattr(holder, attr, fn)
        self._saved.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                name, t0, t1, parent, qid = span
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "query": qid}) + "\n")

    # -- per-layer figures ---------------------------------------------------

    def metrics(self, traced_wall, untraced_wall, passes, import_s):
        """Per-layer metrics; counts and busy times are totals per pass over the pool."""
        spans = self.spans
        layer_of = [s[0].split(".", 1)[0] for s in spans]
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        fn_calls, fn_time = {}, {}
        lps_in_majorize = 0
        evals_in_yield = 0
        majorize_ms = {n: [] for n in MAJORIZE_BUCKETS}
        fmk_ms = {b: [] for b in FMK_BUCKETS}
        for sid, (name, t0, t1, parent, _) in enumerate(spans):
            layer = layer_of[sid]
            self_s[layer] += (t1 - t0) - child[sid]
            if parent < 0 or layer_of[parent] != layer:
                calls[layer] += 1
            fn_calls[name] = fn_calls.get(name, 0) + 1
            fn_time[name] = fn_time.get(name, 0.0) + (t1 - t0)
            if name == "exactmath.lp_solve":
                p = parent
                while p >= 0 and layer_of[p] != "majorize":
                    p = spans[p][3]
                lps_in_majorize += p >= 0
            elif layer == "measures" and parent >= 0 and self.tags.get(parent) is True:
                evals_in_yield += 1
            elif name == "majorize.majorizes" and self.tags.get(sid) in majorize_ms:
                majorize_ms[self.tags[sid]].append((t1 - t0) * 1e3)
            if name == "measures.weight_fmk" and sid in self.tags:
                bucket = next((b for b in FMK_BUCKETS if self.tags[sid] <= b), None)
                if bucket is not None:
                    fmk_ms[bucket].append((t1 - t0) * 1e3)

        def count(name):
            return fn_calls.get(name, 0) / passes

        def seconds(name):
            return fn_time.get(name, 0.0) / passes

        c = self.counters
        out = {
            "exactmath.lp_solve.calls": (count("exactmath.lp_solve"), "count"),
            "exactmath.lp_solve.s": (seconds("exactmath.lp_solve"), "s"),
            "exactmath.lp_cells": (c["lp_cells"] / passes, "count"),
            "exactmath.lp_infeasible": (c["lp_infeasible"] / passes, "count"),
            "exactmath.lp_max_bits": (c["lp_max_bits"], "bits"),
            "exactmath.rank.calls": (count("exactmath.rank"), "count"),
            "exactmath.rank.s": (seconds("exactmath.rank"), "s"),
            "exactmath.verify.calls": (count("exactmath.verify_certificate"), "count"),
            "exactmath.verify.s": (seconds("exactmath.verify_certificate"), "s"),
            "measures.columns": (c["columns"] / passes, "count"),
            "measures.enum_s": (seconds("measures.deterministic_encodings"), "s"),
            "majorize.lps_per_call": (
                lps_in_majorize / calls["majorize"] if calls["majorize"] else 0.0, "ratio"),
            "channels.monotone_evals_per_input": (
                evals_in_yield / c["yield_inputs"] if c["yield_inputs"] else 0.0, "ratio"),
            "quantale.validate.calls": (count("quantale.validate"), "count"),
            "quantale.validate.s": (seconds("quantale.validate"), "s"),
            "cli.import_s": (import_s, "s"),
            "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
            "trace.self_share": (sum(self_s.values()) / traced_wall, "ratio"),
        }
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer] / passes, "count")
            out[f"{layer}.self_s"] = (self_s[layer] / passes, "s")
        for n, vals in majorize_ms.items():
            out[f"majorize.p50_ms.n{n}"] = (statistics.median(vals) if vals else 0.0, "ms")
        for b, vals in fmk_ms.items():
            out[f"measures.fmk_p50_ms.nh{b}"] = (statistics.median(vals) if vals else 0.0, "ms")
        return out
