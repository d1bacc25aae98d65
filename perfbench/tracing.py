"""Spans around the calls into the program's layers, recorded from outside.

``Tracer.install`` puts a wrapper of each traced function of ``h2embed``
wherever the function is bound: in its own module and in every module
that bound it with ``from ... import``; ``uninstall`` puts the originals
back.  Spans (name, parent, start, end, job) stay in memory until the run
ends.  A span's self time is its
duration minus the durations of its direct children; calls are sequential,
so children nest strictly inside their parent.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

TRACED = {
    "cli": ["main"],
    "fileio": ["load_symbol_file", "json_dumps", "dump_matrix_csv", "load_matrix_csv"],
    "decisions": ["decide_composition", "decide_toeplitz", "decide_polynomial_toeplitz", "decide_lfm"],
    "blaschke": ["fixed_points_in_disk", "conjugate_by_automorphism",
                 "solve_blaschke_equation", "frostman_transform"],
    "polynomials": ["poly_roots"],
    "symbols": ["taylor_coefficients"],
    "operators": ["composition_matrix", "toeplitz_matrix", "boundary_gram", "wold_decompose"],
    "semigroups": ["embed_isometric_composition", "sample_multiplication_flow",
                   "sample_elliptic_flow", "sample_spiral_flow", "OuterFlow"],
    "verify": ["check_semigroup_law", "check_isometry", "check_noncompactness_proxy",
               "check_strong_continuity"],
}
SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
ENTRY = "cli.main"
SIZES = ["semigroups.sample_mb", "fileio.csv_mb_written", "fileio.csv_mb_read"]
SAMPLE_BUILDERS = {"semigroups.embed_isometric_composition", "semigroups.sample_multiplication_flow",
                   "semigroups.sample_elliptic_flow", "semigroups.sample_spiral_flow"}
SUMMARY = [
    ("trace.job_ms", "ms"),  # wall time of the traced jobs
    ("trace.outside_ms", "ms"),  # job time in no named span other than cli.main
    ("trace.outside_pct", "%"),
    ("trace.overhead_pct", "%"),  # traced over untraced time of the same jobs, minus 1
    ("trace.rounds", "count"),  # rounds the sums cover
]
MB = 1e6


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.self_ms"] = "ms"
        units[f"{name}.calls"] = "count"
    units.update({name: "MB" for name in SIZES})
    units.update(dict(SUMMARY))
    return units


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index, start, end, job]
        self.stack = []
        self.sizes = dict.fromkeys(SIZES, 0.0)
        self.job = -1
        self._bound = None

    def _after(self, name, args, result):
        if name in SAMPLE_BUILDERS:
            self.sizes["semigroups.sample_mb"] += sum(op.nbytes for op in result.operators) / MB
        elif name == "fileio.dump_matrix_csv":
            self.sizes["fileio.csv_mb_written"] += os.path.getsize(args[0]) / MB
        elif name == "fileio.load_matrix_csv":
            self.sizes["fileio.csv_mb_read"] += os.path.getsize(args[0]) / MB

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            self._after(name, args, result)
            return result

        return traced

    def _bindings(self):
        """(owner, attribute, original, wrapper) for every place a traced
        function is bound, found once the program is imported."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "h2embed" or key.startswith("h2embed.")]
        out = []
        for mod_name, names in TRACED.items():
            mod = importlib.import_module(f"h2embed.{mod_name}")
            for fn_name in names:
                original = getattr(mod, fn_name)
                span = f"{mod_name}.{fn_name}"
                if isinstance(original, type):
                    # A class is shared by every binding: wrap its methods.
                    for method in ("__init__", "at"):
                        fn = original.__dict__[method]
                        out.append((original, method, fn, self._wrap(span, fn)))
                    continue
                wrapper = self._wrap(span, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            out.append((module, attr, original, wrapper))
        return out

    def install(self):
        if self._bound is None:
            self._bound = self._bindings()
        for owner, attr, _, wrapper in self._bound:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._bound or ():
            setattr(owner, attr, original)

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, _, start, end, _), c in zip(self.spans, child)]

    def metrics(self, job_seconds, rounds, overhead_pct):
        """Per-layer sums over the traced jobs; ``job_seconds`` is their
        total wall time as the runner measured it."""
        units = metric_units()
        values = dict.fromkeys(units, 0.0)
        inside = 0.0
        for (name, *_), self_s in zip(self.spans, self.self_times()):
            values[f"{name}.self_ms"] += 1e3 * self_s
            values[f"{name}.calls"] += 1
            if name != ENTRY:
                inside += self_s
        values.update(self.sizes)
        values["trace.job_ms"] = 1e3 * job_seconds
        values["trace.outside_ms"] = 1e3 * (job_seconds - inside)
        values["trace.outside_pct"] = 100.0 * (job_seconds - inside) / job_seconds
        values["trace.overhead_pct"] = overhead_pct
        values["trace.rounds"] = rounds
        return {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    def dump(self, path):
        """Writes the spans as JSON lines, times in ms from the first span."""
        if not self.spans:
            return
        t0 = self.spans[0][2]
        with open(path, "w") as fh:
            for i, ((name, parent, start, end, job), self_s) in enumerate(
                zip(self.spans, self.self_times())
            ):
                fh.write(json.dumps({
                    "id": i, "parent": parent, "job": job, "name": name,
                    "start_ms": 1e3 * (start - t0), "dur_ms": 1e3 * (end - start),
                    "self_ms": 1e3 * self_s,
                }) + "\n")
