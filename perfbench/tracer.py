"""In-memory span tracer wrapped around junctionflow's public entry points.

The program is not edited: `Tracer.install` swaps each entry point for a
wrapper in every junctionflow module that holds it, and `uninstall` puts
the originals back. A span is (name, start, end, parent); counts are kept
at the same boundaries. Entry points in COUNT_ONLY are counted but get no
span. Spans stay in memory until `write`.
"""

from __future__ import annotations

import gzip
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from functools import wraps
from types import SimpleNamespace

import numpy as np


def _leg_cost_elems(args, kwargs, result):
    return {"flux_models.leg_cost_elems": int(np.size(result))}


def _opt_evals(args, kwargs, result):
    return {"optimizer.evals": int(result.evals)}


# (module, attribute or Class.method, counts taken from the call, or None)
ENTRY_POINTS = [
    ("cli", "main", None),
    ("optimizer", "optimize_bangbang", _opt_evals),
    ("functionals", "cost", None),
    ("functionals", "cost_report", None),
    ("hj_junction", "value_grid", None),
    ("hj_junction", "trajectory_field", None),
    ("hj_junction", "brute_force_field", None),
    ("hj_junction", "Evaluator.straight_value", None),
    ("hj_junction", "Evaluator.dwell_batch", None),
    ("flux_models", "Hamiltonian.leg_cost", _leg_cost_elems),
    ("optimality", "check_optimality", None),
    ("optimality", "component_report", None),
    ("cl_oracle", "solve_cl", None),
    ("_util", "parallel_starmap", None),
]
# entry points that are only counted: no span, their time stays in the caller's
COUNT_ONLY = {"flux_models.Hamiltonian.leg_cost"}

# per-layer metric (s per round) -> the spans whose self times it sums
SELF_TIME_METRICS = {
    "optimizer.search_self_s": ("optimizer.optimize_bangbang",),
    "util.pool_s": ("_util.parallel_starmap",),
    "cli.self_s": ("cli.main",),
    "functionals.cost_s": ("functionals.cost", "functionals.cost_report"),
    "hj_junction.value_grid_s": ("hj_junction.value_grid",),
    "hj_junction.dwell_batch_s": ("hj_junction.Evaluator.dwell_batch",),
    "hj_junction.straight_value_s": ("hj_junction.Evaluator.straight_value",),
    "hj_junction.trajectory_field_s": ("hj_junction.trajectory_field",),
    "hj_junction.brute_force_field_s": ("hj_junction.brute_force_field",),
    "optimality.check_optimality_s": ("optimality.check_optimality",),
    "optimality.component_report_s": ("optimality.component_report",),
    "cl_oracle.solve_cl_s": ("cl_oracle.solve_cl",),
}
COUNT_METRICS = ("optimizer.evals", "util.pool_calls", "flux_models.leg_cost_elems")
WRAPPER_COST_CALLS = 10000
WRAPPER_COST_REPEATS = 5


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # [name id, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self.enabled = True
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, count):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"

        if name in COUNT_ONLY:
            @wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                if self.enabled:
                    counts[calls] += 1
                    for key, n in count(args, kwargs, result).items():
                        counts[key] += n
                return result

            return counted

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([nid, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            counts[calls] += 1
            if count is not None:
                for key, n in count(args, kwargs, result).items():
                    counts[key] += n
            return result

        return traced

    def install(self, also=()):
        """Wrap every entry point of ENTRY_POINTS wherever junctionflow, or a
        module in `also` that imported it by name, holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "junctionflow" or n.startswith("junctionflow.")] + list(also)
        for mod_name, attr, count in ENTRY_POINTS:
            mod = importlib.import_module(f"junctionflow.{mod_name}")
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig, count))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig, count)
            for holder in modules:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, orig))
        return self

    def uninstall(self):
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    def write(self, path):
        write(path, self.names, self.spans, self.counts)


_NOOP_RESULT = SimpleNamespace(evals=0)  # a result every count function can read


def _noop():
    return _NOOP_RESULT


def wrapper_cost_s(name, count):
    """Seconds the wrapper of entry point `name` adds to one call: a no-op
    called WRAPPER_COST_CALLS times with and without it, median over
    WRAPPER_COST_REPEATS."""
    tracer = Tracer()
    wrapped = tracer._wrap(name, _noop, count)
    costs = []
    for _ in range(WRAPPER_COST_REPEATS):
        t0 = time.perf_counter()
        for _ in range(WRAPPER_COST_CALLS):
            _noop()
        t1 = time.perf_counter()
        for _ in range(WRAPPER_COST_CALLS):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / WRAPPER_COST_CALLS)
        tracer.spans.clear()
    return statistics.median(costs)


def overhead_s(counts):
    """Seconds the wrappers added: each entry point's traced calls times what
    its wrapper costs on a no-op. Taking the difference of a traced and an
    untraced run instead would leave the figure below the run-to-run noise."""
    total = 0.0
    for mod_name, attr, count in ENTRY_POINTS:
        name = f"{mod_name}.{attr}"
        n = counts.get(name + ".calls", 0)
        if n:
            total += n * wrapper_cost_s(name, count)
    return total


def write(path, names, spans, counts):
    with gzip.open(path, "wt") as fh:
        json.dump(dict(names=names, spans=spans, counts=dict(counts)), fh)


def load(path):
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def layer_metrics(names, spans, counts, rounds: int):
    """Per-layer metrics per round from spans and counts.

    A span's self time is its duration minus that of its child spans, which
    nest inside it because the traced calls run on one thread.
    """
    dur = np.array([s[2] - s[1] for s in spans]) if spans else np.zeros(0)
    child = np.zeros(len(spans))
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    self_by_name = defaultdict(float)
    for s, d, c in zip(spans, dur, child):
        self_by_name[names[s[0]]] += d - c
    out = {}
    for metric, members in SELF_TIME_METRICS.items():
        out[metric] = (sum(self_by_name[m] for m in members) / rounds, "s")
    cost_ids = {i for i, n in enumerate(names) if n in ("functionals.cost", "functionals.cost_report")}
    cost_durs = [d for s, d in zip(spans, dur) if s[0] in cost_ids]
    out["functionals.cost_ms"] = (1e3 * statistics.median(cost_durs) if cost_durs else 0.0, "ms")
    derived = {
        "optimizer.evals": counts.get("optimizer.evals", 0),
        "util.pool_calls": counts.get("_util.parallel_starmap.calls", 0),
        "flux_models.leg_cost_elems": counts.get("flux_models.leg_cost_elems", 0),
    }
    for metric in COUNT_METRICS:
        out[metric] = (derived[metric] / rounds, "count")
    return out
