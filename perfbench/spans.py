"""Span recorder for the traced benchmark run.

The recorder wraps, in the benchmark process only, the module attributes
through which one layer of tadgame calls another, so the package itself is
not touched.  Each call records a span: name, layer, start, end, parent
span and op id, plus whether it was handed a whole grid (an ndarray
argument of more than one element).  Spans stay in memory and are written
out when the run ends.  A target name that the package no longer has is
reported as missing, not as an error.
"""

import contextvars
import json
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT_LAYER = "bench"

# (module, attribute) pairs: the entry points the benchmark calls and the
# names one layer uses to reach another.  A few intra-layer names are here
# because a per-layer metric counts them.
TARGETS = (
    ("game", "propagate_analytical"),
    ("game", "_riccati_p_arrays"),
    ("game", "_u_blocks_arrays"),
    ("game", "riccati_p"),
    ("game", "rho"),
    ("game", "_cost_from_arrays"),
    ("riccati", "_u_blocks_arrays"),
    ("riccati", "phi"),
    ("riccati", "omega11"),
    ("riccati", "omega22"),
    ("riccati", "true_to_eccentric"),
    ("winning", "_d_grid"),
    ("winning", "classify_outcome"),
    ("winning", "winning_set_membership"),
    ("winning", "attacker_wins"),
    ("numerical_baseline", "rk4_step"),
    ("cli", "main"),
    ("cli", "propagate_analytical"),
    ("cli", "integrate_riccati_backward"),
    ("cli", "simulate_numerical"),
    ("cli", "scan_quadratics"),
    ("cli", "attacker_wins"),
    ("cli", "classify_outcome"),
    ("cli", "ellipsoid_at"),
)

# span fields, in record order
NAME, LAYER, GRID, START, END, PARENT, OP = range(7)

_current = contextvars.ContextVar("perfbench_span", default=-1)


def _is_grid(args):
    return any(isinstance(a, np.ndarray) and a.size > 1 for a in args)


class Recorder:
    """Records spans while installed.  ``modules`` maps each layer name to
    its module; ``install`` patches the target attributes and ``uninstall``
    restores them."""

    def __init__(self, modules, targets=TARGETS):
        self.layers = tuple(modules)
        self.spans = []
        self.op_kinds = {}
        self.missing = []
        self._op = -1
        self._root = None
        self._patches = []
        for mod_name, attr in targets:
            module = modules.get(mod_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            layer = getattr(fn, "__module__", mod_name).rpartition(".")[2]
            self._patches.append((module, attr, fn, self._wrap(fn, layer)))

    def _wrap(self, fn, layer):
        name = f"{layer}.{getattr(fn, '__name__', 'call')}"
        spans = self.spans

        def traced(*args, **kwargs):
            rec = [name, layer, _is_grid(args), 0.0, 0.0, _current.get(), self._op]
            token = _current.set(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                _current.reset(token)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, attr, _, traced in self._patches:
            setattr(module, attr, traced)

    def uninstall(self):
        for module, attr, fn, _ in reversed(self._patches):
            setattr(module, attr, fn)

    def begin_op(self, op_id, kind):
        self._op = op_id
        self.op_kinds[op_id] = kind
        rec = [f"{ROOT_LAYER}.op", ROOT_LAYER, False, 0.0, 0.0, -1, op_id]
        self._root = (rec, _current.set(len(self.spans)))
        self.spans.append(rec)
        rec[START] = perf_counter()

    def end_op(self):
        rec, token = self._root
        rec[END] = perf_counter()
        _current.reset(token)
        self._op = -1
        self._root = None

    def dump(self, path, meta):
        fields = ("name", "layer", "grid", "start", "end", "parent", "op")
        payload = dict(meta, missing=self.missing, op_kinds=self.op_kinds,
                       spans=[dict(zip(fields, s)) for s in self.spans])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _per_op(spans):
    """Per-op totals: self time per layer, boundary calls per layer and the
    named quantities the per-layer metrics use."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    ops = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        op = ops[s[OP]]
        dur = s[END] - s[START]
        layer = s[LAYER]
        op[f"{layer}.self_s"] += dur - child[i]
        if s[PARENT] < 0:
            op["op_s"] += dur
        elif spans[s[PARENT]][LAYER] != layer:
            op[f"{layer}.calls"] += 1
        name, grid = s[NAME], s[GRID]
        if name == "riccati._riccati_p_arrays" and grid:
            op["p_grid_s"] += dur
            op["p_grid_calls"] += 1
        elif name == "riccati._u_blocks_arrays" and grid:
            op["u_blocks_s"] += dur
            op["u_blocks_calls"] += 1
        elif name == "game._cost_from_arrays":
            op["cost_s"] += dur
        elif name == "game._d_grid" and grid:
            op["d_grid_builds"] += 1
        elif name == "winning.attacker_wins":
            op["placements"] += 1
        elif name == "winning.classify_outcome":
            op["classify_s"] += dur
        elif name == "numerical_baseline.integrate_riccati_backward":
            op["sweep_s"] += dur
        elif name == "numerical_baseline.simulate_numerical":
            op["sim_s"] += dur
        elif name == "numerical_baseline.rk4_step":
            op["rk4_steps"] += 1
    return ops


def typical(values_by_kind):
    """Per-op figure of a workload: the median over the ops of each kind,
    averaged over the kinds, so a round of mixed commands weighs each
    command once.  With one kind this is the plain median."""
    return statistics.fmean(statistics.median(v) for v in values_by_kind.values())


def layer_metrics(recorder, op_ids):
    """Per-layer metrics per op from the spans of the given (successful) ops."""
    ops = _per_op(recorder.spans)
    kinds = recorder.op_kinds

    def per_op(fn):
        by_kind = defaultdict(list)
        for i in op_ids:
            by_kind[kinds[i]].append(fn(ops[i]))
        return typical(by_kind)

    def total(key):
        return sum(ops[i][key] for i in op_ids)

    out = {}
    for layer in recorder.layers:
        out[f"{layer}.self_ms"] = per_op(lambda o: 1e3 * o[f"{layer}.self_s"])
        out[f"{layer}.calls"] = per_op(lambda o: o[f"{layer}.calls"])
        out[f"{layer}.share"] = per_op(lambda o: o[f"{layer}.self_s"] / o["op_s"])
    out[f"{ROOT_LAYER}.self_ms"] = per_op(lambda o: 1e3 * o[f"{ROOT_LAYER}.self_s"])
    out[f"{ROOT_LAYER}.share"] = per_op(lambda o: o[f"{ROOT_LAYER}.self_s"] / o["op_s"])
    out["riccati.p_grid_ms"] = per_op(lambda o: 1e3 * o["p_grid_s"])
    out["riccati.p_grid_calls"] = per_op(lambda o: o["p_grid_calls"])
    out["riccati.u_blocks_ms"] = per_op(lambda o: 1e3 * o["u_blocks_s"])
    out["riccati.u_blocks_per_op"] = per_op(lambda o: o["u_blocks_calls"])
    out["game.cost_ms"] = per_op(lambda o: 1e3 * o["cost_s"])
    placements = total("placements")
    out["winning.table_builds_per_placement"] = (
        total("d_grid_builds") / placements if placements else 0.0)
    out["winning.classify_ms"] = per_op(lambda o: 1e3 * o["classify_s"])
    out["numerical_baseline.sweep_ms"] = per_op(lambda o: 1e3 * o["sweep_s"])
    out["numerical_baseline.sim_ms"] = per_op(lambda o: 1e3 * o["sim_s"])
    out["numerical_baseline.rk4_steps"] = per_op(lambda o: o["rk4_steps"])
    steps = total("rk4_steps")
    out["numerical_baseline.us_per_rk4_step"] = (
        1e6 * total("numerical_baseline.self_s") / steps if steps else 0.0)
    out[f"{ROOT_LAYER}.op_ms"] = per_op(lambda o: 1e3 * o["op_s"])
    return out
