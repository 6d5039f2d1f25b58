"""Benchmark worker: one client in one process.

Started by run.py.  It imports tadgame from the checkout's ``src``,
generates the workload's inputs from the seed, runs one warm-up op and
prints ``{"ready": true}``.  It then reads commands from stdin:
``calibrate``, which runs the speed calibrations and prints the factors
that normalise its set-up time (see calib.py); ``exit``; or ``run``, which
measures a closed loop for the given seconds, prints the result as one
JSON line and ends the worker.  Protocol lines go to the original stdout;
everything else the process writes goes to stderr.
"""

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import calib
import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_OPS = 21         # p50 needs ten samples beyond it
LATE_STOP_S = 30.0   # stop a loop this long after its time even below MIN_OPS
MEMORY_OPS = 3       # ops in the tracemalloc pass
MAX_ERRORS = 5       # error messages kept for the report
SETUP_CAL_RUNS = 3   # calibration runs of each kind after set-up


class Tally:
    """Attempted and failed ops of the worker, with the first errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def execute(self, op, recorder=None, op_id=None):
        """Run one op: time ``op.run`` only, then gate its result."""
        self.attempted += 1
        if recorder is not None:
            recorder.begin_op(op_id, op.kind)
        error = result = None
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # any exception is a failed op, not a crash
            error = f"{op.kind}: {type(exc).__name__}: {exc}"
        t1 = perf_counter()
        if recorder is not None:
            recorder.end_op()
        if error is None:
            error = op.check(result)
        if error is not None:
            self.fail(error)
        return t0, t1, result, error is None


@dataclass
class Sample:
    kind: str
    seconds: float
    ok: bool
    nodes: int
    round: int
    traced: bool
    at: float            # perf_counter time of the op's midpoint
    norm: float = math.nan   # seconds normalised to the calibration speed


def measure(workload, seconds, tally, seed, recorder=None):
    """Closed loop over whole rounds for at least ``seconds`` and MIN_OPS
    ops, returning one Sample per op.  With a recorder every other round
    runs traced, so traced and untraced ops see the same machine state, and
    each half gets MIN_OPS ops.  Ops with an oracle feed a seeded reservoir
    that is cross-checked after the loop.  The workload's calibration runs
    between ops, and each op's time is normalised by the calibration runs
    nearest to it."""
    pick = np.random.default_rng([seed, 7])
    size = workload.sizes.get("oracle_sample", 0)
    samples, reservoir, seen = [], [], 0
    counts = [0, 0]
    cal = calib.Calibrator(workload.calibration)
    cal.sample()
    t0 = last_cal = perf_counter()
    for round_no, ops in enumerate(workload.rounds()):
        traced = recorder is not None and round_no % 2 == 1
        if traced:
            recorder.install()
        try:
            for op in ops:
                op_id = len(samples)
                start, end, result, ok = tally.execute(op, recorder if traced else None,
                                                       op_id)
                samples.append(Sample(op.kind, end - start, ok, op.nodes, round_no, traced,
                                      0.5 * (start + end)))
                if end - last_cal >= cal.every_s:
                    cal.sample()
                    last_cal = perf_counter()
                counts[traced] += 1
                if op.oracle is not None and ok:
                    seen += 1
                    if len(reservoir) < size:
                        reservoir.append((op_id, op, result))
                    else:
                        j = int(pick.integers(seen))
                        if j < size:
                            reservoir[j] = (op_id, op, result)
        finally:
            if traced:
                recorder.uninstall()
        enough = min(counts) if recorder is not None else counts[0]
        elapsed = perf_counter() - t0
        if elapsed >= seconds and enough >= MIN_OPS or elapsed >= seconds + LATE_STOP_S:
            break
    cal.sample()
    for s in samples:
        s.norm = s.seconds * cal.factor(s.at)
    for op_id, op, result in reservoir:
        error = op.oracle(result)
        if error is not None:
            tally.fail(error)
            samples[op_id].ok = False
    return samples, cal


def percentile(samples, q, field="seconds"):
    """Linear-interpolated percentile of op latency in ms, failed ops
    counting as infinitely slow, and the number of samples beyond it."""
    vals = sorted(1e3 * getattr(s, field) if s.ok else math.inf for s in samples)
    pos = q * (len(vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(vals) - 1)
    a, b = vals[lo], vals[hi]
    value = a if a == b else a + (b - a) * (pos - lo)
    return value, len(vals) - 1 - math.ceil(pos)


def finite(x):
    return x if math.isfinite(x) else None


def throughput(samples, field="seconds"):
    """Median over rounds of successful ops per second of op time.  A round
    is the workload's unit of work (one scenario, or one of each CLI
    command), so every kind of op weighs as in a round, and the median
    keeps a rare stalled op from moving the figure."""
    rounds = {}
    for s in samples:
        ok, busy = rounds.get(s.round, (0, 0.0))
        rounds[s.round] = (ok + s.ok, busy + getattr(s, field))
    return statistics.median(ok / busy for ok, busy in rounds.values())


def latency_report(samples):
    """Measured and normalised throughput and latency percentiles.  The
    p50 is taken per kind of op and averaged over the kinds, as in
    spans.typical, so that on cli, where a round runs five commands of
    different cost, it does not fall between two of them; with one kind of
    op it is the plain median."""
    report = {"op_ms.n": len(samples)}
    for field, suffix in (("seconds", ""), ("norm", ".norm")):
        p50 = statistics.fmean(percentile(group, 0.5, field)[0]
                               for group in by_kind(samples, lambda s: s).values())
        p90, beyond90 = percentile(samples, 0.9, field)
        report["ops_per_s" + suffix] = throughput(samples, field)
        report["op_ms.p50" + suffix] = finite(p50)
        report["op_ms.p90" + suffix] = finite(p90) if beyond90 >= 10 else None
    return report


def by_kind(samples, value):
    out = {}
    for s in samples:
        out.setdefault(s.kind, []).append(value(s))
    return out


def typical_ms(samples):
    ok = [s for s in samples if s.ok]
    return spans.typical(by_kind(ok, lambda s: 1e3 * s.norm)) if ok else None


def memory_pass(tally, ops):
    """tracemalloc peak of single ops, in kB per grid node; untimed."""
    per_node = []
    for op in ops:
        tracemalloc.start()
        try:
            _, _, _, ok = tally.execute(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if ok:
            per_node.append(peak / 1024.0 / op.nodes)
    return statistics.median(per_node) if per_node else None


def untraced_run(workload, seconds, seed, tally):
    samples, cal = measure(workload, seconds, tally, seed)
    report = latency_report(samples)
    report["calibration_ms"] = cal.summary()
    cli = isinstance(workload, workloads.CliWorkload)
    # ru_maxrss is in kB on Linux; for children it is the largest child's
    # (the spawn calibration's interpreters peak near 22 MB, far below a CLI
    # child, which imports numpy)
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    report["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    if cli:
        workload.inprocess = True
        ops = next(workload.rounds())
    else:
        ops = itertools.islice(itertools.chain.from_iterable(workload.rounds()), MEMORY_OPS)
    report["peak_kb_per_node"] = memory_pass(tally, ops)
    return report


def traced_run(pkg, workload, seconds, seed, tally, trace_path):
    if isinstance(workload, workloads.CliWorkload):
        workload.inprocess = True
    recorder = spans.Recorder(pkg.modules())
    samples, _ = measure(workload, seconds, tally, seed, recorder)
    plain = [s for s in samples if not s.traced]
    traced = [s for s in samples if s.traced]
    ok_ids = [i for i, s in enumerate(samples) if s.traced and s.ok]
    metrics = spans.layer_metrics(recorder, ok_ids) if ok_ids else {}
    # normalised op_ms.p50 per kind of op, so the mix of CLI commands and a
    # drift in machine speed between traced and untraced rounds cancel out
    p50_plain, p50_traced = typical_ms(plain), typical_ms(traced)
    if p50_plain and p50_traced:
        metrics["bench.trace_overhead"] = p50_traced / p50_plain - 1.0
    metrics["bench.nodes_per_op"] = spans.typical(by_kind(traced, lambda s: s.nodes))
    metrics["bench.trace_missing"] = len(recorder.missing)
    recorder.dump(trace_path, {"workload": workload.name, "seed": seed})
    return {"metrics": metrics, "missing": recorder.missing,
            "op_ms.n": {"untraced": len(plain), "traced": len(traced)}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    # keep the protocol channel apart from anything the package prints
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def send(payload):
        proto.write(json.dumps(payload) + "\n")
        proto.flush()

    sys.path.insert(0, str(SRC))
    import tadgame

    if Path(tadgame.__file__).resolve().parent != (SRC / "tadgame").resolve():
        print(f"worker: tadgame imported from {tadgame.__file__}, not {SRC}", file=sys.stderr)
        return 2
    pkg = workloads.Package()
    workload = workloads.make(pkg, args.workload, args.seed, args.workdir)
    tally = Tally()
    start, end, _, _ = tally.execute(workload.warmup())
    send({"ready": True})

    while True:
        line = sys.stdin.readline()
        cmd = json.loads(line) if line.strip() else {"cmd": "exit"}
        if cmd["cmd"] != "calibrate":
            break
        factors = {}
        for kind in dict.fromkeys(("spawn", workload.calibration)):
            cal = calib.Calibrator(kind)
            factors[kind] = cal.nominal_ms / statistics.median(
                cal.sample() for _ in range(SETUP_CAL_RUNS))
        send({"warmup_s": end - start, "start_factor": factors["spawn"],
              "warmup_factor": factors[workload.calibration]})
    if cmd["cmd"] != "run":
        return 0
    if cmd["trace"]:
        report = traced_run(pkg, workload, cmd["seconds"], args.seed, tally, cmd["trace_path"])
    else:
        report = untraced_run(workload, cmd["seconds"], args.seed, tally)
    report.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors,
                  numpy=np.__version__)
    send(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
