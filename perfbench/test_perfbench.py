"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

A wrong result must count as a failed op, never as a fast one; the traced
run must not change any output; per-layer counts must repeat exactly; and
the runner must refuse to run without the package.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calib  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIMING_KEYS = {"wall_seconds", "time_ratio"}
COUNTS = ([f"{layer}.calls" for layer in workloads.Package.LAYERS]
          + ["riccati.p_grid_calls", "riccati.u_blocks_per_op",
             "winning.table_builds_per_placement", "numerical_baseline.rk4_steps",
             "bench.nodes_per_op"])


@pytest.fixture(scope="module")
def pkg():
    return workloads.Package()


def ops_of(workload, n):
    out = []
    for ops in workload.rounds():
        out.extend(ops)
        if len(out) >= n:
            return out[:n]


def run_traced(pkg, ops):
    recorder = spans.Recorder(pkg.modules())
    recorder.install()
    try:
        return [op.run() for op in ops], recorder
    finally:
        recorder.uninstall()


def test_fast_wrong_solve_result_is_a_failure(pkg, monkeypatch):
    stale = ops_of(workloads.make(pkg, "solve", 99, None), 1)[0].run()[0]
    # instant answer that belongs to another scenario
    monkeypatch.setattr(pkg.game, "propagate_analytical", lambda config: stale)
    tally = worker.Tally()
    samples, _ = worker.measure(workloads.make(pkg, "solve", 1, None), 0.05, tally, 1)
    report = worker.latency_report(samples)
    assert tally.failed == tally.attempted == len(samples) >= worker.MIN_OPS
    assert report["ops_per_s"] == report["ops_per_s.norm"] == 0.0
    assert report["op_ms.p50"] is None and report["op_ms.p50.norm"] is None


def test_wrong_classification_caught_by_oracle_sample(pkg, monkeypatch):
    monkeypatch.setattr(pkg.winning, "winning_set_membership", lambda config, rd0: True)
    tally = worker.Tally()
    samples, _ = worker.measure(workloads.make(pkg, "winmap", 1, None), 0.05, tally, 1)
    assert tally.failed > 0
    assert sum(1 for s in samples if not s.ok) == tally.failed


def test_wrong_cli_compare_is_a_failure(pkg, tmp_path, monkeypatch):
    real = pkg.cli.propagate_analytical

    def skewed(config):
        traj = real(config)
        return replace(traj, dist_at=traj.dist_at * 1.01)

    monkeypatch.setattr(pkg.cli, "propagate_analytical", skewed)
    workload = workloads.make(pkg, "cli", 1, tmp_path)
    workload.inprocess = True
    compare = [op for op in ops_of(workload, 5) if op.kind == "compare"][0]
    tally = worker.Tally()
    _, _, _, ok = tally.execute(compare)
    assert not ok and tally.failed == 1


def assert_same_solve(a, b):
    (ta, oa), (tb, ob) = a, b
    for f in fields(ta):
        assert np.array_equal(getattr(ta, f.name), getattr(tb, f.name)), f.name
    assert oa == ob


@pytest.mark.parametrize("name", ["solve", "winmap"])
def test_traced_and_untraced_outputs_identical(pkg, name):
    plain = [op.run() for op in ops_of(workloads.make(pkg, name, 5, None), 4)]
    traced, recorder = run_traced(pkg, ops_of(workloads.make(pkg, name, 5, None), 4))
    assert recorder.spans and not recorder.missing
    for a, b in zip(plain, traced):
        if name == "solve":
            assert_same_solve(a, b)
        else:
            assert a == b


def untimed(text):
    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k not in TIMING_KEYS}
        return obj

    try:
        return strip(json.loads(text))
    except ValueError:
        return text


def test_traced_and_untraced_cli_outputs_identical(pkg, tmp_path):
    results = []
    for sub, trace in (("plain", False), ("traced", True)):
        workload = workloads.make(pkg, "cli", 5, tmp_path / sub)
        workload.inprocess = True
        ops = ops_of(workload, 5)
        outs, recorder = run_traced(pkg, ops) if trace else ([op.run() for op in ops], None)
        files = {p.name: untimed(p.read_text()) for p in sorted((tmp_path / sub).iterdir())}
        stdout = [(rc, untimed(out.replace(str(tmp_path / sub), "<workdir>")))
                  for rc, out, _ in outs]
        results.append((stdout, files))
    assert results[0] == results[1]
    assert all(rc == 0 for rc, _ in results[0][0])


@pytest.mark.parametrize("name", ["solve", "winmap", "cli"])
def test_counts_repeat_exactly(pkg, tmp_path, name):
    counts = []
    for seed in (1, 2):
        workload = workloads.make(pkg, name, seed, tmp_path / str(seed))
        tally = worker.Tally()
        report = worker.traced_run(pkg, workload, 0.1, seed, tally, tmp_path / f"{seed}.json")
        assert tally.failed == 0, tally.errors
        counts.append({k: report["metrics"][k] for k in COUNTS})
    assert counts[0] == counts[1]


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_runner_prints_every_metric(trace, key):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_runner_refuses_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_target_is_reported_not_raised(pkg):
    recorder = spans.Recorder(pkg.modules(), spans.TARGETS + (("game", "no_such_name"),))
    assert recorder.missing == ["game.no_such_name"]
    recorder.install()
    recorder.uninstall()
    assert not hasattr(pkg.game.propagate_analytical, "__wrapped__")


def test_calibration_normalises_by_the_nearest_kernel_runs():
    cal = calib.Calibrator()
    cal.at = [0.0, 1.0, 2.0, 3.0, 4.0]
    cal.ms = [10.0, 20.0, 30.0, 40.0, 50.0]
    # median of the three runs nearest each time
    assert cal.factor(0.1) == cal.nominal_ms / 20.0
    assert cal.factor(2.4) == cal.nominal_ms / 30.0
    assert cal.factor(9.0) == cal.nominal_ms / 40.0
    assert cal.sample() > 0.0 and len(cal.ms) == 6
