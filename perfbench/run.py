"""tadgame benchmark: one command for the solve, solve-long, winmap and cli
workloads.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
With ``--trace 0`` the run reports the end-to-end metrics: set-up time over
several fresh worker processes, then a closed loop with one client in one
worker, then an untimed tracemalloc pass.  Times in the end-to-end metrics
are normalised to a fixed machine speed by calibration work that runs
between ops and after each set-up (see calib.py), so that the drift in
speed of a shared host cancels; the measured times are printed beside them
as ``#`` lines.  With ``--trace 1`` it reports
the per-layer metrics: the worker runs half the time untraced and half
with the span recorder installed, and fresh processes time the imports.
Every metric is printed with its unit; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when every correctness gate passed, 1 when one failed, and 2
when the benchmark could not run at all (no result is printed then).
"""

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "bench_out"
WORKLOADS = tuple(json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"])

SETUP_SPAWNS = 7         # fresh workers whose set-up time gives setup_s
IMPORT_PROBES = 5        # fresh processes timing the imports
DEADLINE_S = 170.0       # the whole run ends within this

IMPORT_PROBE = (
    "import json, time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import tadgame.cli\n"
    "t2 = time.perf_counter()\n"
    "print(json.dumps({'numpy': t1 - t0, 'cli': t2 - t0}))\n"
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def load_metric_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # the same set and dict orders in every run, so that memory is laid out
    # alike and peak RSS repeats
    env["PYTHONHASHSEED"] = "0"
    # one client uses one core: keep BLAS single-threaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Worker:
    """A worker process and its line protocol."""

    def __init__(self, args, workdir, deadline, live):
        self.deadline = deadline
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--workdir", str(workdir)]
        t0 = perf_counter()
        # its own process group, so that kill() also ends a CLI child it waits on
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=child_env(), cwd=ROOT,
                                     start_new_session=True)
        live.append(self)
        if not self.read().get("ready"):
            self.kill()
            raise BenchError("worker did not report ready")
        self.setup_s = perf_counter() - t0

    def read(self):
        remaining = self.deadline - monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0.0))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.kill()
            raise BenchError(f"worker gave no answer (exit code {self.proc.returncode})")
        return json.loads(line)

    def kill(self):
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()

    def send(self, command):
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()

    def ask(self, command):
        self.send(command)
        return self.read()

    def finish(self, command):
        self.send(command)
        answer = self.read() if command["cmd"] == "run" else None
        self.close()
        return answer

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=max(self.deadline - monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            self.kill()
        if self.proc.returncode:
            raise BenchError(f"worker exited with code {self.proc.returncode}")


def import_times(deadline):
    numpy_ms, cli_ms = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                              text=True, env=child_env(), cwd=ROOT,
                              timeout=max(deadline - monotonic(), 1.0))
        if proc.returncode:
            raise BenchError(f"import probe failed: {proc.stderr.strip()[-300:]}")
        probe = json.loads(proc.stdout)
        numpy_ms.append(1e3 * probe["numpy"])
        cli_ms.append(1e3 * probe["cli"])
    return statistics.median(cli_ms), statistics.median(numpy_ms)


def machine(numpy_version):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
    }


def run(args):
    deadline = monotonic() + DEADLINE_S
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    live = []
    try:
        return collect(args, workdir, deadline, live)
    finally:
        for worker in live:
            worker.kill()
        shutil.rmtree(workdir, ignore_errors=True)


def collect(args, workdir, deadline, live):
    OUT.mkdir(exist_ok=True)
    if args.trace:
        worker = Worker(args, workdir, deadline, live)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        report = worker.finish({"cmd": "run", "seconds": args.seconds, "trace": 1,
                                "trace_path": str(trace_path)})
        metrics = dict(report["metrics"])
        metrics["cli.import_ms"], metrics["cli.import_numpy_ms"] = import_times(deadline)
        metrics["bench.fail_frac"] = report["failed"] / report["attempted"]
        info = {"samples": report["op_ms.n"], "missing_names": report["missing"],
                "trace_file": str(trace_path.relative_to(ROOT))}
    else:
        setups, setups_norm = [], []
        for i in range(SETUP_SPAWNS):
            worker = Worker(args, workdir, deadline, live)
            setups.append(worker.setup_s)
            # start-up and import scale like the spawn calibration, the
            # warm-up op like its workload's own
            cal = worker.ask({"cmd": "calibrate"})
            setups_norm.append((worker.setup_s - cal["warmup_s"]) * cal["start_factor"]
                               + cal["warmup_s"] * cal["warmup_factor"])
            if i < SETUP_SPAWNS - 1:
                worker.finish({"cmd": "exit"})
        report = worker.finish({"cmd": "run", "seconds": args.seconds, "trace": 0})
        metrics = {key: report[key] for key in
                   ("ops_per_s.norm", "op_ms.p50.norm", "peak_kb_per_node", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups_norm)
        info = {"samples": report["op_ms.n"], "op_ms.p90.norm": report["op_ms.p90.norm"],
                "measured": {"setup_s": statistics.median(setups),
                             **{key: report[key] for key in
                                ("ops_per_s", "op_ms.p50", "op_ms.p90")}},
                "calibration_ms": report["calibration_ms"],
                "fail_frac": report["failed"] / report["attempted"]}
    info["machine"] = machine(report["numpy"])
    return report, metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # end the run through run()'s cleanup, which stops the workers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))

    if not (ROOT / "src" / "tadgame" / "__init__.py").is_file():
        print(f"run.py: no tadgame package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_to_end, per_layer = load_metric_spec()
    wanted = per_layer if args.trace else end_to_end
    try:
        report, metrics, info = run(args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"run.py: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    correct = report["failed"] == 0
    out = {}
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for m in wanted:
        value = metrics.get(m["name"])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:40s} {value!r:>24} {m['unit']}")
        if value is None:
            correct = False
    for key, value in info.items():
        print(f"# {key}: {json.dumps(value)}")
    for error in report["errors"]:
        print(f"# FAILED: {error}")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
