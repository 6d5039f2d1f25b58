"""Inputs, operations and correctness gates of the four benchmark workloads.

Every workload is an endless stream of rounds drawn from one seeded
generator, so the same seed gives the same inputs and no op repeats the
inputs of an earlier one.  An op calls the package only through module
attributes (``game.propagate_analytical`` and so on), looked up at call
time, so that the traced run can wrap them.  The timed part of an op is
``Op.run``; ``Op.check`` is its untimed correctness gate and returns an
error message or None.  Sizes and ranges come from workloads.json.
"""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

SPEC = json.loads(Path(__file__).with_name("workloads.json").read_text(encoding="utf-8"))

# criterion-1 values of the packaged reference scenario
REFERENCE_VALUES = {"dist_at": 3.2018e-3, "dist_da": 0.50914, "cost": -2.4361e-3}
REFERENCE_TOL = 1e-3
TRANSVERSALITY_TOL = 1e-6
# criterion-3 agreement between the closed form and the RK4 baseline
COMPARE_TOL = {"rel_err_dist_at": 3e-4, "rel_err_dist_da": 1e-4}

CLI_BOOT = "import sys; from tadgame.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 60.0
SUMMARY_FIELDS = {"method", "dist_at", "dist_da", "J", "wall_seconds", "outcome",
                  "f_capture", "f_intercept"}
SWEEP_FIELDS = ["e", "attacker_wins", "f_a", "min_g1", "min_g2", "error"]
ELLIPSOID_FIELDS = (["f", "set"] + [f"g{i}{j}" for i in range(1, 4) for j in range(1, 4)]
                    + ["cx", "cy", "cz", "radius", "error"])


@dataclass
class Op:
    """One unit of a workload's work; ``nodes`` is the grid it runs on."""

    kind: str
    nodes: int
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    # seed-sampled, untimed cross-check against an independent route
    oracle: Optional[Callable[[Any], Optional[str]]] = None


class Package:
    """The tadgame modules the benchmark drives."""

    LAYERS = ("orbital_core", "riccati", "game", "winning", "numerical_baseline", "cli")

    def __init__(self):
        from tadgame import cli, game, numerical_baseline, orbital_core, riccati, winning

        self.orbital_core = orbital_core
        self.riccati = riccati
        self.game = game
        self.winning = winning
        self.numerical_baseline = numerical_baseline
        self.cli = cli

    def modules(self):
        return {name: getattr(self, name) for name in self.LAYERS}


def _rel(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(b))


def _csv(values):
    return ",".join(repr(float(x)) for x in values)


class _Workload:
    """Seeded input stream on the reference orbit and weights."""

    calibration = "kernel"   # the calib.Calibrator kind that suits its ops

    def __init__(self, pkg, seed, name, workdir=None):
        self.pkg = pkg
        self.name = name
        self.sizes = SPEC["workloads"][name]["sizes"]
        self.rng = np.random.default_rng(seed)

    def config(self, e, x_a0, x_da0, s_da=None):
        ref = SPEC["reference"]
        s_dar = ref["s_dar"] if s_da is None else s_da
        s_dav = ref["s_dav"] if s_da is None else s_da
        steps = ref["steps_per_revolution"]
        h_f = 2.0 * math.pi / steps
        return self.pkg.game.GameConfig(
            orbit=self.pkg.orbital_core.ReferenceOrbit(mu=ref["mu"], p=ref["p"], e=e),
            weights=self.pkg.riccati.WeightSet(
                r_a=ref["r_a"], r_d=ref["r_d"], s_ar=ref["s_ar"], s_av=ref["s_av"],
                s_dar=s_dar, s_dav=s_dav,
            ),
            f0=0.0, ff=self.sizes["revolutions"] * steps * h_f, h_f=h_f,
            r1=ref["R1"], r2=ref["R2"],
            x_a0=np.asarray(x_a0, dtype=float), x_da0=np.asarray(x_da0, dtype=float),
        )

    def direction(self):
        v = self.rng.normal(size=3)
        return v / np.linalg.norm(v)

    def box(self, key):
        half = self.sizes[key]
        return self.rng.uniform(-half, half, 3)

    def warmup(self):
        return next(self.rounds())[0]


class SolveWorkload(_Workload):
    """solve and solve-long: one fresh scenario per op, propagated in closed
    form and classified."""

    def _draw(self):
        s, rng = self.sizes, self.rng
        e = rng.uniform(*s["e"])
        speed = s["speed_km_per_rad"]
        x_a0 = np.concatenate([self.direction() * rng.uniform(*s["attacker_distance_km"]),
                               rng.uniform(-speed, speed, 3)])
        x_da0 = np.concatenate([self.box("defender_offset_km"), rng.uniform(-speed, speed, 3)])
        return self.config(e, x_a0, x_da0)

    def _op(self, config, expect=None):
        pkg = self.pkg
        sets = pkg.winning.TerminalSets(r1=config.r1, r2=config.r2)

        def run():
            traj = pkg.game.propagate_analytical(config)
            return traj, pkg.winning.classify_outcome(traj, sets)

        return Op(kind="solve", nodes=config.n_steps + 1, run=run,
                  check=lambda result: check_solve(pkg, config, result, expect))

    def warmup(self):
        # solve warms up on the reference scenario and gates its criterion-1 values
        if self.name == "solve":
            reference = self.config(0.1, [0.0, 20.0, 0.0, 0.0, 0.0, 0.0],
                                    [-2.0, -20.0, 0.0, 0.0, 0.0, 0.0])
            return self._op(reference, expect=REFERENCE_VALUES)
        return super().warmup()

    def rounds(self):
        while True:
            yield [self._op(self._draw())]


def check_solve(pkg, config, result, expect=None):
    traj, outcome = result
    n = config.n_steps + 1
    for name in ("x_a", "x_da", "u_a", "u_d", "lam", "nu", "dist_at", "dist_da"):
        arr = np.asarray(getattr(traj, name))
        if arr.shape[0] != n or not np.all(np.isfinite(arr)):
            return f"{name} is not a finite array over the {n} grid nodes"
    if not math.isfinite(traj.cost):
        return "cost is not finite"
    if not (np.array_equal(traj.grid, config.grid)
            and np.allclose(traj.x_a[0], config.x_a0, rtol=1e-9, atol=1e-12)
            and np.allclose(traj.x_da[0], config.x_da0, rtol=1e-9, atol=1e-12)):
        return "trajectory does not start from this scenario's grid and initial states"
    w = config.weights
    lam_err = _rel(traj.lam[-1], w.sa @ traj.x_a[-1])
    nu_err = _rel(traj.nu[-1], -w.sda @ traj.x_da[-1])
    if not (lam_err <= TRANSVERSALITY_TOL and nu_err <= TRANSVERSALITY_TOL):
        return f"transversality violated: lambda {lam_err:.3e}, nu {nu_err:.3e}"
    if not isinstance(outcome.tag, pkg.winning.OutcomeTag):
        return f"outcome {outcome!r} has no OutcomeTag"
    if expect is not None:
        got = {"dist_at": traj.dist_at[-1], "dist_da": traj.dist_da[-1], "cost": traj.cost}
        for key, want in expect.items():
            if not abs(got[key] - want) <= REFERENCE_TOL * abs(want):
                return f"reference {key} = {got[key]!r}, expected {want!r} within {REFERENCE_TOL}"
    return None


class WinmapWorkload(_Workload):
    """One op classifies one defender placement; a round is K placements
    around one hovering attacker in a freshly drawn scenario."""

    def _op(self, config, rd0):
        pkg = self.pkg

        def run():
            return pkg.winning.winning_set_membership(config, rd0)

        def check(wins):
            if not isinstance(wins, (bool, np.bool_)):
                return f"winning_set_membership returned {wins!r}, not a bool"
            return None

        def oracle(wins):
            cfg = config.with_defender_position(rd0)
            sets = pkg.winning.TerminalSets(r1=cfg.r1, r2=cfg.r2)
            outcome = pkg.winning.classify_outcome(pkg.game.propagate_analytical(cfg), sets)
            if bool(wins) != (outcome.tag is pkg.winning.OutcomeTag.ATTACKER_WINS):
                return (f"placement {list(rd0)}: winning_set_membership says {bool(wins)}, "
                        f"propagation says {outcome.tag.value}")
            return None

        return Op(kind="placement", nodes=config.n_steps + 1, run=run, check=check,
                  oracle=oracle)

    def rounds(self):
        s = self.sizes
        while True:
            e = self.rng.uniform(*s["e"])
            s_da = 10.0 ** self.rng.uniform(*s["log10_s_da"])
            ra0 = self.direction() * s["attacker_distance_km"]
            # every placement replaces this defender state
            config = self.config(e, np.concatenate([ra0, np.zeros(3)]),
                                 np.concatenate([self.box("placement_box_km") - ra0,
                                                 np.zeros(3)]), s_da=s_da)
            yield [self._op(config, ra0 + self.box("placement_box_km"))
                   for _ in range(s["placements_per_scenario"])]


def write_scenario(path, config):
    """Write a GameConfig in the CLI's `key = value` scenario format."""
    o, w = config.orbit, config.weights
    lines = [
        f"mu = {o.mu!r}", f"p = {o.p!r}", f"e = {o.e!r}",
        f"f0 = {config.f0!r}", f"ff = {config.ff!r}", f"h_f = {config.h_f!r}",
        f"r_a = {w.r_a!r}", f"r_d = {w.r_d!r}", f"s_ar = {w.s_ar!r}", f"s_av = {w.s_av!r}",
        f"s_dar = {w.s_dar!r}", f"s_dav = {w.s_dav!r}",
        f"xa0 = {_csv(config.x_a0)}", f"xda0 = {_csv(config.x_da0)}",
        f"R1 = {config.r1!r}", f"R2 = {config.r2!r}",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class CliWorkload(_Workload):
    """One op is one tadgame command on a scenario file the round writes.
    With ``inprocess`` False it runs as a fresh child process; with True it
    calls ``cli.main(argv)`` in this process, which the traced run and the
    memory pass use."""

    def __init__(self, pkg, seed, name, workdir=None):
        super().__init__(pkg, seed, name)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.inprocess = False

    @property
    def calibration(self):
        return "kernel" if self.inprocess else "spawn"

    def _execute(self, argv):
        if self.inprocess:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = self.pkg.cli.main(argv)
                except SystemExit as exc:  # argparse rejects argv this way
                    rc = exc.code
            return rc, out.getvalue(), err.getvalue()
        proc = subprocess.run([sys.executable, "-c", CLI_BOOT, *argv], capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S, cwd=self.workdir)
        return proc.returncode, proc.stdout, proc.stderr

    def _op(self, kind, argv, nodes, check, out_path=None):
        def run():
            if out_path is not None and out_path.exists():
                out_path.unlink()
            return self._execute(argv)

        def gate(result):
            rc, stdout, stderr = result
            if rc != 0:
                return f"{kind} exited {rc}: {stderr.strip()[-300:]}"
            try:
                return check(stdout)
            except (ValueError, KeyError, TypeError, OSError) as exc:
                return f"{kind} output unreadable: {type(exc).__name__}: {exc}"

        return Op(kind=kind, nodes=nodes, run=run, check=gate)

    def rounds(self):
        while True:
            yield self._round()

    def _round(self):
        s, rng, d = self.sizes, self.rng, self.workdir
        ra0 = self.direction() * s["attacker_distance_km"]
        x_da0 = np.concatenate([self.box("defender_box_km") - ra0, np.zeros(3)])
        config = self.config(rng.uniform(*s["e"]), np.concatenate([ra0, np.zeros(3)]), x_da0)
        short = replace(config, ff=s["compare_steps"] * config.h_f)
        scn, scn_short = d / "scenario.cfg", d / "short.cfg"
        write_scenario(scn, config)
        write_scenario(scn_short, short)
        rd0 = ra0 + self.box("rd0_box_km")
        e_list = np.sort(rng.uniform(*s["e"], s["sweep_e_values"]))
        f_list = np.sort(rng.uniform(config.ff / 2.0, config.ff, s["ellipsoid_anomalies"]))
        sweep_csv, ell_csv, cmp_json = d / "sweep.csv", d / "ellipsoids.csv", d / "compare.json"
        nodes = config.n_steps + 1

        def summary(stdout):
            record = json.loads(stdout)
            missing = SUMMARY_FIELDS - set(record)
            if missing:
                return f"simulate summary lacks {sorted(missing)}"
            if not all(math.isfinite(record[k]) for k in ("dist_at", "dist_da", "J")):
                return "simulate summary is not finite"
            return None

        def wincheck(stdout):
            record = json.loads(stdout)
            if not isinstance(record["attacker_wins"], bool):
                return f"wincheck attacker_wins = {record['attacker_wins']!r}"
            if record["attacker_wins"] != (record["f_a"] is not None):
                return "wincheck f_a disagrees with attacker_wins"
            return None

        def table(path, fields, rows):
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                if reader.fieldnames != fields:
                    return f"{path.name} header is {reader.fieldnames}"
                body = list(reader)
            if len(body) != rows:
                return f"{path.name} has {len(body)} rows, expected {rows}"
            bad = [r["error"] for r in body if r["error"]]
            return f"{path.name} row error: {bad[0]}" if bad else None

        def compare(_stdout):
            record = json.loads(cmp_json.read_text(encoding="utf-8"))
            for key, tol in COMPARE_TOL.items():
                if not record[key] <= tol:
                    return f"compare {key} = {record[key]!r} exceeds {tol}"
            return None

        return [
            self._op("simulate", ["simulate", str(scn)], nodes, summary),
            self._op("wincheck", ["wincheck", str(scn), f"--rd0={_csv(rd0)}"], nodes, wincheck),
            self._op("sweep-e", ["sweep-e", str(scn), f"--e-list={_csv(e_list)}",
                                 "--out", str(sweep_csv)], nodes,
                     lambda _: table(sweep_csv, SWEEP_FIELDS, len(e_list)), sweep_csv),
            self._op("ellipsoids", ["ellipsoids", str(scn), f"--f-list={_csv(f_list)}",
                                    "--out", str(ell_csv)], nodes,
                     lambda _: table(ell_csv, ELLIPSOID_FIELDS, 2 * len(f_list)), ell_csv),
            self._op("compare", ["compare", str(scn_short), "--out", str(cmp_json)],
                     short.n_steps + 1, compare, cmp_json),
        ]


WORKLOADS = {"solve": SolveWorkload, "solve-long": SolveWorkload,
             "winmap": WinmapWorkload, "cli": CliWorkload}


def make(pkg, name, seed, workdir=None):
    return WORKLOADS[name](pkg, seed, name, workdir)
