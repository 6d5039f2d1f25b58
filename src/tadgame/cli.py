"""Command line front end.

Subcommands: simulate | compare | wincheck | sweep-e | ellipsoids;
`compare --reps N` also times each method over N runs.
Scenario files are plain `key = value` text in a fixed key vocabulary;
outputs are CSV and JSON plot data, never figures.  Units: km, km/rad,
rad, km^3/s^2.  Timing uses a monotonic clock and excludes file I/O.

Exit codes: 0 ok, 2 scenario/config error (a NaN or infinite scenario
number or value of --rd0, --e-list or --f-list, a --reps below 3, finite
scenario numbers so large that a closed-form result overflows or that the
numerical route's initial state already exceeds its blow-up limit, an
ellipsoids anomaly outside [f0, ff] and an output path that cannot be
written, which is checked before any work, included), 3 singular or blown-up
computation, 4 violated winning-condition precondition (hovering states,
admissible --rd0) in wincheck, sweep-e and ellipsoids.
"""

import argparse
import csv
import importlib.resources
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .game import GameConfig, propagate_analytical
from .numerical_baseline import NumericalBlowup, _require_bounded_start
from .numerical_baseline import integrate_riccati_backward, simulate_numerical
from .orbital_core import ReferenceOrbit
from .riccati import SingularFactor, WeightSet
from .winning import (
    NotHovering,
    SingularBlock,
    TerminalSets,
    attacker_wins,
    classify_outcome,
    ellipsoid_at,
    scan_quadratics,
)

_SCENARIO_KEYS = (
    "mu", "p", "e", "f0", "ff", "h_f",
    "r_a", "r_d", "s_ar", "s_av", "s_dar", "s_dav",
    "xa0", "xda0", "R1", "R2",
)
_VECTOR_KEYS = ("xa0", "xda0")


class ScenarioError(ValueError):
    """Scenario file cannot be parsed or validated."""


class PreconditionError(ValueError):
    """A subcommand precondition (hovering states, admissible Rd0) failed."""


def _numbers(text, what, count=None):
    """The finite numbers in comma-separated text, count of them if count
    is given; otherwise ScenarioError, whose message starts with what."""
    parts = [s.strip() for s in text.split(",")] if text.strip() else []
    try:
        values = [float(s) for s in parts]
    except ValueError:
        raise ScenarioError(f"{what} is not numeric: {text!r}")
    if count is not None and len(values) != count:
        raise ScenarioError(f"{what} needs {count} comma-separated "
                            f"number{'s' * (count > 1)}, got {len(values)}")
    if not all(map(math.isfinite, values)):
        raise ScenarioError(f"{what} must be finite: {text!r}")
    return values


def parse_scenario(path):
    """Parse and validate a `key = value` scenario file into a GameConfig;
    parse errors carry line numbers."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path!r}: {exc}")
    seen = {}
    for line_no, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ScenarioError(f"line {line_no}: expected 'key = value', got {text!r}")
        key, raw = (s.strip() for s in text.split("=", 1))
        if key not in _SCENARIO_KEYS:
            raise ScenarioError(f"line {line_no}: unknown key {key!r}")
        if key in seen:
            raise ScenarioError(f"line {line_no}: duplicate key {key!r}")
        vector = key in _VECTOR_KEYS
        values = _numbers(raw, f"line {line_no}: value for {key}", 6 if vector else 1)
        seen[key] = np.array(values) if vector else values[0]
    missing = [k for k in _SCENARIO_KEYS if k not in seen]
    if missing:
        raise ScenarioError(f"missing keys: {', '.join(missing)}")
    try:
        return GameConfig(
            orbit=ReferenceOrbit(mu=seen["mu"], p=seen["p"], e=seen["e"]),
            weights=WeightSet(
                r_a=seen["r_a"], r_d=seen["r_d"],
                s_ar=seen["s_ar"], s_av=seen["s_av"],
                s_dar=seen["s_dar"], s_dav=seen["s_dav"],
            ),
            f0=seen["f0"], ff=seen["ff"], h_f=seen["h_f"],
            r1=seen["R1"], r2=seen["R2"],
            x_a0=seen["xa0"], x_da0=seen["xda0"],
        )
    except ValueError as exc:
        raise ScenarioError(str(exc))


def _resolve_scenario(name):
    """Accept a filesystem path or the bare name of a packaged scenario."""
    if os.path.exists(name):
        return name
    packaged = importlib.resources.files("tadgame") / "scenarios" / f"{name}.cfg"
    if packaged.is_file():
        return str(packaged)
    raise ScenarioError(f"scenario {name!r} not found (no such file or packaged scenario)")


def _load(name):
    return parse_scenario(_resolve_scenario(name))


def _fmt(x):
    return f"{float(x):.15g}"


def _write_csv(path, header, rows):
    """Write one CSV table: string cells as given, numbers through _fmt."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([c if isinstance(c, str) else _fmt(c) for c in row] for row in rows)


def write_trajectory_csv(path, traj):
    blocks = (("xa", 6), ("xda", 6), ("ua", 3), ("ud", 3))
    header = ["f", *(f"{name}{i}" for name, n in blocks for i in range(1, n + 1)),
              "dist_at", "dist_da"]
    _write_csv(path, header, np.column_stack([
        traj.grid, traj.x_a, traj.x_da, traj.u_a, traj.u_d, traj.dist_at, traj.dist_da,
    ]))


def _run_analytical(config):
    t0 = time.perf_counter()
    traj = propagate_analytical(config)
    return traj, time.perf_counter() - t0


def _run_numerical(config):
    t0 = time.perf_counter()
    _require_bounded_start(config)  # the sweep takes ~20 s at N = 1001; fail first
    pgrid = integrate_riccati_backward(config)
    traj = simulate_numerical(config, pgrid)
    return traj, time.perf_counter() - t0


_RUNNERS = {"analytical": _run_analytical, "numerical": _run_numerical}


def _summarize(method, traj, seconds, config):
    """One method's run summary, in its JSON field order."""
    outcome = classify_outcome(traj, TerminalSets(config.r1, config.r2))
    return {
        "method": method,
        "dist_at": float(traj.dist_at[-1]),
        "dist_da": float(traj.dist_da[-1]),
        "J": float(traj.cost),
        "wall_seconds": float(seconds),
        "outcome": outcome.tag.value,
        "f_capture": outcome.f_capture,
        "f_intercept": outcome.f_intercept,
    }


def _emit_json(payload, out_path):
    text = json.dumps(payload, indent=2)
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def cmd_simulate(args):
    config = _load(args.scenario)
    traj, seconds = _RUNNERS[args.method](config)
    summary = _summarize(args.method, traj, seconds, config)
    if args.out_traj:
        write_trajectory_csv(args.out_traj, traj)
    _emit_json(summary, args.out_summary)
    return 0


def _rel_err(a, b):
    """Relative difference of a against reference b."""
    return abs(a - b) / abs(b)


def cmd_compare(args):
    if args.reps is not None and args.reps < 3:
        raise ScenarioError(f"--reps must be at least 3, got {args.reps}")
    config = _load(args.scenario)
    payload, times = {}, {}
    for method, runner in _RUNNERS.items():  # analytical first
        payload[method] = _summarize(method, *runner(config), config)
        times[method] = [payload[method]["wall_seconds"]]
        times[method] += [runner(config)[1] for _ in range((args.reps or 1) - 1)]
    for key in ("dist_at", "dist_da", "J"):
        payload[f"rel_err_{key}"] = _rel_err(payload["analytical"][key], payload["numerical"][key])
    payload["time_ratio"] = times["numerical"][0] / times["analytical"][0]
    if args.reps is not None:
        timing = {method: {"median_s": float(np.median(values)), "min_s": min(values),
                           "reps": args.reps} for method, values in times.items()}
        ana, num = timing["analytical"], timing["numerical"]
        timing["speedup_median"] = num["median_s"] / ana["median_s"]
        timing["speedup_min"] = num["min_s"] / ana["min_s"]
        payload["timing"] = timing
    _emit_json(payload, args.out)
    return 0


def cmd_wincheck(args):
    config = _load(args.scenario)
    if args.rd0 is not None:
        rd0 = _numbers(args.rd0, "--rd0", 3)
        try:
            config = config.with_defender_position(rd0)
        except ValueError as exc:
            raise PreconditionError(str(exc))
    fs, v1, v2 = scan_quadratics(config)
    wins, f_a = attacker_wins(fs, v1, v2)
    if args.out:
        _write_csv(args.out, ["f", "g1", "g2"], np.column_stack([fs, v1, v2]))
    # fs = grid[1:], so the node before f_a = fs[i] is grid[i]
    f_an = None if f_a is None else float(config.grid[np.searchsorted(fs, f_a)])
    _emit_json({"attacker_wins": wins, "f_a": f_a, "f_an": f_an}, None)
    return 0


def cmd_sweep_e(args):
    config = _load(args.scenario)
    rows = []
    for e in _numbers(args.e_list, "--e-list"):
        try:
            fs, v1, v2 = scan_quadratics(replace(config, orbit=replace(config.orbit, e=e)))
        except (ValueError, SingularFactor, OverflowError) as exc:  # e rejected, or its scan fails
            rows.append([e, "", "", "", "", f"{type(exc).__name__}: {exc}"])
            continue
        wins, f_a = attacker_wins(fs, v1, v2)
        rows.append([e, "true" if wins else "false", "" if f_a is None else f_a,
                     v1.min(), v2.min(), ""])
    _write_csv(args.out, ["e", "attacker_wins", "f_a", "min_g1", "min_g2", "error"], rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_ellipsoids(args):
    config = _load(args.scenario)
    header = ["f", "set", *(f"g{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)),
              "cx", "cy", "cz", "radius", "error"]
    rows = []
    for f in _numbers(args.f_list, "--f-list"):
        for which in ("S1", "S2"):
            try:
                ell = ellipsoid_at(config, f, which)
            except ValueError as exc:  # an anomaly outside [f0, ff]
                raise ScenarioError(f"--f-list: {exc}")
            except SingularBlock as exc:
                rows.append([f, which] + [""] * 13 + [f"SingularBlock: {exc}"])
                continue
            rows.append([f, which, *ell.g.ravel(), *ell.center_offset, ell.radius, ""])
    _write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tadgame",
        description=(
            "Analytical pursuit-evasion game solver on elliptic reference orbits. "
            "Scenario files use `key = value` lines with the keys "
            "mu (km^3/s^2), p (km), e, f0/ff/h_f (rad), r_a/r_d/s_ar/s_av/s_dar/s_dav "
            "(weights), xa0/xda0 (6 comma-separated, km and km/rad, tilde frame), "
            "R1/R2 (km). A bare scenario name (e.g. reference) loads a packaged scenario."
        ),
        epilog="Exit codes: 0 ok, 2 scenario/config error, non-finite option "
               "value, overflowing scenario numbers (either method) or "
               "unwritable output path, 3 singular/blown-up computation, "
               "4 violated winning-condition precondition (hovering states, "
               "admissible --rd0) in wincheck, sweep-e and ellipsoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one method and summarize the game")
    sim.add_argument("scenario")
    sim.add_argument("--method", choices=("analytical", "numerical"), default="analytical")
    sim.add_argument("--out-traj", help="trajectory CSV path")
    sim.add_argument("--out-summary", help="summary JSON path")
    sim.set_defaults(func=cmd_simulate)

    comp = sub.add_parser("compare", help="run both methods, report relative errors; "
                                          "with --reps, also time them (I/O excluded)")
    comp.add_argument("scenario")
    comp.add_argument("--out", help="comparison JSON path")
    comp.add_argument("--reps", type=int,
                      help="runs per method, at least 3: adds median and minimum times")
    comp.set_defaults(func=cmd_compare)

    win = sub.add_parser("wincheck", help="evaluate the winning quadratics g1/g2")
    win.add_argument("scenario")
    win.add_argument("--out", help="g1/g2 CSV path")
    win.add_argument("--rd0", help="override defender initial position, km: x,y,z")
    win.set_defaults(func=cmd_wincheck)

    swp = sub.add_parser("sweep-e", help="rerun the winning check across eccentricities")
    swp.add_argument("scenario")
    swp.add_argument("--e-list", default="0,0.1,0.2,0.3,0.4,0.5")
    swp.add_argument("--out", required=True, help="sweep CSV path")
    swp.set_defaults(func=cmd_sweep_e)

    ell = sub.add_parser("ellipsoids", help="export capture/interception ellipsoids")
    ell.add_argument("scenario")
    ell.add_argument("--f-list", required=True, help="comma-separated anomalies, rad")
    ell.add_argument("--out", required=True, help="ellipsoid CSV path")
    ell.set_defaults(func=cmd_ellipsoids)

    return parser


def _check_writable(path):
    """Raise the OSError that writing path would raise, before any work;
    a file this check creates is removed again."""
    existed = os.path.exists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        for path in (getattr(args, n, None) for n in ("out", "out_traj", "out_summary")):
            if path:
                _check_writable(path)
        return args.func(args)
    except ScenarioError as exc:
        print(f"cli.ScenarioError: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, NotHovering) as exc:
        print(f"cli.PreconditionError: {exc}", file=sys.stderr)
        return 4
    except (SingularFactor, NumericalBlowup, SingularBlock) as exc:
        module = type(exc).__module__.rsplit(".", 1)[-1]
        print(f"{module}.{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (OSError, OverflowError) as exc:  # an unwritable output path, huge inputs
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
