"""Scenario parsing, CSV/JSON outputs, exit codes, and the subcommands."""

import argparse
import csv
import json
import math
import re
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import tadgame.cli
import tadgame.winning
from conftest import reference_config, riccati_p
from tadgame.cli import (
    ScenarioError,
    _rel_err,
    _resolve_scenario,
    build_parser,
    main,
    parse_scenario,
    write_trajectory_csv,
)
from tadgame.game import GameConfig, propagate_analytical
from tadgame.winning import ellipsoid_at

H_F = 0.006283185307179587
README = Path(__file__).resolve().parents[1] / "README.md"

DEFAULTS = {
    "mu": "398603.0",
    "p": "10000.0",
    "e": "0.1",
    "f0": "0.0",
    "ff": repr(2.0 * math.pi),
    "h_f": repr(math.pi / 500.0),
    "r_a": "5e9",
    "r_d": "3e9",
    "s_ar": "1.0",
    "s_av": "1.0",
    "s_dar": "0.001",
    "s_dav": "0.001",
    "xa0": "0.0, 20.0, 0.0, 0.0, 0.0, 0.0",
    "xda0": "-2.0, -20.0, 0.0, 0.0, 0.0, 0.0",
    "R1": "0.01",
    "R2": "0.01",
}


def scenario_file(tmp_path, name="case.cfg", drop=(), **overrides):
    values = {**DEFAULTS, **overrides}
    lines = [f"{k} = {v}" for k, v in values.items() if k not in drop]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_trajectory_csv(path):
    """Inverse of write_trajectory_csv, for round-trip checks."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, np.array(rows)


class TestParseScenario:
    def test_reads_reference_values(self, tmp_path):
        cfg = parse_scenario(scenario_file(tmp_path))
        assert isinstance(cfg, GameConfig)
        assert cfg.orbit.mu == 398603.0 and cfg.orbit.e == 0.1
        assert np.array_equal(cfg.x_da0, [-2.0, -20.0, 0.0, 0.0, 0.0, 0.0])
        ref = reference_config()
        assert cfg.ff == ref.ff and cfg.h_f == ref.h_f
        assert np.array_equal(cfg.grid, ref.grid)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        body = "\n".join(f"{k} = {v}  # unit note" for k, v in DEFAULTS.items())
        path.write_text("# header\n\n" + body + "\n", encoding="utf-8")
        assert parse_scenario(str(path)).orbit.p == 10000.0

    @pytest.mark.parametrize("mutation, needle", [
        (lambda p: scenario_file(p, mu="398603.0\njunk line"), "line 2"),
        (lambda p: scenario_file(p, bogus="1.0"), "unknown key"),
        (lambda p: scenario_file(p, mu="398603.0\nmu = 1.0"), "duplicate"),
        (lambda p: scenario_file(p, p="ten thousand"), "not numeric"),
        (lambda p: scenario_file(p, xa0="1, 2, 3"), "6 comma-separated"),
        (lambda p: scenario_file(p, drop=("R1", "R2")), "missing keys: R1, R2"),
    ])
    def test_errors_carry_location(self, tmp_path, mutation, needle):
        with pytest.raises(ScenarioError, match=needle):
            parse_scenario(mutation(tmp_path))

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            parse_scenario(str(tmp_path / "absent.cfg"))


class TestResolve:
    def test_packaged_name(self):
        cfg = parse_scenario(_resolve_scenario("reference"))
        assert cfg.orbit.mu == 398603.0
        assert cfg.h_f == H_F

    def test_unknown_name(self):
        with pytest.raises(ScenarioError, match="not found"):
            _resolve_scenario("no-such-scenario")


class TestRecords:
    def test_rel_err_identity(self):
        assert _rel_err(0.5091, 0.5091) == 0.0
        # a zero reference gives the absolute difference, not a ZeroDivisionError
        assert _rel_err(0.0, 0.0) == 0.0
        assert _rel_err(0.25, 0.0) == 0.25
        assert _rel_err(-0.25, 0.0) == 0.25


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path):
        cfg = reference_config(ff=math.pi / 4.0)
        traj = propagate_analytical(cfg)
        p1 = tmp_path / "t1.csv"
        write_trajectory_csv(str(p1), traj)
        header, data = read_trajectory_csv(str(p1))
        assert header[:2] == ["f", "xa1"] and header[-2:] == ["dist_at", "dist_da"]
        assert len(header) == 21
        assert data.shape == (len(cfg.grid), 21)
        assert np.allclose(data[:, 1:7], traj.x_a, rtol=1e-12, atol=0.0)
        assert np.allclose(data[:, 19], traj.dist_at, rtol=1e-12, atol=0.0)
        # 15-significant-digit decimals round-trip exactly through float()
        fake = types.SimpleNamespace(
            grid=data[:, 0], x_a=data[:, 1:7], x_da=data[:, 7:13],
            u_a=data[:, 13:16], u_d=data[:, 16:19],
            dist_at=data[:, 19], dist_da=data[:, 20],
        )
        p2 = tmp_path / "t2.csv"
        write_trajectory_csv(str(p2), fake)
        assert p1.read_bytes() == p2.read_bytes()


class TestExitCodes:
    def test_bad_scenario(self, tmp_path, capsys):
        path = scenario_file(tmp_path, drop=("mu",))
        code, _, err = run(["simulate", path], capsys)
        assert code == 2
        assert err.startswith("cli.ScenarioError:")

    @pytest.mark.parametrize("key, value", [
        ("s_ar", "nan"),
        ("r_a", "inf"),
        ("mu", "inf"),
        ("p", "1e-300"),
        ("ff", "inf"),
        ("h_f", "6.283185307179586e-08"),  # tiles [f0, ff] in 10^8 steps, past the cap
        ("s_dar", "-1.0"),
    ])
    def test_non_finite_scenario_value(self, tmp_path, capsys, key, value):
        path = scenario_file(tmp_path, **{key: value})
        code, _, err = run(["simulate", path], capsys)
        assert code == 2
        assert err.startswith("cli.ScenarioError:") and err.count("\n") == 1

    def test_undecodable_scenario_file(self, tmp_path, capsys):
        # reading a non-UTF-8 file raises UnicodeDecodeError, not OSError
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"mu = 398603.0\xff\n")
        code, out, err = run(["simulate", str(path)], capsys)
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert err.startswith(f"cli.ScenarioError: cannot read scenario {str(path)!r}: ")

    def test_unknown_scenario_name(self, capsys):
        code, _, err = run(["simulate", "no-such-scenario"], capsys)
        assert code == 2 and "not found" in err

    def test_singular_factor(self, tmp_path, capsys):
        path = scenario_file(tmp_path, r_d="1.0", s_dar="100.0", s_dav="100.0")
        code, _, err = run(["simulate", path, "--method", "analytical"], capsys)
        assert code == 3
        assert err.startswith("riccati.SingularFactor:")
        assert "f=0" in err

    def test_conjugate_point_between_nodes(self, tmp_path, capsys):
        path = scenario_file(tmp_path, r_a="5e7", r_d="1e10", s_dar="1000.0", s_dav="1000.0")
        code, _, err = run(["simulate", path, "--method", "analytical"], capsys)
        assert code == 3
        assert err.startswith("riccati.SingularFactor:") and "conjugate point" in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "SCENARIO"],
        ["wincheck", "SCENARIO"],
        ["ellipsoids", "SCENARIO", "--f-list", "1.0,12.5", "--out", "OUT"],
        ["sweep-e", "SCENARIO", "--e-list", "0.8", "--out", "OUT"],
    ], ids=["simulate", "wincheck", "ellipsoids", "sweep-e"])
    def test_certified_scenario_exits_0(self, tmp_path, capsys, argv):
        # D2 of tests/test_riccati.py at 990 steps over two revolutions: the
        # float64 det F reads negative near ff, but r_d <= r_a proves that no
        # conjugate point exists, so the factor check is the kappa_1 gate at
        # f0 and every command succeeds, the scans with no error cell
        ff = 4.0 * math.pi
        path = scenario_file(tmp_path, e="0.8", ff=repr(ff), h_f=repr(ff / 990),
                             r_a="7.383e8", r_d="4.55e6", s_ar="19.78", s_av="2.184",
                             s_dar="0.9168", s_dav="2645.0")
        out_path = tmp_path / "out.csv"
        argv = [{"SCENARIO": path, "OUT": str(out_path)}.get(a, a) for a in argv]
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        if "--out" in argv:
            with open(out_path, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == (4 if argv[0] == "ellipsoids" else 1)
            assert all(row["error"] == "" for row in rows)
        else:
            assert json.loads(out)

    @pytest.mark.parametrize("argv", [
        ["wincheck", "SCENARIO"],
        ["ellipsoids", "SCENARIO", "--f-list", "1.0,6.2", "--out", "OUT"],
        ["sweep-e", "SCENARIO", "--e-list", "0.1", "--out", "OUT"],
    ], ids=["wincheck", "ellipsoids", "sweep-e"])
    def test_scan_conjugate_point_between_nodes(self, tmp_path, capsys, argv):
        # the scenario of the test above: simulate exits 3, the scans must
        # too, and sweep-e must record the failure in the row's error cell
        path = scenario_file(tmp_path, r_a="5e7", r_d="1e10", s_dar="1000.0", s_dav="1000.0")
        out_path = tmp_path / "out.csv"
        argv = [{"SCENARIO": path, "OUT": str(out_path)}.get(a, a) for a in argv]
        code, _, err = run(argv, capsys)
        if argv[0] == "sweep-e":
            assert code == 0
            with open(out_path, newline="", encoding="utf-8") as fh:
                (row,) = csv.DictReader(fh)
            assert row["error"].startswith("SingularFactor:")
        else:
            assert code == 3
            assert err.startswith("riccati.SingularFactor:")

    @pytest.mark.parametrize("value", ["nan", "inf", "100", "-1"])
    def test_ellipsoid_anomaly_outside_horizon(self, tmp_path, capsys, value):
        out_path = tmp_path / "ell.csv"
        code, _, err = run(
            ["ellipsoids", "reference", "--f-list", f"1.0,{value}", "--out", str(out_path)], capsys
        )
        assert code == 2
        assert err.startswith("cli.ScenarioError:") and err.count("\n") == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "reference", "--out-traj"],
        ["wincheck", "reference", "--out"],
        ["sweep-e", "reference", "--e-list", "0.1", "--out"],
        ["simulate", "SHORT", "--out-summary"],
        ["compare", "SHORT", "--out"],
        ["compare", "SHORT", "--reps", "3", "--out"],
    ], ids=["simulate", "wincheck", "sweep-e", "simulate-summary", "compare", "compare-reps"])
    def test_unwritable_output_path(self, tmp_path, capsys, argv):
        # the path is checked before the run: nothing reaches stdout
        short = scenario_file(tmp_path, ff=repr(math.pi / 10.0))
        argv = [short if a == "SHORT" else a for a in argv]
        out_path = tmp_path / "no-such-dir" / "out.csv"
        code, out, err = run(argv + [str(out_path)], capsys)
        assert code == 2
        assert err.startswith("FileNotFoundError:") and err.count("\n") == 1
        assert out == ""
        assert not out_path.parent.exists()

    def test_existing_output_kept_on_failed_run(self, tmp_path, capsys):
        # the early check neither truncates an existing output nor leaves
        # a new one behind when the run then fails
        out_path = tmp_path / "ell.csv"
        out_path.write_text("old\n", encoding="utf-8")
        argv = ["ellipsoids", "reference", "--f-list", "100", "--out", str(out_path)]
        assert run(argv, capsys)[0] == 2
        assert out_path.read_text(encoding="utf-8") == "old\n"

    def test_numerical_blowup(self, tmp_path, capsys):
        path = scenario_file(tmp_path, r_d="1.0", s_dar="100.0", s_dav="100.0")
        code, _, err = run(["simulate", path, "--method", "numerical"], capsys)
        assert code == 3
        assert err.startswith("numerical_baseline.NumericalBlowup:")

    @pytest.mark.parametrize("penalty", ["r_a", "r_d"])
    def test_numerical_nan_is_a_blowup(self, tmp_path, capsys, penalty):
        # the RK4 gain turns NaN at the first sub-step: exit 3 with one
        # stderr line, not exit 0 with "J": NaN on stdout
        path = scenario_file(tmp_path, ff=repr(4 * H_F), **{penalty: "1e-300"})
        code, out, err = run(["simulate", path, "--method", "numerical"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("numerical_baseline.NumericalBlowup:") and err.count("\n") == 1

    @pytest.mark.parametrize("overrides", [
        {"r_a": "1e-300"},
        {"ff": "1e300", "h_f": "1e299"},
    ], ids=["tiny-r_a", "huge-ff"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "SCENARIO"],
        ["wincheck", "SCENARIO"],
        ["ellipsoids", "SCENARIO", "--f-list", "1.0", "--out", "OUT"],
        ["sweep-e", "SCENARIO", "--e-list", "0.1", "--out", "OUT"],
    ], ids=["simulate", "wincheck", "ellipsoids", "sweep-e"])
    def test_overflowing_closed_form(self, tmp_path, capsys, argv, overrides):
        # the factor overflows to inf and NaN at f0: one OverflowError line
        # with exit 2 and nothing on stdout, or an error cell with exit 0 in
        # sweep-e, and no numpy warning (a warning raises under the suite's
        # filter)
        path = scenario_file(tmp_path, **overrides)
        out_path = tmp_path / "out.csv"
        argv = [{"SCENARIO": path, "OUT": str(out_path)}.get(a, a) for a in argv]
        code, out, err = run(argv, capsys)
        message = ("OverflowError: factor U22 - S U12 at f=0 overflows: "
                   "the scenario's numbers are too large")
        if argv[0] == "sweep-e":
            assert (code, err) == (0, "")
            with open(out_path, newline="", encoding="utf-8") as fh:
                (row,) = csv.DictReader(fh)
            assert row["error"] == message
        else:
            assert (code, out, err) == (2, "", message + "\n")

    def test_wincheck_requires_hovering(self, tmp_path, capsys):
        path = scenario_file(tmp_path, xa0="0.0, 20.0, 0.0, 0.001, 0.0, 0.0")
        code, _, err = run(["wincheck", path], capsys)
        assert code == 4
        assert "PreconditionError" in err

    def test_wincheck_rejects_captured_placement(self, tmp_path, capsys):
        path = scenario_file(tmp_path)
        code, _, err = run(["wincheck", path, "--rd0", "0,20,0"], capsys)
        assert code == 4
        assert "PreconditionError" in err

    @pytest.mark.parametrize("argv", [
        ["sweep-e", "SCENARIO", "--e-list", "0,0.3", "--out"],
        ["ellipsoids", "SCENARIO", "--f-list", "1.0", "--out"],
    ], ids=["sweep-e", "ellipsoids"])
    def test_winning_commands_require_hovering(self, tmp_path, capsys, argv):
        # the precondition holds for every e and f, so it stops the command
        # instead of becoming an error row
        path = scenario_file(tmp_path, xa0="0.0, 20.0, 0.0, 0.001, 0.0, 0.0")
        out_path = tmp_path / "out.csv"
        code, out, err = run([path if a == "SCENARIO" else a for a in argv] + [str(out_path)],
                             capsys)
        assert code == 4 and out == ""
        assert err.startswith("cli.PreconditionError:") and err.count("\n") == 1
        assert not out_path.exists()

    def test_wincheck_rd0_keeps_a_moving_attacker(self, tmp_path, capsys):
        # --rd0 moves the defender only: the attacker's velocity still
        # fails the hovering precondition, as it does without --rd0
        path = scenario_file(tmp_path, xa0="0, 20, 0, 0.3, 0, 0")
        code, out, err = run(["wincheck", path, "--rd0=-2,-20,0"], capsys)
        assert code == 4 and out == ""
        assert err.startswith("cli.PreconditionError:") and err.count("\n") == 1

    def test_wincheck_malformed_rd0(self, tmp_path, capsys):
        path = scenario_file(tmp_path)
        code, _, err = run(["wincheck", path, "--rd0", "1,2"], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv, overrides", [
        (["simulate"], {}),
        (["wincheck"], {}),
        # ten grid steps; test_numerical_start_checked_before_sweep runs
        # the full horizon
        (["simulate", "--method", "numerical"], {"ff": repr(10 * math.pi / 500.0)}),
        # at 1e200 the capture ellipsoid's centre is still finite
        (["ellipsoids", "--f-list", "1.0", "--out", "OUT"], {"xa0": "0, 1e307, 0, 0, 0, 0"}),
    ], ids=["simulate", "wincheck", "simulate-numerical", "ellipsoids"])
    def test_overflowing_initial_state(self, tmp_path, capsys, argv, overrides):
        # finite but so large that the squared distances overflow, and far
        # past the RK4 blow-up limit: one stderr line and exit 2, no warning,
        # no Infinity or NaN on stdout and no file written
        path = scenario_file(tmp_path, **{"xa0": "0, 1e200, 0, 0, 0, 0", **overrides})
        out_path = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run([str(out_path) if a == "OUT" else a for a in argv] + [path],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith("OverflowError:") and err.count("\n") == 1
        assert not out_path.exists()

    def test_numerical_start_checked_before_sweep(self, tmp_path, capsys, monkeypatch):
        # past the RK4 blow-up limit at the start: exit 2 before the
        # backward sweep of the full reference horizon begins
        def no_sweep(config):
            raise AssertionError("the backward sweep ran")

        monkeypatch.setattr(tadgame.cli, "integrate_riccati_backward", no_sweep)
        path = scenario_file(tmp_path, xa0="0, 2e15, 0, 0, 0, 0")
        code, out, err = run(["simulate", path, "--method", "numerical"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("OverflowError:") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_wincheck_non_finite_rd0(self, tmp_path, capsys, value):
        path = scenario_file(tmp_path)
        code, out, err = run(["wincheck", path, "--rd0", f"0,{value},0"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("cli.ScenarioError:") and err.count("\n") == 1

    def test_compare_too_few_reps(self, tmp_path, capsys):
        path = scenario_file(tmp_path)
        code, out, err = run(["compare", path, "--reps", "2"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("cli.ScenarioError:") and err.count("\n") == 1
        assert "at least 3" in err

    def test_help(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_bench_subcommand_removed(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bench", "reference"])
        assert info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestSimulate:
    def test_short_horizon_summary_and_csv(self, tmp_path, capsys):
        path = scenario_file(tmp_path, ff=repr(math.pi / 4.0))
        traj_path = tmp_path / "traj.csv"
        sum_path = tmp_path / "summary.json"
        code, out, _ = run(
            ["simulate", path, "--out-traj", str(traj_path), "--out-summary", str(sum_path)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == [
            "method", "dist_at", "dist_da", "J", "wall_seconds",
            "outcome", "f_capture", "f_intercept",
        ]
        assert payload["method"] == "analytical"
        assert payload["outcome"] == "NobodyWins"
        assert payload["f_capture"] is None
        assert json.loads(sum_path.read_text()) == payload
        header, data = read_trajectory_csv(str(traj_path))
        assert data.shape == (126, 21)

    def test_zero_eccentricity_runs(self, tmp_path, capsys):
        path = scenario_file(tmp_path, e="0.0", ff=repr(math.pi / 4.0))
        code, out, _ = run(["simulate", path], capsys)
        assert code == 0
        assert json.loads(out)["outcome"] == "NobodyWins"


class TestWincheck:
    def test_reference_verdict(self, tmp_path, capsys):
        out_path = tmp_path / "g.csv"
        code, out, _ = run(["wincheck", "reference", "--out", str(out_path)], capsys)
        assert code == 0
        v = json.loads(out)
        assert v["attacker_wins"] is True
        assert v["f_a"] == 984 * H_F
        assert v["f_an"] == 983 * H_F
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "f,g1,g2"
        assert len(lines) == 1001

    def test_relocated_defender_blocks(self, capsys):
        code, out, _ = run(["wincheck", "reference", "--rd0", "0,20.012,0"], capsys)
        assert code == 0
        v = json.loads(out)
        assert v["attacker_wins"] is False
        assert v["f_a"] is None and v["f_an"] is None

    @pytest.mark.parametrize("argv", [
        ["wincheck", "reference", "--out"],
        ["sweep-e", "reference", "--e-list", "0.3", "--out"],
    ], ids=["wincheck", "sweep-e"])
    def test_one_scan_per_verdict(self, tmp_path, capsys, monkeypatch, argv):
        # the CSV values and the verdict come from the same scan
        scan = tadgame.winning.scan_quadratics
        calls = []

        def counted(config):
            calls.append(config)
            return scan(config)

        monkeypatch.setattr(tadgame.winning, "scan_quadratics", counted)
        monkeypatch.setattr(tadgame.cli, "scan_quadratics", counted)
        assert run(argv + [str(tmp_path / "out.csv")], capsys)[0] == 0
        assert len(calls) == 1


class TestCompare:
    def test_errors_shrink_with_grid_refinement(self, tmp_path, capsys):
        errs = []
        for div in (1, 2, 4):
            path = scenario_file(
                tmp_path, name=f"h{div}.cfg",
                ff=repr(math.pi / 10.0), h_f=repr(math.pi / 500.0 / div),
            )
            code, out, _ = run(["compare", path], capsys)
            assert code == 0
            payload = json.loads(out)
            if div == 1:
                assert set(payload) == {
                    "analytical", "numerical", "rel_err_dist_at",
                    "rel_err_dist_da", "rel_err_J", "time_ratio",
                }
                assert payload["analytical"]["method"] == "analytical"
                assert payload["time_ratio"] > 0.0
            errs.append(
                (payload["rel_err_dist_at"], payload["rel_err_dist_da"], payload["rel_err_J"])
            )
            # the analytical J is the game value, with no quadrature error
            cfg = parse_scenario(path)
            y0 = np.concatenate([cfg.x_a0, cfg.x_da0])
            p0 = riccati_p(cfg.orbit, cfg.weights, cfg.f0, cfg.ff)
            assert payload["analytical"]["J"] == 0.5 * (y0 @ p0 @ y0)
        for i in range(2):
            for j in range(2):
                assert errs[i + 1][j] < errs[i][j] / 4.0
        # the RK4 oracle's trapezoid J converges at second order only from a
        # step of h_f/8 on, so from h_f to h_f/4 ask for a 16x drop alone
        assert errs[2][2] < errs[0][2] / 16.0

    def test_zero_reference(self, tmp_path, capsys):
        # with every terminal weight 0 both routes give J = 0.0, and the
        # relative error against a zero reference is the absolute one
        zero = {key: "0.0" for key in ("s_ar", "s_av", "s_dar", "s_dav")}
        path = scenario_file(tmp_path, ff=repr(4 * H_F), **zero)
        code, out, err = run(["compare", path], capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["analytical"]["J"] == payload["numerical"]["J"] == 0.0
        assert payload["rel_err_J"] == 0.0

    def test_reps_adds_timing(self, tmp_path, capsys):
        path = scenario_file(tmp_path, ff=repr(math.pi / 10.0))
        out_path = tmp_path / "compare.json"
        code, out, _ = run(["compare", path, "--reps", "3", "--out", str(out_path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "analytical", "numerical", "rel_err_dist_at",
            "rel_err_dist_da", "rel_err_J", "time_ratio", "timing",
        }
        timing = payload["timing"]
        assert set(timing) == {"analytical", "numerical", "speedup_median", "speedup_min"}
        for method in ("analytical", "numerical"):
            assert timing[method]["reps"] == 3
            assert timing[method]["min_s"] > 0.0
            assert timing[method]["min_s"] <= timing[method]["median_s"]
            # the summary comes from the first of the three runs
            assert timing[method]["min_s"] <= payload[method]["wall_seconds"]
        assert timing["speedup_median"] > 1.0
        assert json.loads(out_path.read_text()) == payload


class TestSweepE:
    def test_two_eccentricities(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(
            ["sweep-e", "reference", "--e-list", "0,0.3", "--out", str(out_path)], capsys
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "e,attacker_wins,f_a,min_g1,min_g2,error"
        assert len(lines) == 3
        for line in lines[1:]:
            e, wins, f_a, min_g1, min_g2, error = line.split(",")
            assert wins == "true" and error == ""
            assert float(f_a) > 6.0
            assert float(min_g1) <= 0.0 and float(min_g2) > 0.0

    def test_empty_list_writes_header_only(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            ["sweep-e", "reference", "--e-list", "", "--out", str(out_path)], capsys
        )
        assert code == 0
        assert out_path.read_text().strip().splitlines() == [
            "e,attacker_wins,f_a,min_g1,min_g2,error"
        ]

    def test_invalid_eccentricity_recorded_and_sweep_continues(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            ["sweep-e", "reference", "--e-list", "0.1,0.9", "--out", str(out_path)], capsys
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 3
        good = lines[1].split(",")
        bad = lines[2].split(",", 5)
        assert good[1] == "true" and good[5] == ""
        assert bad[1] == "" and "ValueError" in bad[5]

    def test_undocumented_failure_propagates(self, tmp_path, monkeypatch):
        # only a rejected e, SingularFactor and OverflowError become rows
        def broken(config):
            raise RuntimeError("broken scan")

        monkeypatch.setattr(tadgame.cli, "scan_quadratics", broken)
        out_path = tmp_path / "sweep.csv"
        with pytest.raises(RuntimeError, match="broken scan"):
            main(["sweep-e", "reference", "--e-list", "0.1", "--out", str(out_path)])
        assert not out_path.exists()

    @pytest.mark.parametrize("e_list", ["0.1,nan", "inf,0.1", "0.1,x"])
    def test_non_finite_or_malformed_list_exits_2(self, tmp_path, capsys, e_list):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(
            ["sweep-e", "reference", "--e-list", e_list, "--out", str(out_path)], capsys
        )
        assert code == 2 and out == ""
        assert err.startswith("cli.ScenarioError:") and err.count("\n") == 1
        assert not out_path.exists()


class TestEllipsoids:
    @staticmethod
    def parse_rows(path):
        lines = path.read_text().strip().splitlines()
        fields = lines[0].split(",")
        return [dict(zip(fields, line.split(",", len(fields) - 1))) for line in lines[1:]]

    def test_capture_set_flip_and_center_identity(self, tmp_path, capsys):
        out_path = tmp_path / "ell.csv"
        f_list = f"{983 * H_F!r},{984 * H_F!r}"
        code, _, _ = run(
            ["ellipsoids", "reference", "--f-list", f_list, "--out", str(out_path)], capsys
        )
        assert code == 0
        rows = self.parse_rows(out_path)
        assert [r["set"] for r in rows] == ["S1", "S2", "S1", "S2"]

        def q_from_row(row, x):
            g = np.array([[float(row[f"g{i}{j}"]) for j in (1, 2, 3)] for i in (1, 2, 3)])
            c = np.array([float(row["cx"]), float(row["cy"]), float(row["cz"])])
            r = float(row["radius"])
            return x @ g @ x - 2.0 * c @ g @ x + c @ g @ c - r**2

        rd0 = np.array([-2.0, 0.0, 0.0])
        assert q_from_row(rows[0], rd0) > 0.0
        assert q_from_row(rows[2], rd0) <= 0.0
        for row in rows:
            g = np.array([[float(row[f"g{i}{j}"]) for j in (1, 2, 3)] for i in (1, 2, 3)])
            c = np.array([float(row["cx"]), float(row["cy"]), float(row["cz"])])
            r = float(row["radius"])
            assert abs(q_from_row(row, c) + r**2) <= 1e-9 * max(1.0, abs(c @ g @ c))

    def test_exported_numbers_reproduce_quadratics(self, tmp_path, capsys):
        out_path = tmp_path / "ell.csv"
        f = 400 * H_F
        code, _, _ = run(
            ["ellipsoids", "reference", "--f-list", repr(f), "--out", str(out_path)], capsys
        )
        assert code == 0
        rows = self.parse_rows(out_path)
        cfg = reference_config()
        rng = np.random.default_rng(113)
        pts = np.array([-2.0, 0.0, 0.0]) + rng.uniform(-3.0, 3.0, size=(100, 3))
        for row in rows:
            g = np.array([[float(row[f"g{i}{j}"]) for j in (1, 2, 3)] for i in (1, 2, 3)])
            c = np.array([float(row["cx"]), float(row["cy"]), float(row["cz"])])
            r = float(row["radius"])
            for x in pts:
                q = x @ g @ x - 2.0 * c @ g @ x + c @ g @ c - r**2
                want = ellipsoid_at(cfg, f, row["set"]).q(x)
                assert abs(q - want) <= 1e-9 * max(1.0, abs(want))

    def test_start_anomaly_records_singular_capture_row(self, tmp_path, capsys):
        out_path = tmp_path / "ell.csv"
        code, _, _ = run(
            ["ellipsoids", "reference", "--f-list", "0", "--out", str(out_path)], capsys
        )
        assert code == 0
        rows = self.parse_rows(out_path)
        assert rows[0]["set"] == "S1" and rows[0]["error"].startswith("SingularBlock:")
        assert rows[1]["set"] == "S2" and rows[1]["error"] == ""


def test_readme_names_every_subcommand():
    # the README's command block and its one bullet per subcommand must
    # follow a subcommand that the parser gains or loses
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    in_block = {line.split()[1] for line in block.splitlines() if line.startswith("tadgame ")}
    bullets = set(re.findall(r"^- `([a-z-]+)`", section, flags=re.M))
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert in_block == bullets == set(subparsers.choices)
