"""Outcome classification and the closed-form winning conditions."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import reference_config
from tadgame import game, riccati
from tadgame.game import Trajectory, _d_grid, propagate_analytical
from tadgame.winning import (
    Ellipsoid,
    NotHovering,
    Outcome,
    OutcomeTag,
    SingularBlock,
    TerminalSets,
    attacker_wins,
    classify_outcome,
    ellipsoid_at,
    scan_quadratics,
    winning_set_membership,
)

RD0_REF = np.array([-2.0, 0.0, 0.0])


def placement_values(cfg, d, pts):
    """(g1, g2) of the hovering placements pts (M, 3) from the propagated
    positions D y0, for D of shape (..., 12, 12); each result is (M, ...)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    ra0 = cfg.x_a0[:3]
    y0 = np.zeros((len(pts), 12))
    y0[:, 0:3] = ra0
    y0[:, 6:9] = pts - ra0
    y = np.einsum("...ij,mj->m...i", d, y0)
    return (np.sum(y[..., 0:3] ** 2, axis=-1) - cfg.r1**2,
            np.sum(y[..., 6:9] ** 2, axis=-1) - cfg.r2**2)


def synthetic_trajectory(dist_at, dist_da):
    n = len(dist_at)
    grid = np.linspace(0.0, 0.1 * (n - 1), n)
    zeros6 = np.zeros((n, 6))
    zeros3 = np.zeros((n, 3))
    return Trajectory(
        grid=grid, x_a=zeros6, x_da=zeros6, u_a=zeros3, u_d=zeros3,
        lam=zeros6, nu=zeros6,
        dist_at=np.asarray(dist_at, dtype=float),
        dist_da=np.asarray(dist_da, dtype=float), cost=0.0,
    )


class TestRecords:
    def test_terminal_sets_validation(self):
        TerminalSets(r1=0.01, r2=0.01)
        with pytest.raises(ValueError):
            TerminalSets(r1=0.0, r2=0.01)
        with pytest.raises(ValueError):
            TerminalSets(r1=0.01, r2=-1.0)

    def test_outcome_tag_values(self):
        assert OutcomeTag.ATTACKER_WINS.value == "AttackerWins"
        assert OutcomeTag.DEFENDER_WINS.value == "DefenderWins"
        assert OutcomeTag.SIMULTANEOUS_CAPTURE.value == "SimultaneousCapture"
        assert OutcomeTag.NOBODY_WINS.value == "NobodyWins"


class TestClassifyOutcome:
    SETS = TerminalSets(r1=0.01, r2=0.01)

    def test_nobody_wins(self):
        t = synthetic_trajectory([1.0] * 6, [1.0] * 6)
        out = classify_outcome(t, self.SETS)
        assert out.tag is OutcomeTag.NOBODY_WINS
        assert out.f_capture is None and out.f_intercept is None

    def test_first_hit_wins_even_with_later_dips(self):
        t = synthetic_trajectory([1, 1, 0.005, 1, 0.002, 1], [1.0] * 6)
        out = classify_outcome(t, self.SETS)
        assert out.tag is OutcomeTag.ATTACKER_WINS
        assert out.f_capture == t.grid[2]

    def test_defender_first(self):
        t = synthetic_trajectory([1, 1, 1, 1, 0.005, 1], [1, 1, 0.009, 1, 1, 1])
        out = classify_outcome(t, self.SETS)
        assert out.tag is OutcomeTag.DEFENDER_WINS
        assert out.f_intercept == t.grid[2]
        assert out.f_capture is None

    def test_simultaneous(self):
        t = synthetic_trajectory([1, 1, 0.005, 1, 1, 1], [1, 1, 0.005, 1, 1, 1])
        out = classify_outcome(t, self.SETS)
        assert out.tag is OutcomeTag.SIMULTANEOUS_CAPTURE
        assert out.f_capture == t.grid[2] and out.f_intercept == t.grid[2]

    def test_initial_node_excluded(self):
        t = synthetic_trajectory([0.001, 1, 1, 1, 1, 1], [1.0] * 6)
        assert classify_outcome(t, self.SETS).tag is OutcomeTag.NOBODY_WINS

    def test_reference_run(self, analytical_run, ref_sets):
        traj, _ = analytical_run
        out = classify_outcome(traj, ref_sets)
        assert out.tag is OutcomeTag.ATTACKER_WINS
        assert out.f_capture == traj.grid[984]


class TestOneFirstHitRule:
    # (dist_at, dist_da) over six nodes against radii 0.01, and the outcome
    @pytest.mark.parametrize("dist_at, dist_da, tag", [
        ([1.0] * 6, [1.0] * 6, OutcomeTag.NOBODY_WINS),
        ([1, 1, 0.005, 1, 1, 1], [1, 1, 1, 0.005, 1, 1], OutcomeTag.ATTACKER_WINS),
        ([1, 1, 1, 0.005, 1, 1], [1, 1, 0.005, 1, 1, 1], OutcomeTag.DEFENDER_WINS),
        ([1, 1, 0.005, 1, 1, 1], [1, 1, 0.005, 1, 1, 1], OutcomeTag.SIMULTANEOUS_CAPTURE),
        ([0.005, 1, 1, 1, 1, 1], [1, 0.005, 1, 1, 1, 1], OutcomeTag.DEFENDER_WINS),
    ], ids=["nobody", "capture-first", "interception-first", "tie", "initial-node"])
    def test_trajectory_and_scan_verdicts_agree(self, dist_at, dist_da, tag):
        # the scan covers the grid after f0 and reads g = dist^2 - r^2
        sets = TerminalSets(r1=0.01, r2=0.01)
        t = synthetic_trajectory(dist_at, dist_da)
        out = classify_outcome(t, sets)
        assert out.tag is tag
        wins, f_a = attacker_wins(t.grid[1:], t.dist_at[1:] ** 2 - sets.r1**2,
                                  t.dist_da[1:] ** 2 - sets.r2**2)
        assert wins == (out.tag is OutcomeTag.ATTACKER_WINS)
        assert f_a == (out.f_capture if wins else None)


class TestScanAndWin:
    def test_scan_signs(self, ref_config):
        fs, v1, v2 = scan_quadratics(ref_config)
        assert len(fs) == 1000 and fs[0] == ref_config.grid[1]
        assert np.all(v1[:983] > 0.0)
        assert v1[983] <= 0.0
        assert v2.min() > 0.0

    def test_attacker_wins_grid_node(self, ref_config):
        wins, f_a = attacker_wins(*scan_quadratics(ref_config))
        assert wins
        assert f_a == ref_config.grid[984]
        assert f_a == 984 * ref_config.h_f

    def test_win_anomaly_matches_trajectory_capture(self, ref_config, analytical_run, ref_sets):
        _, f_a = attacker_wins(*scan_quadratics(ref_config))
        traj, _ = analytical_run
        assert classify_outcome(traj, ref_sets).f_capture == f_a

    def test_scan_anomalies_hold_no_table(self, monkeypatch, ref_config):
        # a view into the table records would keep the whole table alive
        built = []

        def kept(orbit, f):
            built.append(riccati._tables(orbit, f))
            return built[-1]

        monkeypatch.setattr(game, "_tables", kept)
        fs, _, _ = scan_quadratics(ref_config)
        assert np.array_equal(fs, ref_config.grid[1:])
        assert built and not any(np.shares_memory(fs, t) for t in built)

    def test_scalar_calls_match_scan(self, ref_config):
        fs, v1, v2 = scan_quadratics(ref_config)
        for k in (0, 99, 499, 983):
            s1 = ellipsoid_at(ref_config, fs[k], "S1").q(RD0_REF)
            s2 = ellipsoid_at(ref_config, fs[k], "S2").q(RD0_REF)
            assert s1 == pytest.approx(v1[k], rel=1e-10, abs=1e-12)
            assert s2 == pytest.approx(v2[k], rel=1e-10, abs=1e-12)

    def test_start_block_singular_for_capture_only(self, ref_config):
        # at f0 the capture condition has no invertible block yet; the
        # interception condition starts from the identity
        with pytest.raises(SingularBlock) as info:
            ellipsoid_at(ref_config, ref_config.f0, "S1")
        assert info.value.f == ref_config.f0
        val = ellipsoid_at(ref_config, ref_config.f0, "S2").q(RD0_REF)
        want = np.sum((RD0_REF - ref_config.x_a0[:3]) ** 2) - ref_config.r2**2
        assert val == pytest.approx(want, rel=1e-12)

    def test_requires_hovering(self):
        cfg = reference_config(x_a0=np.array([0.0, 20.0, 0.0, 1e-3, 0.0, 0.0]))
        for call in (
            lambda: scan_quadratics(cfg),
            lambda: ellipsoid_at(cfg, 1.0, "S1"),
            lambda: ellipsoid_at(cfg, 1.0, "S2"),
        ):
            with pytest.raises(NotHovering):
                call()

    def test_membership(self, ref_config):
        assert winning_set_membership(ref_config, RD0_REF) is True
        assert winning_set_membership(ref_config, [0.0, 20.012, 0.0]) is False
        with pytest.raises(ValueError):
            winning_set_membership(ref_config, [0.0, 20.0, 0.0])

    def test_defender_win_point(self, ref_config, ref_sets):
        cfg = ref_config.with_defender_position([0.0, 20.012, 0.0])
        out = classify_outcome(propagate_analytical(cfg), ref_sets)
        assert out.tag is OutcomeTag.DEFENDER_WINS
        assert out.f_intercept is not None and out.f_intercept < 0.2

    def test_hovering_reduction_is_exact(self, ref_config):
        # the reference defender state is itself a hovering placement;
        # rebuilding it through the placement helper changes nothing
        rebuilt = ref_config.with_defender_position(RD0_REF)
        assert np.array_equal(rebuilt.x_a0, ref_config.x_a0)
        assert np.array_equal(rebuilt.x_da0, ref_config.x_da0)
        fs, v1, v2 = scan_quadratics(ref_config)
        fs_r, v1_r, v2_r = scan_quadratics(rebuilt)
        assert np.array_equal(v1, v1_r) and np.array_equal(v2, v2_r)


class TestQuadraticEquivalence:
    def test_against_propagated_positions(self, ref_config):
        # both ellipsoid quadratics must equal the squared norms of the
        # propagated position blocks, for a box of defender placements and
        # a spread of anomalies
        cfg = ref_config
        idx = np.arange(49, 1000, 50)
        fs = cfg.grid[1:][idx]
        side = np.linspace(-2.5, 2.5, 20)
        pts = RD0_REF + np.stack(
            np.meshgrid(side, side, side, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        direct1, direct2 = placement_values(cfg, _d_grid(cfg, fs), pts)

        v1 = np.stack([ellipsoid_at(cfg, f, "S1").q(pts) for f in fs], axis=1)
        v2 = np.stack([ellipsoid_at(cfg, f, "S2").q(pts) for f in fs], axis=1)

        for got, want in ((v1, direct1), (v2, direct2)):
            err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            assert err.max() < 1e-9
            assert np.array_equal(got <= 0.0, want <= 0.0)

        # the grid scan reads the same squared distances that the full
        # propagation reports, at every node and across eccentricities
        for e in (0.0, 0.1, 0.5, 0.8):
            cfg_e = replace(cfg, orbit=replace(cfg.orbit, e=e))
            traj = propagate_analytical(cfg_e)
            _, s1, s2 = scan_quadratics(cfg_e)
            for got, want in ((s1, traj.dist_at[1:] ** 2 - cfg.r1**2),
                              (s2, traj.dist_da[1:] ** 2 - cfg.r2**2)):
                err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
                assert err.max() <= 1e-12
                assert np.array_equal(got <= 0.0, want <= 0.0)

    def test_membership_agrees_with_propagation(self, ref_config, ref_sets):
        rng = np.random.default_rng(91)
        points = [RD0_REF, np.array([0.0, 20.012, 0.0])]
        points += list(RD0_REF + rng.uniform(-2.0, 2.0, size=(3, 3)))
        for rd0 in points:
            member = winning_set_membership(ref_config, rd0)
            cfg = ref_config.with_defender_position(rd0)
            out = classify_outcome(propagate_analytical(cfg), ref_sets)
            assert member == (out.tag is OutcomeTag.ATTACKER_WINS)
            if member:
                assert out.f_capture == attacker_wins(*scan_quadratics(cfg))[1]

    @pytest.mark.parametrize("slice_name", ["wide", "adjacent"])
    def test_membership_stable_under_grid_refinement(self, ref_config, slice_name):
        if slice_name == "wide":
            xs = np.linspace(-6.0, 2.0, 30)
            ys = np.linspace(-4.0, 4.0, 30)
            base = np.zeros(3)
        else:
            xs = np.linspace(-0.05, 0.05, 30)
            ys = 20.0 + np.linspace(-0.05, 0.05, 30)
            base = np.zeros(3)
        pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        pts = np.column_stack([pts, np.zeros(len(pts))]) + base
        keep = np.linalg.norm(pts - ref_config.x_a0[:3], axis=1) > ref_config.r2 + 1e-6
        pts = pts[keep]

        def verdicts(cfg):
            # one batched D over the scan grid decides every placement
            v1, v2 = placement_values(cfg, _d_grid(cfg, cfg.grid[1:]), pts)
            out = []
            for row1, row2 in zip(v1, v2):
                hits = row1 <= 0.0
                if not np.any(hits):
                    out.append(False)
                    continue
                i = int(np.argmax(hits))
                out.append(bool(np.all(row2[: i + 1] > 0.0)))
            return np.array(out)

        coarse = verdicts(ref_config)
        fine = verdicts(reference_config(h_f=ref_config.h_f / 2.0))
        flips = int(np.sum(coarse != fine))
        assert flips / len(pts) < 0.05


class TestOneFactorPolicy:
    def test_conjugate_point_scenario_raises_everywhere(self):
        # det F <= 0 at the last node before ff, so there is a conjugate
        # point inside the horizon: every closed-form route that solves
        # P(f0) raises the same error as propagate_analytical
        w = riccati.WeightSet(r_a=5e7, r_d=1e10, s_ar=1.0, s_av=1.0,
                              s_dar=1000.0, s_dav=1000.0)
        cfg = reference_config(weights=w)
        routes = [propagate_analytical, scan_quadratics,
                  lambda c: ellipsoid_at(c, 1.0, "S1"),
                  lambda c: winning_set_membership(c, RD0_REF)]
        errors = []
        for route in routes:
            with pytest.raises(riccati.SingularFactor, match="conjugate point") as info:
                route(cfg)
            errors.append((info.value.f, info.value.cond, str(info.value)))
        assert errors == errors[:1] * len(routes)


class TestEllipsoid:
    def test_center_value_is_minus_radius_squared(self, ref_config):
        for which in ("S1", "S2"):
            e = ellipsoid_at(ref_config, 984 * ref_config.h_f, which)
            q0 = e.q(e.center_offset)
            assert abs(q0 + e.radius**2) < 1e-12 * max(1.0, e.radius**2)

    def test_quadratic_grouping(self, ref_config):
        # q is the centred form; the expanded form r^T G r - 2 c^T G r +
        # c^T G c loses digits at the c^T G c scale, so the comparison
        # between the two is anchored there
        e = ellipsoid_at(ref_config, 2.0, "S1")
        rng = np.random.default_rng(97)
        pts = e.center_offset + rng.uniform(-5.0, 5.0, size=(1000, 3))
        c = e.center_offset
        grouped = (np.einsum("ni,ij,nj->n", pts, e.g, pts) - 2.0 * pts @ (e.g @ c)
                   + c @ e.g @ c - e.radius**2)
        q = e.q(pts)
        scale = max(1.0, abs(e.center_offset @ e.g @ e.center_offset))
        assert np.abs(grouped - q).max() <= 1e-11 * scale

    def test_gram_is_psd_factorization(self, ref_config):
        e = ellipsoid_at(ref_config, 2.0, "S2")
        assert np.array_equal(e.g, e.m.T @ e.m)
        assert np.linalg.eigvalsh(e.g).min() >= -1e-12

    def test_sign_matches_scan(self, ref_config):
        fs, v1, v2 = scan_quadratics(ref_config)
        k = 499
        e1 = ellipsoid_at(ref_config, fs[k], "S1")
        e2 = ellipsoid_at(ref_config, fs[k], "S2")
        rng = np.random.default_rng(101)
        pts = RD0_REF + rng.uniform(-3.0, 3.0, size=(1000, 3))
        direct = placement_values(ref_config, _d_grid(ref_config, fs[k]), pts)
        for e, want in zip((e1, e2), direct):
            assert np.allclose(e.q(pts), want, rtol=1e-10, atol=1e-12)

    def test_boundary_digits_match_propagation(self, ref_config):
        # at this placement g2 passes through 0 between nodes 16 and 17; the
        # centred quadratic keeps the digits of the propagated distance
        # there, where the expanded r^T G r - 2 c^T G r + c^T G c is off by
        # 1.1e-13
        rd0 = [0.0, 20.012, 0.0]
        cfg = ref_config.with_defender_position(rd0)
        traj = propagate_analytical(cfg)
        for k in (15, 16, 17):
            want = traj.dist_da[k] ** 2 - cfg.r2**2
            assert abs(ellipsoid_at(cfg, cfg.grid[k], "S2").q(rd0) - want) <= 1e-15

    def test_capture_set_bracket(self, ref_config):
        inside = ellipsoid_at(ref_config, 984 * ref_config.h_f, "S1").q(RD0_REF)
        outside = ellipsoid_at(ref_config, 983 * ref_config.h_f, "S1").q(RD0_REF)
        assert inside <= 0.0
        assert outside > 0.0

    def test_rejects_anomaly_outside_horizon(self, ref_config):
        for f in (ref_config.ff + 1e-9, 100.0, ref_config.f0 - 1.0, np.nan):
            with pytest.raises(ValueError, match="outside the horizon"):
                ellipsoid_at(ref_config, f, "S1")
        with pytest.raises(ValueError, match="outside the horizon"):
            ellipsoid_at(ref_config, -1.0, "S2")
        ellipsoid_at(ref_config, ref_config.ff, "S2")

    def test_rejects_unknown_set(self, ref_config):
        with pytest.raises(ValueError):
            ellipsoid_at(ref_config, 1.0, "S3")


class TestRadiusLimits:
    def test_huge_capture_radius_dominates(self):
        cfg = reference_config(r1=15.0)
        rng = np.random.default_rng(103)
        pts = RD0_REF + rng.uniform(-2.5, 2.5, size=(50, 3))
        for rd0 in pts:
            _, v1, _ = scan_quadratics(cfg.with_defender_position(rd0))
            assert np.all(v1[[600, 800, 950]] < 0.0)

    def test_vanishing_interception_radius(self):
        cfg = reference_config(r2=1e-9)
        fs, v1, v2 = scan_quadratics(cfg)
        wins, f_a = attacker_wins(fs, v1, v2)
        assert wins
        assert f_a == 984 * cfg.h_f
        assert v2.min() > 0.0
