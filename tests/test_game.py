"""Scenario model, feedback strategies, closed-form propagation, and cost."""

import math
import sys
import threading
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import reference_config, reference_orbit, reference_weights, riccati_p
from properties import coupled_system_matrix, feedback_along, feedback_controls, max_rel
from tadgame import game, riccati, winning
from tadgame.game import Trajectory, _d_grid, propagate_analytical
from tadgame.numerical_baseline import _a_rows, _w_rows
from tadgame.orbital_core import rho
from tadgame.winning import ellipsoid_at, scan_quadratics

ORBIT = reference_orbit()
WEIGHTS = reference_weights()


class TestGameConfig:
    def test_valid_reference(self):
        cfg = reference_config()
        assert cfg.n_steps == 1000
        assert len(cfg.grid) == 1001

    def test_grid_hits_nodes_exactly(self):
        cfg = reference_config()
        assert cfg.grid[0] == 0.0
        assert cfg.grid[-1] == 2.0 * np.pi
        assert cfg.grid[983] == 983 * cfg.h_f
        assert cfg.grid[984] == 984 * cfg.h_f

    @pytest.mark.parametrize("overrides", [
        dict(ff=-1.0),                        # horizon must move forward
        dict(h_f=0.0),
        dict(h_f=-0.1),
        dict(h_f=1.0),                        # does not tile the horizon
        dict(r1=0.0),
        dict(r2=-1.0),
        dict(x_a0=np.zeros(3)),
        dict(x_a0=np.array([np.nan, 20, 0, 0, 0, 0])),
        dict(x_a0=np.array([0.0, 0.005, 0, 0, 0, 0])),   # starts captured
        dict(x_da0=np.array([0.0, 0.001, 0, 0, 0, 0])),  # starts intercepted
        dict(ff=math.inf),
        dict(f0=-math.inf),
        dict(h_f=2.0 * np.pi / 2_000_000),    # tiles, but past the 10^6-step cap
    ])
    def test_rejects_invalid(self, overrides):
        with pytest.raises(ValueError):
            reference_config(**overrides)

    def test_defender_relocation_is_hovering(self):
        cfg = reference_config()
        moved = cfg.with_defender_position([1.0, 2.0, 3.0])
        assert np.array_equal(moved.x_a0, np.array([0.0, 20.0, 0.0, 0.0, 0.0, 0.0]))
        assert np.array_equal(moved.x_da0[:3], np.array([1.0, -18.0, 3.0]))
        assert np.all(moved.x_da0[3:] == 0.0)
        with pytest.raises(ValueError):
            cfg.with_defender_position([1.0, 2.0])
        # a moving pursuer keeps its state, so the winning conditions still
        # see its velocity and reject the scenario
        x_a0 = np.array([0.0, 20.0, 0.0, 0.3, 0.0, 0.0])
        cfg = reference_config(x_a0=x_a0, x_da0=np.array([-2.0, -20.0, 0.0, 0.1, 0.0, 0.0]))
        moved = cfg.with_defender_position([-2.0, -20.0, 0.0])
        assert np.array_equal(moved.x_a0, x_a0)
        assert np.array_equal(moved.x_da0, np.array([-2.0, -40.0, 0.0, 0.0, 0.0, 0.0]))
        with pytest.raises(winning.NotHovering):
            winning.winning_set_membership(cfg, [-2.0, -20.0, 0.0])


class TestSystemMatrices:
    # the plant and the coupled-flow blocks live only in the RK4 oracle;
    # the closed form never builds them
    def test_plant_pattern(self):
        f = 1.2
        a = np.array(_a_rows(ORBIT.e, f))
        r = rho(ORBIT, f)
        want = np.zeros((6, 6))
        want[0, 3] = want[1, 4] = want[2, 5] = 1.0
        want[3, 0] = 3.0 / r
        want[3, 4] = 2.0
        want[4, 3] = -2.0
        want[5, 2] = -1.0
        assert np.array_equal(a, want)

    def test_weight_block_structure(self):
        f = 2.2
        w11, w12, w22 = (np.array(w) for w in _w_rows(ORBIT, WEIGHTS, f))
        a = np.array(_a_rows(ORBIT.e, f))
        assert np.array_equal(w11[0:6, 0:6], a)
        assert np.array_equal(w11[6:12, 6:12], a)
        assert np.all(w11[0:6, 6:12] == 0.0)
        assert np.array_equal(w22[0:6, 0:6], -a.T)
        assert np.array_equal(w22[6:12, 6:12], -a.T)
        base = ORBIT.beta**2 / rho(ORBIT, f) ** 6
        g = np.zeros((6, 6))
        g[3:, 3:] = np.eye(3) * (base / WEIGHTS.r_a)
        gv = np.zeros((6, 6))
        gv[3:, 3:] = np.eye(3) * (base * (1 / WEIGHTS.r_d - 1 / WEIGHTS.r_a))
        assert np.allclose(w12[0:6, 0:6], -g, rtol=1e-14)
        assert np.allclose(w12[0:6, 6:12], g, rtol=1e-14)
        assert np.allclose(w12[6:12, 0:6], g, rtol=1e-14)
        assert np.allclose(w12[6:12, 6:12], gv, rtol=1e-14)


class TestInitialCostate:
    def test_homogeneity(self, analytical_run):
        cfg = reference_config()
        doubled = replace(cfg, x_a0=2.0 * cfg.x_a0, x_da0=2.0 * cfg.x_da0)
        t1, _ = analytical_run
        t2 = propagate_analytical(doubled)
        assert np.array_equal(t2.lam[0], 2.0 * t1.lam[0])
        assert np.array_equal(t2.nu[0], 2.0 * t1.nu[0])

    def test_linear_image(self, analytical_run):
        cfg = reference_config()
        traj, _ = analytical_run
        p0 = riccati_p(ORBIT, WEIGHTS, cfg.f0, cfg.ff)
        y0 = np.concatenate([cfg.x_a0, cfg.x_da0])
        lam = p0 @ y0
        assert np.array_equal(traj.lam[0], lam[:6])
        assert np.array_equal(traj.nu[0], lam[6:])


class TestDMatrix:
    def test_identity_at_start(self):
        assert np.array_equal(_d_grid(reference_config(), 0.0), np.eye(12))

    def test_named_blocks(self):
        # the position blocks the winning conditions invert are D12rr for
        # capture and D22rr for interception
        cfg = reference_config()
        d = _d_grid(cfg, 1.0)
        assert np.array_equal(ellipsoid_at(cfg, 1.0, "S1").m, d[0:3, 6:9])
        assert np.array_equal(ellipsoid_at(cfg, 1.0, "S2").m, d[6:9, 6:9])

    def test_terminal_distance(self, analytical_run):
        cfg = reference_config()
        d = _d_grid(cfg, cfg.ff)
        y0 = np.concatenate([cfg.x_a0, cfg.x_da0])
        dist = np.linalg.norm((d @ y0)[:3])
        assert abs(dist - 3.2018e-3) / 3.2018e-3 < 1e-3
        traj, _ = analytical_run
        assert dist == pytest.approx(traj.dist_at[-1], rel=1e-12)

    def test_interior_states_against_baseline(self, analytical_run, numerical_run):
        # ten interior anomalies, closed-form joint state vs the RK4 run
        traj, _ = analytical_run
        _, traj_num, _, _ = numerical_run
        for k in range(100, 1000, 90):
            ya = np.concatenate([traj.x_a[k], traj.x_da[k]])
            yn = np.concatenate([traj_num.x_a[k], traj_num.x_da[k]])
            assert np.linalg.norm(ya - yn) / np.linalg.norm(yn) < 1e-5


class TestCheckedP0:
    # P(f0) depends on the orbit, the weights and the grid, not on the
    # start, so the factor check runs once per scenario
    BASE = dict(ff=np.pi / 5.0)  # 100 steps

    @staticmethod
    def count_checks(monkeypatch):
        calls = []
        check = game._riccati_p_arrays

        def counted(orbit, weights, t):
            calls.append(t.size)
            return check(orbit, weights, t)

        monkeypatch.setattr(game, "_riccati_p_arrays", counted)
        return calls

    def test_second_placement_reuses_the_check(self, monkeypatch):
        calls = self.count_checks(monkeypatch)
        cfg = reference_config(**self.BASE)
        for rd0 in ([-2.0, 0.0, 0.0], [-1.0, 3.0, 0.5]):
            winning.winning_set_membership(cfg, rd0)
        assert calls == [cfg.grid.size]

    @pytest.mark.parametrize("change", [
        lambda c: replace(c, orbit=replace(c.orbit, e=0.2)),
        lambda c: replace(c, weights=replace(c.weights, s_dav=0.002)),
        lambda c: replace(c, ff=np.pi / 10.0),
        lambda c: replace(c, h_f=c.h_f / 2.0),
    ], ids=["e", "weight", "ff", "h_f"])
    def test_scenario_change_checks_again(self, monkeypatch, change):
        calls = self.count_checks(monkeypatch)
        cfg = reference_config(**self.BASE)
        other = change(cfg)
        scan_quadratics(cfg)
        scan_quadratics(other)
        assert calls == [cfg.grid.size, other.grid.size]
        # the record now holds the changed scenario's f0 record and P(f0)
        t = riccati._tables(other.orbit, other.grid)
        _, t0, p0, _ = game._p0_record
        assert t0.tobytes() == t[0].tobytes()
        assert np.array_equal(p0, riccati._riccati_p_arrays(other.orbit, other.weights, t))

    def test_start_change_does_not(self, monkeypatch):
        calls = self.count_checks(monkeypatch)
        cfg = reference_config(**self.BASE)
        moved = replace(cfg, x_a0=[0.0, 25.0, 1.0, 0.1, 0.0, 0.0],
                        x_da0=[-3.0, -25.0, 0.0, 0.0, 0.2, 0.0])
        propagate_analytical(cfg)
        got = propagate_analytical(moved)
        assert calls == [cfg.grid.size]
        game._p0_record = None
        want = propagate_analytical(moved)
        for field in fields(Trajectory):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name))

    @staticmethod
    def keep_tables(monkeypatch):
        built = []

        def kept(orbit, f):
            built.append(riccati._tables(orbit, f))
            return built[-1]

        monkeypatch.setattr(game, "_tables", kept)
        return built

    def test_record_holds_no_table(self):
        cfg = reference_config(**self.BASE)
        t, p0, _, _ = game._solve(cfg, np.eye(12))
        key, t0, held, _ = game._p0_record
        assert key == (cfg.orbit, cfg.weights, cfg.f0, cfg.ff, cfg.n_steps)
        assert held is p0 and not p0.flags.writeable and p0.shape == (12, 12)
        # the f0 record is one 584-byte node, equal to the table's first
        assert t0.dtype == t.dtype and t0.nbytes == 584 and t0.tobytes() == t[0].tobytes()
        assert game._solve(cfg, np.eye(12), 1.0)[1] is p0

    @pytest.mark.parametrize("f", [None, np.array([0.1, 0.2])], ids=["grid", "anomalies"])
    def test_f0_record_shares_no_memory(self, monkeypatch, f):
        # at anomalies, a miss builds the grid table for the check too; the
        # record keeps no view of either table
        built = self.keep_tables(monkeypatch)
        cfg = reference_config(**self.BASE)
        game._solve(cfg, np.eye(12), f)
        assert len(built) == (1 if f is None else 2)
        _, t0, p0, _ = game._p0_record
        assert not any(np.shares_memory(a, tab) for a in (t0, p0) for tab in built)

    def test_recorded_ellipsoid_builds_no_grid_table(self, monkeypatch):
        built = self.keep_tables(monkeypatch)
        cfg = reference_config(**self.BASE)
        ellipsoid_at(cfg, 0.3, "S2")
        assert [tab.shape for tab in built] == [(), cfg.grid.shape]
        built.clear()
        ellipsoid_at(cfg, 0.4, "S1")
        assert [tab.shape for tab in built] == [()]

    def test_singular_factor_twice(self, monkeypatch):
        calls = self.count_checks(monkeypatch)
        cfg = reference_config(**self.BASE)
        propagate_analytical(cfg)
        before = game._p0_record
        w = replace(WEIGHTS, r_d=1.0, s_dar=100.0, s_dav=100.0)
        bad = reference_config(weights=w)
        errors = []
        for _ in range(2):
            with pytest.raises(riccati.SingularFactor) as info:
                propagate_analytical(bad)
            errors.append((info.value.f, info.value.cond, str(info.value)))
        assert errors[0] == errors[1]
        assert len(calls) == 3 and game._p0_record is before

    def test_threads_never_mix_scenarios(self):
        # more threads than cores, two scenarios in turn, and a short
        # switch interval: a record read as key and P in two steps would
        # hand one scenario the other's P(f0)
        cfgs = [reference_config(**self.BASE),
                reference_config(orbit=replace(ORBIT, e=0.3), **self.BASE)]
        wants = []
        for cfg in cfgs:
            game._p0_record = None
            wants.append(scan_quadratics(cfg))
        bad = []

        def worker(i):
            for k in range(20):
                j = (i + k) % 2
                got = scan_quadratics(cfgs[j])
                if not all(np.array_equal(g, w) for g, w in zip(got, wants[j])):
                    bad.append((i, k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert bad == []


class TestNashControls:
    def test_zero_state_zero_control(self):
        cfg = reference_config()
        p = riccati_p(ORBIT, WEIGHTS, 1.0, cfg.ff)
        u_a, u_d = feedback_controls(ORBIT.e, 1.0, ORBIT.beta, WEIGHTS.r_a, WEIGHTS.r_d,
                                     p, np.zeros(6), np.zeros(6))
        assert np.all(u_a == 0.0) and np.all(u_d == 0.0)

    def test_stationarity(self):
        # first-order conditions of the saddle point, through the costates
        cfg = reference_config()
        f = 1.1
        p = riccati_p(ORBIT, WEIGHTS, f, cfg.ff)
        rng = np.random.default_rng(81)
        x_a, x_da = rng.standard_normal(6), rng.standard_normal(6)
        u_a, u_d = feedback_controls(ORBIT.e, f, ORBIT.beta, WEIGHTS.r_a, WEIGHTS.r_d,
                                     p, x_a, x_da)
        y = np.concatenate([x_a, x_da])
        lam_nu = p @ y
        lam, nu = lam_nu[:6], lam_nu[6:]
        scale = ORBIT.beta / rho(ORBIT, f) ** 3
        res_a = WEIGHTS.r_a * u_a + scale * (lam - nu)[3:6]
        res_d = WEIGHTS.r_d * u_d - scale * nu[3:6]
        norm = max(np.abs(WEIGHTS.r_a * u_a).max(), 1.0)
        assert np.abs(res_a).max() / norm < 1e-12
        assert np.abs(res_d).max() / max(np.abs(WEIGHTS.r_d * u_d).max(), 1.0) < 1e-12

    def test_start_controls_match_baseline(self, analytical_run, numerical_run):
        traj, _ = analytical_run
        _, traj_num, _, _ = numerical_run
        assert max_rel(traj.u_a[0], traj_num.u_a[0]) < 1e-5
        assert max_rel(traj.u_d[0], traj_num.u_d[0]) < 1e-5

    def test_costate_form_matches_feedback_form(self, analytical_run):
        # the trajectory's controls come from the costates; the feedback
        # form computed here from P(f) and the states must agree with them
        # at sampled nodes, the first one and the one next to ff included
        cfg = reference_config()
        traj, _ = analytical_run
        rng = np.random.default_rng(83)
        nodes = np.r_[0, np.sort(rng.choice(np.arange(1, 999), 20, replace=False)), 999]
        u_a, u_d = feedback_along(
            traj, lambda f: riccati_p(ORBIT, WEIGHTS, f, cfg.ff),
            ORBIT.e, ORBIT.beta, WEIGHTS.r_a, WEIGHTS.r_d, nodes)
        assert np.abs(u_a - traj.u_a[nodes]).max() / np.abs(traj.u_a).max() < 1e-8
        assert np.abs(u_d - traj.u_d[nodes]).max() / np.abs(traj.u_d).max() < 1e-8


class TestPropagateAnalytical:
    def test_trajectory_structure(self, analytical_run):
        traj, _ = analytical_run
        assert isinstance(traj, Trajectory)
        n = len(traj.grid)
        assert n == 1001
        for arr, width in [(traj.x_a, 6), (traj.x_da, 6), (traj.u_a, 3),
                           (traj.u_d, 3), (traj.lam, 6), (traj.nu, 6)]:
            assert arr.shape == (n, width)
        assert np.array_equal(traj.dist_at, np.linalg.norm(traj.x_a[:, :3], axis=1))
        assert np.array_equal(traj.dist_da, np.linalg.norm(traj.x_da[:, :3], axis=1))

    def test_starts_at_initial_state(self, analytical_run):
        traj, _ = analytical_run
        cfg = reference_config()
        assert np.array_equal(traj.x_a[0], cfg.x_a0)
        assert np.array_equal(traj.x_da[0], cfg.x_da0)

    def test_linearity_exact(self):
        cfg = reference_config(ff=np.pi / 4.0)
        doubled = replace(cfg, x_a0=2.0 * cfg.x_a0, x_da0=2.0 * cfg.x_da0)
        t1 = propagate_analytical(cfg)
        t2 = propagate_analytical(doubled)
        assert np.array_equal(t2.x_a, 2.0 * t1.x_a)
        assert np.array_equal(t2.x_da, 2.0 * t1.x_da)
        assert np.array_equal(t2.u_a, 2.0 * t1.u_a)
        assert t2.cost == 4.0 * t1.cost

    def test_transversality(self, analytical_run):
        traj, _ = analytical_run
        lam_want = WEIGHTS.sa @ traj.x_a[-1]
        nu_want = -WEIGHTS.sda @ traj.x_da[-1]
        assert np.linalg.norm(traj.lam[-1] - lam_want) / np.linalg.norm(lam_want) < 1e-6
        assert np.linalg.norm(traj.nu[-1] - nu_want) / np.linalg.norm(nu_want) < 1e-6

    @pytest.mark.parametrize("chunk", [riccati._CHUNK, 10])
    def test_pointwise_grid_independence(self, monkeypatch, analytical_run, chunk):
        # the closed-form states are pointwise; refining the grid must not
        # move shared nodes, and the cost, the game value, does not move.
        # Nor may the chunk size move any bit: at 10, the two finer grids
        # here leave a one-node chunk at f0, the last one the sweep from ff
        # reads.  r_a and r_d are swapped here, as r_d <= r_a reads no chunk
        w = replace(WEIGHTS, r_a=WEIGHTS.r_d, r_d=WEIGHTS.r_a)
        base = reference_config(ff=np.pi / 4.0, weights=w)
        configs = [reference_config(ff=np.pi / 4.0, weights=w, h_f=base.h_f / div)
                   for div in (1, 2, 4)]
        wants = [propagate_analytical(cfg) for cfg in configs]
        monkeypatch.setattr(riccati, "_CHUNK", chunk)
        for cfg, want in [(reference_config(), analytical_run[0]), *zip(configs, wants)]:
            game._p0_record = None  # check at this chunk size, whatever the order
            got = propagate_analytical(cfg)
            for field in fields(Trajectory):
                assert np.array_equal(getattr(got, field.name), getattr(want, field.name))
        costs = [t.cost for t in wants]
        terminals = [np.concatenate([t.x_a[-1], t.x_da[-1]]) for t in wants]
        assert np.linalg.norm(terminals[0] - terminals[1]) <= 1e-9 * np.linalg.norm(terminals[1])
        assert costs[0] == costs[1] == costs[2]

    @pytest.mark.parametrize("run", [propagate_analytical, scan_quadratics],
                             ids=["propagate_analytical", "scan_quadratics"])
    def test_one_table_build(self, monkeypatch, run):
        # game._solve checks the grid table it flows on
        calls = []

        def counted(orbit, f):
            calls.append(np.shape(f))
            return riccati._tables(orbit, f)

        monkeypatch.setattr(game, "_tables", counted)
        cfg = reference_config(ff=np.pi / 4.0)
        run(cfg)
        assert calls == [cfg.grid.shape]

    @pytest.mark.parametrize("run, ff, bound", [
        (propagate_analytical, 20.0 * np.pi, 1.5),
        (scan_quadratics, 20.0 * np.pi, 1.5),
        (propagate_analytical, 2.0 * np.pi, 1.5),
        (scan_quadratics, 2.0 * np.pi, 1.2),
    ], ids=["propagate_analytical", "scan_quadratics", "propagate_analytical-1001",
            "scan_quadratics-1001"])
    def test_peak_memory_per_node(self, run, ff, bound):
        # the factor check holds its channel blocks for one chunk only,
        # and the flow builds one 6x6 stack, of C_hat differences, so
        # the peak is the tables and the outputs, on the 1001-node
        # reference grid too.  The measured run checks the factor: it does
        # not read the P(f0) that the first run left behind
        cfg = reference_config(ff=ff)
        run(cfg)
        game._p0_record = None
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 1024.0 / cfg.grid.size <= bound


class TestLongHorizonTransversality:
    # two draws of the ten-revolution benchmark stream (seeds 505 and 1002)
    # where |x_a(ff)| is ~3e-6 of |x_a0|.  lambda(ff) - Sa x_a(ff) is the
    # residual F P - S U11 of the P(f0) solve applied to y0, so this pins
    # that residual, not the forward accuracy of x_a(ff) against an
    # independent oracle
    @pytest.mark.parametrize("e, x_a0, x_da0", [
        (0.09677716797354423,
         [11.199950544629372, 7.00826369000266, -1.4380811284379809,
          0.46007987058223665, -0.400956583236161, -0.49749846346173365],
         [11.197648361482003, 7.438399419676983, -3.8252614344336493,
          -0.03741168625171032, 0.30709401501217104, 0.2951465369061965]),
        (0.08266591052547151,
         [13.338272139503477, -7.639764381719185, 8.13631225528072,
          -0.14779553983019644, 0.22984826577288708, -0.4227756134008198],
         [14.9346564221757, -12.51795921783797, 4.679413852707729,
          -0.44462092902296335, -0.17923199288905034, 0.44301554586640823]),
    ], ids=["seed505", "seed1002"])
    def test_terminal_costate(self, e, x_a0, x_da0):
        cfg = reference_config(orbit=replace(ORBIT, e=e), ff=62.83185307179587,
                               h_f=0.006283185307179587, x_a0=np.array(x_a0),
                               x_da0=np.array(x_da0))
        traj = propagate_analytical(cfg)
        want = WEIGHTS.sa @ traj.x_a[-1]
        assert np.linalg.norm(traj.lam[-1] - want) / np.linalg.norm(want) <= 1e-6


class TestConstantsFrameOracle:
    # the closed form against the coupled state/costate system integrated
    # by scipy over one revolution, at eccentricities off the reference
    @pytest.mark.parametrize("e", [0.0, 0.3, 0.5])
    def test_states_costates_and_d(self, e):
        cfg = reference_config(orbit=replace(ORBIT, e=e))
        orb, w = cfg.orbit, cfg.weights
        p0 = riccati_p(orb, w, cfg.f0, cfg.ff)

        def flow(z0, at):
            def field(f, z):
                return (coupled_system_matrix(e, f, orb.beta, w.r_a, w.r_d)
                        @ z.reshape(24, -1)).ravel()
            sol = solve_ivp(field, (cfg.f0, cfg.ff), z0.ravel(), method="DOP853",
                            rtol=1e-12, atol=1e-14, t_eval=at)
            return sol.y.T.reshape((len(at),) + z0.shape)

        traj = propagate_analytical(cfg)
        y0 = np.concatenate([cfg.x_a0, cfg.x_da0])
        want = flow(np.concatenate([y0, p0 @ y0]), cfg.grid)
        assert max_rel(np.hstack([traj.x_a, traj.x_da]), want[:, :12]) <= 1e-8
        assert max_rel(np.hstack([traj.lam, traj.nu]), want[:, 12:]) <= 1e-8
        fs = np.array([0.5, 2.0, 4.0, 6.17, cfg.ff])
        want_d = flow(np.vstack([np.eye(12), p0]), fs)[:, :12]
        got_d = _d_grid(cfg, fs)
        for got, want in zip(got_d, want_d):
            assert max_rel(got, want) <= 1e-8


class TestCost:
    def test_game_value(self, analytical_run):
        traj, _ = analytical_run
        cfg = reference_config()
        y0 = np.concatenate([cfg.x_a0, cfg.x_da0])
        assert traj.cost == 0.5 * (y0 @ riccati_p(ORBIT, WEIGHTS, cfg.f0, cfg.ff) @ y0)

    def test_trapezoid_quadrature(self):
        # the running cost integrated along the trajectory plus the terminal
        # term approaches the game value at second order in the grid step
        base = reference_config(ff=np.pi / 4.0)
        gaps = []
        for div in (1, 2, 4):
            traj = propagate_analytical(reference_config(ff=np.pi / 4.0, h_f=base.h_f / div))
            running = (WEIGHTS.r_a * np.sum(traj.u_a**2, axis=1)
                       - WEIGHTS.r_d * np.sum(traj.u_d**2, axis=1))
            terminal = (traj.x_a[-1] @ WEIGHTS.sa @ traj.x_a[-1]
                        - traj.x_da[-1] @ WEIGHTS.sda @ traj.x_da[-1])
            gaps.append(0.5 * terminal + 0.5 * np.trapezoid(running, traj.grid) - traj.cost)
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 3.5 < coarse / fine < 4.5
