"""RK4 integrator, backward feedback-gain sweep, and forward simulation."""

import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tadgame.numerical_baseline
from conftest import reference_config, reference_orbit, reference_weights, riccati_p
from properties import max_rel, riccati_rhs
from tadgame.game import propagate_analytical
from tadgame.numerical_baseline import (
    NumericalBlowup,
    PGrid,
    integrate_riccati_backward,
    riccati_field,
    rk4_step,
    simulate_numerical,
)
from tadgame.orbital_core import rho
from tadgame.riccati import WeightSet

ORBIT = reference_orbit()
WEIGHTS = reference_weights()


def zero_pgrid(grid):
    """Zero-filled stored Riccati grid on the descending nodes of grid."""
    return PGrid(grid=grid[::-1], p=np.zeros((len(grid), 12, 12)),
                 p_mid=np.zeros((len(grid) - 1, 12, 12)))


class TestRk4Step:
    def test_constant_field(self):
        y = rk4_step(lambda f, y: [2.0, -1.0], [1.0, 1.0], 0.0, 0.25)
        assert y[0] == pytest.approx(1.5, rel=1e-14)
        assert y[1] == pytest.approx(0.75, rel=1e-14)

    def test_exponential(self):
        y = [1.0]
        f = 0.0
        for _ in range(1000):
            y = rk4_step(lambda f, y: [y[0]], y, f, 1e-3)
            f += 1e-3
        assert abs(y[0] - math.e) < 1e-10

    def test_stage_anomalies(self):
        calls = []

        def field(f, y):
            calls.append(f)
            return [0.0]

        rk4_step(field, [1.0], 0.3, 0.1)
        assert calls == [0.3, 0.3 + 0.05, 0.3 + 0.05, 0.3 + 0.1]

    def test_local_truncation_order(self):
        # y' = cos f from f = 0.3; single-step error scales as h^5
        errs = []
        for h in (0.1, 0.05, 0.025):
            y = rk4_step(lambda f, y: [math.cos(f)], [math.sin(0.3)], 0.3, h)
            errs.append(abs(y[0] - math.sin(0.3 + h)))
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(slopes) > 4.7

    def test_step_halving_gain(self):
        field = lambda f, y: [math.cos(f) * y[0]]
        exact = math.exp(math.sin(0.8) - math.sin(0.3))
        one = rk4_step(field, [1.0], 0.3, 0.5)
        half = rk4_step(field, rk4_step(field, [1.0], 0.3, 0.25), 0.55, 0.25)
        ratio = abs(one[0] - exact) / abs(half[0] - exact)
        assert 10.0 < ratio < 24.0


class TestRecords:
    def test_settings_validation(self):
        # a nonpositive or NaN sub-step is refused before the sweep starts
        cfg = reference_config()
        for step in (0.0, -1e-3, float("nan")):
            with pytest.raises(ValueError, match="step must be positive"):
                integrate_riccati_backward(cfg, step=step)

    def test_pgrid_validation(self):
        grid = np.linspace(1.0, 0.0, 11)
        p = np.zeros((11, 12, 12))
        p_mid = np.zeros((10, 12, 12))
        PGrid(grid=grid, p=p, p_mid=p_mid)
        with pytest.raises(ValueError):
            PGrid(grid=grid, p=np.zeros((10, 12, 12)), p_mid=p_mid)
        with pytest.raises(ValueError):
            PGrid(grid=grid, p=p, p_mid=np.zeros((11, 12, 12)))
        with pytest.raises(TypeError):
            PGrid(grid=grid, p=p)  # the midpoints are required


class TestRiccatiField:
    @pytest.mark.parametrize("f", [0.0, 2.2, 5.0])
    def test_matches_reference_rhs_on_non_symmetric_p(self, f):
        # a non-symmetric P shows a transposition slip in any of the three
        # products; the 1e-3 scale keeps the linear and quadratic terms
        # of the same order
        p = 1e-3 * np.random.default_rng(6).standard_normal((12, 12))
        assert np.abs(p - p.T).max() > 1e-4
        got = np.array(riccati_field(ORBIT, WEIGHTS, f, p.ravel().tolist())).reshape(12, 12)
        want = riccati_rhs(ORBIT.e, f, ORBIT.beta, WEIGHTS.r_a, WEIGHTS.r_d, p)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


class TestBackwardSweep:
    def test_grid_and_terminal(self, numerical_run):
        pgrid, _, _, _ = numerical_run
        cfg = reference_config()
        assert len(pgrid.grid) == cfg.n_steps + 1
        assert pgrid.grid[0] == cfg.ff
        assert pgrid.grid[-1] == cfg.f0
        assert np.all(np.diff(pgrid.grid) < 0)
        assert np.array_equal(pgrid.p[0], WEIGHTS.s_block)
        assert pgrid.p_mid is not None and len(pgrid.p_mid) == cfg.n_steps

    def test_initial_gain_matches_closed_form(self, numerical_run):
        pgrid, _, _, _ = numerical_run
        cfg = reference_config()
        p0 = riccati_p(ORBIT, WEIGHTS, cfg.f0, cfg.ff)
        err = np.abs(pgrid.p[-1] - p0).max() / np.abs(p0).max()
        assert err < 1e-5

    def test_midpoint_gains(self):
        # recorded half-step values vs the closed form; a node-value lerp
        # would miss by 1e-2 next to the terminal layer and ~1e-4 elsewhere
        cfg = reference_config(ff=np.pi / 4.0)
        pgrid = integrate_riccati_backward(cfg, step=cfg.h_f / 8.0)
        for k in (1, 10, 50, 124):
            f_mid = pgrid.grid[k] - cfg.h_f / 2.0
            want = riccati_p(ORBIT, WEIGHTS, f_mid, cfg.ff)
            err = np.abs(pgrid.p_mid[k] - want).max() / np.abs(want).max()
            assert err < 5e-5

    def test_blowup_when_understepped(self):
        # the gain has a sharp terminal transient; one stage per node is
        # outside the stability region and must be reported, not returned
        cfg = reference_config(ff=np.pi / 4.0)
        with pytest.raises(NumericalBlowup) as info:
            integrate_riccati_backward(cfg, step=cfg.h_f)
        assert np.isfinite(info.value.f)

    def test_convergence_order(self):
        # smooth weights keep the terminal transient wide relative to h so
        # the asymptotic rate is visible
        w = WeightSet(r_a=5e11, r_d=3e11, s_ar=1.0, s_av=1.0, s_dar=1e-3, s_dav=1e-3)
        errs = []
        for div in (1, 2, 4):
            cfg = reference_config(ff=np.pi / 4.0, h_f=np.pi / 500.0 / div, weights=w)
            pgrid = integrate_riccati_backward(cfg, step=cfg.h_f)
            want = riccati_p(ORBIT, w, cfg.f0, cfg.ff)
            errs.append(np.abs(pgrid.p[-1] - want).max() / np.abs(want).max())
        order = np.polyfit(np.log([1.0, 2.0, 4.0]), -np.log(errs), 1)[0]
        assert order > 3.7


class TestSimulate:
    def test_matches_closed_form_start(self, numerical_run):
        _, traj, _, _ = numerical_run
        cfg = reference_config()
        assert np.array_equal(traj.x_a[0], cfg.x_a0)
        assert np.array_equal(traj.x_da[0], cfg.x_da0)
        assert traj.grid[0] == cfg.f0 and traj.grid[-1] == cfg.ff

    def test_forward_convergence_order(self):
        # terminal joint state under grid refinement, against the closed form
        errs = []
        for div in (1, 2, 4):
            cfg = reference_config(ff=np.pi / 4.0, h_f=np.pi / 500.0 / div)
            pgrid = integrate_riccati_backward(cfg, step=cfg.h_f / 8.0)
            traj = simulate_numerical(cfg, pgrid)
            exact = propagate_analytical(cfg)
            got = np.concatenate([traj.x_a[-1], traj.x_da[-1]])
            want = np.concatenate([exact.x_a[-1], exact.x_da[-1]])
            errs.append(np.linalg.norm(got - want) / np.linalg.norm(want))
        order = np.polyfit(np.log([1.0, 2.0, 4.0]), -np.log(errs), 1)[0]
        assert order > 3.7

    def test_homogeneity(self):
        cfg = reference_config(ff=np.pi / 10.0)
        pgrid = integrate_riccati_backward(cfg)
        t1 = simulate_numerical(cfg, pgrid)
        t2 = simulate_numerical(
            replace(cfg, x_a0=2.0 * cfg.x_a0, x_da0=2.0 * cfg.x_da0), pgrid
        )
        assert np.array_equal(t2.x_a, 2.0 * t1.x_a)
        assert np.array_equal(t2.x_da, 2.0 * t1.x_da)
        assert np.array_equal(t2.u_a, 2.0 * t1.u_a)
        assert t2.cost == pytest.approx(4.0 * t1.cost, rel=1e-14)

    # the validation tests need no real sweep: a zero-filled grid of the
    # right (or wrong) length reaches the same checks
    def test_rejects_bad_deviation_shape(self):
        cfg = reference_config(ff=np.pi / 10.0)
        pgrid = zero_pgrid(cfg.grid)
        with pytest.raises(ValueError, match="attacker_dev must have shape"):
            simulate_numerical(cfg, pgrid, attacker_dev=np.zeros((3, 3)))

    def test_rejects_mismatched_pgrid(self):
        cfg = reference_config(ff=np.pi / 10.0)
        other = reference_config(ff=np.pi / 4.0)
        pgrid = zero_pgrid(other.grid)
        with pytest.raises(ValueError, match="does not cover"):
            simulate_numerical(cfg, pgrid)

    def test_rejects_pgrid_of_other_grid_with_same_node_count(self):
        cfg = reference_config(ff=np.pi / 4.0)
        other = reference_config(ff=np.pi / 2.0, h_f=2.0 * cfg.h_f)
        assert len(other.grid) == len(cfg.grid)
        with pytest.raises(ValueError, match="does not cover"):
            simulate_numerical(cfg, zero_pgrid(other.grid))

    def test_controls_follow_costate_formula(self, numerical_run):
        # the oracle's controls are the saddle-point formula on its own
        # costates (lam, nu) = P y at every node
        _, traj, _, _ = numerical_run
        scale = ORBIT.beta / rho(ORBIT, traj.grid)[:, None] ** 3
        np.testing.assert_allclose(
            traj.u_a, -(scale / WEIGHTS.r_a) * (traj.lam - traj.nu)[:, 3:6], rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(
            traj.u_d, (scale / WEIGHTS.r_d) * traj.nu[:, 3:6], rtol=1e-14, atol=0.0)

    def test_zero_deviations_are_the_default(self, ref_config, numerical_run):
        pgrid, traj, _, _ = numerical_run
        zeros = np.zeros((ref_config.n_steps + 1, 3))
        got = simulate_numerical(ref_config, pgrid, attacker_dev=zeros, defender_dev=zeros)
        for name in ("x_a", "x_da", "u_a", "u_d", "lam", "nu", "dist_at", "dist_da", "cost"):
            assert np.array_equal(getattr(got, name), getattr(traj, name)), name

    def test_trajectory_shapes(self, numerical_run):
        _, traj, _, _ = numerical_run
        n = len(traj.grid)
        assert n == 1001
        assert traj.x_a.shape == (n, 6)
        assert traj.u_d.shape == (n, 3)
        assert np.array_equal(traj.dist_at, np.linalg.norm(traj.x_a[:, :3], axis=1))


def test_oracle_takes_only_the_trajectory_record_from_the_package():
    # the RK4 oracle checks the closed form, so it must not reach into it;
    # relative imports and absolute tadgame imports both count
    tree = ast.parse(Path(tadgame.numerical_baseline.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "tadgame"):
            module = (node.module or "").removeprefix("tadgame.")
            imported |= {(module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "tadgame" for a in node.names)
    assert imported == {("game", "Trajectory")}
