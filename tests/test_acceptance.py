"""End-to-end acceptance checks.

Each test verifies one shipping requirement at its stated tolerance; the
terminal summary prints a PASS/FAIL line per criterion.  Reference values
for the one-revolution scenario: terminal pursuer-target distance
3.2018e-3 km (closed form) / 3.2010e-3 km (numerical baseline), terminal
defender-pursuer distance 0.50914 / 0.50910 km, game cost -2.4361e-3 /
-2.4362e-3.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import omega11, omega22, reference_config, riccati_p
from properties import eccentric_to_true, feedback_along, phi_inv, rel_scalar, riccati_rhs
from tadgame.game import propagate_analytical
from tadgame.numerical_baseline import integrate_riccati_backward, simulate_numerical
from tadgame.orbital_core import (
    ReferenceOrbit,
    phi,
    rho,
    true_to_eccentric,
)
from tadgame.riccati import _tables
from tadgame.winning import (
    OutcomeTag,
    TerminalSets,
    attacker_wins,
    classify_outcome,
    scan_quadratics,
)


def test_criterion_1(analytical_run):
    traj, seconds = analytical_run
    assert rel_scalar(traj.dist_at[-1], 3.2018e-3) <= 1e-3
    assert rel_scalar(traj.dist_da[-1], 0.50914) <= 1e-3
    assert rel_scalar(traj.cost, -2.4361e-3) <= 1e-3
    assert seconds < 1.0


def test_criterion_2(numerical_run):
    _, traj, _, _ = numerical_run
    assert rel_scalar(traj.dist_at[-1], 3.2010e-3) <= 1e-3
    assert rel_scalar(traj.dist_da[-1], 0.50910) <= 1e-3
    assert rel_scalar(traj.cost, -2.4362e-3) <= 1e-3


def test_criterion_3(analytical_run, numerical_run):
    ana, _ = analytical_run
    _, num, _, _ = numerical_run
    assert rel_scalar(ana.dist_at[-1], num.dist_at[-1]) <= 3e-4
    assert rel_scalar(ana.dist_da[-1], num.dist_da[-1]) <= 1e-4
    assert rel_scalar(ana.cost, num.cost) <= 1e-4


def test_criterion_4(analytical_run, numerical_run):
    _, ana_seconds = analytical_run
    _, _, t_back, t_fwd = numerical_run
    assert (t_back + t_fwd) / ana_seconds >= 100.0


def test_criterion_5(ref_config, analytical_run, ref_sets):
    fs, v1, v2 = scan_quadratics(ref_config)
    wins, f_a = attacker_wins(fs, v1, v2)
    assert wins is True
    assert f_a == ref_config.grid[984]
    assert ref_config.grid[984] == 984 * ref_config.h_f
    assert ref_config.grid[983] == 983 * ref_config.h_f
    assert v2.min() > 0.0
    traj, _ = analytical_run
    assert classify_outcome(traj, ref_sets).f_capture == f_a


def test_criterion_6(ref_config):
    f_a_by_e = {}
    for e in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        orbit = ReferenceOrbit(mu=ref_config.orbit.mu, p=ref_config.orbit.p, e=e)
        cfg = dataclasses.replace(ref_config, orbit=orbit)
        fs, v1, v2 = scan_quadratics(cfg)
        wins, f_a = attacker_wins(fs, v1, v2)
        assert wins is True
        assert v1.min() <= 0.0
        assert v2.min() > 0.0
        f_a_by_e[e] = f_a
    seq = [f_a_by_e[e] for e in (0.2, 0.3, 0.4, 0.5)]
    assert all(b <= a for a, b in zip(seq, seq[1:]))


def test_criterion_7(ref_config, analytical_run, numerical_run):
    t0 = time.perf_counter()
    orbit, weights = ref_config.orbit, ref_config.weights
    rng = np.random.default_rng(2024)
    eye6 = np.eye(6)

    # transition-matrix identities, 100 random cases each; residuals are
    # measured against the identity's own scale, which is O(1) near
    # circular orbits but grows into the hundreds toward e = 0.8
    for _ in range(100):
        orb = ReferenceOrbit(mu=orbit.mu, p=orbit.p, e=rng.uniform(0.0, 0.8))
        f1, f2, f3, f4 = rng.uniform(0.0, 2.0 * math.pi, 4)
        assert np.abs(phi(orb, f1) @ phi_inv(orb, f1) - eye6).max() < 1e-10
        target = omega11(orb, f3, f1)
        chain = omega11(orb, f3, f2) @ omega11(orb, f2, f1)
        scale = max(1.0, np.abs(target).max())
        assert np.abs(chain - target).max() / scale < 1e-9
        dual = np.linalg.inv(omega11(orb, f2, f1)).T
        scale = max(1.0, np.abs(dual).max())
        assert np.abs(omega22(orb, f2, f1) - dual).max() / scale < 1e-9
        assert abs(eccentric_to_true(orb, true_to_eccentric(orb, f4)) - f4) < 1e-12

    # the closed-form antiderivative differentiates back to its integrand
    delta = 1e-5
    for e in np.arange(0.0, 0.51, 0.1):
        orb = ReferenceOrbit(mu=orbit.mu, p=orbit.p, e=float(e))
        for f in rng.uniform(0.05, 2.0 * math.pi, 5):
            hi = _tables(orb, f + delta)["chat"]
            lo = _tables(orb, f - delta)["chat"]
            fd = (hi - lo) / (2.0 * delta)
            inv = phi_inv(orb, f)
            core = np.zeros((6, 6))
            core[3:, 3:] = eye6[3:, 3:] / rho(orb, f) ** 6
            want = inv @ core @ inv.T
            scale = np.abs(want).max()
            assert np.abs(fd - want).max() / scale < 1e-6

    # terminal boundary value is exact; initial gain matches the baseline
    p_ff = riccati_p(orbit, weights, ref_config.ff, ref_config.ff)
    assert np.array_equal(p_ff, weights.s_block)
    pgrid, _, _, _ = numerical_run
    p_f0 = riccati_p(orbit, weights, ref_config.f0, ref_config.ff)
    assert np.abs(pgrid.p[-1] - p_f0).max() / np.abs(p_f0).max() <= 1e-5

    # differential-equation residual of the closed-form gain
    for f in rng.uniform(0.3, ref_config.ff - 0.3, 20):
        hi = riccati_p(orbit, weights, f + delta, ref_config.ff)
        lo = riccati_p(orbit, weights, f - delta, ref_config.ff)
        mid = riccati_p(orbit, weights, f, ref_config.ff)
        fd = (hi - lo) / (2.0 * delta)
        want = riccati_rhs(orbit.e, f, orbit.beta, weights.r_a, weights.r_d, mid)
        assert np.linalg.norm(fd - want) <= 1e-4 * np.linalg.norm(mid)

    # transversality and agreement of the two strategy forms
    traj, _ = analytical_run
    lam_want = weights.sa @ traj.x_a[-1]
    nu_want = -weights.sda @ traj.x_da[-1]
    assert np.linalg.norm(traj.lam[-1] - lam_want) / np.linalg.norm(lam_want) <= 1e-6
    assert np.linalg.norm(traj.nu[-1] - nu_want) / np.linalg.norm(nu_want) <= 1e-6
    # the trajectory takes its controls from the costates; the feedback form
    # is computed here from riccati_p and the states, at the first node,
    # twenty evenly spread interior nodes and the node next to ff
    n = ref_config.n_steps
    nodes = np.r_[0, np.arange(25, n - 1, 50), n - 1]
    u_a, u_d = feedback_along(
        traj, lambda f: riccati_p(orbit, weights, f, ref_config.ff),
        orbit.e, orbit.beta, weights.r_a, weights.r_d, nodes)
    assert np.abs(u_a - traj.u_a[nodes]).max() / np.abs(traj.u_a).max() <= 1e-8
    assert np.abs(u_d - traj.u_d[nodes]).max() / np.abs(traj.u_d).max() <= 1e-8

    # quadratic winning test vs full propagation, 100 defender placements
    sets = TerminalSets(r1=ref_config.r1, r2=ref_config.r2)
    placements = np.array([-2.0, 0.0, 0.0]) + rng.uniform(-2.5, 2.5, (100, 3))
    for rd0 in placements:
        cfg = ref_config.with_defender_position(rd0)
        wins, f_a = attacker_wins(*scan_quadratics(cfg))
        out = classify_outcome(propagate_analytical(cfg), sets)
        assert wins == (out.tag is OutcomeTag.ATTACKER_WINS)
        if wins:
            assert out.f_capture == f_a

    assert time.perf_counter() - t0 < 60.0


def test_criterion_8():
    cfg = reference_config(ff=math.pi / 4.0)
    pgrid = integrate_riccati_backward(cfg)
    base = simulate_numerical(cfg, pgrid)
    rng = np.random.default_rng(600)
    profile = rng.uniform(-1.0, 1.0, (cfg.n_steps + 1, 3))
    ratios_a, ratios_d = [], []
    for eps in (1e-3, 1e-4):
        j_att = simulate_numerical(cfg, pgrid, attacker_dev=eps * profile).cost
        j_def = simulate_numerical(cfg, pgrid, defender_dev=eps * profile).cost
        ratios_a.append((j_att - base.cost) / eps**2)
        ratios_d.append((j_def - base.cost) / eps**2)
    assert ratios_a[0] > 0.0 and ratios_a[1] > 0.0
    assert ratios_d[0] < 0.0 and ratios_d[1] < 0.0
    assert abs(ratios_a[0] / ratios_a[1] - 1.0) < 0.1
    assert abs(ratios_d[0] / ratios_d[1] - 1.0) < 0.1
