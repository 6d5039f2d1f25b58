"""Session fixtures and the acceptance-summary reporter.

The reference scenario is built once; the expensive numerical baseline run
is shared across every test that needs it (regression values, cross-method
agreement, speedup, and the stored-grid checks).
"""

import re
import time

import numpy as np
import pytest

from tadgame import game, riccati
from tadgame.game import GameConfig, propagate_analytical
from tadgame.numerical_baseline import integrate_riccati_backward, simulate_numerical
from tadgame.orbital_core import ReferenceOrbit
from tadgame.riccati import WeightSet, _coupling, _riccati_p_arrays, _tables, _u_blocks_arrays
from tadgame.winning import TerminalSets


def reference_orbit():
    return ReferenceOrbit(mu=398603.0, p=10000.0, e=0.1)


def reference_weights():
    return WeightSet(r_a=5e9, r_d=3e9, s_ar=1.0, s_av=1.0, s_dar=0.001, s_dav=0.001)


def conjugate_weights():
    """Weights whose Riccati solution on the reference scenario has a
    conjugate point inside the last grid interval (r_d > r_a): every
    closed-form route must refuse it with SingularFactor."""
    return WeightSet(r_a=5e7, r_d=1e10, s_ar=1.0, s_av=1.0, s_dar=1000.0, s_dav=1000.0)


def reference_config(**overrides):
    """Reference scenario; keyword overrides replace individual fields."""
    kw = dict(
        orbit=reference_orbit(),
        weights=reference_weights(),
        f0=0.0,
        ff=2.0 * np.pi,
        h_f=np.pi / 500.0,
        r1=0.01,
        r2=0.01,
        x_a0=np.array([0.0, 20.0, 0.0, 0.0, 0.0, 0.0]),
        x_da0=np.array([-2.0, -20.0, 0.0, 0.0, 0.0, 0.0]),
    )
    kw.update(overrides)
    return GameConfig(**kw)


def kernel_blocks(orbit, f2, f1):
    """(Omega11, Omega22, C1) from f1 to f2, through the table kernel."""
    t2, t1 = _tables(orbit, f2), _tables(orbit, f1)
    return (riccati.omega11(t2, t1), *_u_blocks_arrays(t2, t1))


def riccati_p(orbit, weights, f, ff):
    """Closed-form Riccati solution P(f), a 12x12 array, for the horizon
    ending at ff, through the package's factor check on the records at f
    and ff.

    The factor is checked at f and ff only, so a conjugate point between
    them goes unseen; a scenario's P(f0), checked on its whole grid, comes
    from game._solve.  At f = ff the blocks collapse to identity/zero and P
    equals diag(Sa, -Sda) exactly."""
    if f > ff:
        raise ValueError(f"query anomaly f={f!r} lies beyond the horizon ff={ff!r}")
    return _riccati_p_arrays(orbit, weights, _tables(orbit, [float(f), float(ff)]))


def dense_blocks(orbit, weights, f2, f1):
    """U11, U12, U22 from f1 to f2 as 12x12 arrays assembled from the
    kernel's blocks."""
    o11, o22, c1 = kernel_blocks(orbit, f2, f1)
    eye2 = np.eye(2)
    return np.kron(eye2, o11), np.kron(_coupling(orbit, weights), c1), np.kron(eye2, o22)


def omega11(orbit, f2, f1):
    return kernel_blocks(orbit, f2, f1)[0]


def omega22(orbit, f2, f1):
    return kernel_blocks(orbit, f2, f1)[1]


def c1(orbit, f2, f1):
    return kernel_blocks(orbit, f2, f1)[2]


@pytest.fixture(autouse=True)
def forget_p0():
    """Every test starts with no remembered P(f0), so a test that changes
    the factor check (riccati._CHUNK, say) runs it instead of reading what
    an earlier test left behind."""
    game._p0_record = None
    yield
    game._p0_record = None


@pytest.fixture(scope="session")
def ref_config():
    return reference_config()


@pytest.fixture(scope="session")
def ref_sets():
    return TerminalSets(r1=0.01, r2=0.01)


@pytest.fixture(scope="session")
def analytical_run(ref_config):
    """(trajectory, wall_seconds) for the closed-form propagation."""
    t0 = time.perf_counter()
    traj = propagate_analytical(ref_config)
    return traj, time.perf_counter() - t0


@pytest.fixture(scope="session")
def numerical_run(ref_config):
    """(pgrid, trajectory, backward_seconds, forward_seconds) for the
    baseline integrator at the scenario grid step."""
    t0 = time.perf_counter()
    pgrid = integrate_riccati_backward(ref_config)
    t1 = time.perf_counter()
    traj = simulate_numerical(ref_config, pgrid)
    t2 = time.perf_counter()
    return pgrid, traj, t1 - t0, t2 - t1


_CRITERIA = {
    1: "closed-form run reproduces the reference terminal distances and cost "
       "within 0.1%, in under 1 s",
    2: "numerical baseline reproduces its reference terminal distances and "
       "cost within 0.1%",
    3: "cross-method agreement within 0.03% / 0.01% / 0.01%",
    4: "closed-form end-to-end wall time at least 100x faster than the baseline",
    5: "capture-condition regression: crossing at the expected grid node, "
       "attacker wins, interception quadratic stays positive",
    6: "eccentricity sweep 0..0.5: attacker wins throughout, capture anomaly "
       "non-increasing on 0.2..0.5",
    7: "property suite (matrix identities, antiderivative, feedback-gain, "
       "duality, winning-set equivalence) in under 60 s",
    8: "first-order equilibrium deviation: correct sign and stable "
       "quadratic-in-epsilon cost change",
}

_criterion_results = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = re.match(r"test_criterion_(\d+)", report.nodeid.rsplit("::", 1)[-1])
    if m:
        _criterion_results[int(m.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(_CRITERIA):
        outcome = _criterion_results.get(num)
        if outcome == "passed":
            status = "PASS"
        elif outcome is None:
            status = "NOT RUN"
        else:
            status = outcome.upper().replace("FAILED", "FAIL")
        terminalreporter.write_line(f"criterion {num}: {status} - {_CRITERIA[num]}")
