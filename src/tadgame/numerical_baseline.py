"""Fixed-step numerical counterpart of the closed-form game solution:
backward Runge-Kutta integration of the matrix Riccati equation with the
solution stored per grid node and interval midpoint, then a forward
closed-loop simulation whose controls come from the costate P y, with P
and the control offsets taken at interval midpoints for the mid-stages.

Everything here runs on plain Python floats and lists on purpose.  The
module is the independent verification route and the benchmark baseline,
so it shares no linear algebra with the closed-form path and takes only
the Trajectory record from the package.
"""

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .game import Trajectory

_BLOWUP_LIMIT = 1e15


class NumericalBlowup(RuntimeError):
    """An integrated quantity left the trusted range: NaN or an entry past 1e15."""

    def __init__(self, message, f=None):
        super().__init__(message)
        self.f = f


def _require_bounded(values, what, f):
    """Raise NumericalBlowup at f unless every value is in range; NaN fails too."""
    if not all(abs(x) <= _BLOWUP_LIMIT for x in values):
        raise NumericalBlowup(f"{what} is NaN or past {_BLOWUP_LIMIT:.0e} near f={f:.9g}", f=f)


@dataclass(frozen=True)
class PGrid:
    """Riccati solution stored per node on the descending grid ff -> f0,
    with p_mid the interval-midpoint values captured during the same
    backward sweep, which the closed-loop simulation samples at its
    Runge-Kutta mid-stages."""

    grid: np.ndarray
    p: np.ndarray
    p_mid: np.ndarray

    def __post_init__(self):
        if len(self.grid) != len(self.p):
            raise ValueError("grid and P stack lengths differ")
        if len(self.p_mid) != len(self.grid) - 1:
            raise ValueError("midpoint stack needs one entry per grid interval")


def rk4_step(field, y, f, h):
    """One classical Runge-Kutta step of y' = field(f, y).

    y is a flat list of floats; h may be negative for backward sweeps."""
    half = 0.5 * h
    k1 = field(f, y)
    k2 = field(f + half, [yi + half * ki for yi, ki in zip(y, k1)])
    k3 = field(f + half, [yi + half * ki for yi, ki in zip(y, k2)])
    k4 = field(f + h, [yi + h * ki for yi, ki in zip(y, k3)])
    return [
        yi + h / 6.0 * (a + 2.0 * (b + c) + d)
        for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
    ]


def _mat_mul(a, b):
    """a @ b for nested lists, walking only the nonzeros of a."""
    out = []
    for row in a:
        acc = [0.0] * len(b[0])
        for x, b_row in zip(row, b):
            if x != 0.0:
                acc = [s + x * y for s, y in zip(acc, b_row)]
        out.append(acc)
    return out


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _mat_vec(a, v):
    return [sum(map(operator.mul, row, v)) for row in a]


def _a_rows(e, f):
    r = 1.0 + e * math.cos(f)
    return [
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [3.0 / r, 0.0, 0.0, 0.0, 2.0, 0.0],
        [0.0, 0.0, 0.0, -2.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 0.0, 0.0, 0.0],
    ]


def _w12_gains(orbit, weights, f):
    """The two gains of W12 at anomaly f: with the control gain
    (beta / rho^3)^2, g_a = gain / r_a and g_v = gain (1/r_d - 1/r_a)."""
    gain = (orbit.beta / (1.0 + orbit.e * math.cos(f)) ** 3) ** 2
    return gain / weights.r_a, gain * (1.0 / weights.r_d - 1.0 / weights.r_a)


def _w_rows(orbit, weights, f):
    """W blocks of the coupled flow as nested lists: (W11, W12, W22), with
    W11 = diag(A, A) and W22 = -W11ᵀ."""
    a = _a_rows(orbit.e, f)
    w11 = [row + [0.0] * 6 for row in a] + [[0.0] * 6 + row for row in a]
    w22 = [[-x for x in col] for col in zip(*w11)]
    g_a, g_v = _w12_gains(orbit, weights, f)
    w12 = [[0.0] * 12 for _ in range(12)]
    for i in range(3, 6):
        w12[i][i] = -g_a
        w12[i][i + 6] = g_a
        w12[i + 6][i] = g_a
        w12[i + 6][i + 6] = g_v
    return w11, w12, w22


def _terminal_p(weights):
    s = [[0.0] * 12 for _ in range(12)]
    for i in range(3):
        s[i][i] = weights.s_ar
        s[3 + i][3 + i] = weights.s_av
        s[6 + i][6 + i] = -weights.s_dar
        s[9 + i][9 + i] = -weights.s_dav
    return s


def riccati_field(orbit, weights, f, pflat):
    """P' = W22 P - P W11 - P W12 P at anomaly f, with P a flat row-major
    list of 144 floats.  A product with P on the left is taken transposed,
    P M = (Mᵀ Pᵀ)ᵀ, so every left operand is a W block or (W12 P)ᵀ (six
    nonzero columns) and each product walks only its nonzeros.  P is not
    assumed to be symmetric."""
    p = [pflat[12 * i:12 * i + 12] for i in range(12)]
    pt = _transpose(p)
    w11, w12, w22 = _w_rows(orbit, weights, f)
    t1 = _mat_mul(w22, p)
    t2t = _mat_mul(_transpose(w11), pt)  # (P W11)ᵀ
    t3t = _mat_mul(_transpose(_mat_mul(w12, p)), pt)  # (P W12 P)ᵀ
    return [
        t1[i][j] - t2t[j][i] - t3t[j][i]
        for i in range(12) for j in range(12)
    ]


def integrate_riccati_backward(config, step=None):
    """Integrate P' = W22 P - P W11 - P W12 P backward from ff to f0,
    storing P at every grid node.

    The W blocks are re-evaluated at every stage anomaly.  The terminal
    condition P(ff) = diag(Sa, -Sda) sits in a boundary layer whose width
    shrinks like r_a/beta^2, so each grid interval is tiled with enough
    equal RK4 sub-steps to bring the integrator inside its stability
    region: an even count per interval, of about step each (default
    h_f/16; a nonpositive step raises ValueError).  Raises NumericalBlowup
    when any P entry passes 1e15 in magnitude or is NaN."""
    if step is None:
        step = config.h_f / 16.0
    if not step > 0:
        raise ValueError(f"step must be positive, got {step!r}")
    weights = config.weights
    field = functools.partial(riccati_field, config.orbit, weights)
    nodes = config.grid[::-1]
    # even sub-step count so the sweep lands exactly on interval midpoints
    n_sub = max(2, 2 * int(round(config.h_f / step / 2.0)))
    pflat = [x for row in _terminal_p(weights) for x in row]
    stored = [pflat]
    mids = []
    for k in range(len(nodes) - 1):
        h = float(nodes[k + 1] - nodes[k]) / n_sub
        f = float(nodes[k])
        for i in range(n_sub):
            pflat = rk4_step(field, pflat, f + i * h, h)
            _require_bounded(pflat, "Riccati solution", f + (i + 1) * h)
            if i + 1 == n_sub // 2:
                mids.append(pflat)
        stored.append(pflat)
    p = np.array(stored).reshape(len(nodes), 12, 12)
    p_mid = np.array(mids).reshape(len(nodes) - 1, 12, 12)
    return PGrid(grid=np.array(nodes), p=p, p_mid=p_mid)


def _controls(weights, scale, lam_v, nu_v, off_a, off_d):
    """Saddle-point controls from the velocity rows of the joint costate
    (lam, nu) = P y, with scale the control scale beta / rho^3, plus the
    players' open-loop offsets:
    u_a = -(scale / r_a) (lam - nu)_v + off_a, u_d = (scale / r_d) nu_v + off_d."""
    g_a = -scale / weights.r_a
    g_d = scale / weights.r_d
    u_a = [g_a * (lam - nu) + o for lam, nu, o in zip(lam_v, nu_v, off_a)]
    u_d = [g_d * nu + o for nu, o in zip(nu_v, off_d)]
    return u_a, u_d


def _require_bounded_start(config):
    """OverflowError if the initial state already exceeds the blow-up
    limit, or if a W12 gain of the Riccati field is not finite at a grid
    node (r_a or r_d = 1e-300, say); needs only the scenario, so it can run
    before the sweep.  NaN or growth that arises during the sweep from
    finite gains stays NumericalBlowup."""
    if any(abs(v) > _BLOWUP_LIMIT for v in (*config.x_a0, *config.x_da0)):
        raise OverflowError(f"initial state exceeds {_BLOWUP_LIMIT:.0e}: "
                            "the scenario's numbers are too large")
    for f in config.grid.tolist():
        if not all(map(math.isfinite, _w12_gains(config.orbit, config.weights, f))):
            raise OverflowError(f"RK4 gain of W12 at f={f:.9g} overflows: "
                                "the scenario's numbers are too large")


def simulate_numerical(config, pgrid, attacker_dev=None, defender_dev=None):
    """Forward closed-loop simulation against the stored Riccati grid.

    Every Runge-Kutta stage reads one stage record, the P rows and the
    players' open-loop control offsets at a node or, for the mid-stages,
    at the interval midpoint: the stored midpoint P and the mean of the two
    node offsets.  Each control is the saddle-point formula on the costate
    P y plus the player's offset.  The offsets (shape (N+1, 3), zero by
    default) exist for equilibrium-deviation studies.  An initial state
    already past the blow-up limit, or a W12 gain that is not finite,
    raises OverflowError before the first step."""
    orbit = config.orbit
    weights = config.weights
    e = orbit.e
    grid = config.grid
    n_nodes = len(grid)
    if not np.array_equal(pgrid.grid[::-1], grid):
        raise ValueError("stored Riccati grid does not cover the scenario grid")
    devs = []
    for name, dev in (("attacker_dev", attacker_dev), ("defender_dev", defender_dev)):
        dev = np.zeros((n_nodes, 3)) if dev is None else np.asarray(dev, dtype=float)
        if dev.shape != (n_nodes, 3):
            raise ValueError(f"{name} must have shape ({n_nodes}, 3)")
        devs.append(dev)
    dev_a, dev_d = devs

    # stage records (P rows, attacker offset, defender offset) at the nodes
    # and at the interval midpoints; the stored stacks run ff -> f0
    def stage_records(p, off_a, off_d):
        return list(zip(p.tolist(), off_a.tolist(), off_d.tolist()))

    nodes = stage_records(pgrid.p[::-1], dev_a, dev_d)
    mids = stage_records(pgrid.p_mid[::-1], 0.5 * (dev_a[:-1] + dev_a[1:]),
                         0.5 * (dev_d[:-1] + dev_d[1:]))

    def staged_field(records):
        # the kernel evaluates stages in the fixed order k1, k2, k3, k4
        stages = iter(records)

        def field(f, y):
            # x_a' = A x_a + b u_a and x_da' = A x_da + b (u_d - u_a), with b
            # the control scale on the velocity rows
            prows, off_a, off_d = next(stages)
            scale = orbit.beta / (1.0 + e * math.cos(f)) ** 3
            u_a, u_d = _controls(weights, scale, _mat_vec(prows[3:6], y),
                                 _mat_vec(prows[9:12], y), off_a, off_d)
            a = _a_rows(e, f)
            push = ([0.0] * 3 + [scale * u for u in u_a]
                    + [0.0] * 3 + [scale * (d - u) for d, u in zip(u_d, u_a)])
            drift = _mat_vec(a, y[0:6]) + _mat_vec(a, y[6:12])
            return [x + b for x, b in zip(drift, push)]

        return field

    _require_bounded_start(config)
    y = list(config.x_a0) + list(config.x_da0)
    states = [list(y)]
    controls = []
    costates = []
    for k, (prows, off_a, off_d) in enumerate(nodes):
        fk = float(grid[k])
        costate = _mat_vec(prows, y)
        scale = orbit.beta / (1.0 + e * math.cos(fk)) ** 3
        controls.append(_controls(weights, scale, costate[3:6], costate[9:12], off_a, off_d))
        costates.append(costate)
        if k == n_nodes - 1:
            break
        field = staged_field([nodes[k], mids[k], mids[k], nodes[k + 1]])
        y = rk4_step(field, y, fk, float(grid[k + 1] - grid[k]))
        _require_bounded(y, "simulated state", float(grid[k + 1]))
        states.append(list(y))

    # cost: terminal quadratic terms plus a trapezoid sweep, all plain python
    running = [
        weights.r_a * sum(u * u for u in ua) - weights.r_d * sum(u * u for u in ud)
        for ua, ud in controls
    ]
    integral = 0.0
    for k in range(n_nodes - 1):
        integral += 0.5 * float(grid[k + 1] - grid[k]) * (running[k] + running[k + 1])
    xaf = states[-1][0:6]
    xdaf = states[-1][6:12]
    terminal = (
        weights.s_ar * sum(v * v for v in xaf[0:3])
        + weights.s_av * sum(v * v for v in xaf[3:6])
        - weights.s_dar * sum(v * v for v in xdaf[0:3])
        - weights.s_dav * sum(v * v for v in xdaf[3:6])
    )
    j = 0.5 * terminal + 0.5 * integral

    states_arr = np.array(states)
    costates_arr = np.array(costates)
    u_a_arr = np.array([ua for ua, _ in controls])
    u_d_arr = np.array([ud for _, ud in controls])
    return Trajectory(
        grid=np.array(grid),
        x_a=states_arr[:, 0:6],
        x_da=states_arr[:, 6:12],
        u_a=u_a_arr,
        u_d=u_d_arr,
        lam=costates_arr[:, 0:6],
        nu=costates_arr[:, 6:12],
        dist_at=np.sqrt(np.sum(states_arr[:, 0:3] ** 2, axis=1)),
        dist_da=np.sqrt(np.sum(states_arr[:, 6:9] ** 2, axis=1)),
        cost=j,
    )
