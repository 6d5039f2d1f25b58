"""Fixed-step numerical counterpart of the closed-form game solution:
backward Runge-Kutta integration of the matrix Riccati equation with the
solution stored per grid node, then a forward closed-loop simulation.

Everything here runs on plain Python floats and lists on purpose.  The
module is the independent verification route and the benchmark baseline,
so it shares no linear algebra with the closed-form path.
"""

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .game import Trajectory

_BLOWUP_LIMIT = 1e15


class NumericalBlowup(RuntimeError):
    """An integrated quantity left the trusted range (entries above 1e15)."""

    def __init__(self, message, f=None):
        super().__init__(message)
        self.f = f


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


def _w_rows(orbit, weights, f):
    """W blocks of the coupled flow as nested lists: (W11, W12, W22), with
    W11 = diag(A, A) and W22 = -W11ᵀ."""
    a = _a_rows(orbit.e, f)
    w11 = [row + [0.0] * 6 for row in a] + [[0.0] * 6 + row for row in a]
    w22 = [[-x for x in col] for col in zip(*w11)]
    gain = (orbit.beta / (1.0 + orbit.e * math.cos(f)) ** 3) ** 2
    g_a = gain / weights.r_a
    g_v = gain * (1.0 / weights.r_d - 1.0 / weights.r_a)
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
    when any P entry passes 1e15 in magnitude."""
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
            if any(abs(x) > _BLOWUP_LIMIT for x in pflat):
                raise NumericalBlowup(
                    f"Riccati solution exceeded {_BLOWUP_LIMIT:.0e} "
                    f"near f={f + (i + 1) * h:.9g}",
                    f=f + (i + 1) * h,
                )
            if i + 1 == n_sub // 2:
                mids.append(pflat)
        stored.append(pflat)
    p = np.array(stored).reshape(len(nodes), 12, 12)
    p_mid = np.array(mids).reshape(len(nodes) - 1, 12, 12)
    return PGrid(grid=np.array(nodes), p=p, p_mid=p_mid)


def _lerp_rows(stack, idx):
    """Linear interpolation of a per-node stack of flat lists at a fractional
    node index."""
    k = int(math.floor(idx))
    if k < 0:
        k = 0
    if k > len(stack) - 2:
        k = len(stack) - 2
    t = idx - k
    if t <= 0.0:
        return stack[k]
    if t >= 1.0:
        return stack[k + 1]
    lo = stack[k]
    hi = stack[k + 1]
    return [a + t * (b - a) for a, b in zip(lo, hi)]


def _controls_from_p(orbit, weights, pflat, xa, xda, f):
    """Feedback controls from a flattened P, plain floats."""
    scale = orbit.beta / (1.0 + orbit.e * math.cos(f)) ** 3
    u_a = [0.0, 0.0, 0.0]
    u_d = [0.0, 0.0, 0.0]
    for i in range(3):
        row = 12 * (3 + i)
        ga = 0.0
        gd = 0.0
        for j in range(6):
            ga += (pflat[row + j] - pflat[row + 72 + j]) * xa[j]
            ga += (pflat[row + 6 + j] - pflat[row + 72 + 6 + j]) * xda[j]
            gd += pflat[row + 72 + j] * xa[j] + pflat[row + 72 + 6 + j] * xda[j]
        u_a[i] = -scale / weights.r_a * ga
        u_d[i] = scale / weights.r_d * gd
    return u_a, u_d


def simulate_numerical(config, pgrid, attacker_dev=None, defender_dev=None):
    """Forward closed-loop simulation against the stored Riccati grid.

    Runge-Kutta mid-stages sample the stored interval-midpoint P.
    Optional per-node open-loop control offsets (shape (N+1, 3)) are added
    to a player's feedback control, interpolated linearly; they exist for
    equilibrium-deviation studies.  An initial state already past the
    blow-up limit raises OverflowError before the first step."""
    orbit = config.orbit
    weights = config.weights
    e = orbit.e
    grid = config.grid
    n_nodes = len(grid)
    f0 = float(grid[0])
    h_f = config.h_f

    # ascending copies of the stored P, as flat python lists per node
    order = np.argsort(pgrid.grid)
    p_asc = [pgrid.p[i].ravel().tolist() for i in order]
    if len(p_asc) != n_nodes:
        raise ValueError("stored Riccati grid does not cover the scenario grid")
    # interval i of the ascending grid is interval n-2-i of the sweep
    p_mid_asc = [pgrid.p_mid[n_nodes - 2 - i].ravel().tolist()
                 for i in range(n_nodes - 1)]

    dev_a = None if attacker_dev is None else np.asarray(attacker_dev, dtype=float)
    dev_d = None if defender_dev is None else np.asarray(defender_dev, dtype=float)
    for name, dev in (("attacker_dev", dev_a), ("defender_dev", dev_d)):
        if dev is not None and dev.shape != (n_nodes, 3):
            raise ValueError(f"{name} must have shape ({n_nodes}, 3)")
    dev_a_rows = None if dev_a is None else [row.tolist() for row in dev_a]
    dev_d_rows = None if dev_d is None else [row.tolist() for row in dev_d]

    def controls_at(f, y, pflat):
        u_a, u_d = _controls_from_p(orbit, weights, pflat, y[0:6], y[6:12], f)
        idx = (f - f0) / h_f
        if dev_a_rows is not None:
            off = _lerp_rows(dev_a_rows, idx)
            u_a = [u + o for u, o in zip(u_a, off)]
        if dev_d_rows is not None:
            off = _lerp_rows(dev_d_rows, idx)
            u_d = [u + o for u, o in zip(u_d, off)]
        return u_a, u_d

    def field_with(f, y, pflat):
        # x_a' = A x_a + b u_a and x_da' = A x_da + b (u_d - u_a), with b
        # the control scale on the velocity rows
        u_a, u_d = controls_at(f, y, pflat)
        a = _a_rows(e, f)
        scale = orbit.beta / (1.0 + e * math.cos(f)) ** 3
        push = ([0.0] * 3 + [scale * u for u in u_a]
                + [0.0] * 3 + [scale * (d - u) for d, u in zip(u_d, u_a)])
        drift = _mat_vec(a, y[0:6]) + _mat_vec(a, y[6:12])
        return [x + b for x, b in zip(drift, push)]

    def staged_field(stage_ps):
        # the kernel evaluates stages in the fixed order k1, k2, k3, k4
        stages = iter(stage_ps)

        def field(f, y):
            return field_with(f, y, next(stages))

        return field

    y = list(config.x_a0) + list(config.x_da0)
    if any(abs(v) > _BLOWUP_LIMIT for v in y):
        raise OverflowError(f"initial state exceeds {_BLOWUP_LIMIT:.0e}: "
                            "the scenario's numbers are too large")
    states = [list(y)]
    controls = []
    costates = []
    for k in range(n_nodes):
        fk = float(grid[k])
        u_a, u_d = controls_at(fk, y, p_asc[k])
        controls.append((u_a, u_d))
        pflat = p_asc[k]
        prow = [pflat[12 * i:12 * i + 12] for i in range(12)]
        costates.append(_mat_vec(prow, y))
        if k == n_nodes - 1:
            break
        mid = p_mid_asc[k]
        field = staged_field([p_asc[k], mid, mid, p_asc[k + 1]])
        y = rk4_step(field, y, fk, float(grid[k + 1] - grid[k]))
        if any(abs(v) > _BLOWUP_LIMIT for v in y):
            raise NumericalBlowup(
                f"simulated state exceeded {_BLOWUP_LIMIT:.0e} near f={float(grid[k + 1]):.9g}",
                f=float(grid[k + 1]),
            )
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
