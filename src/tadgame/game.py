"""Pursuit game model: scenario, closed-form trajectory propagation in
the constants frame with the saddle-point strategies taken from the
costates, and the game value 1/2 y0^T P(f0) y0 as the cost.

The pursuer chases a passive target sitting at the origin of the rotating
frame while the defender tries to intercept the pursuer.  Everything is
expressed in the scaled true-anomaly-domain coordinates of orbital_core.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .orbital_core import _J, _K, ReferenceOrbit, rho
# _u_blocks_arrays unused: perfbench/spans.py traces it (tests/test_traced_names.py)
from .riccati import WeightSet, _coupling, _riccati_p_arrays, _tables, _u_blocks_arrays

# a name for perfbench/spans.py to trace alone: nothing calls it
riccati_p = _riccati_p_arrays


# most grid steps a scenario may ask for: memory grows with the grid (the
# tables and the outputs take ~1 kB per node), so 10^6 steps need ~1 GB
_MAX_STEPS = 10**6


@dataclass(frozen=True)
class GameConfig:
    """Complete scenario description.

    x_a0 is the pursuer state relative to the target, x_da0 the defender
    state relative to the pursuer, both 6-vectors in tilde coordinates
    (km, km/rad).  r1 and r2 are the capture and interception radii in km.
    h_f must tile [f0, ff] exactly, in at most _MAX_STEPS steps."""

    orbit: ReferenceOrbit
    weights: WeightSet
    f0: float
    ff: float
    h_f: float
    r1: float
    r2: float
    x_a0: np.ndarray
    x_da0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_a0", np.asarray(self.x_a0, dtype=float))
        object.__setattr__(self, "x_da0", np.asarray(self.x_da0, dtype=float))
        if not (math.isfinite(self.f0) and math.isfinite(self.ff)):
            raise ValueError(f"f0 and ff must be finite, got f0={self.f0!r}, ff={self.ff!r}")
        if not self.f0 < self.ff:
            raise ValueError(f"need f0 < ff, got f0={self.f0!r}, ff={self.ff!r}")
        if not self.h_f > 0:
            raise ValueError(f"h_f must be positive, got {self.h_f!r}")
        steps = (self.ff - self.f0) / self.h_f
        if not steps < _MAX_STEPS + 0.5:
            raise ValueError(f"grid step h_f={self.h_f!r} gives {steps:.6g} steps on "
                             f"[f0, ff], more than the cap of {_MAX_STEPS}")
        if abs(steps - round(steps)) > 1e-6 or round(steps) < 1:
            raise ValueError(
                f"grid step h_f={self.h_f!r} does not close on ff={self.ff!r} "
                f"(({self.ff!r} - {self.f0!r}) / h_f = {steps!r})"
            )
        if not self.r1 > 0 or not self.r2 > 0:
            raise ValueError(f"radii must be positive, got r1={self.r1!r}, r2={self.r2!r}")
        for name in ("x_a0", "x_da0"):
            v = getattr(self, name)
            if v.shape != (6,) or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be a finite 6-vector, got {v!r}")
        if math.hypot(*self.x_a0[:3]) <= self.r1:
            raise ValueError("initial pursuer position already inside the capture ball")
        if math.hypot(*self.x_da0[:3]) <= self.r2:
            raise ValueError("initial defender position already inside the interception ball")

    @property
    def n_steps(self):
        return int(round((self.ff - self.f0) / self.h_f))

    @property
    def grid(self):
        """Anomaly grid f0..ff, closed on both ends."""
        return np.linspace(self.f0, self.ff, self.n_steps + 1)

    def with_defender_position(self, rd0):
        """Same scenario with the defender moved to absolute position rd0
        (km) at zero velocity relative to the pursuer.  x_a0 is kept as
        given, velocity included, so a moving pursuer stays moving and the
        winning conditions still reject it."""
        rd0 = np.asarray(rd0, dtype=float)
        if rd0.shape != (3,):
            raise ValueError(f"rd0 must be a 3-vector, got {rd0!r}")
        return replace(self, x_da0=np.concatenate([rd0 - self.x_a0[:3], np.zeros(3)]))


@dataclass(frozen=True)
class Trajectory:
    """Grid-sampled game history.

    Arrays are stacked per grid node: states (N+1, 6), controls (N+1, 3),
    costates (N+1, 6), distances (N+1,).  cost is the game cost J: the
    game value 1/2 y0^T P(f0) y0 from the closed form, a trapezoid
    quadrature from the RK4 oracle."""

    grid: np.ndarray
    x_a: np.ndarray
    x_da: np.ndarray
    u_a: np.ndarray
    u_d: np.ndarray
    lam: np.ndarray
    nu: np.ndarray
    dist_at: np.ndarray
    dist_da: np.ndarray
    cost: float


def _kappa_map(t0, p0):
    """(I2 x phi(f0))^T P(f0), the map from the joint start to the
    constants kappa of _flow, from the f0 record t0 and P(f0)."""
    rows = p0.reshape(2, 6, 12).swapaxes(0, 1).reshape(6, 24)
    return (t0["phi"].T @ rows).reshape(6, 2, 12).swapaxes(0, 1).reshape(12, 12)


def _flow(config, t, t0, kappa_map, z0):
    """Joint states, of shape t.shape + z0.shape, at the table records t
    (scalar or array) of the motions that start from the columns of z0 (12
    or 12 x k) at the record t0 of f0, and kappa (6 x 2k), with kappa_map
    from _kappa_map.

    In the constants frame only C_hat moves.  With the constants
    kappa_i = phi(f0)^T (P(f0) z0)_i, player i's state is
    phi(f) [phi^-1(f0) z0_i + (C_hat(f) - C_hat(f0)) sum_j M_ij kappa_j]
    and its costate phi(f)^-T kappa_i = -J phi(f) K kappa_i, M from _coupling
    and phi^-1 = -K phi^T J (orbital_core).  Nodes at f0 return z0 exactly."""
    # both players side by side in the columns: one 6x6 by 6x2k product per
    # node is faster, and rounds closer to a long-double evaluation, than
    # one 6x6 by 6xk product per player
    def cols(v):  # (12, ...) -> (6, 2k)
        return v.reshape(2, 6, -1).swapaxes(0, 1).reshape(6, -1)

    # kappa in one product with the recorded (I2 x phi(f0))^T P(f0), not as
    # phi(f0)^T (P(f0) z0), which rounds it farther from its exact value:
    # over ten revolutions x_a(ff) is ~3e-6 of x_a0, and the transversality
    # residual lambda(ff) - Sa x_a(ff), relative to Sa x_a(ff), magnifies
    # that rounding
    kappa = cols(kappa_map @ z0)
    drive = (_coupling(config.orbit, config.weights) @ kappa.reshape(6, 2, -1)).reshape(6, -1)
    consts = -_K @ t0["phi"].T @ _J @ cols(z0) + (t["chat"] - t0["chat"]) @ drive
    y = (t["phi"] @ consts).reshape(t.shape + (6, 2, -1)).swapaxes(-3, -2)
    y = y.reshape(t.shape + z0.shape)
    y[t["f"] == t0["f"]] = z0
    return y, kappa


# the last P(f0) that passed the factor check, as one (key, f0 record, P,
# kappa map) tuple: a reader takes all four from one read, so it never
# pairs one scenario's key with another's P
_p0_record = None


def _solve(config, z0, f=None):
    """The closed form of the scenario from the columns of z0 (12 or 12 x k)
    at the table records t of f, or of the grid when f is None: returns
    (t, P(f0), the joint states from _flow at t, kappa).

    P(f0) comes from the factor check on the whole grid table, the one
    place that decides where the factor is checked: at f0 by kappa_1, and
    at every node only when r_d > r_a (proof in _riccati_p_arrays).  It
    depends on the orbit, the weights and the grid, not on the start, so
    the last one that passed is kept, read-only, with a copy of the f0
    record: a new start in the same scenario reads it and builds no grid
    table when f is given.  The record holds no table and no view of one;
    a SingularFactor leaves it as it was.  Values that overflow come out
    as inf or nan, for the caller to reject."""
    global _p0_record
    t = _tables(config.orbit, config.grid if f is None else f)
    key = (config.orbit, config.weights, config.f0, config.ff, config.n_steps)
    record = _p0_record
    if record is not None and record[0] == key:
        _, t0, p0, kappa_map = record
    else:
        checked = t if f is None else _tables(config.orbit, config.grid)
        p0 = _riccati_p_arrays(config.orbit, config.weights, checked)
        p0.flags.writeable = False
        t0 = checked[0].copy()
        with np.errstate(over="ignore", invalid="ignore"):
            kappa_map = _kappa_map(t0, p0)
        kappa_map.flags.writeable = False
        _p0_record = (key, t0, p0, kappa_map)
    with np.errstate(over="ignore", invalid="ignore"):
        y, kappa = _flow(config, t, t0, kappa_map, z0)
    return t, p0, y, kappa


def _d_grid(config, f):
    """Propagation matrix D(f) = U11(f, f0) + U12(f, f0) P(f0), mapping the
    initial joint state to the joint state at a scalar or array anomaly f:
    the flow of the columns of the identity."""
    return _solve(config, np.eye(12), f)[2]


def _cost_from_arrays(p0, y0):
    """Game value J = 1/2 y0^T P(f0) y0 of the saddle-point trajectory
    from the joint start y0: exact, so it needs no quadrature over the
    grid.  The name is the one perfbench/spans.py traces (game.cost_ms)."""
    return 0.5 * float(y0 @ p0 @ y0)


def _require_finite(what, *arrays):
    """Raise OverflowError unless every value is finite (the inputs are)."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise OverflowError(f"{what} overflows: the scenario's numbers are too large")


def propagate_analytical(config):
    """Propagate the equilibrium game over the whole grid in closed form.

    One table evaluation on the grid gives everything: _solve gives P(f0),
    the states and kappa from y0, the costates being -J phi(f) K kappa
    (P(f0) y0 at f0).  The saddle-point controls come from the costates on
    the whole grid,
    u_a = -(beta / rho^3 r_a) (lam - nu)_v and u_d = (beta / rho^3 r_d) nu_v,
    and the cost is the game value 1/2 y0^T P(f0) y0.
    Raises OverflowError where a result is not finite."""
    orbit, weights = config.orbit, config.weights
    y0 = np.concatenate([config.x_a0, config.x_da0])
    t, p0, y, kappa = _solve(config, y0)
    grid = config.grid  # after the table build, whose peak it would raise
    with np.errstate(over="ignore", invalid="ignore"):
        costates = -_J @ (t["phi"] @ (_K @ kappa))
        costates[0] = (p0 @ y0).reshape(2, 6).T
        x_a, x_da = y[:, 0:6], y[:, 6:12]
        lam, nu = costates[..., 0], costates[..., 1]
        scale = orbit.beta / rho(orbit, grid) ** 3
        u_a = -(scale[:, None] / weights.r_a) * (lam - nu)[:, 3:6]
        u_d = (scale[:, None] / weights.r_d) * nu[:, 3:6]
        dist_at = np.linalg.norm(x_a[:, :3], axis=1)
        dist_da = np.linalg.norm(x_da[:, :3], axis=1)
        j = _cost_from_arrays(p0, y0)
    _require_finite("the trajectory", y, costates, u_a, u_d, dist_at, dist_da, j)
    return Trajectory(
        grid=grid, x_a=x_a, x_da=x_da, u_a=u_a, u_d=u_d,
        lam=lam, nu=nu, dist_at=dist_at, dist_da=dist_da, cost=j,
    )
