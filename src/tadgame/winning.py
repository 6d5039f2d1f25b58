"""Terminal sets, outcome classification, and the closed-form winning
conditions of the pursuit game for hovering initial states.

For zero initial velocities the anomaly-by-anomaly capture and interception
conditions reduce to quadratics in the defender's initial position, i.e.
ellipsoid membership tests built from position sub-blocks of the D matrix
(ellipsoid_at).  At one placement each quadratic is a squared propagated
distance minus a squared radius, which is how the grid scan reads them.
"""

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .game import _d_grid, _solve
from .riccati import _Singular, _require_conditioned, _require_finite


class SingularBlock(_Singular):
    """A position sub-block of D needed by the winning conditions is
    numerically singular."""


class NotHovering(Exception):
    """The winning conditions require zero initial velocities."""


@dataclass(frozen=True)
class TerminalSets:
    """Capture radius r1 around the target, interception radius r2 around
    the pursuer, km."""

    r1: float
    r2: float

    def __post_init__(self):
        if not (0 < self.r1 < np.inf and 0 < self.r2 < np.inf):
            raise ValueError(f"radii must be finite and positive: r1={self.r1!r}, r2={self.r2!r}")


class OutcomeTag(enum.Enum):
    ATTACKER_WINS = "AttackerWins"
    DEFENDER_WINS = "DefenderWins"
    SIMULTANEOUS_CAPTURE = "SimultaneousCapture"
    NOBODY_WINS = "NobodyWins"


@dataclass(frozen=True)
class Outcome:
    """Game outcome with the first-hit anomalies where applicable."""

    tag: OutcomeTag
    f_capture: Optional[float] = None
    f_intercept: Optional[float] = None


@dataclass(frozen=True)
class Ellipsoid:
    """Quadratic membership set {r : q(r) <= 0} with Gram matrix g = m^T m,
    center offset (km) and radius (km)."""

    center_offset: np.ndarray
    radius: float
    m: np.ndarray

    @property
    def g(self):
        return self.m.T @ self.m

    def q(self, point):
        """Evaluate the defining quadratic |m (r - c)|^2 - radius^2 at a
        3-vector (or stack).  The centred form keeps the digits that the
        expanded r^T g r - 2 c^T g r + c^T g c loses near the boundary."""
        v = (np.asarray(point, dtype=float) - self.center_offset) @ self.m.T
        return np.sum(v**2, axis=-1) - self.radius**2


def _first_hit(fs, hit1, hit2):
    """Outcome of the first terminal-set hit over the samples fs, where
    hit1 and hit2 mark the samples inside the capture and interception
    sets.  Both sets hit at the same sample means a tie."""
    n = len(fs)
    i1, i2 = (int(np.argmax(hit)) if np.any(hit) else n for hit in (hit1, hit2))
    if i1 == i2 == n:
        return Outcome(tag=OutcomeTag.NOBODY_WINS)
    tag = (OutcomeTag.ATTACKER_WINS if i1 < i2 else
           OutcomeTag.DEFENDER_WINS if i2 < i1 else OutcomeTag.SIMULTANEOUS_CAPTURE)
    return Outcome(tag=tag,
                   f_capture=float(fs[i1]) if i1 <= i2 else None,
                   f_intercept=float(fs[i2]) if i2 <= i1 else None)


def classify_outcome(trajectory, sets):
    """Scan the trajectory grid after the initial node and report the first
    terminal-set hit."""
    return _first_hit(trajectory.grid[1:], trajectory.dist_at[1:] <= sets.r1,
                      trajectory.dist_da[1:] <= sets.r2)


def _require_hovering(config):
    if np.any(config.x_a0[3:] != 0.0) or np.any(config.x_da0[3:] != 0.0):
        raise NotHovering(
            "winning conditions require hovering initial states "
            "(zero velocity blocks in x_a0 and x_da0)"
        )


def ellipsoid_at(config, f, which):
    """Explicit ellipsoid record of the capture ("S1") or interception
    ("S2") set at anomaly f in [f0, ff], for a hovering scenario.

    S1 is built from (D11rr, D12rr), S2 from (D21rr, D22rr), with D built at
    f from the scenario's P(f0), so a scenario whose P(f0) is recorded
    builds the table at f alone.  The Gram matrix is own^T own and the
    center offset is r_tilde = Ra0 - x, x solved from own x = cross Ra0,
    own being the block that the defender initial position enters through
    (D12rr or D22rr).  Raises OverflowError where the centre is not
    finite."""
    if which not in ("S1", "S2"):
        raise ValueError(f'which must be "S1" or "S2", got {which!r}')
    _require_hovering(config)
    f = float(f)
    if not config.f0 <= f <= config.ff:
        raise ValueError(f"anomaly f={f!r} lies outside the horizon [{config.f0!r}, {config.ff!r}]")
    with np.errstate(over="ignore", invalid="ignore"):
        rows = slice(0, 3) if which == "S1" else slice(6, 9)
        d = _d_grid(config, f)
        own = d[rows, 6:9]
        cross = d[rows, 0:3]
        label = "capture" if which == "S1" else "interception"
        _require_conditioned(own, f, SingularBlock, f"position block of the {label} condition")
        ra0 = config.x_a0[:3]
        radius = config.r1 if which == "S1" else config.r2
        center = ra0 - np.linalg.solve(own, cross @ ra0)
        _require_finite("the ellipsoid centre", center)
    return Ellipsoid(center_offset=center, radius=float(radius), m=own)


def scan_quadratics(config):
    """Both quadratics sampled over the grid after f0.

    At one placement each quadratic is a squared propagated distance minus
    the squared radius, g1 = |x_a(f)|^2 - R1^2 and g2 = |x_da(f)|^2 - R2^2,
    so the scan reads them from the positions that game._solve gives for
    y0 on the grid, as propagate_analytical does: the factor is checked at
    every node, once per scenario, so a second placement reuses the check.
    Returns (f, g1_values, g2_values) arrays over (f0, ff] for the
    configured defender initial position; raises SingularFactor as
    propagate_analytical does, and OverflowError where a value is not
    finite."""
    _require_hovering(config)
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, y, _ = _solve(config, np.concatenate([config.x_a0, config.x_da0]))
        v1 = np.sum(y[1:, 0:3] ** 2, axis=1) - config.r1**2
        v2 = np.sum(y[1:, 6:9] ** 2, axis=1) - config.r2**2
        _require_finite("the winning scan", v1, v2)
    # the grid, not t["f"]: a view into t would keep the whole table alive
    return config.grid[1:], v1, v2


def attacker_wins(fs, v1, v2):
    """Closed-form winning decision on a scan (fs, v1, v2) from
    scan_quadratics.

    The first-hit rule of classify_outcome with g1 <= 0 as capture and
    g2 <= 0 as interception: the pursuer wins at the first anomaly f_a with
    g1(f_a) <= 0 if g2 > 0 everywhere up to and including f_a.  Returns
    (wins, f_a); f_a is None when the pursuer never wins."""
    outcome = _first_hit(fs, v1 <= 0.0, v2 <= 0.0)
    wins = outcome.tag is OutcomeTag.ATTACKER_WINS
    return wins, outcome.f_capture if wins else None


def winning_set_membership(config, rd0):
    """Whether the defender initial position rd0 lets the pursuer win."""
    wins, _ = attacker_wins(*scan_quadratics(config.with_defender_position(rd0)))
    return wins

