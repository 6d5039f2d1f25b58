"""Terminal sets, outcome classification, and the closed-form winning
conditions of the pursuit game for hovering initial states.

For zero initial velocities the anomaly-by-anomaly capture and interception
conditions reduce to quadratics in the defender's initial position, i.e.
ellipsoid membership tests built from position sub-blocks of the D matrix.
"""

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .game import _d_grid
from .riccati import _checked_inverse


class SingularBlock(RuntimeError):
    """A position sub-block of D needed by the winning conditions is
    numerically singular."""

    def __init__(self, message, f=None, cond=None):
        super().__init__(message)
        self.f = f
        self.cond = cond


class NotHovering(ValueError):
    """The winning conditions require zero initial velocities."""


@dataclass(frozen=True)
class TerminalSets:
    """Capture radius r1 around the target, interception radius r2 around
    the pursuer, km."""

    r1: float
    r2: float

    def __post_init__(self):
        if not self.r1 > 0 or not self.r2 > 0:
            raise ValueError(f"radii must be positive, got r1={self.r1!r}, r2={self.r2!r}")


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

    g: np.ndarray
    center_offset: np.ndarray
    radius: float
    m: np.ndarray

    def q(self, point):
        """Evaluate the defining quadratic at a 3-vector (or stack)."""
        point = np.asarray(point, dtype=float)
        c = self.center_offset
        return (
            np.einsum("...i,ij,...j->...", point, self.g, point)
            - 2.0 * np.einsum("i,ij,...j->...", c, self.g, point)
            + c @ self.g @ c
            - self.radius**2
        )


def classify_outcome(trajectory, sets):
    """Scan the trajectory grid after the initial node and report the first
    terminal-set hit.  Both sets hit at the same sample means a tie."""
    hit1 = trajectory.dist_at[1:] <= sets.r1
    hit2 = trajectory.dist_da[1:] <= sets.r2
    i1 = int(np.argmax(hit1)) + 1 if np.any(hit1) else None
    i2 = int(np.argmax(hit2)) + 1 if np.any(hit2) else None
    grid = trajectory.grid
    if i1 is not None and (i2 is None or i1 < i2):
        return Outcome(tag=OutcomeTag.ATTACKER_WINS, f_capture=float(grid[i1]))
    if i2 is not None and (i1 is None or i2 < i1):
        return Outcome(tag=OutcomeTag.DEFENDER_WINS, f_intercept=float(grid[i2]))
    if i1 is not None:
        return Outcome(
            tag=OutcomeTag.SIMULTANEOUS_CAPTURE,
            f_capture=float(grid[i1]),
            f_intercept=float(grid[i2]),
        )
    return Outcome(tag=OutcomeTag.NOBODY_WINS)


def _require_hovering(config):
    if np.any(config.x_a0[3:] != 0.0) or np.any(config.x_da0[3:] != 0.0):
        raise NotHovering(
            "winning conditions require hovering initial states "
            "(zero velocity blocks in x_a0 and x_da0)"
        )


def _set_pieces(config, f, d, which):
    """Gram matrix, center offset and inverted position block of one
    quadratic, from the D matrix d built at the scalar or grid anomaly f.

    which=1 builds the capture quadratic from (D11rr, D12rr), which=2 the
    interception quadratic from (D21rr, D22rr).  The center offset is
    r_tilde = Ra0 - own^-1 cross Ra0, own being the inverted block."""
    rows = slice(0, 3) if which == 1 else slice(6, 9)
    own = d[..., rows, 6:9]
    cross = d[..., rows, 0:3]
    label = "capture" if which == 1 else "interception"
    own_inv, _ = _checked_inverse(own, f, SingularBlock, f"position block of the {label} condition")
    gram = np.swapaxes(own, -1, -2) @ own
    ra0 = config.x_a0[:3]
    center = ra0 - (own_inv @ (cross @ ra0)[..., None])[..., 0]
    return gram, center, own


def _pieces_at(config, f, which):
    """_set_pieces at one anomaly f in [f0, ff], for a hovering scenario."""
    _require_hovering(config)
    f = float(f)
    if not config.f0 <= f <= config.ff:
        raise ValueError(f"anomaly f={f!r} lies outside the horizon [{config.f0!r}, {config.ff!r}]")
    return _set_pieces(config, f, _d_grid(config, f), which)


def _quadratic(gram, center, rd0):
    diff_free = np.einsum("...i,...ij,...j->...", rd0, gram, rd0)
    cross = np.einsum("...i,...ij,...j->...", center, gram, rd0)
    offs = np.einsum("...i,...ij,...j->...", center, gram, center)
    return diff_free - 2.0 * cross + offs


def g1(config, f, rd0):
    """Capture quadratic at anomaly f for defender initial position rd0.

    Nonpositive values mean the pursuer reaches the capture ball at f."""
    gram, center, _ = _pieces_at(config, f, 1)
    return float(_quadratic(gram, center, np.asarray(rd0, dtype=float)) - config.r1**2)


def g2(config, f, rd0):
    """Interception quadratic at anomaly f for defender initial position rd0.

    Positive values mean the defender has not reached the pursuer at f."""
    gram, center, _ = _pieces_at(config, f, 2)
    return float(_quadratic(gram, center, np.asarray(rd0, dtype=float)) - config.r2**2)


def _scan_tables(config):
    """Precompute per-node Gram matrices and centers over the open grid
    (f0, ff] for batch evaluation of the two quadratics."""
    _require_hovering(config)
    fs = config.grid[1:]
    d = _d_grid(config, fs)
    g1m, c1, _ = _set_pieces(config, fs, d, 1)
    g2m, c2, _ = _set_pieces(config, fs, d, 2)
    return {"f": fs, "g1": g1m, "c1": c1, "g2": g2m, "c2": c2,
            "r1": config.r1, "r2": config.r2}


def _scan_values(tables, rd0):
    """(g1, g2) arrays over the scan grid for one defender position."""
    rd0 = np.asarray(rd0, dtype=float)
    v1 = _quadratic(tables["g1"], tables["c1"], rd0) - tables["r1"] ** 2
    v2 = _quadratic(tables["g2"], tables["c2"], rd0) - tables["r2"] ** 2
    return v1, v2


def scan_quadratics(config):
    """Both quadratics sampled over the grid after f0.

    Returns (f, g1_values, g2_values) arrays over (f0, ff] for the
    configured defender initial position."""
    tables = _scan_tables(config)
    rd0 = config.x_a0[:3] + config.x_da0[:3]
    v1, v2 = _scan_values(tables, rd0)
    return tables["f"], v1, v2


def attacker_wins(config):
    """Closed-form winning test for the pursuer.

    Scans the grid after f0 for the first anomaly f_a with g1(f_a) <= 0 and
    requires g2 > 0 everywhere up to and including f_a.  Returns
    (wins, f_a); f_a is None when the pursuer never wins."""
    fs, v1, v2 = scan_quadratics(config)
    hits = v1 <= 0.0
    if not np.any(hits):
        return False, None
    i = int(np.argmax(hits))
    if np.all(v2[: i + 1] > 0.0):
        return True, float(fs[i])
    return False, None


def winning_set_membership(config, rd0):
    """Whether the defender initial position rd0 lets the pursuer win."""
    wins, _ = attacker_wins(config.with_defender_position(rd0))
    return wins


def ellipsoid_at(config, f, which):
    """Explicit ellipsoid record of the capture ("S1") or interception
    ("S2") set at anomaly f, for geometric export."""
    if which not in ("S1", "S2"):
        raise ValueError(f'which must be "S1" or "S2", got {which!r}')
    gram, center, own = _pieces_at(config, f, 1 if which == "S1" else 2)
    radius = config.r1 if which == "S1" else config.r2
    return Ellipsoid(g=gram, center_offset=center, radius=float(radius), m=own)
