"""Closed-form solution of the differential Riccati equation that generates
the feedback strategies of the pursuit game.

The control-weighted Gramian of the relative dynamics has an antiderivative
in eccentric anomaly, C_hat(E).  From it the coupling integral C1, the
scaled blocks V1/V2 and the 12x12 transition blocks U11/U12/U22 follow
(U21 vanishes because the costates evolve autonomously), and the Riccati
solution P(f) is a single linear solve per query anomaly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .orbital_core import omega11, omega22, phi, true_to_eccentric

# condition estimate past which a matrix inverted by the closed form counts
# as singular, in riccati and in winning alike
_SINGULAR_COND = 1e14


class SingularFactor(RuntimeError):
    """The 12x12 factor inverted by riccati_p is numerically singular."""

    def __init__(self, message, f=None, cond=None):
        super().__init__(message)
        self.f = f
        self.cond = cond


def _raise_if_singular(mats, f, error, what):
    """Raise error(message, f=, cond=) at the first anomaly where a matrix
    of the stack mats is singular or its condition estimate is not finite;
    f is the scalar or grid anomaly the stack was built at."""
    cond = np.linalg.cond(mats)
    bad = (cond > _SINGULAR_COND) | ~np.isfinite(cond)
    if np.any(bad):
        idx = int(np.argmax(bad))
        f_bad = float(np.broadcast_to(np.asarray(f, dtype=float), np.shape(cond)).ravel()[idx])
        c_bad = float(np.ravel(cond)[idx])
        raise error(
            f"{what} is numerically singular at f={f_bad:.9g} "
            f"(condition estimate {c_bad:.3e})",
            f=f_bad,
            cond=c_bad,
        )


@dataclass(frozen=True)
class WeightSet:
    """Scalar game weights: control penalties r_a, r_d and terminal weights
    s_ar/s_av (pursuer-target) and s_dar/s_dav (defender-pursuer)."""

    r_a: float
    r_d: float
    s_ar: float
    s_av: float
    s_dar: float
    s_dav: float

    def __post_init__(self):
        for name in ("r_a", "r_d", "s_ar", "s_av", "s_dar", "s_dav"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.r_a > 0:
            raise ValueError(f"r_a must be positive, got {self.r_a!r}")
        if not self.r_d > 0:
            raise ValueError(f"r_d must be positive, got {self.r_d!r}")
        for name in ("s_ar", "s_av", "s_dar", "s_dav"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)!r}")

    @property
    def sa(self):
        """Terminal weight matrix of the pursuer-target leg, 6x6."""
        return np.diag([self.s_ar] * 3 + [self.s_av] * 3)

    @property
    def sda(self):
        """Terminal weight matrix of the defender-pursuer leg, 6x6."""
        return np.diag([self.s_dar] * 3 + [self.s_dav] * 3)

    @property
    def s_block(self):
        """Terminal condition diag(Sa, -Sda), 12x12."""
        return np.diag(
            [self.s_ar] * 3 + [self.s_av] * 3 + [-self.s_dar] * 3 + [-self.s_dav] * 3
        )


def c_hat(orbit, E):
    """Antiderivative in eccentric anomaly of the weighted Gramian integrand.

    Only thirteen of the 21 upper-triangle entries are nonzero; the rest
    vanish because the out-of-plane channel decouples.  E must be the
    continued anomaly, the secular E and E^2 terms must not wrap."""
    e = orbit.e
    E = np.asarray(E, dtype=float)
    s = np.sin(E)
    c = np.cos(E)

    e2 = e * e
    e3 = e2 * e
    e4 = e3 * e
    e5 = e4 * e
    e6 = e5 * e
    e7 = e6 * e
    e8 = e7 * e
    e9 = e8 * e
    q = 1.0 - e2
    sq = math.sqrt(q)
    q4 = q * q * q * q
    q5 = q4 * q
    q6 = q5 * q
    q7 = q6 * q
    q9h = q4 * sq
    q11h = q5 * sq
    q15h = q7 * sq

    c2 = c * c
    c3 = c2 * c
    c4 = c3 * c
    c5 = c4 * c
    s2 = s * s
    s4 = s2 * s2
    E2 = E * E
    E3 = E2 * E

    c11 = -1.5 / q15h * (
        -(((-2.0 / 15.0) * e4 - (2.0 / 15.0) * e2 + 2.0 / 15.0) * s + e3 * E) * e3 * c4
        - (8.0 / 3.0) * (((-5.0 / 32.0) * e4 - (1.0 / 16.0) * e2 - 5.0 / 16.0) * s
                         + e * (1.0 + e2) * E) * e2 * c3
        - 2.0 * e * ((7.0 / 9.0 - (4.0 / 45.0) * e6 + (E2 - 44.0 / 45.0) * e4
                      - (7.0 / 15.0) * e2) * s - 6.5 * e3 * E - 4.0 * e * E) * c2
        + ((1.0 - (49.0 / 24.0) * e6 + (3.0 * E2 - 187.0 / 12.0) * e4
            - (85.0 / 12.0) * e2) * s - 8.0 * e * (1.0 + e4) * E) * c
        + ((16.0 / 45.0) * e7 + (-4.0 * E2 + 1016.0 / 45.0) * e5
           + (126.0 / 5.0 + 6.0 * E2) * e3 + (128.0 / 9.0) * e) * s
        + (-5.0 / 3.0 - (49.0 / 24.0) * e6 + (E2 - 251.0 / 12.0) * e4
           + (-63.0 / 4.0 - 2.0 * E2) * e2) * E
    )
    c12 = 1.0 / (60.0 * q6) * (
        -12.0 * e3 * c5 + (-15.0 * e6 + 45.0 * e4 + 75.0 * e2) * c4
        + (-40.0 * e5 - 100.0 * e3 - 140.0 * e) * c3
        + (-60.0 * e3 * (e2 - 2.0) * E * s + 150.0 * e4 + 150.0 * e2 + 90.0) * c2
        + ((90.0 * e4 - 360.0 * e2) * E * s - 120.0 * e5 + 240.0 * e3 + 300.0 * e) * c
        + 45.0 * e * ((-e3 + 4.0 * e) * s2
                      - (8.0 / 3.0) * (e4 - 3.5 * e2 - 3.0) * E * s
                      + e * (e2 - 6.0) * E2)
    )
    c13 = 1.0 / (60.0 * q6) * (
        -12.0 * e4 * c5 + (30.0 * e5 + 75.0 * e3) * c4
        + (-100.0 * e4 - 180.0 * e2) * c3
        + (60.0 * e4 * E * s + 180.0 * e3 + 210.0 * e) * c2
        + (-270.0 * e3 * E * s + 120.0 * e4 + 420.0 * e2 - 120.0) * c
        + 135.0 * e3 * s2 + (120.0 * e4 + 540.0 * e2) * E * s
        - (135.0 * e3 + 90.0 * e) * E2
    )
    c14 = -1.5 / q15h * (
        (((-2.0 / 15.0) * e4 + (4.0 / 15.0) * e6) * s - e5 * E) * c4
        + (4.0 / 3.0) * e2 * ((-0.25 * e5 + (3.0 / 16.0) * e3 + (9.0 / 8.0) * e) * s
                              + (e4 - 4.0 * e2 - 1.0) * E) * c3
        - 2.0 * e * ((e7 / 9.0 - (8.0 / 45.0) * e5 + (E2 - 86.0 / 45.0) * e3
                      + (11.0 / 9.0) * e) * s
                     + 2.0 * (e4 - 5.25 * e2 - 1.0) * E) * c2
        + (((11.0 / 6.0) * e7 - (13.0 / 8.0) * e5 + (3.0 * E2 - 275.0 / 12.0) * e3
            - e) * s - 4.0 * (1.0 + e2) ** 2 * E) * c
        + (16.0 / 3.0 - (4.0 / 9.0) * e8 - (298.0 / 45.0) * e6
           + (1304.0 / 45.0 - 4.0 * E2) * e4 + (6.0 * E2 + 316.0 / 9.0) * e2) * s
        + e * E * ((11.0 / 6.0) * e6 + (41.0 / 24.0) * e4 + (E2 - 129.0 / 4.0) * e2
                   - 2.0 * E2 - 35.0 / 3.0)
    )
    c22 = 1.0 / (2.0 * q11h) * (
        (-0.4 * e3 * c4 + 2.5 * e2 * c3
         - (2.0 / 3.0) * e * (e6 - 5.0 * e4 + 7.8 * e2 + 7.0) * c2
         + (e6 - 9.0 * e4 + 18.75 * e2 + 3.0) * c
         - (4.0 / 3.0) * e7 + (26.0 / 3.0) * e5 - 4.4 * e3 - (82.0 / 3.0) * e) * s
        + (e6 - 11.0 * e4 + 20.75 * e2 + 5.0) * E
    )
    c23 = -1.5 / q11h * (
        ((2.0 / 15.0) * e4 * c4 - (5.0 / 6.0) * e3 * c3
         + (-(2.0 / 9.0) * e6 + (28.0 / 45.0) * e4 + 2.0 * e2) * c2
         + (e5 - 3.25 * e3 - (7.0 / 3.0) * e) * c
         - (4.0 / 9.0) * e6 - (34.0 / 45.0) * e4 + 8.0 * e2 + 4.0 / 3.0) * s
        + e * (e4 - (31.0 / 12.0) * e2 - 11.0 / 3.0) * E
    )
    c24 = 1.0 / (60.0 * q6) * (
        -12.0 * e4 * c5 + (-30.0 * e5 + 135.0 * e3) * c4
        + (40.0 * e6 - 100.0 * e4 - 220.0 * e2) * c3
        + (-60.0 * e2 * (e2 - 2.0) * E * s - 120.0 * e5 + 465.0 * e3 - 90.0 * e) * c2
        + ((90.0 * e3 - 360.0 * e) * E * s - 60.0 * e2 + 480.0) * c
        - 120.0 * (e4 - 3.5 * e2 - 3.0) * E * s
        + 45.0 * e * ((E2 - 1.0) * e2 - 6.0 * E2 + 4.0)
    )
    c33 = 1.0 / (120.0 * q11h) * (
        (-24.0 * e5 * c4 + 150.0 * e4 * c3 + (-32.0 * e5 - 400.0 * e3) * c2
         + (225.0 * e4 + 600.0 * e2) * c - 64.0 * e5 - 800.0 * e3 - 600.0 * e) * s
        + (225.0 * e4 + 600.0 * e2 + 120.0) * E
    )
    c34 = 1.0 / (60.0 * q6) * (
        -12.0 * e5 * c5 + (-15.0 * e6 + 120.0 * e4) * c4
        + (60.0 * e5 - 340.0 * e3) * c3
        + (60.0 * e3 * E * s - 90.0 * e4 + 345.0 * e2) * c2
        + (-270.0 * e2 * E * s + 180.0 * e3 + 240.0 * e) * c
        + (120.0 * e3 + 540.0 * e) * E * s + (-135.0 * E2 + 135.0) * e2 - 90.0 * E2
    )
    c44 = 1.0 / q15h * (
        (3.0 - 1.5 * e2) * E3
        + 3.0 * e * (e2 * c2 + 2.0 * e2 - 1.5 * e * c - 3.0) * E2 * s
        + (1.75 * e8 - 10.875 * e6 - 4.0 * e5 * c3 + 1.5 * e4 * s4
           + 15.0 * e4 * c2 - (105.0 / 16.0) * e4 + 12.0 * e3 * c3
           - 43.5 * e2 * c2 + 70.75 * e2 + 24.0 * e * c + 4.0) * E
        + (-(1.0 / 3.0) * e9 * c2 - (2.0 / 3.0) * e9 - 0.5 * e8 * c3 + 1.75 * e8 * c
           - 0.2 * e7 * s4 + 3.0 * e7 * c2 + 3.75 * e6 * c3 - 13.875 * e6 * c
           - (28.0 / 3.0) * e5 * c2 + (103.0 / 3.0) * e5 - 5.375 * e4 * c3
           + (287.0 / 16.0) * e4 * c + 4.0 * e3 * c2 - 79.0 * e3
           + 29.75 * e2 * c - 48.0 * e) * s
    )
    c55 = 0.375 / q9h * (
        ((8.0 / 15.0) * e3 * c4 - 2.0 * e2 * c3
         + (-(8.0 / 45.0) * e3 + (8.0 / 3.0) * e) * c2
         + (e2 - 4.0 / 3.0) * c - (16.0 / 45.0) * e3 - (8.0 / 3.0) * e) * s
        + (e2 + 4.0 / 3.0) * E
    )
    c56 = c / (4.0 * q5) * (
        -0.8 * e3 * c4 + (e4 + 3.0 * e2) * c3 + (-4.0 * e3 - 4.0 * e) * c2
        + (6.0 * e2 + 2.0) * c - 4.0 * e
    )
    c66 = 2.25 / q11h * (
        (-(4.0 / 45.0) * e3 * c4 + ((2.0 / 9.0) * e4 + (1.0 / 3.0) * e2) * c3
         + (-(4.0 / 27.0) * e5 - (136.0 / 135.0) * e3 - (4.0 / 9.0) * e) * c2
         + (e4 + (11.0 / 6.0) * e2 + 2.0 / 9.0) * c
         - (8.0 / 27.0) * e5 - (452.0 / 135.0) * e3 - (16.0 / 9.0) * e) * s
        + (e4 + (41.0 / 18.0) * e2 + 2.0 / 9.0) * E
    )

    out = np.zeros(E.shape + (6, 6))
    upper = {
        (0, 0): c11, (0, 1): c12, (0, 2): c13, (0, 3): c14,
        (1, 1): c22, (1, 2): c23, (1, 3): c24,
        (2, 2): c33, (2, 3): c34,
        (3, 3): c44,
        (4, 4): c55, (4, 5): c56,
        (5, 5): c66,
    }
    for (i, j), value in upper.items():
        out[..., i, j] = value
        if i != j:
            out[..., j, i] = value
    return out


def c1(orbit, f2, f1):
    """Coupling integral C1(f2, f1) = phi(f2) (C_hat(E2) - C_hat(E1)) phi(f1)^T."""
    e2 = true_to_eccentric(orbit, f2)
    e1 = true_to_eccentric(orbit, f1)
    diff = c_hat(orbit, e2) - c_hat(orbit, e1)
    right = np.swapaxes(phi(orbit, f1), -1, -2)
    return phi(orbit, f2) @ diff @ right


def v_matrices(orbit, weights, f2, f1):
    """Control-weighted coupling blocks (V1, V2)."""
    base = c1(orbit, f2, f1) / orbit.n**4
    v1 = base / weights.r_a
    v2 = (1.0 / weights.r_d - 1.0 / weights.r_a) * base
    return v1, v2


def _u_blocks_arrays(orbit, weights, f2, f1):
    """Transition blocks (U11, U12, U22) of the coupled state/costate system
    from f1 to f2 as raw (..., 12, 12) stacks, broadcasting f2 against f1."""
    o11 = omega11(orbit, f2, f1)
    o22 = omega22(orbit, f2, f1)
    v1, v2 = v_matrices(orbit, weights, f2, f1)
    shape = np.broadcast_shapes(np.shape(f2), np.shape(f1))
    u11 = np.zeros(shape + (12, 12))
    u11[..., 0:6, 0:6] = o11
    u11[..., 6:12, 6:12] = o11
    u22 = np.zeros(shape + (12, 12))
    u22[..., 0:6, 0:6] = o22
    u22[..., 6:12, 6:12] = o22
    u12 = np.zeros(shape + (12, 12))
    u12[..., 0:6, 0:6] = -v1
    u12[..., 0:6, 6:12] = v1
    u12[..., 6:12, 0:6] = v1
    u12[..., 6:12, 6:12] = v2
    return u11, u12, u22


def _riccati_p_arrays(orbit, weights, f, ff):
    """P(f) for a scalar or array anomaly f; raises SingularFactor at the
    first anomaly where the factor U22 - S U12 is singular."""
    u11, u12, u22 = _u_blocks_arrays(orbit, weights, ff, f)
    s = weights.s_block
    factor = u22 - s @ u12
    _raise_if_singular(factor, f, SingularFactor, "factor U22 - S U12")
    return np.linalg.solve(factor, s @ u11)


def riccati_p(orbit, weights, f, ff):
    """Closed-form Riccati solution P(f), a 12x12 array, for the horizon
    ending at ff.

    At f = ff the blocks collapse to identity/zero and P equals
    diag(Sa, -Sda) exactly."""
    if f > ff:
        raise ValueError(f"query anomaly f={f!r} lies beyond the horizon ff={ff!r}")
    return _riccati_p_arrays(orbit, weights, float(f), float(ff))
