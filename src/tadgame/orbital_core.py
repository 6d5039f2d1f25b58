"""Elliptic reference orbit kinematics and the fundamental matrix of
linearized relative motion in the true-anomaly domain.

States are scaled local-frame coordinates (rho times the physical offsets),
ordered (x, y, z, x', y', z') with primes denoting derivatives with respect
to true anomaly.  Positions carry km, derivatives km/rad.  The matrix
builders accept a scalar anomaly or an array and return matching
(..., 6, 6) stacks.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ReferenceOrbit:
    """Elliptic reference orbit: mu (km^3/s^2), semilatus rectum p (km),
    eccentricity e (dimensionless)."""

    mu: float
    p: float
    e: float

    def __post_init__(self):
        for name in ("mu", "p"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        # the linearized relative-motion model is only trusted at low eccentricity
        if not 0.0 <= self.e <= 0.8:
            raise ValueError(f"e must lie in [0, 0.8], got {self.e!r}")
        # beta = 1/n^2 in (0, inf) also keeps n finite and positive
        try:
            scaled = 0.0 < self.beta < math.inf
        except ArithmeticError:
            scaled = False
        if not scaled:
            raise ValueError(
                f"p={self.p!r} with mu={self.mu!r} gives no finite positive n and beta"
            )

    @property
    def n(self):
        """Rate constant sqrt(mu/p^3), rad/s."""
        return math.sqrt(self.mu / self.p**3)

    @property
    def beta(self):
        """Control scaling 1/n^2, s^2."""
        return 1.0 / (self.n * self.n)


# The plant is Hamiltonian: A(f)^T J + J A(f) = 0 for the skew form J, so
# phi^T J phi is constant in f, and phi(0) makes it K for every e.  Each
# entry of phi^-1 = -K phi^T J is then at most two entries of phi times
# +-1 or +-2.
_J = np.zeros((6, 6))
_J[0, 1] = -2.0
_J[0, 3] = _J[1, 4] = _J[2, 5] = 1.0
_J -= _J.T
_K = np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]])


def rho(orbit, f):
    """1 + e cos f."""
    return 1.0 + orbit.e * np.cos(f)


def _anomaly_terms(orbit, f):
    """sin f, cos f and the continued eccentric anomaly E at the array f:
    the values phi, C_hat and true_to_eccentric share."""
    e = orbit.e
    sf = np.sin(f)
    cf = np.cos(f)
    r = 1.0 + e * cf
    wrapped = np.arctan2(np.sqrt(1.0 - e * e) * sf / r, (cf + e) / r)
    return sf, cf, wrapped + f - np.arctan2(sf, cf)


def true_to_eccentric(orbit, f):
    """Eccentric anomaly on the branch that keeps E - f inside (-pi, pi),
    so multi-revolution anomalies continue instead of wrapping."""
    out = _anomaly_terms(orbit, np.asarray(f, dtype=float))[2]
    return out if out.ndim else float(out)


def _secular(orbit, E, sin_e):
    """Secular term L(f) = (E - e sin E) / (1 - e^2)^(3/2), continued in f."""
    return (E - orbit.e * sin_e) / (1.0 - orbit.e * orbit.e) ** 1.5


def phi(orbit, f):
    """Fundamental matrix of the uncontrolled relative motion at f.

    Columns solve y' = A(f) y in the tilde coordinates; the in-plane part
    mixes the two periodic solutions with the secular one, the out-of-plane
    part is a rotation."""
    sf, cf, E = _anomaly_terms(orbit, np.asarray(f, dtype=float))
    return _phi(orbit, sf, cf, E, np.sin(E))


def _phi(orbit, sf, cf, E, sin_e):
    """phi from sin f, cos f, E and sin E (_anomaly_terms)."""
    e = orbit.e
    q = 1.0 - e * e
    r = 1.0 + e * cf
    lf = _secular(orbit, E, sin_e)
    p1 = r * sf
    p1p = r * cf - e * sf * sf
    s1 = -cf - 0.5 * e * cf * cf
    # dl collects the mixed secular/periodic factor shared by p2, p3
    dl = sf * (2.0 + e * cf) / (r * r) - 3.0 * e * lf
    p2 = e * p1 / q * dl - cf / r
    p3 = -p1 / q * dl - cf * cf / r - cf * cf
    p2p = e * p1p / q * dl + e * sf * cf / (r * r) + sf / r
    s2 = -r * r * dl / (2.0 * q)
    # antiderivative of 2*p3 + 1
    s31 = e * sf * (2.0 + e * cf) / q - 3.0 * r * r * lf / q
    p3p = 2.0 * (p1p * s2 - p2p * s1)
    out = np.zeros(sf.shape + (6, 6))
    out[..., 0, 0] = p1
    out[..., 0, 1] = p2
    out[..., 0, 2] = p3
    out[..., 1, 0] = -2.0 * s1
    out[..., 1, 1] = -2.0 * s2
    out[..., 1, 2] = -s31
    out[..., 1, 3] = 1.0
    out[..., 2, 4] = cf
    out[..., 2, 5] = sf
    out[..., 3, 0] = p1p
    out[..., 3, 1] = p2p
    out[..., 3, 2] = p3p
    out[..., 4, 0] = -2.0 * p1
    out[..., 4, 1] = -2.0 * p2
    out[..., 4, 2] = -2.0 * p3 - 1.0
    out[..., 5, 4] = -sf
    out[..., 5, 5] = cf
    return out
