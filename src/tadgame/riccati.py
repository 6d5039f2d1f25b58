"""Closed-form solution of the differential Riccati equation that generates
the feedback strategies of the pursuit game.

The control-weighted Gramian of the relative dynamics has an antiderivative
in eccentric anomaly, C_hat(E).  One table evaluation gives phi and C_hat at
an anomaly array; phi^-1 = -K phi^T J follows from the plant's constant
symplectic form (orbital_core), so every transition block of the coupled
state/costate system is a 6x6 product of table records and the constants J
and K (U11 = I2 x Omega11, U12 = M x C1, U22 = I2 x Omega22; U21 vanishes
because the costates evolve autonomously), and the Riccati solution P(f) is
F^-1 S U11 with the factor F = U22 - S U12.  The 12x12 F is solved with at
f0 only, where its condition number is checked.  On the rest of the grid the
check works in the ff frame: C1 = W Omega22 with
W = phi(ff) (C_hat(ff) - C_hat(f)) phi(ff)^T, so F = (I - S (M x W))
(I2 x Omega22), and det Omega22 = 1 gives det F = det(I - S (M x W)).  That
factor is block-diagonal by channel, an 8x8 in-plane and a 4x4
out-of-plane block.  When r_d <= r_a, each block's det is >= 1 on all of
[f0, ff] (the proof is in _riccati_p_arrays), so no conjugate point exists
and the check is the kappa_1 gate at f0 alone.  Otherwise it reads the sign
of each block's det record by record, from ff back to f0.  The package
reads P(f0) through game._solve alone, so that check runs wherever P does.
"""

import math
from dataclasses import dataclass

import numpy as np

from .orbital_core import _J, _K, phi, true_to_eccentric

# condition number kappa_1 past which a matrix the closed form solves with
# counts as singular, in riccati and in winning alike
_SINGULAR_COND = 1e14


class _Singular(RuntimeError):
    """A matrix of the closed form failed the singularity policy: f is the
    anomaly where it failed and cond its condition number kappa_1."""

    def __init__(self, message, f=None, cond=None):
        super().__init__(message)
        self.f = f
        self.cond = cond


class SingularFactor(_Singular):
    """The factor F that P is solved with is numerically singular at f0
    (kappa_1 of the 12x12 F), or, when r_d > r_a, the factor check,
    sweeping back from ff, meets a record f where a channel block's
    log|det| is not finite (cond = inf) or a channel det is negative, a
    conjugate point in (f, next record] (cond is kappa_1 of the 12x12 F at
    f).  r_d <= r_a proves det F >= 1 on [f0, ff] (_riccati_p_arrays), so
    such a scenario raises at f0 alone."""


def _require_conditioned(mat, f, error, what):
    """Condition number kappa_1 = ||A||_1 ||A^-1||_1, as a float, of the
    square matrix A built at the anomaly f: the one singularity policy.
    Raises error(message, f=, cond=) unless kappa_1 is at most
    _SINGULAR_COND.  np.linalg.cond gives inf for an exactly singular
    matrix and nan for one with NaN entries, reported as inf."""
    cond = float(np.linalg.cond(mat, 1))
    if not cond <= _SINGULAR_COND:
        cond = math.inf if math.isnan(cond) else cond
        raise error(f"{what} is numerically singular at f={f:.9g} "
                    f"(condition number {cond:.3e})", f=float(f), cond=cond)
    return cond


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


# one table record per anomaly: f with phi(f) and C_hat(E(f)); phi^-1 is
# not stored, as -K phi^T J gives it exactly
_TABLE = np.dtype([("f", float), ("phi", float, (6, 6)), ("chat", float, (6, 6))])


def _tables(orbit, f):
    """Table records at the anomaly f (scalar or array): the values every
    transition block is built from.  t[k] is the record of node k."""
    f = np.asarray(f, dtype=float)
    t = np.empty(f.shape, _TABLE)
    t["f"] = f
    t["phi"] = phi(orbit, f)
    t["chat"] = c_hat(orbit, true_to_eccentric(orbit, f))
    return t


def _identity_at_equal(block, t2, t1):
    """The transition block, exactly I where t2 and t1 share an anomaly."""
    eq = np.asarray(t2["f"] == t1["f"])[..., None, None]
    return np.where(eq, np.eye(block.shape[-1]), block) if np.any(eq) else block


def omega11(t2, t1):
    """State transition matrix phi(f2) phi^-1(f1) = -phi(f2) K phi(f1)^T J."""
    return _identity_at_equal(t2["phi"] @ (-_K @ np.swapaxes(t1["phi"], -1, -2) @ _J), t2, t1)


def omega22(t2, t1):
    """Costate transition matrix phi^-1(f2)^T phi(f1)^T = -J phi(f2) K phi(f1)^T,
    that is omega11(t2, t1)^-T."""
    return _identity_at_equal(-(_J @ t2["phi"] @ _K) @ np.swapaxes(t1["phi"], -1, -2), t2, t1)


def _u_blocks_arrays(t2, t1):
    """Transition blocks (Omega22, C1) from f1 to f2 of the coupled
    state/costate system, from the tables at f2 and f1 (broadcast), with the
    coupling integral C1 = phi(f2) (C_hat2 - C_hat1) phi(f1)^T.  Then
    U11 = I2 x Omega11 (omega11), U12 = M x C1 with M from _coupling, and
    U22 = I2 x Omega22; the factor is built from the last two."""
    c1 = t2["phi"] @ (t2["chat"] - t1["chat"]) @ np.swapaxes(t1["phi"], -1, -2)
    return omega22(t2, t1), c1


def _coupling(orbit, weights):
    """2x2 weight matrix M of U12 = M x C1, with the 1/n^4 scale folded in."""
    a = 1.0 / weights.r_a
    m = np.array([[-a, a], [a, 1.0 / weights.r_d - a]])
    return m / orbit.n**4


def _factor(orbit, weights, o22, c1, rows=np.arange(6)):
    """The factor F = U22 - S U12 on each player's state rows `rows` (all
    six by default; one channel's in _channel_factors), from Omega22 and C1
    on those rows: F_ij = delta_ij Omega22 - s_i M_ij C1."""
    k = rows.size
    s = np.diag(weights.s_block)[(rows + [[0], [6]]).ravel()]
    m = _coupling(orbit, weights).repeat(k, 0).repeat(k, 1)
    factor = np.tile(c1, (2, 2)) * -(s[:, None] * m)
    factor[..., :k, :k] += o22
    factor[..., k:, k:] += o22
    return factor


# the in-plane and out-of-plane channels: each player's state rows and the
# constants they mix.  phi, C_hat, J and K have no entries between the two,
# so neither has the factor F: it is block-diagonal, an 8x8 in-plane block
# and a 4x4 out-of-plane block on the player-major indices (rows, rows + 6)
_CHANNELS = ((np.array([0, 1, 3, 4]), slice(0, 4)), (np.array([2, 5]), slice(4, 6)))


def _channel_factors(orbit, weights, tf, t):
    """The two channel blocks of G = I - S (M x W), in-plane then
    out-of-plane, at the table records t (any shape) for the horizon ending
    at the record tf, with W(f) = phi(ff) (C_hat(ff) - C_hat(f)) phi(ff)^T
    on the channel's rows.  C1 = W Omega22, so F = G (I2 x Omega22) channel
    by channel; det Omega22 = 1, so det F_c = det G_c.  W needs the one
    phi(ff) and no per-record product, and W(ff) = 0 makes G(ff) = I."""
    blocks = []
    for rows, consts in _CHANNELS:
        phi_f = tf["phi"][rows, consts]
        w = phi_f @ (tf["chat"][consts, consts] - t["chat"][..., consts, consts]) @ phi_f.T
        blocks.append(_factor(orbit, weights, np.eye(rows.size), w, rows))
    return blocks


# grid records per pass of the factor check: the channel blocks and the
# values they are built from live for one chunk only, so a checked run
# peaks at ~1.05 kB per node at every grid size, 1001 nodes included
_CHUNK = 256


def _riccati_p_arrays(orbit, weights, t):
    """P = F^-1 S U11 as a 12x12 array at the first of the table records t
    (a 1-D array in grid order), for the horizon ending at the last.

    P is solved from F P = S U11 with the 12x12 F of _factor, formed at f0
    alone and passed by _require_conditioned first.  When r_d <= r_a that is
    the whole check: det F_c >= 1 on all of [f0, ff], between nodes too.
    Per channel, G_c = I - Rho Sigma (M x W) with Rho = diag(I, -I),
    Sigma = diag(S_a, S_d) >= 0 and W >= 0 for f <= ff (a Gramian:
    dC_hat/df = phi^-1 B B^T phi^-T / rho^6).  With a = 1/r_a, d = 1/r_d and
    k rows per player, Sylvester's identity gives det G_c = (-1)^k det H
    for the symmetric H = Rho - Sigma^1/2 (M x W) Sigma^1/2, whose block
    H11 = I + (a/n^4) S_a^1/2 W S_a^1/2 is >= I.  Its Schur complement, with
    C = S_a^1/2 W S_d^1/2, gives det G_c = det H11 det(I + ((d - a)/n^4)
    S_d^1/2 W S_d^1/2 + (a/n^4)^2 C^T H11^-1 C), and d >= a makes both
    factors >= 1: no conjugate point exists, and a grid check could only
    raise on rounding.  So a scenario with r_d <= r_a raises SingularFactor
    from the kappa_1 gate at f0 alone.  The proof is of existence, not of
    float64 accuracy: where C_hat(ff) - C_hat(f) cancels (e = 0.8 over two
    revolutions, say) the outputs can be inaccurate, and a grid sweep that
    passes does not show that either.

    Otherwise the grid check reads each channel's det F_c = det G_c
    (_channel_factors, one slogdet per block) chunk by chunk from ff back
    to f0, the order in which the Riccati solution is built from
    P(ff) = S, and raises SingularFactor at the first failing record f_k
    from ff, reading no chunk past it: a non-finite log|det| (NaN or inf
    entries, or an exactly singular block) with cond = inf, or a negative
    sign with cond = kappa_1 of the 12x12 F at f_k.  G(ff) = I and f_k+1
    passed, so a negative sign brackets a conjugate point in
    (f_k, f_k+1].  game._solve, the one caller in the package, hands over
    the scenario's whole grid table."""
    what = "factor U22 - S U12"
    fs = t["f"]
    factor_0 = _factor(orbit, weights, *_u_blocks_arrays(t[-1], t[0]))
    _require_conditioned(factor_0, fs[0], SingularFactor, what)
    if weights.r_d > weights.r_a:  # not certified: sweep the grid
        for stop in range(t.size, 0, -_CHUNK):
            start = max(stop - _CHUNK, 0)
            with np.errstate(invalid="ignore"):  # a NaN in a block raises below
                signs, logdets = zip(*map(np.linalg.slogdet,
                                          _channel_factors(orbit, weights, t[-1], t[start:stop])))
            finite = np.all(np.isfinite(logdets), axis=0)
            bad = np.flatnonzero(~finite | (np.minimum(*signs) < 0))
            if bad.size:
                k = start + bad[-1]
                if not finite[bad[-1]]:
                    raise SingularFactor(f"{what} is numerically singular at f={fs[k]:.9g} "
                                         f"(condition number inf)", f=float(fs[k]), cond=math.inf)
                factor_k = _factor(orbit, weights, *_u_blocks_arrays(t[-1], t[k]))
                raise SingularFactor(f"{what} has det <= 0 at f={fs[k]:.9g}: conjugate point in "
                                     f"({fs[k]:.9g}, {fs[k + 1]:.9g}]", f=float(fs[k]),
                                     cond=float(np.linalg.cond(factor_k, 1)))
    u11 = np.zeros((12, 12))
    u11[:6, :6] = u11[6:, 6:] = omega11(t[-1], t[0])
    return np.linalg.solve(factor_0, np.diag(weights.s_block)[:, None] * u11)
