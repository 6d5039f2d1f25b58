"""Closed-form solution of the differential Riccati equation that generates
the feedback strategies of the pursuit game.

The control-weighted Gramian of the relative dynamics has an antiderivative
in eccentric anomaly, C_hat(E): 24 functions of E times a coefficient
matrix that depends on e alone.  One table evaluation gives phi and C_hat
at an anomaly array; phi^-1 = -K phi^T J follows from the plant's constant
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

# phi and true_to_eccentric are not called here, but perfbench/spans.py
# traces them under these names (tests/test_traced_names.py)
from .orbital_core import _J, _K, _anomaly_terms, _phi, phi, true_to_eccentric

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


# C_hat is linear in 24 functions of the eccentric anomaly,
# E^a sin^b E cos^m E with a <= 3, b <= 1 and m <= 5 once sin^2 E is
# folded into 1 - cos^2 E, with coefficients that depend on e alone.  Their
# labels (s = sin E, c = cos E), in the order _basis builds them:
_BASIS = ("1", "s", "sc", "sc2", "c", "c2", "c3", "c4", "c5", "sc3", "sc4",
          "E", "Es", "Esc", "Esc2", "Ec", "Ec2", "Ec3", "Ec4",
          "E2", "E2s", "E2sc", "E2sc2", "E3")

# the thirteen nonzero upper-triangle entries of C_hat; the other eight
# vanish because the out-of-plane channel decouples.  A line "Cij den h"
# opens entry (i, j), which is the sum of its terms over den q^(h/2),
# q = 1 - e^2; each term line gives a basis label and the integer
# coefficients of its polynomial in e.  The q power stays a prefactor:
# expanded into the polynomials, 1/q^k cancels and loses digits at high e.
# Text, not literals, because every CLI process compiles this module.
_CHAT_TABLE = """
             e^0    e^1    e^2    e^3    e^4    e^5    e^6    e^7    e^8    e^9
C00 240 15
    s          0  -5120      0  -9072      0  -8128      0   -128
    sc      -360      0   2550      0   5610      0    735
    sc2        0    560      0   -336      0   -704      0    -64
    sc3        0      0   -300      0    -60      0   -150
    sc4        0      0      0     48      0    -48      0    -48
    E        600      0   5670      0   7530      0    735
    Ec         0   2880      0      0      0   2880
    Ec2        0      0  -2880      0  -4680
    Ec3        0      0      0    960      0    960
    Ec4        0      0      0      0      0      0    360
    E2s        0      0      0  -2160      0   1440
    E2sc       0      0      0      0  -1080
    E2sc2      0      0      0      0      0    720
    E3         0      0    720      0   -360
C01 60 12
    1          0      0    180      0    -45
    c          0    300      0    240      0   -120
    c2        90      0    -30      0    195
    c3         0   -140      0   -100      0    -40
    c4         0      0     75      0     45      0    -15
    c5         0      0      0    -12
    Es         0    360      0    420      0   -120
    Esc        0      0   -360      0     90
    Esc2       0      0      0    120      0    -60
    E2         0      0   -270      0     45
C02 60 12
    1          0      0      0    135
    c       -120      0    420      0    120
    c2         0    210      0     45
    c3         0      0   -180      0   -100
    c4         0      0      0     75      0     30
    c5         0      0      0      0    -12
    Es         0      0    540      0    120
    Esc        0      0      0   -270
    Esc2       0      0      0      0     60
    E2         0    -90      0   -135
C03 240 15
    s      -1920      0 -12640      0 -10432      0   2384      0    160
    sc         0    360      0   8250      0    585      0   -660
    sc2        0      0    880      0  -1376      0   -128      0     80
    sc3        0      0      0   -540      0    -90      0    120
    sc4        0      0      0      0     48      0    -96
    E          0   4200      0  11610      0   -615      0   -660
    Ec      1440      0   2880      0   1440
    Ec2        0  -1440      0  -7560      0   1440
    Ec3        0      0    480      0   1920      0   -480
    Ec4        0      0      0      0      0    360
    E2s        0      0  -2160      0   1440
    E2sc       0      0      0  -1080
    E2sc2      0      0      0      0    720
    E3         0    720      0   -360
C11 120 11
    s          0  -1640      0   -264      0    520      0    -80
    sc       180      0   1125      0   -540      0     60
    sc2        0   -280      0   -312      0    200      0    -40
    sc3        0      0    150
    sc4        0      0      0    -24
    E        300      0   1245      0   -660      0     60
C12 120 11
    s       -240      0  -1440      0    136      0     80
    sc         0    420      0    585      0   -180
    sc2        0      0   -360      0   -112      0     40
    sc3        0      0      0    150
    sc4        0      0      0      0    -24
    E          0    660      0    465      0   -180
C13 60 12
    1          0    180      0    -45
    c        480      0    -60
    c2         0    -90      0    465      0   -120
    c3         0      0   -220      0   -100      0     40
    c4         0      0      0    135      0    -30
    c5         0      0      0      0    -12
    Es       360      0    420      0   -120
    Esc        0   -360      0     90
    Esc2       0      0    120      0    -60
    E2         0   -270      0     45
C22 120 11
    s          0   -600      0   -800      0    -64
    sc         0      0    600      0    225
    sc2        0      0      0   -400      0    -32
    sc3        0      0      0      0    150
    sc4        0      0      0      0      0    -24
    E        120      0    600      0    225
C23 60 12
    1          0      0    135
    c          0    240      0    180
    c2         0      0    345      0    -90
    c3         0      0      0   -340      0     60
    c4         0      0      0      0    120      0    -15
    c5         0      0      0      0      0    -12
    Es         0    540      0    120
    Esc        0      0   -270
    Esc2       0      0      0     60
    E2       -90      0   -135
C33 240 15
    s          0 -11520      0 -18960      0   8240      0    -48      0   -160
    sc         0      0   7140      0   4305      0  -3330      0    420
    sc2        0      0      0    960      0  -2240      0    816      0    -80
    sc3        0      0      0      0  -1290      0    900      0   -120
    sc4        0      0      0      0      0      0      0    -48
    E        960      0  16980      0  -1215      0  -2610      0    420
    Ec         0   5760
    Ec2        0      0 -10440      0   2880
    Ec3        0      0      0   2880      0   -960
    Ec4        0      0      0      0    360
    E2s        0  -2160      0   1440
    E2sc       0      0  -1080
    E2sc2      0      0      0    720
    E3       720      0   -360
C44 120 9
    s          0   -120      0    -16
    sc       -60      0     45
    sc2        0    120      0     -8
    sc3        0      0    -90
    sc4        0      0      0     24
    E         60      0     45
C45 20 10
    c          0    -20
    c2        10      0     30
    c3         0    -20      0    -20
    c4         0      0     15      0      5
    c5         0      0      0     -4
C55 120 11
    s          0   -480      0   -904      0    -80
    sc        60      0    495      0    270
    sc2        0   -120      0   -272      0    -40
    sc3        0      0     90      0     60
    sc4        0      0      0    -24
    E         60      0    615      0    270
"""


def _chat_polynomials():
    """From _CHAT_TABLE: the (basis, entry, power of e) coefficients, each
    entry's den and q power h/2, and the (entry, 36) 0/1 matrix that spreads
    the entries over the 6x6.  A product with that matrix is exact, so a
    symmetric pair reads one value and a structural zero stays zero."""
    index = {label: b for b, label in enumerate(_BASIS)}
    heads, terms, numbers = [], [], []
    for line in _CHAT_TABLE.splitlines()[2:]:
        label, *values = line.split()
        if label[0] == "C":
            heads.append((6 * int(label[1]) + int(label[2]), 6 * int(label[2]) + int(label[1]),
                          float(values[0]), float(values[1]) / 2.0))
        else:
            terms.append((index[label], len(heads) - 1))
            numbers += values + ["0"] * (10 - len(values))
    poly = np.zeros((len(_BASIS), len(heads), 10))
    poly[tuple(zip(*terms))] = np.array(numbers, dtype=float).reshape(-1, 10)
    upper, lower, den, power = zip(*heads)
    spread = np.zeros((len(heads), 36))
    spread[range(len(heads)), upper] = spread[range(len(heads)), lower] = 1.0
    return poly, np.array(den), np.array(power), spread


_CHAT_POLY, _CHAT_DEN, _CHAT_Q_POWER, _CHAT_SPREAD = _chat_polynomials()


def _chat_coefficients(e):
    """The (24, 13) matrix that maps the basis to C_hat's nonzero entries."""
    return (_CHAT_POLY @ e ** np.arange(10.0)) / (_CHAT_DEN * (1.0 - e * e) ** _CHAT_Q_POWER)


def _basis(E, sin_e, cos_e):
    """The 24 basis functions (_BASIS) at the 1-D E, one per row."""
    b = np.empty((len(_BASIS), E.size))
    b[0] = 1.0
    b[1] = sin_e
    b[4] = cos_e
    for m in range(5, 9):
        np.multiply(b[m - 1], cos_e, out=b[m])
    np.multiply(b[4:6], sin_e, out=b[2:4])
    np.multiply(b[6:8], sin_e, out=b[9:11])
    np.multiply(b[0:8], E, out=b[11:19])
    np.multiply(b[11:15], E, out=b[19:23])
    np.multiply(b[19], E, out=b[23])
    return b


def _chat_into(out, coef, E, sin_e, cos_e):
    """Write C_hat at the 1-D E into out (E.size x 6 x 6, each 6x6
    contiguous, so the reshape is a view): the basis times the coefficients
    coef of _chat_coefficients, spread over the 6x6."""
    np.matmul(_basis(E, sin_e, cos_e).T @ coef, _CHAT_SPREAD, out=out.reshape(-1, 36))


# anomalies per pass of a table or C_hat build: the temporaries (the 24 x
# 1024 basis, phi's terms) live for one chunk, so past the output their
# memory does not grow with the grid, and the products stay small: one
# (10^4 x 24)(24 x 13) product took 7.0 ms under OpenBLAS's threads on a
# shared 2-core host, 0.20 ms in chunks.  Of 256 to 2048, 1024 built the
# tables fastest at N = 10^3 and within 10 % of the best at N = 10^4
_TABLE_CHUNK = 1024


def _chunks(n):
    return (slice(start, start + _TABLE_CHUNK) for start in range(0, n, _TABLE_CHUNK))


def c_hat(orbit, E):
    """Antiderivative in eccentric anomaly of the weighted Gramian integrand.

    Symmetric, with thirteen nonzero upper-triangle entries (_CHAT_TABLE).
    E must be the continued anomaly, the secular E, E^2 and E^3 terms must
    not wrap."""
    E = np.asarray(E, dtype=float)
    out = np.empty(E.shape + (6, 6))
    coef = _chat_coefficients(orbit.e)
    flat, flat_out = E.reshape(-1), out.reshape(-1, 6, 6)
    for chunk in _chunks(flat.size):
        x = flat[chunk]
        _chat_into(flat_out[chunk], coef, x, np.sin(x), np.cos(x))
    return out


# one table record per anomaly: f with phi(f) and C_hat(E(f)); phi^-1 is
# -K phi^T J (orbital_core), so no record needs it
_TABLE = np.dtype([("f", float), ("phi", float, (6, 6)), ("chat", float, (6, 6))])


def _tables(orbit, f):
    """Table records at the anomaly f (scalar or array): the values every
    transition block is built from.  t[k] is the record of node k.  Built
    _TABLE_CHUNK records at a time, from one evaluation of sin f, cos f, E,
    sin E and cos E per record, which phi and C_hat share."""
    f = np.asarray(f, dtype=float)
    t = np.empty(f.shape, _TABLE)
    t["f"] = f
    coef = _chat_coefficients(orbit.e)
    flat = t.reshape(-1)
    for chunk in _chunks(flat.size):
        rec = flat[chunk]
        sin_f, cos_f, E = _anomaly_terms(orbit, rec["f"])
        sin_e = np.sin(E)
        rec["phi"] = _phi(orbit, sin_f, cos_f, E, sin_e)
        _chat_into(rec["chat"], coef, E, sin_e, np.cos(E))
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
# peaks at ~1.03 kB per node at 1001 nodes and ~0.97 kB from 10^4 up
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
