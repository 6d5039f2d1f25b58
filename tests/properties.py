"""Shared oracle helpers for the test suite.

Everything here is written independently of the package internals: a fresh
transcription of the plant matrix and coupling blocks, a plain RK4
integrator, a bisection Kepler solver, the eccentric-to-true anomaly
conversion and the inverse of phi (which only the tests need), and frozen
high-precision reference values generated with symbolic math.  Tests
compare package output against these so that a transcription slip in the
package cannot hide behind the package's own code.
"""

import math

import numpy as np

from tadgame.orbital_core import phi


def plant_matrix(e, f):
    """Scaled relative-motion plant in the (x, y, z, x', y', z') ordering."""
    r = 1.0 + e * math.cos(f)
    a = np.zeros((6, 6))
    a[0, 3] = a[1, 4] = a[2, 5] = 1.0
    a[3, 0] = 3.0 / r
    a[3, 4] = 2.0
    a[4, 3] = -2.0
    a[5, 2] = -1.0
    return a


def coupling_blocks(e, f, beta, r_a, r_d):
    """Control coupling blocks (G, Gv) of the joint state/costate system."""
    r = 1.0 + e * math.cos(f)
    base = beta**2 / r**6
    g = np.zeros((6, 6))
    g[3:, 3:] = np.eye(3) * (base / r_a)
    gv = np.zeros((6, 6))
    gv[3:, 3:] = np.eye(3) * (base * (1.0 / r_d - 1.0 / r_a))
    return g, gv


def coupled_system_matrix(e, f, beta, r_a, r_d):
    """24x24 block matrix of the joint state/costate linear system."""
    a = plant_matrix(e, f)
    g, gv = coupling_blocks(e, f, beta, r_a, r_d)
    w = np.zeros((24, 24))
    w[0:6, 0:6] = a
    w[6:12, 6:12] = a
    w[0:6, 12:18] = -g
    w[0:6, 18:24] = g
    w[6:12, 12:18] = g
    w[6:12, 18:24] = gv
    w[12:18, 12:18] = -a.T
    w[18:24, 18:24] = -a.T
    return w


def riccati_rhs(e, f, beta, r_a, r_d, p):
    """Right-hand side of the 12x12 feedback-gain matrix ODE."""
    a = plant_matrix(e, f)
    g, gv = coupling_blocks(e, f, beta, r_a, r_d)
    w11 = np.zeros((12, 12))
    w11[0:6, 0:6] = a
    w11[6:12, 6:12] = a
    w12 = np.zeros((12, 12))
    w12[0:6, 0:6] = -g
    w12[0:6, 6:12] = g
    w12[6:12, 0:6] = g
    w12[6:12, 6:12] = gv
    w22 = np.zeros((12, 12))
    w22[0:6, 0:6] = -a.T
    w22[6:12, 6:12] = -a.T
    return w22 @ p - p @ w11 - p @ w12 @ p


def feedback_controls(e, f, beta, r_a, r_d, p, x_a, x_da):
    """Feedback form of the saddle-point strategies at one anomaly f:
    u_a = -(beta / rho^3 r_a) [(P11 - P21) x_a + (P12 - P22) x_da]_v and
    u_d = (beta / rho^3 r_d) [P21 x_a + P22 x_da]_v, from the 12x12 gain p."""
    scale = beta / (1.0 + e * math.cos(f)) ** 3
    p11, p12 = p[0:6, 0:6], p[0:6, 6:12]
    p21, p22 = p[6:12, 0:6], p[6:12, 6:12]
    grad_a = (p11 - p21) @ x_a + (p12 - p22) @ x_da
    grad_d = p21 @ x_a + p22 @ x_da
    return -scale / r_a * grad_a[3:6], scale / r_d * grad_d[3:6]


def feedback_along(traj, gain, e, beta, r_a, r_d, nodes):
    """feedback_controls at the given nodes of a trajectory, with gain(f)
    returning the 12x12 P(f); arrays (len(nodes), 3) for u_a and u_d."""
    pairs = [
        feedback_controls(e, traj.grid[k], beta, r_a, r_d, gain(traj.grid[k]),
                          traj.x_a[k], traj.x_da[k])
        for k in nodes
    ]
    return np.array([u for u, _ in pairs]), np.array([u for _, u in pairs])


def rk4_integrate(field, y0, f1, f2, step):
    """Fixed-step classical RK4 from f1 to f2 over an ndarray state."""
    y = np.array(y0, dtype=float)
    n = max(1, int(round(abs(f2 - f1) / step)))
    h = (f2 - f1) / n
    f = f1
    for _ in range(n):
        k1 = field(f, y)
        k2 = field(f + h / 2.0, y + h / 2.0 * k1)
        k3 = field(f + h / 2.0, y + h / 2.0 * k2)
        k4 = field(f + h, y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        f += h
    return y


def kepler_bisect(e, f):
    """Eccentric anomaly on (0, pi) from the geometric relations, by
    bisection against the recovered true anomaly.  Valid for f in (0, pi)."""
    lo, hi = 0.0, math.pi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        den = 1.0 - e * math.cos(mid)
        sf = math.sqrt(1.0 - e * e) * math.sin(mid) / den
        cf = (math.cos(mid) - e) / den
        if math.atan2(sf, cf) < f:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def eccentric_to_true(orbit, E):
    """Inverse of orbital_core.true_to_eccentric on the same branch, which
    keeps f - E inside (-pi, pi)."""
    e = orbit.e
    E = np.asarray(E, dtype=float)
    den = 1.0 - e * np.cos(E)
    wrapped = np.arctan2(np.sqrt(1.0 - e * e) * np.sin(E) / den, (np.cos(E) - e) / den)
    out = wrapped + E - np.arctan2(np.sin(E), np.cos(E))
    return out if out.ndim else float(out)


def phi_inv(orbit, f):
    """Inverse of orbital_core.phi from the symplectic identity, not a
    numerical inversion: the plant keeps the skew form J (A^T J + J A = 0
    for plant_matrix), phi(0) makes phi^T J phi = K, so phi^-1 = -K phi^T J."""
    j = np.zeros((6, 6))
    j[0, 1] = -2.0
    j[0, 3] = j[1, 4] = j[2, 5] = 1.0
    j -= j.T
    k = np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]])
    return -k @ np.swapaxes(phi(orbit, f), -1, -2) @ j


def c_hat_closed_form(orbit, E):
    """Antiderivative in eccentric anomaly of the weighted Gramian integrand,
    entry by entry in closed form: the oracle for riccati.c_hat, which
    evaluates the same polynomials as one basis product.

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


def max_rel(got, want):
    """Max-abs relative deviation between two arrays."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = np.abs(want).max()
    if scale == 0.0:
        return np.abs(got).max()
    return np.abs(got - want).max() / scale


def rel_scalar(got, want):
    return abs(got - want) / abs(want)


# Upper-triangle positions of the 13 structurally nonzero entries of the
# symmetric antiderivative matrix, in the order used by FROZEN_C rows.
C_INDEX = [
    (0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3),
    (2, 2), (2, 3), (3, 3), (4, 4), (4, 5), (5, 5),
]

# 20-digit reference values computed with symbolic math from the closed-form
# antiderivative entries, frozen here as decimal literals.
FROZEN_C = {
    (0.1, 0.5): [
        0.33261771444911813355, 1.6935056607569540571, -1.5488395843387790710,
        -0.67384884636328283614, 1.3026476563627259667, -0.63495295071399467095,
        8.9204824067537403320, 0.31927574223819691899, 0.25804281124055025181,
        1.3946430748583522430, 0.030973185028316281619, 0.25759030170717141845,
        0.28830255720988063737,
    ],
    (0.3, 2.0): [
        2.0537290061149840892, 4.1190963982549016814, 0.67797143659554418367,
        -3.7513688530812664395, 3.3681798854112043517, 0.36694631900502361258,
        9.9786616148361281794, 2.0336320047609594510, -3.0258940575574998233,
        23.582221600038471292, 1.5583187900735674193, 0.41749578346130507040,
        0.47531321468739203168,
    ],
    (0.0, 1.0): [
        1.8180269298807387285, 0.43788987258964320975, -1.0806046117362794348,
        -3.4899540432543337488, 3.1819730701192612715, -1.6829419696157930133,
        9.3712443557924967791, 1.0, -1.5, 7.0,
        0.27267564329357957615, 0.14596329086321440325, 0.72732435670642042385,
    ],
    # exact rationals at the circular-orbit origin
    (0.0, 0.0): [
        0.0, 1.5, -2.0, 0.0, 0.0, 0.0, 8.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0,
    ],
}
