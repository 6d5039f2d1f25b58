"""Shared oracle helpers for the test suite.

Everything here is written independently of the package internals: a fresh
transcription of the plant matrix and coupling blocks, a plain RK4
integrator, a bisection Kepler solver, the eccentric-to-true anomaly
conversion (which only the tests need), and frozen high-precision
reference values generated with symbolic math.  Tests compare package
output against these so that a transcription slip in the package cannot
hide behind the package's own code.
"""

import math

import numpy as np


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
