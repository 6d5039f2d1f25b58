"""Orbit kinematics and transition-matrix tests."""

import math

import numpy as np
import pytest

from conftest import omega11, omega22
from properties import (
    eccentric_to_true, kepler_bisect, max_rel, phi_inv, plant_matrix, rk4_integrate)
from tadgame.orbital_core import (
    _J,
    _K,
    ReferenceOrbit,
    phi,
    rho,
    secular_l,
    true_to_eccentric,
)

ORBIT = ReferenceOrbit(mu=398603.0, p=10000.0, e=0.1)


def orbit_with(e):
    return ReferenceOrbit(mu=398603.0, p=10000.0, e=e)


class TestReferenceOrbit:
    def test_derived_quantities(self):
        n = math.sqrt(398603.0 / 10000.0**3)
        assert ORBIT.n == pytest.approx(n, rel=1e-15)
        assert ORBIT.beta == pytest.approx(1.0 / n**2, rel=1e-15)

    @pytest.mark.parametrize("bad", [
        dict(mu=0.0, p=10000.0, e=0.1),
        dict(mu=-1.0, p=10000.0, e=0.1),
        dict(mu=398603.0, p=0.0, e=0.1),
        dict(mu=398603.0, p=10000.0, e=-0.01),
        dict(mu=398603.0, p=10000.0, e=0.81),
        dict(mu=math.inf, p=10000.0, e=0.1),
        dict(mu=398603.0, p=1e-300, e=0.1),     # p^3 underflows to 0
        dict(mu=398603.0, p=1e300, e=0.1),      # p^3 overflows
        dict(mu=1e-320, p=10000.0, e=0.1),      # n underflows to 0
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            ReferenceOrbit(**bad)

    def test_eccentricity_endpoints_allowed(self):
        orbit_with(0.0)
        orbit_with(0.8)


class TestRho:
    def test_periapsis(self):
        assert rho(ORBIT, 0.0) == pytest.approx(1.1, abs=1e-15)

    def test_circular(self):
        for f in (0.0, 1.3, -2.0, 7.5):
            assert rho(orbit_with(0.0), f) == 1.0

    def test_apoapsis(self):
        assert rho(ORBIT, math.pi) == pytest.approx(0.9, abs=1e-15)


class TestAnomalyConversion:
    def test_periapsis_fixed_point(self):
        assert true_to_eccentric(ORBIT, 0.0) == 0.0
        assert eccentric_to_true(ORBIT, 0.0) == 0.0

    def test_apoapsis(self):
        assert true_to_eccentric(ORBIT, math.pi) == pytest.approx(math.pi, abs=1e-12)

    def test_against_bisection(self):
        # independent solve of the geometric relation
        want = kepler_bisect(0.1, math.pi / 2.0)
        assert true_to_eccentric(ORBIT, math.pi / 2.0) == pytest.approx(want, abs=1e-12)

    def test_round_trip_single(self):
        f = 2.7
        assert eccentric_to_true(ORBIT, true_to_eccentric(ORBIT, f)) == pytest.approx(f, abs=1e-12)

    def test_geometric_identities(self):
        e = 0.3
        orb = orbit_with(e)
        E = 1.0
        f = eccentric_to_true(orb, E)
        den = 1.0 - e * math.cos(E)
        assert math.sin(f) == pytest.approx(math.sqrt(1 - e * e) * math.sin(E) / den, abs=1e-14)
        assert math.cos(f) == pytest.approx((math.cos(E) - e) / den, abs=1e-14)

    def test_round_trip_multi_revolution(self):
        # continuation must hold across many revolutions for every
        # supported eccentricity
        fs = np.linspace(0.0, 6.0 * math.pi, 50)
        for e in np.arange(0.0, 0.81, 0.1):
            orb = orbit_with(float(e))
            for f in fs:
                back = eccentric_to_true(orb, true_to_eccentric(orb, float(f)))
                assert abs(back - f) < 1e-12

    def test_branch_stays_near_anomaly(self):
        for f in (-7.0, -1.0, 2.0, 9.0, 20.0):
            E = true_to_eccentric(orbit_with(0.5), f)
            assert abs(E - f) < math.pi


class TestSecularTerm:
    def test_strictly_increasing(self):
        fs = np.linspace(0.0, 6.0 * math.pi, 4001)
        for e in (0.0, 0.4, 0.8):
            vals = secular_l(orbit_with(e), fs)
            assert np.all(np.diff(vals) > 0.0)

    def test_continuous_at_half_revolutions(self):
        # the wrap-corrected branch must not jump where atan2 wraps
        delta = 1e-7
        for e in (0.1, 0.8):
            orb = orbit_with(e)
            for k in range(1, 6):
                fb = k * math.pi
                jump = abs(secular_l(orb, fb + delta) - secular_l(orb, fb - delta))
                assert jump < 1e-4


class TestPhi:
    def test_circular_periapsis_entries(self):
        p = phi(orbit_with(0.0), 0.0)
        assert p[0, 0] == 0.0            # first solution starts at zero
        assert p[3, 0] == 1.0            # with unit slope
        assert p[1, 0] == pytest.approx(2.0, abs=1e-15)   # -2 S() entry
        assert p[1, 3] == 1.0
        assert p[2, 4] == 1.0 and p[2, 5] == 0.0
        assert p[5, 4] == 0.0 and p[5, 5] == 1.0

    def test_inverse_identity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            e = rng.uniform(0.0, 0.8)
            f = rng.uniform(-2.0 * math.pi, 4.0 * math.pi)
            orb = orbit_with(e)
            prod = phi(orb, f) @ phi_inv(orb, f)
            assert np.abs(prod - np.eye(6)).max() < 1e-10

    def test_closed_form_inverse_matches_numerical_inverse(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            orb = orbit_with(rng.uniform(0.0, 0.8))
            f = rng.uniform(0.0, 2.0 * math.pi)
            assert max_rel(phi_inv(orb, f), np.linalg.inv(phi(orb, f))) < 1e-8

    @pytest.mark.parametrize("e", [0.0, 0.3, 0.8])
    def test_plant_preserves_symplectic_form(self, e):
        # A^T J + J A = 0 holds exactly: J scales the plant's entries by
        # +-1 and +-2 only, so every term is exact and they cancel in pairs
        for f in (-7.0, -1.0, 0.0, 0.4, 2.5, math.pi, 13.0):
            a = plant_matrix(e, f)
            assert np.array_equal(a.T @ _J + _J @ a, np.zeros((6, 6)))

    def test_symplectic_identity(self):
        # phi^T J phi = K, the identity that phi_inv = -K phi^T J rests on
        fs = np.linspace(-2.0 * math.pi, 20.0 * math.pi, 203)
        for e in np.linspace(0.0, 0.8, 17):
            p = phi(orbit_with(float(e)), fs)
            scale = np.abs(p).max(axis=(-2, -1)) ** 2
            residual = np.abs(np.swapaxes(p, -1, -2) @ _J @ p - _K).max(axis=(-2, -1))
            assert np.all(residual <= 1e-14 * scale)

    def test_finite_at_circular_limit(self):
        fs = np.linspace(0.0, 4.0 * math.pi, 801)
        orb = orbit_with(0.0)
        for f in fs:
            assert np.all(np.isfinite(phi(orb, float(f))))
            assert np.all(np.isfinite(phi_inv(orb, float(f))))

    def test_nonsingular(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            orb = orbit_with(rng.uniform(0.0, 0.8))
            d = np.linalg.det(phi(orb, rng.uniform(0.0, 2 * math.pi)))
            assert abs(d) > 1e-10


class TestOmega11:
    def test_identity_at_equal_anomalies(self):
        assert np.array_equal(omega11(ORBIT, 1.7, 1.7), np.eye(6))

    def test_semigroup(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            orb = orbit_with(rng.uniform(0.0, 0.8))
            f1 = rng.uniform(0.0, 2 * math.pi)
            f3 = f1 + rng.uniform(-4.0 * math.pi, 4.0 * math.pi)
            f2 = 0.5 * (f1 + f3) + rng.uniform(-1.0, 1.0)
            lhs = omega11(orb, f3, f2) @ omega11(orb, f2, f1)
            assert np.abs(lhs - omega11(orb, f3, f1)).max() < 1e-9

    def test_column_propagation_against_rk4(self):
        orb = ORBIT
        f1, f2 = 0.4, 2.9
        rng = np.random.default_rng(22)
        field = lambda f, y: plant_matrix(orb.e, f) @ y
        for v in [np.eye(6)[0], np.eye(6)[4], rng.standard_normal(6)]:
            want = rk4_integrate(field, v, f1, f2, math.pi / 1e4)
            got = omega11(orb, f2, f1) @ v
            assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-8

    def test_full_revolution_against_rk4(self):
        field = lambda f, y: plant_matrix(ORBIT.e, f) @ y
        want = rk4_integrate(field, np.eye(6), 0.0, 2.0 * math.pi, math.pi / 1e4)
        assert max_rel(omega11(ORBIT, 2.0 * math.pi, 0.0), want) < 1e-8


class TestOmega22:
    def test_identity_at_equal_anomalies(self):
        assert np.array_equal(omega22(ORBIT, -0.3, -0.3), np.eye(6))

    def test_adjoint_duality(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            orb = orbit_with(rng.uniform(0.0, 0.8))
            f1 = rng.uniform(0.0, 2 * math.pi)
            f2 = f1 + rng.uniform(-2 * math.pi, 2 * math.pi)
            prod = omega22(orb, f2, f1).T @ omega11(orb, f2, f1)
            assert np.abs(prod - np.eye(6)).max() < 1e-9

    def test_costate_propagation_against_rk4(self):
        field = lambda f, lam: -plant_matrix(ORBIT.e, f).T @ lam
        rng = np.random.default_rng(32)
        lam0 = rng.standard_normal(6)
        want = rk4_integrate(field, lam0, 0.2, 3.1, math.pi / 1e4)
        got = omega22(ORBIT, 3.1, 0.2) @ lam0
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-8
