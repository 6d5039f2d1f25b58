"""Antiderivative matrix, coupling integrals, transition blocks, the
singularity policy, and the closed-form feedback-gain solution."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import simpson, solve_ivp

from conftest import (
    c1, conjugate_weights, dense_blocks, kernel_blocks, omega11, reference_config, riccati_p,
)
from properties import (
    C_INDEX,
    FROZEN_C,
    c_hat_closed_form,
    coupled_system_matrix,
    eccentric_to_true,
    max_rel,
    phi_inv,
    rk4_integrate,
    riccati_rhs,
)
from tadgame import riccati
from tadgame.game import propagate_analytical
from tadgame.orbital_core import ReferenceOrbit, phi, rho, true_to_eccentric
from tadgame.riccati import (
    SingularFactor,
    WeightSet,
    _channel_factors,
    _coupling,
    _factor,
    _require_conditioned,
    _tables,
    _u_blocks_arrays,
)
from tadgame.winning import SingularBlock, ellipsoid_at, scan_quadratics

ORBIT = ReferenceOrbit(mu=398603.0, p=10000.0, e=0.1)
WEIGHTS = WeightSet(r_a=5e9, r_d=3e9, s_ar=1.0, s_av=1.0, s_dar=0.001, s_dav=0.001)
# the reference weights with r_a and r_d swapped: r_d > r_a, so the factor
# check sweeps the grid (r_d <= r_a is certified and reads no grid chunk),
# and the sweep passes at every node as it does on the reference grid
UNCERTIFIED = WeightSet(r_a=3e9, r_d=5e9, s_ar=1.0, s_av=1.0, s_dar=0.001, s_dav=0.001)

# index pairs that must vanish identically in the antiderivative matrix
ZERO_PAIRS = [(0, 4), (0, 5), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)]


def integrand_matrix(orb, f):
    """Integrand whose antiderivative C_hat closes in eccentric anomaly."""
    pinv = phi_inv(orb, f)
    bbar = np.zeros((6, 6))
    bbar[3:, 3:] = np.eye(3) / rho(orb, f) ** 6
    return pinv @ bbar @ pinv.T


def orbit_with(e):
    return ReferenceOrbit(mu=398603.0, p=10000.0, e=e)


def v_matrices(orb, w, f2, f1):
    """The coupling blocks (V1, V2) = (U12[0:6, 6:12], U12[6:12, 6:12])."""
    u12 = dense_blocks(orb, w, f2, f1)[1]
    return u12[0:6, 6:12], u12[6:12, 6:12]


def factor_cond(orb, w, grid, f):
    """kappa_1 of the 12x12 factor at the node f of grid, for the horizon
    ending at its last node: the cond a SingularFactor reports there."""
    t = _tables(orb, grid)
    k = np.flatnonzero(t["f"] == f)[0]
    return np.linalg.cond(_factor(orb, w, *_u_blocks_arrays(t[-1], t[k])), 1)


class TestWeightSet:
    def test_terminal_blocks(self):
        w = WEIGHTS
        assert np.array_equal(w.sa, np.diag([1.0] * 3 + [1.0] * 3))
        assert np.array_equal(w.sda, np.diag([0.001] * 3 + [0.001] * 3))
        s = w.s_block
        assert np.array_equal(s[:6, :6], w.sa)
        assert np.array_equal(s[6:, 6:], -w.sda)
        assert np.all(s[:6, 6:] == 0.0) and np.all(s[6:, :6] == 0.0)

    def test_rejects_nonpositive_penalties(self):
        with pytest.raises(ValueError):
            WeightSet(r_a=0.0, r_d=3e9, s_ar=1, s_av=1, s_dar=1, s_dav=1)
        with pytest.raises(ValueError):
            WeightSet(r_a=5e9, r_d=-1.0, s_ar=1, s_av=1, s_dar=1, s_dav=1)

    @pytest.mark.parametrize("field", ["s_ar", "s_av", "s_dar", "s_dav"])
    def test_rejects_negative_terminal_weights(self, field):
        kw = dict(r_a=5e9, r_d=3e9, s_ar=1.0, s_av=1.0, s_dar=1.0, s_dav=1.0)
        kw[field] = -1.0
        with pytest.raises(ValueError, match=f"^{field} must be nonnegative, got -1.0$"):
            WeightSet(**kw)

    @pytest.mark.parametrize("field", ["r_a", "r_d", "s_ar", "s_av", "s_dar", "s_dav"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, value):
        kw = dict(r_a=5e9, r_d=3e9, s_ar=1.0, s_av=1.0, s_dar=1.0, s_dav=1.0)
        kw[field] = value
        with pytest.raises(ValueError, match="finite"):
            WeightSet(**kw)


class TestAntiderivativeMatrix:
    # C_hat as the package builds it: the chat records of the grid tables
    @staticmethod
    def anomalies(rng):
        # one scalar and one 2-D array of anomalies, up to 20 revolutions
        return rng.uniform(-6.0, 6.0), rng.uniform(-40.0 * math.pi, 40.0 * math.pi, (3, 400))

    def test_symmetric(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            orb = orbit_with(rng.uniform(0.0, 0.8))
            for f in self.anomalies(rng):
                c = _tables(orb, f)["chat"]
                assert c.shape == np.shape(f) + (6, 6)
                assert np.array_equal(c, np.swapaxes(c, -1, -2))

    def test_structural_zeros(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            orb = orbit_with(rng.uniform(0.0, 0.8))
            for f in self.anomalies(rng):
                c = _tables(orb, f)["chat"]
                for i, j in ZERO_PAIRS:
                    assert np.all(c[..., i, j] == 0.0) and np.all(c[..., j, i] == 0.0)

    @pytest.mark.parametrize("e", np.linspace(0.0, 0.8, 9))
    def test_basis_product_matches_closed_form(self, e):
        # the basis product against the entry-by-entry formulas, to 1e-14
        # of each entry's largest value over 20 revolutions either way
        orb = orbit_with(e)
        f = eccentric_to_true(orb, np.linspace(-40.0 * math.pi, 40.0 * math.pi, 4001))
        got = _tables(orb, f)["chat"]
        want = c_hat_closed_form(orb, true_to_eccentric(orb, f))
        scale = np.abs(want).max(axis=0)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)

    def test_frozen_reference_values(self):
        # the values are frozen at E: the records are at the f of that E,
        # and the E -> f -> E round trip moves C_hat by ~5e-15 relative
        for (e, E), vals in FROZEN_C.items():
            orb = orbit_with(e)
            c = _tables(orb, eccentric_to_true(orb, E))["chat"]
            for (i, j), want in zip(C_INDEX, vals):
                if want == 0.0:
                    assert abs(c[i, j]) < 1e-13
                else:
                    assert c[i, j] == pytest.approx(want, rel=1e-13)

    def test_antiderivative_property_random(self):
        # d/df of the matrix evaluated along E(f) must equal the integrand
        rng = np.random.default_rng(43)
        delta = 1e-5
        for _ in range(50):
            orb = orbit_with(rng.uniform(0.0, 0.8))
            f = rng.uniform(0.05, 2.0 * math.pi)
            hi = _tables(orb, f + delta)["chat"]
            lo = _tables(orb, f - delta)["chat"]
            fd = (hi - lo) / (2.0 * delta)
            assert max_rel(fd, integrand_matrix(orb, f)) < 1e-6

    def test_antiderivative_property_eccentricity_sweep(self):
        rng = np.random.default_rng(44)
        delta = 1e-5
        for e in np.arange(0.0, 0.51, 0.1):
            orb = orbit_with(float(e))
            for f in rng.uniform(0.05, 2.0 * math.pi, 10):
                hi = _tables(orb, f + delta)["chat"]
                lo = _tables(orb, f - delta)["chat"]
                fd = (hi - lo) / (2.0 * delta)
                assert max_rel(fd, integrand_matrix(orb, f)) < 1e-6


class TestTables:
    @pytest.mark.parametrize("shape", [(), (7,), (3, 5), (riccati._TABLE_CHUNK + 3,)],
                             ids=["scalar", "1-D", "2-D", "past-chunk"])
    def test_records_are_phi_and_c_hat(self, shape):
        # one pass per chunk of shared anomaly terms gives phi bitwise and
        # C_hat to 1e-14 of each entry's largest value, past the first
        # chunk too
        orb = orbit_with(0.6)
        f = np.random.default_rng(45).uniform(-125.0, 125.0, shape)
        t = _tables(orb, f)
        assert t.shape == np.shape(f) and np.array_equal(t["f"], f)
        assert t["phi"].tobytes() == phi(orb, f).tobytes()
        want = c_hat_closed_form(orb, true_to_eccentric(orb, f))
        scale = np.abs(want).reshape(-1, 6, 6).max(axis=0)
        assert np.all(np.abs(t["chat"] - want) <= 1e-14 * scale)


class TestCouplingIntegral:
    def test_vanishes_at_equal_anomalies(self):
        for f in (0.0, 1.1, 5.0):
            assert np.array_equal(c1(ORBIT, f, f), np.zeros((6, 6)))

    def test_against_composite_simpson(self):
        f1, f2 = 0.3, 1.7
        s = np.linspace(f1, f2, 10001)
        samples = np.array([integrand_matrix(ORBIT, float(x)) for x in s])
        integral = simpson(samples, x=s, axis=0)
        want = phi(ORBIT, f2) @ integral @ phi(ORBIT, f1).T
        assert max_rel(c1(ORBIT, f2, f1), want) < 1e-7

    def test_split_through_midpoint(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            orb = orbit_with(rng.uniform(0.0, 0.6))
            f1 = rng.uniform(0.0, 2.0)
            f2 = f1 + rng.uniform(0.5, 3.0)
            fm = 0.5 * (f1 + f2)
            whole = c1(orb, f2, f1)
            split = (c1(orb, f2, fm) @ omega11(orb, f1, fm).T
                     + omega11(orb, f2, fm) @ c1(orb, fm, f1))
            scale = max(1.0, np.abs(whole).max())
            assert np.abs(whole - split).max() / scale < 1e-9


class TestVMatrices:
    def test_equal_penalties_kill_second_block(self):
        w = WeightSet(r_a=5e9, r_d=5e9, s_ar=1, s_av=1, s_dar=1, s_dav=1)
        v1, v2 = v_matrices(ORBIT, w, 2.0, 0.5)
        assert np.all(v2 == 0.0)
        assert not np.all(v1 == 0.0)

    def test_vanish_at_equal_anomalies(self):
        v1, v2 = v_matrices(ORBIT, WEIGHTS, 1.4, 1.4)
        assert np.all(v1 == 0.0) and np.all(v2 == 0.0)

    def test_penalty_scaling(self):
        v1, v2 = v_matrices(ORBIT, WEIGHTS, 2.4, 0.1)
        coeff = (1.0 / WEIGHTS.r_d - 1.0 / WEIGHTS.r_a) * WEIGHTS.r_a
        assert coeff > 0.0
        assert np.allclose(v2, coeff * v1, rtol=1e-14, atol=0.0)


class TestTransitionBlocks:
    def test_equal_anomaly_trivials(self):
        u11, u12, u22 = dense_blocks(ORBIT, WEIGHTS, 0.9, 0.9)
        assert np.array_equal(u11, np.eye(12))
        assert np.array_equal(u12, np.zeros((12, 12)))
        assert np.array_equal(u22, np.eye(12))

    def test_coupling_block_layout(self):
        f2, f1 = 2.6, 0.4
        m = _coupling(ORBIT, WEIGHTS)
        n4 = ORBIT.n**4
        assert m[0, 1] == m[1, 0] == -m[0, 0]
        assert m[0, 1] * n4 == pytest.approx(1.0 / WEIGHTS.r_a, rel=1e-14)
        assert m[1, 1] * n4 == pytest.approx(1.0 / WEIGHTS.r_d - 1.0 / WEIGHTS.r_a, rel=1e-14)
        u11, u12, u22 = dense_blocks(ORBIT, WEIGHTS, f2, f1)
        v1, v2 = v_matrices(ORBIT, WEIGHTS, f2, f1)
        assert np.array_equal(u12[0:6, 6:12], u12[6:12, 0:6])
        assert np.array_equal(u12[0:6, 0:6], -v1)
        assert np.allclose(v1, c1(ORBIT, f2, f1) / n4 / WEIGHTS.r_a, rtol=1e-14, atol=0.0)
        assert np.all(u11[0:6, 6:12] == 0.0) and np.all(u11[6:12, 0:6] == 0.0)
        # the factor is filled block by block; it must equal U22 - S U12
        # assembled as dense 12x12 arrays
        _, o22, cc = kernel_blocks(ORBIT, f2, f1)
        factor = _factor(ORBIT, WEIGHTS, o22, cc)
        want = u22 - WEIGHTS.s_block @ u12
        assert np.allclose(factor, want, rtol=1e-14, atol=0.0)

    def test_coupled_propagation_against_rk4(self):
        # the RK4 oracle integrates the full coupled flow, so a nonzero U21
        # would show here
        f1, f2 = 0.3, 2.1
        rng = np.random.default_rng(61)
        z0 = rng.standard_normal(24)
        field = lambda f, z: coupled_system_matrix(
            ORBIT.e, f, ORBIT.beta, WEIGHTS.r_a, WEIGHTS.r_d) @ z
        want = rk4_integrate(field, z0, f1, f2, math.pi / 1e4)
        u11, u12, u22 = dense_blocks(ORBIT, WEIGHTS, f2, f1)
        got = np.concatenate([
            u11 @ z0[:12] + u12 @ z0[12:],
            u22 @ z0[12:],
        ])
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-7


class TestSingularityPolicy:
    def test_kappa1_brackets_kappa2_on_reference_grid(self):
        # ||.||_1 and ||.||_2 differ by at most sqrt(12) each way on 12x12
        # matrices, so the two condition numbers differ by at most 12x
        cfg = reference_config()
        t = _tables(ORBIT, cfg.grid)
        for k in range(0, cfg.grid.size, 25):
            factor = _factor(ORBIT, WEIGHTS, *_u_blocks_arrays(t[-1], t[k]))
            kappa1 = _require_conditioned(factor, cfg.grid[k], SingularFactor, "factor")
            kappa2 = np.linalg.cond(factor)
            assert kappa2 / 12.0 <= kappa1 <= 12.0 * kappa2

    def test_zero_block_in_stack(self):
        with pytest.raises(SingularBlock, match="numerically singular at f=1.5 ") as info:
            _require_conditioned(np.zeros((3, 3)), 1.5, SingularBlock, "block")
        assert info.value.f == 1.5
        assert info.value.cond == math.inf

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_entry_in_stack(self, bad):
        # a non-finite entry is an overflow carried forward, not a singular
        # matrix: the policy names it before any condition number is read
        mat = np.eye(3)
        mat[0, 2] = bad
        with pytest.raises(OverflowError) as info:
            _require_conditioned(mat, 1.0, SingularBlock, "block")
        assert str(info.value) == "block at f=1 overflows: the scenario's numbers are too large"

    def test_returns_kappa1(self):
        kappa = _require_conditioned(np.diag([2.0, 4.0, 1.0]), 0.0, SingularBlock, "block")
        assert type(kappa) is float and kappa == 4.0

    @pytest.mark.parametrize("bad", ["nan", "zero"])
    @pytest.mark.parametrize("channel", [0, 1], ids=["in_plane", "out_of_plane"])
    def test_bad_channel_block_in_factor_check(self, monkeypatch, channel, bad):
        # a NaN entry or an all-zero block in one channel, at two nodes in
        # two chunks: the check sweeps back from ff, so it reports the one
        # nearer ff, the NaN as an overflow and the zero block with cond = inf
        cfg = reference_config(weights=UNCERTIFIED)
        nodes = cfg.grid[[3, riccati._CHUNK + 5]]
        build = riccati._channel_factors

        def spoiled(orbit, weights, t2, t1):
            blocks = build(orbit, weights, t2, t1)
            at = np.isin(t1["f"], nodes)
            if bad == "nan":
                blocks[channel][at, 1, 0] = math.nan
            else:
                blocks[channel][at] = 0.0
            return blocks

        monkeypatch.setattr(riccati, "_channel_factors", spoiled)
        if bad == "nan":
            with pytest.raises(OverflowError) as info:
                propagate_analytical(cfg)
            assert str(info.value) == (f"factor U22 - S U12 at f={nodes[1]:.9g} overflows: "
                                       "the scenario's numbers are too large")
            return
        with pytest.raises(SingularFactor, match="numerically singular at f=") as info:
            propagate_analytical(cfg)
        assert info.value.f == nodes[1]
        assert info.value.cond == math.inf

    @pytest.mark.parametrize("overrides", [
        {"weights": replace(WEIGHTS, r_a=1e-300)},
        {"ff": 1e300, "h_f": 1e299},
    ], ids=["tiny-r_a", "huge-ff"])
    @pytest.mark.parametrize("entry", [
        propagate_analytical,
        scan_quadratics,
        lambda cfg: ellipsoid_at(cfg, 1.0, "S1"),
    ], ids=["propagate_analytical", "scan_quadratics", "ellipsoid_at"])
    def test_overflow_is_an_overflow_error(self, entry, overrides):
        # 1/r_a, or C_hat at E ~ 1e300, overflows while the factor at f0 is
        # built: each entry point runs under one np.errstate guard, so the
        # inf and NaN surface only as the policy's OverflowError at f0,
        # never as a RuntimeWarning from the kernel below
        with pytest.raises(OverflowError) as info:
            entry(reference_config(**overrides))
        assert str(info.value) == ("factor U22 - S U12 at f=0 overflows: "
                                   "the scenario's numbers are too large")


class TestChannelCheck:
    # the check reads det F per channel from G = I - S (M x W) in the ff
    # frame (an 8x8 in-plane and a 4x4 out-of-plane block); the channel
    # blocks of the 12x12 factor are the reference it must match.  det F_c
    # = det G_c in exact arithmetic; on the reference grid log|det| agrees
    # to 2.8e-10 at e = 0.8 (|log|det|| up to 98) and to 7e-13 at e <= 0.3
    CHANNELS = (np.array([0, 1, 3, 4, 6, 7, 9, 10]), np.array([2, 5, 8, 11]))

    @pytest.mark.parametrize("e", [0.0, 0.3, 0.8])
    def test_matches_the_12x12_factor(self, e):
        cfg = reference_config(orbit=orbit_with(e))
        orb, w = cfg.orbit, cfg.weights
        t = _tables(orb, cfg.grid)
        factor = _factor(orb, w, *_u_blocks_arrays(t[-1], t))
        off = np.ones((12, 12), bool)
        for c in self.CHANNELS:
            off[np.ix_(c, c)] = False
        assert np.all(factor[:, off] == 0.0)
        for block, c in zip(_channel_factors(orb, w, t[-1], t), self.CHANNELS):
            sign, logdet = np.linalg.slogdet(block)
            want_sign, want_logdet = np.linalg.slogdet(factor[:, c[:, None], c])
            assert np.array_equal(sign, want_sign)
            assert np.allclose(logdet, want_logdet, rtol=0.0, atol=1e-9)
            # W(ff) = 0 exactly, so the block is exactly I at ff
            assert np.array_equal(block[-1], np.eye(c.size))


class TestCertificate:
    # r_d <= r_a proves det G_c >= 1 on [f0, ff] (_riccati_p_arrays), so the
    # factor check builds no channel block there and raises only from the
    # kappa_1 gate at f0; r_d > r_a sweeps the grid

    @pytest.mark.parametrize("weights, chunks", [
        (WEIGHTS, 0),
        (WeightSet(r_a=5e9, r_d=5e9, s_ar=1.0, s_av=1.0, s_dar=0.001, s_dav=0.001), 0),
        (UNCERTIFIED, 4),
    ], ids=["r_d<r_a", "r_d=r_a", "r_d>r_a"])
    def test_channel_blocks_only_when_uncertified(self, monkeypatch, weights, chunks):
        calls = []
        build = riccati._channel_factors

        def counted(orbit, weights, t2, t1):
            calls.append(t1.size)
            return build(orbit, weights, t2, t1)

        monkeypatch.setattr(riccati, "_channel_factors", counted)
        propagate_analytical(reference_config(weights=weights))
        assert len(calls) == chunks

    def test_certified_channel_dets_at_least_one(self):
        # the bound the certificate proves, read from the float64 blocks at
        # every node of seeded certified scenarios with e <= 0.5, where
        # C_hat(ff) - C_hat(f) does not cancel
        rng = np.random.default_rng(28)
        for _ in range(20):
            orb = orbit_with(rng.uniform(0.0, 0.5))
            revs = int(rng.integers(1, 4))
            r_d, r_a = np.sort(10.0 ** rng.uniform(6.0, 11.0, 2))
            w = WeightSet(r_a, r_d, *(10.0 ** rng.uniform(-3.0, 4.0, 4)))
            t = _tables(orb, np.linspace(0.0, 2.0 * math.pi * revs, 1000 * revs + 1))
            for block in _channel_factors(orb, w, t[-1], t):
                sign, logdet = np.linalg.slogdet(block)
                assert np.all(sign == 1.0) and logdet.min() >= -1e-12

    @pytest.mark.parametrize("e, revs, weights", [
        (0.7437, 1, WeightSet(r_a=1.8316e8, r_d=3.3780e7, s_ar=5345.7, s_av=0.60854,
                              s_dar=7.7128, s_dav=7.3281)),
        (0.5268216713835717, 3, WeightSet(r_a=6.5204e6, r_d=1.1394e6, s_ar=14.027,
                                          s_av=5.166, s_dar=1150.1, s_dav=0.81488)),
    ], ids=["e0.74-1rev", "e0.53-3rev"])
    def test_rounding_raises_no_conjugate_point(self, e, revs, weights):
        # sampler scenarios whose float64 channel det reads negative at a
        # node near ff, so a grid sweep would raise: the certificate covers
        # them, and the Riccati solution reaches f0 without escape
        ff = 2.0 * math.pi * revs
        cfg = reference_config(orbit=orbit_with(e), weights=weights, ff=ff, h_f=ff / (1000 * revs))
        t = _tables(cfg.orbit, cfg.grid)
        signs = [np.linalg.slogdet(b)[0] for b in _channel_factors(cfg.orbit, weights, t[-1], t)]
        assert np.min(signs) < 0.0
        propagate_analytical(cfg)
        sol = backward_riccati(cfg.orbit, weights, ff, cfg.f0)
        assert sol.status == 0 and sol.t[-1] == cfg.f0


class TestFeedbackGain:
    def test_terminal_exactness(self):
        p = riccati_p(ORBIT, WEIGHTS, 2.0 * math.pi, 2.0 * math.pi)
        assert np.array_equal(p, WEIGHTS.s_block)

    def test_rejects_query_past_horizon(self):
        with pytest.raises(ValueError):
            riccati_p(ORBIT, WEIGHTS, 2.1, 2.0)

    def test_against_backward_rk4(self):
        # independent route: integrate the matrix ODE backward from the
        # terminal condition with a plain fixed-step kernel
        ff = 2.0 * math.pi
        field = lambda f, p: riccati_rhs(
            ORBIT.e, f, ORBIT.beta, WEIGHTS.r_a, WEIGHTS.r_d, p)
        p_num = rk4_integrate(field, WEIGHTS.s_block, ff, 0.0, math.pi / 1e4)
        p_ana = riccati_p(ORBIT, WEIGHTS, 0.0, ff)
        assert max_rel(p_ana, p_num) < 1e-5

    @pytest.mark.parametrize("e", [0.5, 0.8])
    def test_factor_solve_residual(self, e):
        # P(f0) solves F(f0) P = S (I2 x Omega11) with the residual of a
        # backward-stable solve; F^-1 times the right-hand side leaves one
        # 2-5 eps ||F|| ||P|| at these eccentricities
        orb, ff = orbit_with(e), 2.0 * math.pi
        t = _tables(orb, [0.0, ff])
        factor = _factor(orb, WEIGHTS, *_u_blocks_arrays(t[1], t[0]))
        rhs = WEIGHTS.s_block @ np.kron(np.eye(2), riccati.omega11(t[1], t[0]))
        p = riccati_p(orb, WEIGHTS, 0.0, ff)
        norm1 = lambda a: np.linalg.norm(a, 1)
        eps = np.finfo(float).eps
        assert norm1(factor @ p - rhs) <= 0.5 * eps * norm1(factor) * norm1(p)

    def test_ode_residual(self):
        rng = np.random.default_rng(71)
        ff = 2.0 * math.pi
        delta = 1e-5
        for f in rng.uniform(0.3, ff - 0.3, 20):
            hi = riccati_p(ORBIT, WEIGHTS, f + delta, ff)
            lo = riccati_p(ORBIT, WEIGHTS, f - delta, ff)
            mid = riccati_p(ORBIT, WEIGHTS, f, ff)
            fd = (hi - lo) / (2.0 * delta)
            want = riccati_rhs(ORBIT.e, f, ORBIT.beta, WEIGHTS.r_a, WEIGHTS.r_d, mid)
            assert np.linalg.norm(fd - want) <= 1e-4 * np.linalg.norm(mid)

    @pytest.mark.parametrize("chunk", [riccati._CHUNK, 10])
    def test_singular_factor_reported(self, monkeypatch, chunk):
        # a strongly-weighted defender drives the inverted factor singular;
        # kappa_1 of F(f0) is checked before the grid, so the error is at
        # f0 whatever the chunk size
        w = WeightSet(r_a=5e9, r_d=1.0, s_ar=1.0, s_av=1.0, s_dar=100.0, s_dav=100.0)
        cfg = reference_config(weights=w)
        with pytest.raises(SingularFactor) as want:
            propagate_analytical(cfg)
        monkeypatch.setattr(riccati, "_CHUNK", chunk)
        with pytest.raises(SingularFactor) as exc_info:
            riccati_p(ORBIT, w, 0.0, 2.0 * math.pi)
        exc = exc_info.value
        assert exc.cond > 1e14
        assert exc.f == 0.0
        assert "singular" in str(exc)
        with pytest.raises(SingularFactor) as got:
            propagate_analytical(cfg)
        assert got.value.f == 0.0
        assert (got.value.cond, str(got.value)) == (want.value.cond, str(want.value))
        # cond is kappa_1 of the 12x12 F at f0, the one matrix solved with
        assert exc.cond == factor_cond(ORBIT, w, [0.0, 2.0 * math.pi], exc.f)
        assert got.value.cond == factor_cond(cfg.orbit, w, cfg.grid, got.value.f)

    @pytest.mark.parametrize("chunk", [riccati._CHUNK, 10])
    def test_conjugate_point_between_nodes(self, monkeypatch, chunk):
        # det F changes sign inside the last grid interval while kappa_1
        # stays below the threshold at every node.  At a chunk size of 10,
        # the sweep from ff reads node 999 in its first chunk, and the error
        # must not change
        w = conjugate_weights()
        cfg = reference_config(weights=w)
        with pytest.raises(SingularFactor, match="conjugate point") as want:
            propagate_analytical(cfg)
        monkeypatch.setattr(riccati, "_CHUNK", chunk)
        with pytest.raises(SingularFactor, match="conjugate point") as info:
            propagate_analytical(cfg)
        exc = info.value
        assert (exc.f, exc.cond, str(exc)) == (want.value.f, want.value.cond, str(want.value))
        assert str(exc).endswith(f", {cfg.ff:.9g}]")
        assert cfg.ff - cfg.h_f <= exc.f < cfg.ff
        assert exc.cond <= 1e14
        assert exc.cond == factor_cond(cfg.orbit, w, cfg.grid, exc.f)
        # independent oracle: the Riccati equation integrated backward from
        # ff escapes before it reaches the last grid node
        orb = cfg.orbit
        field = lambda f, y: riccati_rhs(
            orb.e, f, orb.beta, w.r_a, w.r_d, y.reshape(12, 12)).ravel()
        sol = solve_ivp(field, (cfg.ff, cfg.ff - cfg.h_f), w.s_block.ravel(),
                        method="Radau", rtol=1e-8, atol=1e-10)
        assert sol.status != 0 or np.abs(sol.y[:, -1]).max() > 1e6

    def test_conjugate_point_past_ill_conditioned_interior(self):
        # kappa_1 of the interior F passes 1e14 at f = 2.34 on this
        # scenario, but F is not solved with there: the check reads the
        # channel det signs, which name the interval where the Riccati
        # solution escapes
        w = WeightSet(r_a=6.84147e7, r_d=2.11959e10, s_ar=2030.9, s_av=0.0132988,
                      s_dar=254.205, s_dav=0.0848358)
        cfg = reference_config(orbit=orbit_with(0.42933127463046816), weights=w)
        with pytest.raises(SingularFactor, match=r"conjugate point in "
                           r"\(6\.27690212, 6\.28318531\]") as info:
            propagate_analytical(cfg)
        assert info.value.cond == factor_cond(cfg.orbit, w, cfg.grid, info.value.f)
        # independent oracle: DOP853 from ff escapes inside the last
        # interval, at ff - 1.3e-3
        sol = backward_riccati(cfg.orbit, w, cfg.ff, cfg.ff - cfg.h_f)
        assert sol.status == -1 and sol.t[-1] > cfg.ff - cfg.h_f

    def test_two_negative_channels_are_a_conjugate_point(self, monkeypatch):
        # F has no entries between the in-plane and out-of-plane channels,
        # so flipping one row of each channel block leaves the sign of
        # det F as it was, while each channel's det turns negative.  Only nodes before ff flip, as the bracket reads the
        # next node
        cfg = reference_config(weights=UNCERTIFIED)
        build = riccati._channel_factors

        def flipped(orbit, weights, t2, t1):
            blocks = build(orbit, weights, t2, t1)
            for block in blocks:
                block[t1["f"] <= 3.0, 0] *= -1.0
            return blocks

        monkeypatch.setattr(riccati, "_channel_factors", flipped)
        with pytest.raises(SingularFactor, match=r"det <= 0 at f=2\.99707939: "
                           r"conjugate point in \(2\.99707939, 3\.00336258\]") as info:
            propagate_analytical(cfg)
        assert info.value.f == cfg.grid[np.flatnonzero(cfg.grid <= 3.0)[-1]]
        assert info.value.cond <= 1e14

    def test_failure_nearest_ff_wins(self, monkeypatch):
        # a NaN in the in-plane block at node 3 and both channels flipped
        # for f <= 3.0: the Riccati solution is built back from ff, so the
        # conjugate point nearest ff is the one reported, not the NaN node
        cfg = reference_config(weights=UNCERTIFIED)
        build = riccati._channel_factors

        def spoiled(orbit, weights, t2, t1):
            blocks = build(orbit, weights, t2, t1)
            for block in blocks:
                block[t1["f"] <= 3.0, 0] *= -1.0
            blocks[0][t1["f"] == cfg.grid[3], 1, 0] = math.nan
            return blocks

        monkeypatch.setattr(riccati, "_channel_factors", spoiled)
        with pytest.raises(SingularFactor, match=r"det <= 0 at f=2\.99707939: ") as info:
            propagate_analytical(cfg)
        assert info.value.cond <= 1e14

    def test_sweep_stops_at_first_failure_from_ff(self, monkeypatch):
        # the conjugate point sits in the last grid interval, so the sweep
        # from ff raises on its first chunk and builds no other
        cfg = reference_config(weights=conjugate_weights())
        with pytest.raises(SingularFactor, match="conjugate point") as want:
            propagate_analytical(cfg)
        calls = []
        build = riccati._channel_factors

        def counted(orbit, weights, t2, t1):
            calls.append(t1.size)
            return build(orbit, weights, t2, t1)

        monkeypatch.setattr(riccati, "_channel_factors", counted)
        monkeypatch.setattr(riccati, "_CHUNK", 10)
        with pytest.raises(SingularFactor, match="conjugate point") as got:
            propagate_analytical(cfg)
        assert calls == [10]
        assert (got.value.f, str(got.value)) == (want.value.f, str(want.value))

    @pytest.mark.parametrize("e", [0.1, 0.8])
    def test_p_is_the_12x12_solve_at_f0(self, e):
        # the check reads the channel blocks alone; P(f0) is solved with the
        # 12x12 factor at f0, as F P = S (I2 x Omega11)
        orb = orbit_with(e)
        t = _tables(orb, reference_config().grid)
        factor = _factor(orb, WEIGHTS, *_u_blocks_arrays(t[-1], t[0]))
        rhs = np.diag(WEIGHTS.s_block)[:, None] * np.kron(np.eye(2), riccati.omega11(t[-1], t[0]))
        assert np.array_equal(riccati._riccati_p_arrays(orb, WEIGHTS, t),
                              np.linalg.solve(factor, rhs))

    def test_omega11_once_per_check(self, monkeypatch):
        # P(f0) reads Omega11 at f0 alone, so the check forms it once
        # however many chunks it runs through
        t = _tables(ORBIT, reference_config().grid)
        want = riccati._riccati_p_arrays(ORBIT, UNCERTIFIED, t)
        calls = []
        kernel = riccati.omega11

        def counted(t2, t1):
            calls.append(np.shape(t1))
            return kernel(t2, t1)

        monkeypatch.setattr(riccati, "omega11", counted)
        monkeypatch.setattr(riccati, "_CHUNK", 10)
        assert np.array_equal(riccati._riccati_p_arrays(ORBIT, UNCERTIFIED, t), want)
        assert calls == [()]

    def test_solution_record(self):
        p = riccati_p(ORBIT, WEIGHTS, 0.5, 2.0 * math.pi)
        assert isinstance(p, np.ndarray)
        assert p.shape == (12, 12) and p.dtype == float
        assert np.all(np.isfinite(p))


def backward_riccati(orb, w, ff, f_end):
    """The Riccati equation integrated by DOP853 from P(ff) = S back to f_end."""
    field = lambda f, y: riccati_rhs(orb.e, f, orb.beta, w.r_a, w.r_d, y.reshape(12, 12)).ravel()
    return solve_ivp(field, (ff, f_end), w.s_block.ravel(), method="DOP853",
                     rtol=1e-10, atol=1e-12)


class TestOpenFactorDefects:
    # two scenarios where the float64 factor check on the grid gave the
    # wrong verdict: the strict xfail turns into a failure once fixed
    D1 = WeightSet(r_a=2.285e7, r_d=7.617e8, s_ar=68.03, s_av=0.0401,
                   s_dar=0.0960, s_dav=590.7)
    D2 = WeightSet(r_a=7.383e8, r_d=4.550e6, s_ar=19.78, s_av=2.184,
                   s_dar=0.9168, s_dav=2645.0)

    # D1, e = 0, one revolution: det F <= 0 for ff - f from 1e-8 to 2e-3,
    # inside the last grid interval, and > 0 at every node
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 8")
    def test_conjugate_point_inside_last_interval_raises(self):
        cfg = reference_config(orbit=orbit_with(0.0), weights=self.D1)
        with pytest.raises(SingularFactor):
            propagate_analytical(cfg)

    def test_conjugate_point_inside_last_interval_witnesses(self):
        ff = 2.0 * math.pi
        with pytest.raises(SingularFactor, match="det <= 0"):
            riccati_p(orbit_with(0.0), self.D1, ff - 1e-4, ff)
        sol = backward_riccati(orbit_with(0.0), self.D1, ff, ff - 1e-6)
        assert sol.status == -1 and sol.t[-1] > ff - 1e-6

    # D2, e = 0.8, two revolutions: cancellation in C_hat(ff) - C_hat(f)
    # flips the float64 det F near f = 12.5, where a grid sweep raised on 39
    # of these 41 grids.  r_d <= r_a certifies D2, so no sweep runs; the
    # cancellation itself (ROADMAP item 5) stays open where r_d > r_a
    def test_no_spurious_conjugate_point(self):
        ff = 4.0 * math.pi
        for steps in range(990, 1031):
            propagate_analytical(reference_config(orbit=orbit_with(0.8), weights=self.D2,
                                                  ff=ff, h_f=ff / steps))

    def test_no_spurious_conjugate_point_witness(self):
        sol = backward_riccati(orbit_with(0.8), self.D2, 4.0 * math.pi, 12.4)
        assert sol.status == 0 and sol.t[-1] == 12.4
        assert np.abs(sol.y).max() <= np.abs(self.D2.s_block).max()
