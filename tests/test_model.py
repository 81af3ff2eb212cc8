"""Channel-model tests: transitions, Fisher-information variances,
likelihood normalization, detection probability and the association factors.

Every likelihood and factor is read from the kernels the tracker runs
(model.log_lik_matrix, model.log_fa_density, tracker.predict,
dabp.evaluate_weights and the false-alarm-rate reweighting) and checked
against closed forms written out in the tests.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad
from scipy.special import i0e, log_ndtr, ndtr

from mpctrack import dabp, model, radio, tracker
from mpctrack.dabp import AssociationMarginals, AssociationWeights
from mpctrack.model import TWO_PI, ArrayGeometry, HyperParams, Measurement
from mpctrack.tracker import PmpcBelief

from conftest import packed, stacked

GEOM = radio.default_geometry()
PARAMS = HyperParams()


def simple_geom(beta_bw_sq=1e16, f_c=6e9, offsets=((0.0, 0.0),)):
    return ArrayGeometry(list(offsets), 0.0, f_c, beta_bw_sq, 46, 1.25e-9)


# ---------------------------------------------------------------------------
# Geometry and types
# ---------------------------------------------------------------------------

class TestGeometry:
    def test_centroid_must_be_origin(self):
        with pytest.raises(ValueError):
            ArrayGeometry([(1.0, 0.0)], 0.0, 6e9, 1e16, 46, 1.25e-9)

    @pytest.mark.parametrize("offsets,N_s,field", [
        ([], 46, "element_offsets"), ([(1.0, 0.0)], 46, "element_offsets"),
        ([(0.0, 0.0)], 0, "N_s"),
        ([(1.16e-161, 0.0), (1.16e-161, np.pi), (0.0, 0.0)], 46,
         "element_offsets")])
    def test_invalid_geometry_is_one_field_problem(self, offsets, N_s, field):
        # validate() reports each construction rule at its field, so a
        # geometry that validates can always be built.
        fields = dict(element_offsets=offsets, psi=0.0, f_c=6e9,
                      beta_bw_sq=1e16, N_s=N_s, T_s=1.25e-9)
        problems = ArrayGeometry.validate(SimpleNamespace(**fields))
        assert [f for f, _ in problems] == [field]
        with pytest.raises(ValueError, match=field):
            ArrayGeometry(**fields)

    def test_ura_is_centered(self):
        g = ArrayGeometry.uniform_rectangular(3, 3, 0.02, psi=0.0, f_c=6e9,
                                              beta_bw_sq=1e16, N_s=46,
                                              T_s=1.25e-9)
        assert g.H == 9
        d, phi = np.asarray(g.element_offsets).T
        xy = np.stack([d * np.cos(phi), d * np.sin(phi)], axis=1)
        assert np.allclose(xy.mean(axis=0), 0.0, atol=1e-12)
        assert g.n_eff == 414

    def test_wrap_angle_range(self):
        x = np.linspace(-20, 20, 1001)
        w = model.wrap_angle(x)
        assert np.all(w >= -np.pi) and np.all(w < np.pi)

    @staticmethod
    def assert_wraps_like_mod(x):
        # Bit for bit the np.mod form (the int64 view also tells -0 from +0).
        expect = np.mod(np.asarray(x) + np.pi, model.TWO_PI) - np.pi
        got = model.wrap_angle(x)
        assert np.shape(got) == np.shape(expect)
        assert np.array_equal(np.asarray(got, dtype=float).view(np.int64),
                              np.asarray(expect, dtype=float).view(np.int64))

    @given(hnp.arrays(np.float64, st.integers(1, 64),
                      elements=st.floats(-3 * np.pi, 3 * np.pi)))
    def test_wrap_angle_bits_residual_range(self, x):
        # Every shifted value in [-2 pi, 4 pi): the arithmetic path.
        self.assert_wraps_like_mod(x)

    @given(hnp.arrays(np.float64, st.integers(1, 64),
                      elements=st.floats(-1e300, 1e300)))
    def test_wrap_angle_bits_any_finite(self, x):
        self.assert_wraps_like_mod(x)

    @given(st.floats(-1e300, 1e300))
    def test_wrap_angle_bits_zero_dim(self, x):
        self.assert_wraps_like_mod(x)
        self.assert_wraps_like_mod(np.float64(x))
        self.assert_wraps_like_mod(np.asarray(x))

    EDGES = (0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi,
             np.nextafter(3 * np.pi, 0.0), np.nextafter(-np.pi, -4.0),
             np.nextafter(np.pi, 4.0), np.nextafter(-3 * np.pi, 0.0),
             1e300, -1e300)

    @pytest.mark.parametrize("x", EDGES)
    def test_wrap_angle_bits_edges(self, x):
        self.assert_wraps_like_mod(x)
        self.assert_wraps_like_mod(np.array([x]))
        self.assert_wraps_like_mod(np.array([x, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_wrap_angle_non_finite_is_nan(self, bad):
        with np.errstate(invalid="ignore"):
            assert np.isnan(model.wrap_angle(bad))
            out = model.wrap_angle(np.array([0.5, bad, -1.0]))
        assert np.isnan(out[1])
        assert out[0] == 0.5 and out[2] == -1.0

    @given(st.floats(-50, 50), st.floats(-50, 50))
    def test_ang_diff_wraps(self, a, b):
        d = float(model.ang_diff(a, b))
        assert -np.pi <= d < np.pi
        assert math.isclose(math.cos(d), math.cos(a - b), abs_tol=1e-9)
        assert math.isclose(math.sin(d), math.sin(a - b), abs_tol=1e-9)


# ---------------------------------------------------------------------------
# State transitions
# ---------------------------------------------------------------------------

def predicted(params, legacy=(), far=None, seed=0):
    """Tracker state after one tracker.predict from the given beliefs."""
    state = tracker.init(params, GEOM, seed)
    state = stacked(legacy, state)
    state.far = far
    return tracker.predict(state, params)


def point_track(x, p_exist, J=1):
    return PmpcBelief(1, 0, np.tile(np.asarray(x, dtype=float), (J, 1)),
                      np.full(J, 1.0 / J), p_exist)


def far_belief(mus):
    return np.asarray(mus, dtype=float)


def matrix_form_propagation(particles, params, rng, dt):
    """Oracle: the motion model over a step of dt seconds as the matrix
    product particles @ F.T + eps @ G.T, with the noise drawn and scaled as
    propagate_kinematics does. State order [d, phi, u, v_d, v_phi]; noise
    order [eps_d, eps_phi, eps_u]."""
    F = np.array([
        [1, 0, 0, dt, 0],
        [0, 1, 0, 0, dt],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
    ], dtype=float)
    G = np.array([
        [dt**2 / 2, 0, 0],
        [0, dt**2 / 2, 0],
        [0, 0, 1],
        [dt, 0, 0],
        [0, dt, 0],
    ], dtype=float)
    eps = rng.standard_normal((particles.shape[0], 3))
    eps[:, 0] *= params.sigma_d
    eps[:, 1] *= params.sigma_phi
    eps[:, 2] *= params.sigma_u_rel * particles[:, 2]
    out = particles @ F.T + eps @ G.T
    out[:, 1] = model.wrap_angle(out[:, 1])
    out[:, 2] = np.maximum(out[:, 2], 0.0)
    return out


def propagated_both_ways(delta_t, seed, noisy):
    """propagate_kinematics and the matrix-form oracle on one seeded
    particle set, each with its own generator from the same seed. The set
    spans the whole circle, so some angles wrap, and with noisy driving
    noise some amplitudes clamp at zero."""
    rng = np.random.default_rng(seed)
    J = 3000
    parts = np.column_stack([
        rng.uniform(0.0, 17.0, J), rng.uniform(-np.pi, np.pi, J),
        rng.uniform(0.0, 40.0, J), rng.normal(0.0, 0.5, J),
        rng.normal(0.0, 0.3, J)])
    params = HyperParams(**(
        {"sigma_d": 0.3, "sigma_phi": 0.2, "sigma_u_rel": 0.6} if noisy
        else {}))
    return (model.propagate_kinematics(parts.T, params,
                                       np.random.default_rng(seed + 1)).T,
            matrix_form_propagation(parts, params,
                                    np.random.default_rng(seed + 1), delta_t))


class TestTransition:
    @pytest.mark.parametrize("noisy", [False, True])
    # The model's step is 1 s.
    @pytest.mark.parametrize("delta_t", [1.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_column_form_is_the_matrix_form(self, seed, delta_t, noisy):
        # dt and dt^2/2 are powers of two, so every product is exact and
        # the column sums round as the matrix product's do: bit for bit.
        got, want = propagated_both_ways(delta_t, seed, noisy)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_noiseless_ncv_propagation(self):
        params = HyperParams(p_s=1.0, sigma_d=0.0, sigma_phi=0.0,
                             sigma_u_rel=0.0)
        state = predicted(params, [point_track([5.0, 0.0, 10.0, 1.0, 0.1], 1.0)])
        tr = state.legacy[0]
        assert tr.p_exist == 1.0
        d, phi, u, v_d, v_phi = tr.particles[0]
        assert d == pytest.approx(6.0)
        assert phi == pytest.approx(0.1)
        assert u == pytest.approx(10.0)
        assert v_d == pytest.approx(1.0)
        assert v_phi == pytest.approx(0.1)

    def test_nonexistent_stays_nonexistent(self):
        state = predicted(PARAMS, [point_track([5.0, 0.0, 10.0, 1.0, 0.1], 0.0)])
        for _ in range(99):
            state = tracker.predict(state, PARAMS)
        assert state.legacy[0].p_exist == 0.0

    def test_survival_fraction(self):
        # Survival folds into the existence probability: p_s per step.
        params = HyperParams(p_s=0.999)
        state = predicted(params, [point_track([5.0, 0.0, 10.0, 0.0, 0.0], 1.0)])
        assert state.legacy[0].p_exist == 0.999
        for _ in range(999):
            state = tracker.predict(state, params)
        assert state.legacy[0].p_exist == pytest.approx(0.999**1000,
                                                        rel=1e-12)

    def test_phi_wrapped_and_u_clamped(self):
        params = HyperParams(p_s=1.0, sigma_u_rel=5.0)
        parts = np.array([[1.0, 3.1, 0.01, 0.0, 2.0]] * 500)
        out = predicted(params, [PmpcBelief(1, 0, parts, np.full(500, 1 / 500),
                                            1.0)], seed=3).legacy[0].particles
        assert np.all(out[:, 1] >= -np.pi) and np.all(out[:, 1] < np.pi)
        assert np.all(out[:, 2] >= 0.0)

    def test_far_transition_identity_and_positive(self):
        still = predicted(HyperParams(sigma_fa=0.0), far=far_belief([2.0]))
        assert still.far[0] == 2.0
        # Draws landing at or below zero stay positive via reflection.
        moved = predicted(HyperParams(sigma_fa=1.0),
                          far=far_belief(np.full(2000, 0.01)))
        assert moved.far.min() > 0.0

    def test_far_transition_mean(self):
        n = 100_000
        draws = predicted(HyperParams(sigma_fa=0.3),
                          far=far_belief(np.full(n, 5.0)), seed=5).far
        assert abs(draws.mean() - 5.0) < 3 * 0.3 / math.sqrt(n)


# ---------------------------------------------------------------------------
# Fisher-information variances
# ---------------------------------------------------------------------------

class TestVariances:
    def test_sigma_d_sq_value(self):
        g = simple_geom()
        # direct arithmetic: c^2 / (8 pi^2 beta^2 u^2)
        expect = model.SPEED_OF_LIGHT ** 2 / (8 * np.pi**2 * 1e16 * 100.0)
        assert model.sigma_d_sq(10.0, g) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(1.1383e-3, rel=1e-4)

    def test_sigma_d_scaling(self):
        g = simple_geom()
        assert model.sigma_d_sq(2.0, g) == pytest.approx(
            model.sigma_d_sq(1.0, g) / 4.0)
        assert model.sigma_d_sq(1e9, g) < 1e-15

    def test_sigma_d_u_floor(self):
        g = simple_geom()
        assert model.sigma_d_sq(0.0, g) == model.sigma_d_sq(model.U_FLOOR, g)

    def test_sigma_d_u_invariant(self):
        g = simple_geom()
        us = np.linspace(0.5, 50, 20)
        vals = model.sigma_d_sq(us, g) * us**2
        assert np.allclose(vals, vals[0], rtol=1e-12)

    def test_aperture_single_element_zero(self):
        assert model.aperture_sq(0.3, simple_geom()) == 0.0

    def test_aperture_two_elements(self):
        r = 0.05
        g = ArrayGeometry([(r, 0.0), (r, np.pi)], 0.0, 6e9, 1e16, 46, 1.25e-9)
        assert model.aperture_sq(np.pi / 2, g) == pytest.approx(2 * r * r)

    def test_aperture_grid_brute_force(self):
        # Sum over elements of squared cross-axis offsets at phi = 0.
        xy = [(d * math.cos(a), d * math.sin(a))
              for d, a in GEOM.element_offsets]
        for phi in (0.0, 0.7, -1.9):
            expect = sum((-x * math.sin(phi) + y * math.cos(phi)) ** 2
                         for x, y in xy)
            assert model.aperture_sq(phi, GEOM) == pytest.approx(expect,
                                                                 rel=1e-12)

    @staticmethod
    def aperture_by_elements(phi, geom):
        # Per-element sum in extended precision at the angle phi - psi the
        # kernel sees.
        off = np.asarray(geom.element_offsets, dtype=np.longdouble)
        t = np.longdouble(phi - geom.psi)
        return float(np.sum(off[:, 0] ** 2 * np.sin(t - off[:, 1]) ** 2))

    @given(st.floats(0.001, 0.2), st.floats(-np.pi, np.pi),
           st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=8))
    def test_aperture_closed_form_ura(self, spacing, psi, phis):
        # A 2x3 URA is not symmetric under a quarter turn, so b != 0.
        g = ArrayGeometry.uniform_rectangular(
            2, 3, spacing, psi=psi, f_c=6e9, beta_bw_sq=1e16, N_s=46,
            T_s=1.25e-9)
        a = 0.5 * sum(d * d for d, _ in g.element_offsets)
        got = model.aperture_sq(np.array(phis), g)
        assert got.shape == (len(phis),)
        for phi, v in zip(phis, got):
            assert abs(v - self.aperture_by_elements(phi, g)) <= 1e-15 * a

    SUBNORMAL_XY = np.array([[1.16e-161, 0.0], [0.0, 0.0], [0.0, 0.0],
                             [0.0, 0.0]])

    @given(hnp.arrays(np.float64, st.tuples(st.integers(2, 6), st.just(2)),
                      elements=st.floats(-0.1, 0.1)),
           st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi))
    @example(SUBNORMAL_XY, -3.0, 0.3)
    @example(SUBNORMAL_XY, -3.0, 2.0)
    def test_aperture_closed_form_random_array(self, xy, psi, phi):
        xy = xy - xy.mean(axis=0)
        off = [(math.hypot(x, y), math.atan2(y, x)) for x, y in xy]
        a = 0.5 * sum(d * d for d, _ in off)
        try:
            g = ArrayGeometry(off, psi, 6e9, 1e16, 46, 1.25e-9)
        except ValueError as exc:
            # Distances whose squares leave the normal float range.
            assert "normal float range" in str(exc)
            reject()
        assert abs(float(model.aperture_sq(phi, g))
                   - self.aperture_by_elements(phi, g)) <= 1e-15 * a

    @pytest.mark.filterwarnings("ignore:overflow encountered in square")
    @pytest.mark.parametrize("dist", [1.16e-161, 1e-300, 2e154])
    def test_distance_squares_outside_normal_range_rejected(self, dist):
        # 1.16e-161 is the offset hypothesis found for the closed form
        # above: it squares to a subnormal, where the 1e-15 * a bound is 0.
        off = [(dist, 0.0), (dist, np.pi), (0.0, 0.0)]
        with pytest.raises(ValueError, match="normal float range"):
            ArrayGeometry(off, 0.0, 6e9, 1e16, 46, 1.25e-9)

    @given(st.floats(1e-3, 0.5), st.floats(-np.pi, np.pi),
           st.floats(-np.pi, np.pi), st.integers(-4, 4))
    def test_aperture_nonnegative_end_fire(self, r, theta, psi, ulps):
        # Two-element line array along theta: D^2 vanishes at end-fire,
        # where the closed form's cancellation can round below zero.
        g = ArrayGeometry([(r, theta), (r, theta + np.pi)], psi, 6e9, 1e16,
                          46, 1.25e-9)
        for fire in (psi + theta, psi + theta + np.pi):
            phi = float(model.wrap_angle(fire))
            for _ in range(abs(ulps)):
                phi = np.nextafter(phi, 4.0 * np.sign(ulps))
            assert model.aperture_sq(phi, g) >= 0.0
            assert model.aperture_sq(np.array([phi]), g)[0] >= 0.0

    @pytest.mark.parametrize("geom", [
        GEOM,
        ArrayGeometry.uniform_rectangular(4, 4, 0.025, psi=0.3, f_c=6e9,
                                          beta_bw_sq=1e16, N_s=46,
                                          T_s=1.25e-9)],
        ids=["default-3x3", "4x4"])
    def test_constant_aperture_is_the_closed_form(self, geom):
        # Quarter-turn symmetric arrays take the constant path; it must
        # return the closed form's bits at every angle, the +-pi seam
        # included, for arrays, scalars and non-finite angles.
        assert geom._aperture_flat
        a, b, c = geom._aperture_abc
        rng = np.random.default_rng(3)
        seam = np.array([-np.pi, np.nextafter(-np.pi, 0.0), np.pi,
                         np.nextafter(np.pi, 0.0), 0.0, -0.0, np.pi / 2,
                         -np.pi / 2, geom.psi, geom.psi + np.pi / 4])
        phi = np.concatenate([seam, rng.uniform(-np.pi, np.pi,
                                                10**5 - seam.size)])
        two = 2.0 * (phi - geom.psi)
        want = np.maximum(a - b * np.cos(two) - c * np.sin(two), 0.0)
        got = model.aperture_sq(phi, geom)
        assert got.shape == phi.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        for x in seam:
            assert float(model.aperture_sq(float(x), geom)) == a
        with np.errstate(invalid="ignore"):  # as cos(inf) warns
            bad = model.aperture_sq(np.array([np.nan, np.inf, -np.inf]), geom)
        assert np.all(np.isnan(bad))

    def test_constant_aperture_threshold(self):
        # 2x2 arrays with spacings s and s' = s + k ulps: b is about
        # (s^2 - s'^2)/2, from a fraction of an ulp of a to several. Whether
        # or not the constant path is taken, the result must be the closed
        # form's bits, at the extremes of cos and sin too; both paths occur.
        flat = set()
        for sx, psi in ((0.02, 0.3), (0.03, -0.7), (0.0125, 2.0), (0.5, 0.0)):
            phis = np.concatenate([psi + np.arange(-4, 4) * np.pi / 4,
                                   np.random.default_rng(1).uniform(
                                       -np.pi, np.pi, 2000)])
            sy = sx
            for _ in range(6):
                g = ArrayGeometry([(math.hypot(x, y), math.atan2(y, x))
                                   for x in (-sx / 2, sx / 2)
                                   for y in (-sy / 2, sy / 2)],
                                  psi, 6e9, 1e16, 46, 1.25e-9)
                a, b, c = g._aperture_abc
                two = 2.0 * (phis - psi)
                want = np.maximum(a - b * np.cos(two) - c * np.sin(two), 0.0)
                got = model.aperture_sq(phis, g)
                assert np.array_equal(got.view(np.int64),
                                      want.view(np.int64)), (sx, sy)
                flat.add(g._aperture_flat)
                sy = np.nextafter(sy, 1.0)
        assert flat == {True, False}

    def test_asymmetric_array_takes_general_path(self):
        # A 2x3 URA has b != 0: its aperture varies with the angle, and a
        # full update on it stays finite.
        g = ArrayGeometry.uniform_rectangular(
            2, 3, 0.02, psi=0.4, f_c=6e9, beta_bw_sq=1e16, N_s=46,
            T_s=1.25e-9)
        assert not g._aperture_flat
        d2 = model.aperture_sq(np.array([0.4, 0.4 + np.pi / 2]), g)
        assert d2[0] != d2[1]
        p = HyperParams(J=300)
        state = tracker.init(p, g, 2)
        state = stacked([PmpcBelief(
            1, 0, np.tile([5.0, 0.3, 12.0, 0.0, 0.0], (p.J, 1)),
            np.full(p.J, 1.0 / p.J), 0.9)], state)
        state.far = far_belief(np.full(p.J, 2.0))
        ms = [Measurement(5.01, 0.31, 11.5), Measurement(9.0, -1.0, 6.0)]
        for _ in range(3):
            state = tracker.predict(state, p)
            state, est, _ = tracker.update(state, ms, p, g)
        assert est.nom_hat >= 1
        for t in est.all_tracks:
            assert all(map(math.isfinite, (t.d, t.phi, t.u, t.sigma_d,
                                           t.sigma_phi, t.p_exist)))
        assert np.all(np.isfinite(state.far))

    def test_sigma_phi_quartering_and_clamp(self):
        assert model.sigma_phi_sq(2.0, 0.0, GEOM) == pytest.approx(
            model.sigma_phi_sq(1.0, 0.0, GEOM) / 4.0)
        assert model.sigma_phi_sq(10.0, 0.3, simple_geom()) \
            == model.SIGMA_PHI_SQ_MAX

    def test_sigma_phi_formula(self):
        u, phi = 10.0, 0.0
        d2 = model.aperture_sq(phi, GEOM)
        expect = model.SPEED_OF_LIGHT**2 / (8 * np.pi**2 * GEOM.f_c**2
                                            * u**2 * d2)
        assert model.sigma_phi_sq(u, phi, GEOM) == pytest.approx(expect,
                                                                 rel=1e-12)

    def test_amp_scale_values(self):
        assert model.amp_scale_sq(0.0, 414) == 0.5
        assert model.amp_scale_sq(10.0, 414) == pytest.approx(
            0.5 + 100.0 / 1656.0)
        assert model.amp_scale_sq(10.0, 1e18) == pytest.approx(0.5)


class TestCrlbNumeric:
    def test_matches_closed_form_basic(self):
        got = model.crlb_amp_scale_numeric(1.0, 0.0, 1.0, 1.0, 414)
        assert got == pytest.approx(0.5 + 1.0 / (4 * 414), rel=1e-12)

    def test_zero_amplitude(self):
        assert model.crlb_amp_scale_numeric(0.0, 0.0, 2.0, 1.5, 414) == 0.5

    def test_phase_invariance(self):
        a = model.crlb_amp_scale_numeric(3.0, 0.0, 2.0, 0.7, 414)
        b = model.crlb_amp_scale_numeric(0.0, 3.0, 2.0, 0.7, 414)
        c = model.crlb_amp_scale_numeric(3 / math.sqrt(2), 3 / math.sqrt(2),
                                         2.0, 0.7, 414)
        assert a == pytest.approx(b, rel=1e-12)
        assert a == pytest.approx(c, rel=1e-12)

    def test_random_draws_match_closed_form(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            ar, ai = rng.normal(size=2) * 5
            s_norm_sq = rng.uniform(0.1, 1e6)
            sigma_sq = rng.uniform(0.01, 100.0)
            n_eff = rng.integers(1, 10_000)
            u = math.hypot(ar, ai) * math.sqrt(s_norm_sq / sigma_sq)
            got = model.crlb_amp_scale_numeric(ar, ai, s_norm_sq, sigma_sq,
                                               n_eff)
            assert got == pytest.approx(float(model.amp_scale_sq(u, n_eff)),
                                        rel=1e-9)

    def test_singular_inputs_raise(self):
        with pytest.raises(ValueError):
            model.crlb_amp_scale_numeric(1.0, 0.0, 0.0, 1.0, 414)
        with pytest.raises(ValueError):
            model.crlb_amp_scale_numeric(1.0, 0.0, 1.0, 0.0, 414)


# ---------------------------------------------------------------------------
# Likelihoods
# ---------------------------------------------------------------------------

def log_lik(z, x, params=PARAMS):
    """log f(z | x) from model.log_lik_matrix for one measurement (z_d,
    z_phi, z_u) and one particle (d, phi, u, v_d, v_phi)."""
    return float(model.log_lik_matrix([Measurement(*z)], np.array([x], float),
                                      params, GEOM)[0, 0])


def log_gauss_amp_at_mode(u, params=PARAMS):
    """Closed-form log of the gauss-mode truncated amplitude likelihood at
    z_u = u: 1 / (sqrt(2 pi s^2) Phi((u - sqrt(u_de)) / s))."""
    s2 = float(model.amp_scale_sq(u, GEOM.n_eff))
    return -0.5 * math.log(2 * np.pi * s2) \
        - float(log_ndtr((u - math.sqrt(params.u_de)) / math.sqrt(s2)))


class TestDistanceAoaLikelihoods:
    def test_distance_mode_value(self):
        # At zero residuals the joint is the product of three normalizers;
        # divide out the AoA and amplitude ones.
        u, phi = 10.0, 0.2
        var = float(model.sigma_d_sq(u, GEOM))
        var_p = float(model.sigma_phi_sq(u, phi, GEOM))
        got = log_lik((5.0, phi, u), (5.0, phi, u, 0, 0)) \
            + 0.5 * math.log(2 * np.pi * var_p) - log_gauss_amp_at_mode(u)
        assert math.exp(got) == pytest.approx(1.0 / math.sqrt(2 * np.pi * var))

    def test_distance_symmetry_and_one_sigma(self):
        x = (5.0, 0.2, 10.0, 0.0, 0.0)
        s = math.sqrt(float(model.sigma_d_sq(10.0, GEOM)))
        mode = log_lik((5.0, 0.2, 10.0), x)
        assert math.exp(log_lik((5.0 + 0.01, 0.2, 10.0), x)) == \
            pytest.approx(math.exp(log_lik((5.0 - 0.01, 0.2, 10.0), x)))
        assert math.exp(log_lik((5.0 + s, 0.2, 10.0), x) - mode) == \
            pytest.approx(math.exp(-0.5))

    def test_aoa_wrapped_seam(self):
        u = 10.0
        near = log_lik((5.0, -np.pi + 0.01, u), (5.0, np.pi - 0.01, u, 0, 0))
        same = log_lik((5.0, 0.02, u), (5.0, 0.0, u, 0, 0))
        assert math.exp(near) == pytest.approx(math.exp(same), rel=1e-12)

    def test_aoa_mode_and_one_sigma(self):
        u, phi = 10.0, 0.4
        x = (5.0, phi, u, 0.0, 0.0)
        var = float(model.sigma_phi_sq(u, phi, GEOM))
        var_d = float(model.sigma_d_sq(u, GEOM))
        s = math.sqrt(var)
        mode = log_lik((5.0, phi, u), x)
        aoa_mode = mode + 0.5 * math.log(2 * np.pi * var_d) \
            - log_gauss_amp_at_mode(u)
        assert math.exp(aoa_mode) == pytest.approx(
            1.0 / math.sqrt(2 * np.pi * var))
        assert math.exp(log_lik((5.0, phi + s, u), x) - mode) == \
            pytest.approx(math.exp(-0.5))


class TestAmplitudeLikelihood:
    @pytest.mark.parametrize("mode", ["exact", "gauss"])
    @pytest.mark.parametrize("u", [0.0, 1.0, 5.0, 20.0])
    def test_normalization(self, mode, u, amp_lik):
        u_de = PARAMS.u_de
        val, _ = quad(lambda z: amp_lik(z, u, mode),
                      math.sqrt(u_de), max(40.0, u + 30.0), limit=300)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_zero_below_threshold(self, amp_lik):
        assert amp_lik(0.5 * math.sqrt(PARAMS.u_de), 5.0, "exact") == 0.0

    def test_rayleigh_limit_at_zero_amplitude(self, amp_lik):
        # u = 0 reduces to a truncated Rayleigh with scale^2 = 1/2.
        u_de = PARAMS.u_de
        z = math.sqrt(u_de) + 0.5
        expect = 2 * z * math.exp(-(z * z - u_de))
        assert amp_lik(z, 0.0, "exact") == pytest.approx(expect, rel=1e-9)

    def test_point_value_against_direct_formula(self, amp_lik):
        from scipy.special import i0
        u, z, u_de, n_eff = 4.0, 5.0, PARAMS.u_de, 414
        s2 = float(model.amp_scale_sq(u, n_eff))
        rician = (z / s2) * math.exp(-(z * z + u * u) / (2 * s2)) \
            * i0(z * u / s2)
        p_d = float(model.detection_prob(u, u_de, n_eff, "exact"))
        assert amp_lik(z, u, "exact") == pytest.approx(rician / p_d, rel=1e-9)


class TestDetectionProb:
    def test_zero_amplitude_anchor(self):
        u_de = PARAMS.u_de
        assert float(model.detection_prob(0.0, u_de, 414, "exact")) == \
            pytest.approx(math.exp(-u_de), abs=1e-9)

    def test_monotone_and_limits(self):
        us = np.linspace(0.0, 60.0, 1000)
        p = model.detection_prob(us, PARAMS.u_de, 414, "exact")
        assert np.all(np.diff(p) >= -1e-12)
        assert np.all((p >= 0) & (p <= 1))
        assert float(model.detection_prob(1e4, PARAMS.u_de, 414, "exact")) \
            == pytest.approx(1.0)

    def test_tail_integral_oracle(self):
        # p_d equals the untruncated Rician tail above sqrt(u_de).
        u_de = PARAMS.u_de
        u = math.sqrt(2 * u_de)
        s2 = float(model.amp_scale_sq(u, 414))
        from scipy.special import i0e

        def rician(z):
            return (z / s2) * math.exp(-(z - u) ** 2 / (2 * s2)) \
                * i0e(z * u / s2)

        tail, _ = quad(rician, math.sqrt(u_de), u + 30, limit=300)
        assert float(model.detection_prob(u, u_de, 414, "exact")) == \
            pytest.approx(tail, abs=1e-9)

    def test_gauss_mode_is_gaussian_cdf(self):
        from scipy.special import ndtr
        u, u_de = 3.0, PARAMS.u_de
        s = math.sqrt(float(model.amp_scale_sq(u, 414)))
        assert float(model.detection_prob(u, u_de, 414, "gauss")) == \
            pytest.approx(float(ndtr((u - math.sqrt(u_de)) / s)))

    def test_gauss_mode_skips_ndtr_only_where_it_reads_one(self):
        # ndtr runs below x = 8.5 only, NaN included; above, it is exactly
        # 1, so the whole array equals ndtr bit for bit.
        u = np.append(np.linspace(0.0, 60.0, 4001), np.nan)
        x = (u - math.sqrt(PARAMS.u_de)) / np.sqrt(model.amp_scale_sq(u, 414))
        assert np.any((x >= 8.2) & (x < 8.5)) and np.any(x >= 8.5)
        got = model.detection_prob(u, PARAMS.u_de, 414, "gauss")
        assert np.array_equal(got, ndtr(x), equal_nan=True)
        assert np.isnan(got[-1])


def fa_density(z, u_de=PARAMS.u_de, d_max=PARAMS.d_max):
    return math.exp(model.log_fa_density(z, u_de, d_max))


class TestFaDensity:
    def test_normalization(self):
        # Uniform in distance and angle, so integrating the amplitude
        # against d_max * 2 pi covers the whole support.
        u_de, d_max = PARAMS.u_de, PARAMS.d_max
        amp, _ = quad(lambda z: fa_density(Measurement(3.0, 0.1, z))
                      * d_max * 2 * np.pi, math.sqrt(u_de), 40.0, limit=200)
        assert amp == pytest.approx(1.0, abs=1e-6)
        z = Measurement(3.0, 0.1, math.sqrt(u_de) + 0.7)
        expect = (1 / d_max) * (1 / (2 * np.pi)) \
            * 2 * z.z_u * math.exp(-(z.z_u**2 - u_de))
        assert fa_density(z) == pytest.approx(expect, rel=1e-12)

    def test_threshold_boundary_value(self):
        u_de = PARAMS.u_de
        eps = 1e-12
        z = Measurement(3.0, 0.0, math.sqrt(u_de) + eps)
        amp_factor = 2 * math.sqrt(u_de)
        assert fa_density(z) == pytest.approx(
            amp_factor / (PARAMS.d_max * 2 * np.pi), rel=1e-6)

    def test_doubling_dmax_halves_density(self):
        z = Measurement(3.0, 0.0, 3.0)
        assert fa_density(z, d_max=34.0) == pytest.approx(
            fa_density(z, d_max=17.0) / 2.0)

    def test_outside_support(self):
        assert fa_density(Measurement(3.0, 0.0, 1.0), d_max=17.0) == 0.0
        assert fa_density(Measurement(20.0, 0.0, 3.0), d_max=17.0) == 0.0


# ---------------------------------------------------------------------------
# Association factors
# ---------------------------------------------------------------------------

def far_reweight(mus, M, K):
    """Weights after the false-alarm-rate reweighting of update for an
    equally weighted rate belief at mus, with K legacy components that carry
    only missed-detection weight and M measurements that carry no birth mass.
    What remains is the product of the K + M normalization factors
    (exp(-mu) mu^M)^(1/(K+M))."""
    far = far_belief(mus)
    log_beta = np.full((K, M + 1), -np.inf)
    log_beta[:, 0] = 0.0
    log_xi = np.zeros((M, K + 1))
    w = AssociationWeights(beta=np.exp(log_beta), xi=np.exp(log_xi),
                           log_beta=log_beta, log_xi=log_xi,
                           log_new_mass=np.full(M, -np.inf))
    marg = AssociationMarginals(np.zeros((K, M + 1)), np.zeros((M, K + 1)), 0,
                                True, log_nu=np.zeros((M, K)))
    # No legacy association weight: every log(1 + sum_k zeta[k, m]) is 0.
    return tracker._update_far(far, w, marg, np.zeros(M)).weights


class TestFarNorm:
    def test_values(self):
        # Rate particles (mu, 1): weight ratio exp(-mu) mu^M / exp(-1).
        w = far_reweight([1.0, 1.0], 1, 0)
        assert w[0] / w[1] == pytest.approx(1.0)
        w = far_reweight([2.0, 1.0], 4, 6)
        assert w[0] / w[1] == pytest.approx(16 * math.exp(-1.0))
        w = far_reweight([3.0, 1.0], 0, 5)
        assert w[0] / w[1] == pytest.approx(math.exp(-2.0))

    def test_undefined_exponent(self):
        # The exponent 1/(K+M) is undefined at K = M = 0; update then
        # applies the zero-count Poisson evidence exp(-mu) alone. Systematic
        # resampling puts floor or ceil of J times a contiguous block's
        # weight into that block.
        J = 1000
        params = HyperParams(J=J)
        state = tracker.init(params, GEOM, 0)
        state.far = far_belief(np.repeat([1.0, 3.0], J // 2))
        state, _, _ = tracker.update(state, [], params, GEOM)
        share = math.exp(-3.0) / (math.exp(-1.0) + math.exp(-3.0))
        count = int(np.sum(state.far == 3.0))
        assert abs(count - J * share) < 1.0

    @given(st.floats(1e-6, 50.0), st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=200)
    def test_power_identity(self, mu, M, K):
        w = far_reweight([mu, 1.0], M, K)
        assert w[0] / w[1] == pytest.approx(math.exp(-mu + 1.0) * mu**M,
                                            rel=1e-12)


def birth(log_mass):
    return np.array([log_mass], dtype=float)


def log_ratio_assoc_to_miss(w, k=0, m=1):
    """log(beta[k, m] / beta[k, 0]); row scaling cancels in the ratio."""
    return float(w.log_beta[k, m] - w.log_beta[k, 0])


class TestPseudoFactors:
    """The association factors that evaluate_weights integrates over
    one-particle beliefs, against their closed forms. A legacy component
    that does not exist only admits a missed detection; a new component that
    exists only admits b = 0."""

    x = (5.0, 0.2, 8.0, 0.0, 0.0)
    z = Measurement(5.0, 0.2, 8.0)

    def test_g_nonexistent(self):
        w = dabp.evaluate_weights(stacked([point_track(self.x, 0.0)]),
                                  birth(0.0), *packed([self.z], PARAMS),
                                  far_belief([2.0]), PARAMS, GEOM)
        assert w.log_beta[0, 0] == 0.0
        assert w.log_beta[0, 1] == -np.inf

    def test_g_missed_detection(self):
        # beta[0] / beta[1] = (1 - q p_d) / (q t p_d f / f_fa): scaled by q
        # its dependence on q is (1 - q p_d) alone.
        x = (5.0, 0.2, 4.0, 0.0, 0.0)
        p_d = float(model.detection_prob(4.0, PARAMS.u_de, GEOM.n_eff,
                                         PARAMS.amp_mode))

        def scaled_miss(q):
            w = dabp.evaluate_weights(stacked([point_track(x, q)]), birth(0.0),
                                      *packed([self.z], PARAMS),
                                      far_belief([2.0]), PARAMS, GEOM)
            return q * math.exp(-log_ratio_assoc_to_miss(w))

        for q in (0.2, 0.5, 0.9):
            assert scaled_miss(q) / scaled_miss(1.0) == pytest.approx(
                (1 - q * p_d) / (1 - p_d), rel=1e-9)

    def test_g_association_branch(self):
        # beta[1] / beta[0] = q p_d f(z|x) / (mu f_fa(z)) / (1 - q p_d), with
        # the gauss-mode joint likelihood and the clutter density written
        # out in closed form.
        q, mu = 0.6, 2.0
        d, phi, u = 5.0, 0.2, 4.0
        z = Measurement(5.004, 0.23, 4.3)
        u_de = PARAMS.u_de
        var_d = float(model.sigma_d_sq(u, GEOM))
        var_p = float(model.sigma_phi_sq(u, phi, GEOM))
        s2 = float(model.amp_scale_sq(u, GEOM.n_eff))
        p_d = float(ndtr((u - math.sqrt(u_de)) / math.sqrt(s2)))
        log_f = (-0.5 * (z.z_d - d) ** 2 / var_d
                 - 0.5 * math.log(2 * np.pi * var_d)
                 - 0.5 * (z.z_phi - phi) ** 2 / var_p
                 - 0.5 * math.log(2 * np.pi * var_p)
                 - 0.5 * (z.z_u - u) ** 2 / s2 - 0.5 * math.log(2 * np.pi * s2)
                 - math.log(p_d))
        log_fa = (math.log(2 * z.z_u) - (z.z_u**2 - u_de)
                  - math.log(PARAMS.d_max) - math.log(2 * np.pi))
        w = dabp.evaluate_weights(stacked([point_track((d, phi, u, 0, 0), q)]),
                                  birth(0.0), *packed([z], PARAMS),
                                  far_belief([mu]), PARAMS, GEOM)
        expect = q * p_d * math.exp(log_f - log_fa) / mu / (1 - q * p_d)
        assert math.exp(log_ratio_assoc_to_miss(w)) == pytest.approx(
            expect, rel=1e-9)

    def test_h_exclusion_and_nonexistent(self):
        # xi[m, k] for k >= 1 is the non-existence term alone (an existing
        # new component excludes b = k); xi[m, 0] adds the birth mass, and
        # log_xi0 is the log of their ratio.
        trs = [point_track(self.x, 0.7) for _ in range(3)]
        for log_mass in (-3.0, 0.0, 4.0):
            w = dabp.evaluate_weights(stacked(trs), birth(log_mass),
                                      *packed([self.z], PARAMS),
                                      far_belief([2.0]), PARAMS, GEOM)
            assert math.exp(w.log_xi0[0]) - 1.0 == \
                pytest.approx(math.exp(w.log_new_mass[0]), rel=1e-9)

    def test_h_birth_branch_arithmetic(self):
        # log_new_mass = log t + log mu_n + log_mass, t = E[n/mu] / E[n]
        # with n(mu) = (exp(-mu) mu^M)^(1/(K+M)).
        params = HyperParams(mu_n=0.008, d_max=17.0)
        trs = [point_track(self.x, 0.7)]
        w = dabp.evaluate_weights(stacked(trs), birth(1.5),
                                  *packed([self.z], params),
                                  far_belief([2.0]), params, GEOM)
        assert math.exp(w.log_new_mass[0]) == pytest.approx(
            0.008 / 2.0 * math.exp(1.5), rel=1e-9)
        mus = np.array([1.0, 3.0])
        n = (np.exp(-mus) * mus) ** (1 / 2)
        t = float(np.sum(n / mus) / np.sum(n))
        w = dabp.evaluate_weights(stacked(trs), birth(1.5),
                                  *packed([self.z], params),
                                  far_belief(mus), params, GEOM)
        assert w.far_ratio == pytest.approx(t, rel=1e-12)
        assert math.exp(w.log_new_mass[0]) == pytest.approx(
            t * 0.008 * math.exp(1.5), rel=1e-9)

    @given(st.floats(0.5, 30.0), st.floats(0.1, 10.0), st.floats(0.0, 1.0),
           st.floats(-5.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_factors_nonnegative(self, u, mu, q, log_mass):
        x = (5.0, 0.2, u, 0.0, 0.0)
        z = Measurement(5.3, 0.25, max(u, math.sqrt(PARAMS.u_de) + 0.1))
        w = dabp.evaluate_weights(stacked([point_track(x, q)] * 2),
                                  birth(log_mass), *packed([z], PARAMS),
                                  far_belief([mu]), PARAMS, GEOM)
        # exp(-log_xi0) is the coupling over the new-or-clutter weight.
        for arr in (np.exp(w.log_beta), np.exp(-w.log_xi0)):
            assert not np.any(np.isnan(arr))
            assert np.all((arr >= 0.0) & (arr <= 1.0))
        if q == 0.0:
            assert np.all(np.exp(w.log_beta)[:, 1:] == 0.0)


class TestBatchLikelihood:
    def test_matrix_matches_single(self):
        # Each column equals the one-measurement call on the same set.
        rng = np.random.default_rng(1)
        particles = np.column_stack([
            rng.uniform(2, 10, 50), rng.uniform(-3, 3, 50),
            rng.uniform(3, 30, 50), rng.normal(0, 0.1, 50),
            rng.normal(0, 0.01, 50)])
        zs = [Measurement(5.0, 0.2, 10.0), Measurement(7.0, -1.0, 4.0)]
        mat = model.log_lik_matrix(zs, particles, PARAMS, GEOM)
        for m, z in enumerate(zs):
            single = model.log_lik_matrix([z], particles, PARAMS, GEOM)[:, 0]
            assert np.allclose(mat[:, m], single, rtol=1e-12)

    @pytest.mark.parametrize("detected", [False, True])
    @pytest.mark.parametrize("mode", ["exact", "gauss"])
    def test_paired_sets_match_columns(self, mode, detected):
        # particles of shape (J, M, 5) pair measurement m with its own set
        # particles[:, m]; each column equals that set's one-column call,
        # bit for bit.
        params = HyperParams(amp_mode=mode)
        rng = np.random.default_rng(7)
        J, thresh = 200, math.sqrt(params.u_de)
        zs = [Measurement(rng.uniform(0.0, 17.0), rng.uniform(-np.pi, np.pi),
                          z_u) for z_u in (thresh, 2.1, 4.0, 9.0, 30.0)]
        M = len(zs)
        X = np.stack([rng.uniform(0.0, 17.0, (M, J)),
                      rng.uniform(-np.pi, np.pi, (M, J)),
                      rng.uniform(0.0, 40.0, (M, J)),
                      rng.normal(0, 0.1, (M, J)),
                      rng.normal(0, 0.01, (M, J))])
        paired = model.log_lik_matrix(zs, X.transpose(2, 1, 0), params, GEOM,
                                      detected)
        assert paired.shape == (J, M)
        assert np.all(paired[:, 0] == -np.inf)
        for m, z in enumerate(zs):
            own = np.ascontiguousarray(X[:, m].T)
            single = model.log_lik_matrix([z], own, params, GEOM, detected)
            assert np.array_equal(paired[:, m], single[:, 0])

    @pytest.mark.parametrize("mode", ["exact", "gauss"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_detected_flag_cancels_detection_probability(self, mode, seed):
        # log_lik_matrix(..., True) = log_lik_matrix(...) + log P_d(u):
        # the detection-weighted form the association weights use.
        params = HyperParams(amp_mode=mode)
        rng = np.random.default_rng(seed)
        J = 300
        particles = np.column_stack([
            rng.uniform(0.0, 17.0, J), rng.uniform(-np.pi, np.pi, J),
            rng.uniform(0.0, 40.0, J), rng.normal(0, 0.1, J),
            rng.normal(0, 0.01, J)])
        thresh = math.sqrt(params.u_de)
        z_us = [thresh, 1.0, np.nextafter(thresh, 9.0), 2.5, 6.0, 15.0, 35.0]
        zs = [Measurement(rng.uniform(0.0, 17.0), rng.uniform(-np.pi, np.pi),
                          z_u) for z_u in z_us]
        plain = model.log_lik_matrix(zs, particles, params, GEOM)
        weighted = model.log_lik_matrix(zs, particles, params, GEOM, True)
        assert weighted.shape == plain.shape == (J, len(zs))
        log_p_d = model.log_detection_prob(particles[:, 2], params.u_de,
                                           GEOM.n_eff, mode)
        below = np.array(z_us) <= thresh
        assert np.all(plain[:, below] == -np.inf)
        assert np.all(weighted[:, below] == -np.inf)
        finite = np.isfinite(plain)
        assert np.array_equal(finite, np.isfinite(weighted))
        assert np.all(finite[:, ~below])
        expect = (plain + log_p_d[:, None])[finite]
        assert np.allclose(weighted[finite], expect, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("mode", ["exact", "gauss"])
    def test_modes_agree_roughly_at_high_snr(self, mode):
        params = HyperParams(amp_mode=mode)
        val = log_lik((5.0, 0.2, 25.0), (5.0, 0.2, 25.0, 0.0, 0.0), params)
        assert np.isfinite(val)


def oracle_log_lik(z, x, params, geom, detected):
    """log f(z | x_j) of one measurement row z for the particles x (J, 5),
    term by term from the variances, wrap_angle and log_detection_prob."""
    if z[2] <= math.sqrt(params.u_de):
        return np.full(len(x), -np.inf)
    d, phi, u = x[:, 0], x[:, 1], x[:, 2]
    var_d = model.sigma_d_sq(u, geom)
    var_p = model.sigma_phi_sq(u, phi, geom)
    s2 = model.amp_scale_sq(u, geom.n_eff)
    r = model.wrap_angle(z[1] - phi)
    terms = [-0.5 * np.log(TWO_PI * var_d), -(z[0] - d) ** 2 / (2 * var_d),
             -0.5 * np.log(TWO_PI * var_p), -r ** 2 / (2 * var_p),
             -(z[2] - u) ** 2 / (2 * s2)]
    if params.amp_mode == "exact":
        terms += [np.log(z[2] / s2), np.log(i0e(z[2] * u / s2))]
    else:
        terms += [-0.5 * np.log(TWO_PI * s2)]
    if not detected:
        terms += [-model.log_detection_prob(u, params.u_de, geom.n_eff,
                                            params.amp_mode)]
    return sum(terms)


LINEAR_3X1 = ArrayGeometry.uniform_rectangular(
    3, 1, 0.02, psi=GEOM.psi, f_c=GEOM.f_c, beta_bw_sq=GEOM.beta_bw_sq,
    N_s=GEOM.N_s, T_s=GEOM.T_s)
ORACLE_GEOMS = {"default": GEOM, "single": simple_geom(),
                "linear_3x1": LINEAR_3X1}


class TestLikelihoodOracle:
    """log_lik_matrix (one log of the normaliser, the squared angle
    residual as min(|r|, 2 pi - |r|)^2) against the per-term formula, at
    amplitudes from 0 through the clamp to 50 and angle residuals across
    the +-pi seam out to 3 pi."""

    AMPS = [0.0, model.U_FLOOR / 2, 1e-4, 1e-2, 0.5, 2.0, 2.1, 4.0, 9.0,
            20.0, 50.0]

    def particles(self, z_phi, residuals):
        rng = np.random.default_rng(5)
        u, r = (a.ravel() for a in np.meshgrid(self.AMPS, residuals))
        return np.column_stack([rng.uniform(0.0, 17.0, len(u)), z_phi - r,
                                u, rng.normal(0, 0.1, len(u)),
                                rng.normal(0, 0.01, len(u))])

    def check(self, zs, x, params, geom, detected):
        got = model.log_lik_matrix(zs, x, params, geom, detected)
        for m, z in enumerate(zs):
            want = oracle_log_lik(np.asarray(z, float), x, params, geom,
                                  detected)
            np.testing.assert_allclose(got[:, m], want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("detected", [False, True])
    @pytest.mark.parametrize("mode", ["gauss", "exact"])
    @pytest.mark.parametrize("geom", ORACLE_GEOMS, ids=str)
    def test_matches_per_term_formula(self, geom, mode, detected):
        params = HyperParams(amp_mode=mode)
        pi = math.pi
        residuals = np.concatenate([
            np.linspace(-3 * pi, 3 * pi, 61),
            [-pi, pi, np.nextafter(pi, 0), np.nextafter(-pi, 0),
             np.nextafter(pi, 4), 2 * pi, -2 * pi, 1e-9, 0.0]])
        thresh = math.sqrt(params.u_de)
        for z in (Measurement(4.0, 3.0, 9.0), Measurement(11.0, -0.5, 2.1),
                  Measurement(0.5, -pi, 50.0)):
            # The residual grid around z, and a column at the threshold.
            x = self.particles(z.z_phi, residuals)
            self.check([z, Measurement(7.0, z.z_phi, thresh)], x, params,
                       ORACLE_GEOMS[geom], detected)

    @pytest.mark.parametrize("mode", ["gauss", "exact"])
    def test_residual_beyond_three_pi_takes_wrap_angle(self, mode):
        # One residual of 3.2 pi: min(|r|, 2 pi - |r|)^2 would read
        # (1.2 pi)^2 for the wrapped (0.8 pi)^2.
        params = HyperParams(amp_mode=mode)
        x = self.particles(0.5, [0.3, 3.2 * math.pi])
        self.check([Measurement(4.0, 0.5, 9.0)], x, params, LINEAR_3X1,
                   False)


def test_log_sum_exp_helper():
    a = np.array([[0.0, -np.inf], [-np.inf, -np.inf]])
    out = model.log_sum_exp(a, axis=1)
    assert out[0] == pytest.approx(0.0)
    assert out[1] == -np.inf
    assert model.log_sum_exp(np.array([1e4, 1e4])) == pytest.approx(
        1e4 + math.log(2.0))
