"""Radio forward model and snapshot-estimator tests: pulse properties and
a full-evaluation pulse oracle, steering-vector consistency, linearity, the
batched steering kernel, the coarse matched filter against its earlier form,
the harmonic score against a loop oracle, the time-domain correlation and
its own finite differences, the Newton refinement's stops, the coarse grid's
sizing rule, refinement on a single element, the forward-inverse round trip
and hostile sample vectors."""

import cmath
import logging
import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mpctrack import radio
from mpctrack.model import SPEED_OF_LIGHT, ArrayGeometry
from mpctrack.radio import (_pulse_periodic, _sample_times,
                            default_geometry, rrc_mean_square_bandwidth,
                            rrc_pulse, snapshot_estimate, steering_vectors,
                            synth_radio)

from conftest import component_sum, rows

GEOM = default_geometry()
BANK = radio.MatchedFilterBank(GEOM)


class TestPulse:
    def test_peak_and_singularities_finite(self):
        T, b = radio.PULSE_DURATION, radio.PULSE_ROLLOFF
        ts = np.array([0.0, T / (4 * b), -T / (4 * b), 0.3 * T, 5 * T])
        vals = rrc_pulse(ts)
        assert np.all(np.isfinite(vals))
        assert vals[0] == pytest.approx((1 + b * (4 / np.pi - 1)) / T)

    def test_truncation(self):
        T = radio.PULSE_DURATION
        assert rrc_pulse(np.array([8.5 * T]))[0] == 0.0

    def test_matched_filter_nyquist_property(self):
        # The pulse autocorrelation (raised cosine) has nulls at multiples
        # of the symbol period.
        T = radio.PULSE_DURATION
        dt = T / 400.0
        t = np.arange(-10 * T, 10 * T, dt)
        p = rrc_pulse(t)
        for k in (1, 2, 3):
            lag = int(round(k * T / dt))
            ac = float(np.sum(p[:-lag] * p[lag:]) * dt)
            ac0 = float(np.sum(p * p) * dt)
            assert abs(ac / ac0) < 1e-3

    def test_mean_square_bandwidth_quadrature_oracle(self):
        # Second moment of the raised-cosine energy spectrum, by quadrature.
        T, b = radio.PULSE_DURATION, radio.PULSE_ROLLOFF

        def spec(f):
            af = abs(f)
            lo = (1 - b) / (2 * T)
            hi = (1 + b) / (2 * T)
            if af <= lo:
                return T
            if af <= hi:
                return T / 2 * (1 + math.cos(np.pi * T / b * (af - lo)))
            return 0.0

        num, _ = quad(lambda f: f * f * spec(f), -1e9, 1e9, limit=500,
                      points=[-4e8, -1e8, 0, 1e8, 4e8])
        den, _ = quad(spec, -1e9, 1e9, limit=500,
                      points=[-4e8, -1e8, 0, 1e8, 4e8])
        assert rrc_mean_square_bandwidth(T, b) == pytest.approx(num / den,
                                                                rel=1e-6)


def oracle_rrc_pulse(t):
    """The pulse as first written: the formula at every sample, then zero
    outside the support."""
    T, b = radio.PULSE_DURATION, radio.PULSE_ROLLOFF
    x = np.asarray(t, dtype=float) / T
    out = np.zeros_like(x)
    near_zero = np.abs(x) < 1e-8
    out[near_zero] = (1.0 + b * (4.0 / np.pi - 1.0)) / T
    near_sing = np.abs(np.abs(x) - 1.0 / (4.0 * b)) < 1e-8
    out[near_sing] = (b / (T * math.sqrt(2.0))) * (
        (1.0 + 2.0 / np.pi) * math.sin(np.pi / (4.0 * b))
        + (1.0 - 2.0 / np.pi) * math.cos(np.pi / (4.0 * b)))
    rest = ~(near_zero | near_sing)
    xr = x[rest]
    num = (np.sin(np.pi * xr * (1.0 - b))
           + 4.0 * b * xr * np.cos(np.pi * xr * (1.0 + b)))
    den = np.pi * xr * (1.0 - (4.0 * b * xr) ** 2)
    out[rest] = num / den / T
    out[np.abs(x) > radio.PULSE_TRUNC_SYMBOLS] = 0.0
    return out


def oracle_pulse_periodic(t, period):
    return oracle_rrc_pulse(
        np.mod(np.asarray(t) + period / 2.0, period) - period / 2.0)


# +-1e300 / T overflows, and sin, cos and np.mod of +-inf are invalid.
@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
class TestPulseOracle:
    PERIOD = GEOM.N_s * GEOM.T_s
    EDGE = radio.PULSE_TRUNC_SYMBOLS * radio.PULSE_DURATION
    SING = radio.PULSE_DURATION / (4 * radio.PULSE_ROLLOFF)
    SPECIAL = [0.0, -0.0, SING, -SING, np.nextafter(SING, 0.0),
               np.nextafter(-SING, 0.0), EDGE, -EDGE, np.nan, np.inf, -np.inf,
               1e300, -1e300]
    SPECIAL += [np.nextafter(e, to) for e in (EDGE, -EDGE)
                for to in (-1.0, 1.0)]

    def grid(self):
        # Dense over three periods (so past one period either way), random
        # points and the special points; 1-d, 3-d, 0-d and empty.
        rng = np.random.default_rng(5)
        return [np.concatenate([
            np.linspace(-1.5 * self.PERIOD, 1.5 * self.PERIOD, 100_001),
            rng.uniform(-self.PERIOD, self.PERIOD, 20_000), self.SPECIAL]),
            rng.uniform(-self.PERIOD, self.PERIOD, (7, 9, 46)),
            np.array(self.EDGE), np.array([])]

    def test_rrc_pulse_equals_full_evaluation(self):
        for t in self.grid():
            got = rrc_pulse(t)
            assert got.shape == t.shape
            assert got.tobytes() == oracle_rrc_pulse(t).tobytes()

    def test_pulse_periodic_equals_mod_then_full_evaluation(self):
        for t in self.grid():
            got = _pulse_periodic(t, self.PERIOD)
            assert got.tobytes() == \
                oracle_pulse_periodic(t, self.PERIOD).tobytes()
            # The steering delays' range, where wrapping adds or subtracts.
            inner = np.clip(t, -0.99 * self.PERIOD, 0.99 * self.PERIOD)
            assert _pulse_periodic(inner, self.PERIOD).tobytes() == \
                oracle_pulse_periodic(inner, self.PERIOD).tobytes()

    def test_special_points(self):
        vals = rrc_pulse(np.array(self.SPECIAL))
        assert np.isnan(vals[8]) and vals[9] == vals[10] == 0.0
        assert vals[6] != 0.0 and vals[7] != 0.0      # +-8 T is inside
        assert np.all(np.isfinite(np.delete(vals, 8)))


class TestSteeringAndSynth:
    @pytest.mark.parametrize("n_comps", [0, 1, 4])
    def test_synth_is_component_sum_plus_unit_noise(self, n_comps):
        rng = np.random.default_rng(n_comps)
        comps = [((rng.uniform(2, 12), rng.uniform(-3, 3),
                   rng.uniform(3, 30), 0, 0),
                  rng.uniform(0, 2 * np.pi)) for _ in range(n_comps)]
        got = synth_radio(*rows(comps), GEOM, np.random.default_rng(11))
        noise_rng = np.random.default_rng(11)
        n1 = noise_rng.standard_normal(GEOM.n_eff)
        n2 = noise_rng.standard_normal(GEOM.n_eff)
        want = component_sum(*rows(comps), GEOM) + math.sqrt(0.5) * (n1 + 1j * n2)
        assert got.tobytes() == want.tobytes()

    def test_zero_components_zero_noise(self):
        samples = component_sum(*rows([]), GEOM)
        assert np.all(samples == 0.0)
        assert samples.shape == (GEOM.n_eff,)

    def test_opposite_amplitudes_cancel(self):
        s = (5.0, 0.3, 10.0, 0.0, 0.0)
        samples = component_sum(*rows([(s, 0.0), (s, np.pi)]), GEOM)
        assert np.allclose(samples, 0.0, atol=1e-12)

    def test_component_snr_reproduced(self):
        # With the noiseless reference scale 1, the projected amplitude
        # satisfies |alpha|^2 ||s||^2 = u^2.
        u = 12.0
        s = (4.0, -0.7, u, 0.0, 0.0)
        sv = steering_vectors([s[0]], [s[1]], GEOM)[0]
        samples = component_sum(*rows([(s, 0.4)]), GEOM)
        alpha = np.vdot(sv, samples) / np.vdot(sv, sv)
        got = abs(alpha) ** 2 * float(np.vdot(sv, sv).real)
        assert got == pytest.approx(u * u, rel=1e-9)

    def test_linearity_superposition(self):
        rng = np.random.default_rng(3)
        comps = [((rng.uniform(2, 12), rng.uniform(-3, 3),
                   rng.uniform(3, 30), 0, 0),
                  rng.uniform(0, 2 * np.pi)) for _ in range(4)]
        whole = component_sum(*rows(comps), GEOM)
        parts = sum(component_sum(*rows([c]), GEOM) for c in comps)
        assert np.allclose(whole, parts, rtol=1e-10, atol=1e-12)

    def test_steering_norm_delay_invariant(self):
        # periodic pulse: the norm does not depend on the delay
        n1 = np.linalg.norm(steering_vectors([3.0], [0.5], GEOM)[0])
        n2 = np.linalg.norm(steering_vectors([12.0], [0.5], GEOM)[0])
        assert n1 == pytest.approx(n2, rel=1e-6)

    def test_no_points_no_rows(self):
        # A step with no alive component asks for zero steering vectors.
        assert steering_vectors([], [], GEOM).shape == (0, GEOM.n_eff)


class TestSnapshotEstimator:
    def test_noiseless_single_component_round_trip(self):
        d_true, phi_true = 5.37, math.radians(23.4)
        s = (d_true, phi_true, 30.0, 0.0, 0.0)
        samples = component_sum(*rows([(s, 0.7)]), GEOM)
        ms = snapshot_estimate(samples, BANK, u_de=25.0)
        assert len(ms) == 1
        assert abs(ms[0].z_d - d_true) < SPEED_OF_LIGHT * GEOM.T_s / 20.0
        assert abs(ms[0].z_phi - phi_true) < math.radians(1.0)

    def test_two_separated_components_recovered(self):
        u = math.sqrt(414 * 10 ** 1.84)
        s1 = (3.0, math.radians(-40.0), u, 0, 0)
        s2 = (9.0, math.radians(60.0), u, 0, 0)
        samples = synth_radio(*rows([(s1, 0.3), (s2, 2.1)]), GEOM,
                              np.random.default_rng(1))
        ms = snapshot_estimate(samples, BANK, u_de=25.0)
        assert len(ms) == 2
        ds = sorted(z.z_d for z in ms)
        assert ds[0] == pytest.approx(3.0, abs=0.05)
        assert ds[1] == pytest.approx(9.0, abs=0.05)
        for z in ms:
            assert z.z_u == pytest.approx(u, rel=0.1)

    def test_pure_noise_spurious_rate(self):
        # With the threshold calibrated at 1% false-alarm rate, pure-noise
        # snapshots rarely produce output.
        rng = np.random.default_rng(2)
        u_de = radio.calibrate_detection_threshold(
            GEOM, 0.01, trials=60, rng=np.random.default_rng(3))
        spurious = 0
        trials = 40
        for _ in range(trials):
            noise = (rng.standard_normal(GEOM.n_eff)
                     + 1j * rng.standard_normal(GEOM.n_eff)) / math.sqrt(2)
            ms = snapshot_estimate(noise, BANK, u_de=u_de)
            spurious += len(ms)
        assert spurious <= 5  # a handful on average, not per snapshot


# ---------------------------------------------------------------------------
# Oracles: one steering vector and its projection per point, the coarse
# filter in its earlier form and the harmonic score as explicit loops.
# ---------------------------------------------------------------------------

def oracle_steering_vector(d, phi, geom):
    times = _sample_times(geom)
    period = geom.N_s * geom.T_s
    g = geom.delay_shift(phi).reshape(-1)          # (H,)
    tau = d / SPEED_OF_LIGHT - g                   # per-element delay
    ph = np.exp(2j * np.pi * geom.f_c * g)         # per-element carrier phase
    blocks = oracle_pulse_periodic(times[None, :] - tau[:, None], period) \
        * ph[:, None]
    return blocks.reshape(-1)


def oracle_objective(residual, d, phi, geom):
    s = oracle_steering_vector(d, phi, geom)
    nsq = float(np.vdot(s, s).real)
    if nsq <= 0.0:
        return -np.inf, s, nsq, 0j
    corr = complex(np.vdot(s, residual))
    return abs(corr) ** 2 / nsq, s, nsq, corr


def oracle_score(bank, base, d, phi):
    """|corr|^2 of the point against a harmonics table, summed one element h
    and one harmonic k at a time on Python complex numbers: base_hk times
    e^{j (omega_k (d / c - g_h) - 2 pi f_c g_h)}."""
    carrier = 2.0 * math.pi * bank.geom.f_c
    corr = 0j
    for h, g in enumerate(bank.geom.delay_shift(phi).tolist()):
        for i, k in enumerate(bank.ks.tolist()):
            omega = 2.0 * math.pi * k / bank.period
            corr += complex(base[h, i]) * cmath.exp(
                1j * (omega * (d / SPEED_OF_LIGHT - g) - carrier * g))
    return abs(corr) ** 2


def oracle_coarse_peaks(bank, residuals):
    """The coarse matched filter in its earlier form, for each residual: the
    per-angle carrier in (A, H, K) order summed over elements by einsum,
    the inverse transform scaled back by L and the power
    |C|^2 / H. Returns each winning cell's (delay, angle)."""
    geom = bank.geom
    g = geom.delay_shift(bank.angles).T
    carrier = np.exp(-2j * np.pi * geom.f_c * g)
    shifted = np.exp(-2j * np.pi * bank.ks[None, None, :] * g[:, :, None]
                     / bank.period) * carrier[:, :, None]
    out = []
    for samples in residuals:
        Y = np.fft.fft(samples.reshape(geom.H, geom.N_s), axis=1)
        base = bank.coeff_conj[None, :] * Y[:, bank.fft_cols] \
            * bank.center_phase[None, :]
        W = np.einsum("ahk,hk->ak", shifted, base)
        Wpad = np.zeros((len(bank.angles), bank.L), dtype=complex)
        Wpad[:, bank.pad_cols] = W
        C = scipy.fft.ifft(Wpad, axis=1)
        C *= bank.L
        power = np.abs(C) ** 2 / geom.H
        ai, qi = np.unravel_index(int(np.argmax(power)), power.shape)
        out.append((qi * bank.delay_step * SPEED_OF_LIGHT,
                    float(bank.angles[ai])))
    return out


def coarse_residual(seed):
    """A residual for the coarse filter, by seed: unit noise alone, one to
    three components at random points over unit noise, or one to three
    components exactly on grid cells, over unit noise or noiseless."""
    rng = np.random.default_rng(seed)
    kind = seed % 4
    if kind == 0:
        return math.sqrt(0.5) * (rng.standard_normal(GEOM.n_eff)
                                 + 1j * rng.standard_normal(GEOM.n_eff))
    comps = []
    for _ in range(int(rng.integers(1, 4))):
        if kind == 1:
            d = float(rng.uniform(0.3, 16.0))
            phi = float(rng.uniform(-math.pi, math.pi))
        else:
            qi = int(rng.integers(BANK.L))
            d = qi * BANK.delay_step * SPEED_OF_LIGHT
            phi = float(BANK.angles[rng.integers(len(BANK.angles))])
        comps.append(((d, phi, float(rng.uniform(3.0, 60.0)), 0.0, 0.0),
                      float(rng.uniform(0.0, 2.0 * math.pi))))
    if kind == 3:
        return component_sum(*rows(comps), GEOM)
    return synth_radio(*rows(comps), GEOM, rng)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def noisy_snapshot(seed):
    comps = [((4.0, math.radians(-35.0), 40.0, 0, 0), 0.4),
             ((9.5, math.radians(70.0), 25.0, 0, 0), 2.0)]
    return synth_radio(*rows(comps), GEOM, np.random.default_rng(seed))


class TestBatchedEstimator:
    @pytest.mark.parametrize("P", [1, 2, 5, 6, 17])
    def test_steering_rows_equal_oracle(self, P):
        rng = np.random.default_rng(P)
        d = rng.uniform(0.1, 20.0, P)
        phi = rng.uniform(-4.0, 4.0, P)   # past +-pi, as stencil points go
        S = steering_vectors(d, phi, GEOM)
        assert S.shape == (P, GEOM.n_eff)
        for i in range(P):
            want = oracle_steering_vector(float(d[i]), float(phi[i]), GEOM)
            assert np.array_equal(S[i].view(float), want.view(float))
            assert np.array_equal(steering_vectors([d[i]], [phi[i]], GEOM)[0],
                                  want)

    def test_coarse_peak_equals_oracle(self):
        # The batched product and the unscaled power pick the earlier
        # form's cell on noise alone, on components anywhere and on
        # components exactly on grid cells.
        residuals = [coarse_residual(seed) for seed in range(600)]
        want = oracle_coarse_peaks(BANK, residuals)
        for seed, (residual, cell) in enumerate(zip(residuals, want)):
            assert BANK.coarse_peak(BANK.harmonics(residual)) == cell, seed

    @staticmethod
    def newton_point(base, start):
        """The score at start and the full Newton step's point and score,
        or None for the point where the Hessian shows no proper maximum."""
        f, (gd, gp), (hdd, hdp, hpp) = BANK.score(base, *start)
        det = hdd * hpp - hdp * hdp
        if det <= 0 or hdd >= 0:
            return f, None, None
        point = (start[0] - (hpp * gd - hdp * gp) / det,
                 start[1] - (-hdp * gd + hdd * gp) / det)
        return f, point, BANK.score(base, *point)[0]

    def test_no_local_maximum_stays(self):
        base = BANK.harmonics(noisy_snapshot(7))
        start = (6.5, math.radians(150.0))
        f, point, _ = self.newton_point(base, start)
        assert point is None
        assert radio._newton_refine(base, start, BANK) == start + (f,)

    def test_newton_point_no_higher_stays(self):
        base = BANK.harmonics(noisy_snapshot(7))
        start = (12.39, 2.48)
        f, point, f1 = self.newton_point(base, start)
        assert point is not None and f1 <= f
        assert radio._newton_refine(base, start, BANK) == start + (f,)

    @pytest.mark.parametrize("offset", [None, (0.04, 3.0), (-0.04, -3.0),
                                        (0.04, -3.0)])
    def test_near_a_component_steps_onto_it(self, offset):
        # From the coarse peak, or from points just inside half a coarse
        # cell (4.6 cm, 3.2 degrees) off the noiseless component, at least
        # the first Newton point is taken and the search ends on the
        # component within the round trip's tolerances.
        d_true, phi_true = 5.37, math.radians(23.4)
        residual = component_sum(
            *rows([((d_true, phi_true, 30.0, 0.0, 0.0), 0.7)]), GEOM)
        base = BANK.harmonics(residual)
        start = BANK.coarse_peak(base) if offset is None else (
            d_true + offset[0], phi_true + math.radians(offset[1]))
        f, point, f1 = self.newton_point(base, start)
        d, phi, score = radio._newton_refine(base, start, BANK)
        assert f1 > f and score >= f1
        assert abs(d - d_true) < SPEED_OF_LIGHT * GEOM.T_s / 20.0
        assert abs(phi - phi_true) < math.radians(1.0)

    @pytest.mark.parametrize("phi", [math.pi - 0.005, math.pi - 0.04,
                                     -math.pi + 0.02])
    def test_cancel_projects_the_unwrapped_point(self, phi):
        # A noiseless component just inside the +-pi seam: its coarse peak
        # is the -pi cell, and from just below +pi the refinement crosses
        # the seam unwrapped (the score is 2 pi-periodic in phi). The
        # cancellation step's amplitude and rest are the projection onto
        # the refined point's own steering vector, and the reported angle is
        # wrapped.
        residual = component_sum(
            *rows([((5.37, phi, 30.0, 0.0, 0.0), 0.7)]), GEOM)
        assert BANK.coarse_peak(BANK.harmonics(residual))[1] == -math.pi
        d, phi_hat, amp, _, rest, _ = radio._cancel(residual, BANK)
        _, s, nsq, corr = oracle_objective(residual, d, phi_hat, GEOM)
        alpha = corr / nsq
        assert bits([amp]) == bits([abs(alpha) * math.sqrt(nsq)])
        assert rest.tobytes() == (residual - alpha * s).tobytes()
        if phi > 0:
            assert abs(phi_hat - (phi - 2.0 * math.pi)) < math.radians(0.1)
        (m,) = snapshot_estimate(residual, BANK, u_de=25.0)
        assert -math.pi <= m.z_phi < math.pi
        assert abs(m.z_phi - phi) < math.radians(0.1)

    @pytest.mark.parametrize("phi", [math.radians(23.4), 1.0, -2.0])
    @pytest.mark.parametrize("turns", [1, -1])
    def test_extract_projects_the_wrapped_winner(self, monkeypatch, phi,
                                                 turns):
        # A coarse peak a full turn off a noiseless component is refined
        # unwrapped (the score is 2 pi-periodic in phi); the cancellation
        # step's amplitude and rest are the projection onto the refined
        # point's own steering vector, and the reported angle is wrapped.
        residual = component_sum(
            *rows([((5.37, phi, 30.0, 0.0, 0.0), 0.7)]), GEOM)
        start = (5.37, phi + turns * 2.0 * math.pi)
        monkeypatch.setattr(radio.MatchedFilterBank, "coarse_peak",
                            lambda bank, base: start)
        d, phi_hat, amp, _, rest, _ = radio._cancel(residual, BANK)
        _, s, nsq, corr = oracle_objective(residual, d, phi_hat, GEOM)
        alpha = corr / nsq
        assert bits([amp]) == bits([abs(alpha) * math.sqrt(nsq)])
        assert rest.tobytes() == (residual - alpha * s).tobytes()
        assert abs(phi_hat - start[1]) < math.radians(0.1)
        (m,) = snapshot_estimate(residual, BANK, u_de=25.0)
        assert -math.pi <= m.z_phi < math.pi
        assert abs(m.z_phi - phi) < math.radians(0.1)

    def test_steering_calls_per_component(self, monkeypatch):
        # The search runs on the harmonics table and a component costs one
        # steering vector, the refined point's, for its projection.
        calls = []
        kernel = radio.steering_vectors

        def counting(d, phi, geom):
            calls.append(len(d))
            return kernel(d, phi, geom)

        iterations = []
        peak = radio.MatchedFilterBank.coarse_peak

        def counting_peak(bank, base):
            iterations.append(len(calls))
            return peak(bank, base)

        samples = noisy_snapshot(7)
        monkeypatch.setattr(radio, "steering_vectors", counting)
        monkeypatch.setattr(radio.MatchedFilterBank, "coarse_peak",
                            counting_peak)
        ms = snapshot_estimate(samples, BANK, u_de=25.0)
        assert len(ms) == 2
        per_component = np.diff(iterations + [len(calls)])
        assert per_component.tolist() == [1, 1, 1]  # two found, one rejected
        assert calls == [1, 1, 1]


def square_array(n):
    """The default array's signal on an n x n array at its 2 cm spacing."""
    return ArrayGeometry.uniform_rectangular(
        n, n, 0.02, psi=0.0, f_c=GEOM.f_c, beta_bw_sq=GEOM.beta_bw_sq,
        N_s=GEOM.N_s, T_s=GEOM.T_s)


def with_offsets(offsets):
    return ArrayGeometry(offsets, 0.0, GEOM.f_c, GEOM.beta_bw_sq, GEOM.N_s,
                         GEOM.T_s)


SINGLE = with_offsets([(0.0, 0.0)])


class TestScore:
    """MatchedFilterBank.score: the harmonic |corr|^2 against a loop oracle
    and against the time-domain projection, and its analytic gradient and
    Hessian against central differences of itself."""

    COMPS = [((4.0, math.radians(-35.0), 40.0, 0, 0), 0.4),
             ((9.5, math.radians(70.0), 25.0, 0, 0), 2.0)]

    def table(self, geom):
        bank = radio.MatchedFilterBank(geom)
        samples = synth_radio(*rows(self.COMPS), geom,
                              np.random.default_rng(7))
        return bank, samples, bank.harmonics(samples)

    def points(self, geom, seed):
        """Points within half a sample and half a beamwidth lambda / D of
        each component, and points anywhere."""
        rng = np.random.default_rng(seed)
        half_beam = SPEED_OF_LIGHT / geom.f_c / (
            4.0 * max(d for d, _ in geom.element_offsets) or 1.0)
        half_cell = SPEED_OF_LIGHT * geom.T_s / 2.0
        near = [(c[0] + rng.uniform(-half_cell, half_cell),
                 c[1] + rng.uniform(-half_beam, half_beam))
                for c, _ in self.COMPS for _ in range(4)]
        anywhere = [(rng.uniform(1.0, 15.0), rng.uniform(-3.0, 3.0))
                    for _ in range(6)]
        return near, anywhere

    def test_equals_loop_oracle(self):
        bank, _, base = self.table(GEOM)
        near, anywhere = self.points(GEOM, 0)
        for d, phi in near + anywhere:
            assert bank.score(base, d, phi)[0] == pytest.approx(
                oracle_score(bank, base, d, phi), rel=1e-12)

    def test_near_components_is_the_time_domain_correlation(self):
        # The pulse is not quite band-limited (its +-8 symbol truncation),
        # so the harmonic sum is |np.vdot(s, y)|^2 up to a small error.
        bank, samples, base = self.table(GEOM)
        near, _ = self.points(GEOM, 1)
        for d, phi in near:
            s = oracle_steering_vector(d, phi, GEOM)
            assert bank.score(base, d, phi)[0] == pytest.approx(
                abs(np.vdot(s, samples)) ** 2, rel=5e-3)

    @pytest.mark.parametrize("geom", [GEOM, square_array(4), SINGLE],
                             ids=["3x3", "4x4", "single"])
    def test_derivatives_are_central_differences(self, geom):
        # Steps of c T_s / 1e4 in d and 1e-5 rad in phi; each error is
        # relative to the largest entry of the gradient or the Hessian.
        bank, _, base = self.table(geom)
        hd, hp = SPEED_OF_LIGHT * geom.T_s / 1e4, 1e-5
        near, anywhere = self.points(geom, 2)
        for d, phi in near + anywhere:
            _, grad, hess = bank.score(base, d, phi)
            f_dp, g_dp, h_dp = bank.score(base, d + hd, phi)
            f_dm, g_dm, h_dm = bank.score(base, d - hd, phi)
            f_pp, g_pp, h_pp = bank.score(base, d, phi + hp)
            f_pm, g_pm, h_pm = bank.score(base, d, phi - hp)
            num_grad = ((f_dp - f_dm) / (2 * hd), (f_pp - f_pm) / (2 * hp))
            num_hess = ((g_dp[0] - g_dm[0]) / (2 * hd),
                        (g_pp[0] - g_pm[0]) / (2 * hp),
                        (g_pp[1] - g_pm[1]) / (2 * hp))
            for got, want in ((grad, num_grad), (hess, num_hess)):
                scale = max(abs(x) for x in got)
                assert max(abs(a - b) for a, b in zip(got, want)) \
                    <= 1e-6 * scale, (d, phi)

    def test_single_element_phi_terms_are_zero(self):
        bank, _, base = self.table(SINGLE)
        near, anywhere = self.points(SINGLE, 3)
        for d, phi in near + anywhere:
            _, (gd, gp), (hdd, hdp, hpp) = bank.score(base, d, phi)
            assert gp == hdp == hpp == 0.0 and hdd != 0.0


class TestCoarseGrid:
    """The coarse grid is sized to the geometry: ceil(16 pi D / lambda)
    angle cells (eight per beamwidth lambda / D, D twice the largest element
    distance), between 1 and 180, evenly over [-pi, pi), and the first
    2-3-5-smooth delay length >= 4 N_s."""

    def test_default_array(self):
        # D = 5.66 cm against lambda = 5.00 cm: 56.9 cells; 4 * 46 = 184 =
        # 8 * 23, and the next 2-3-5-smooth length is 192 = 2^6 * 3.
        assert len(BANK.angles) == 57
        assert BANK.L == 192
        assert BANK.delay_step == BANK.period / 192
        assert BANK.angles[0] == -math.pi
        assert np.allclose(np.diff(BANK.angles), 2.0 * math.pi / 57)
        assert BANK.angles[-1] < math.pi

    @pytest.mark.parametrize("n, cells", [(4, 86), (6, 143), (8, 180)])
    def test_square_arrays(self, n, cells):
        # 85.4 and 142.2 cells; the 8 x 8 array's 199.2 is capped, so the
        # carrier table is never larger than on a 2 degree grid.
        bank = radio.MatchedFilterBank(square_array(n))
        assert len(bank.angles) == cells
        assert bank.L == 192
        assert bank.shifted_carrier.shape == (GEOM.N_s, cells, n * n)

    def test_wide_geometry_capped(self):
        bank = radio.MatchedFilterBank(with_offsets([(5.0, 0.0),
                                                     (5.0, math.pi)]))
        assert len(bank.angles) == 180
        assert bank.L == 192
        assert bank.shifted_carrier.shape == (GEOM.N_s, 180, 2)

    def test_single_element_one_cell(self):
        bank = radio.MatchedFilterBank(SINGLE)
        assert bank.angles.tolist() == [-math.pi]
        assert bank.L == 192

    def test_smooth_length(self):
        assert [radio._smooth_length(n) for n in
                (1, 4, 7, 11, 14, 49, 184, 188, 400)] == \
            [1, 4, 8, 12, 15, 50, 192, 192, 400]

    @pytest.mark.parametrize("point", [(5.37, math.radians(23.4)),
                                       (11.2, math.radians(-140.0))])
    def test_square_4x4_round_trip(self, point):
        # The default-array round trip's tolerances on the 86-cell grid.
        geom = square_array(4)
        d_true, phi_true = point
        samples = component_sum(
            *rows([((d_true, phi_true, 30.0, 0.0, 0.0), 0.7)]), geom)
        ms = snapshot_estimate(samples, radio.MatchedFilterBank(geom),
                               u_de=25.0)
        assert len(ms) == 1
        assert abs(ms[0].z_d - d_true) < SPEED_OF_LIGHT * geom.T_s / 20.0
        assert abs(ms[0].z_phi - phi_true) < math.radians(1.0)


class TestSingleElement:
    """One element has no aperture: its steering vector does not depend on
    phi, the angle stencil is exactly flat and the refinement steps in d
    alone."""

    def test_distance_leaves_the_coarse_grid(self):
        # On the coarse delay grid alone (cells of 9.0 cm) the median error
        # is about 2 cm; sigma_d at u = 40 is about 5 mm.
        bank = radio.MatchedFilterBank(SINGLE)
        errors = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d = float(rng.uniform(2.0, 15.0))
            samples = synth_radio(*rows([((d, 0.3, 40.0, 0.0, 0.0), 1.0)]),
                                  SINGLE, rng)
            (m,) = snapshot_estimate(samples, bank, u_de=25.0)
            errors.append(abs(m.z_d - d))
        assert np.median(errors) < 0.01

    def test_refinement_steps_in_d(self):
        # Every start takes the step in d (none stops for want of
        # curvature) and keeps its phi.
        bank = radio.MatchedFilterBank(SINGLE)
        samples = synth_radio(*rows([((6.1, 0.3, 40.0, 0.0, 0.0), 1.0)]),
                              SINGLE, np.random.default_rng(3))
        base = bank.harmonics(samples)
        starts = [bank.coarse_peak(base), (6.05, 1.0), (6.2, -2.0),
                  (6.12, 4.0)]
        for start in starts:
            d, phi, score = radio._newton_refine(base, start, bank)
            assert d != start[0] and phi == start[1], start
            assert score > bank.score(base, *start)[0]


class Records(logging.Handler):
    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        self.records.append(record)


class TestHostileSamples:
    @given(st.integers(0, 3), st.lists(st.integers(0, GEOM.n_eff - 1),
                                       min_size=1, max_size=8),
           st.sampled_from([np.nan, np.inf, -np.inf]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_non_finite_samples_give_nothing(self, seed, positions, value,
                                             imag):
        # NaN or +-inf at random positions, in the real or the imaginary
        # part: no measurement and one warning that counts the bad samples.
        samples = noisy_snapshot(seed)
        samples[positions] += complex(0.0, value) if imag else value
        handler = Records()
        radio.log.addHandler(handler)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                ms = snapshot_estimate(samples, BANK, u_de=25.0)
        finally:
            radio.log.removeHandler(handler)
        assert ms == []
        (record,) = handler.records
        assert record.levelno == logging.WARNING
        assert f"{len(set(positions))} of {GEOM.n_eff} samples not " \
            "finite" in record.getMessage()

    @given(st.integers(0, 3), st.one_of(
        st.floats(-1000.0, 1000.0).map(lambda e: 2.0 ** e),
        st.floats(-160.0, 300.0).map(lambda e: 10.0 ** e)))
    @settings(max_examples=60, deadline=None)
    @example(0, 2.0 ** 300)
    @example(0, 2.0 ** -500)
    @example(0, 1e-160)
    @example(0, 1e140)
    @example(0, 1e145)
    @example(0, 1e300)
    def test_accepted_scales_measure_as_unit_scale(self, seed, scale):
        # Every scale, down to where the samples leave the normal float
        # range and up to where the largest nears it, gives the unit-scale
        # measurements: the estimator runs on the samples brought to unit
        # scale by a power of two.
        samples = noisy_snapshot(seed)
        want = snapshot_estimate(samples, BANK, u_de=25.0)
        got = snapshot_estimate(samples * scale, BANK, u_de=25.0)
        assert len(got) == len(want) == 2
        for a, b in zip(got, want):
            assert a == pytest.approx(b, rel=1e-9)

    def test_power_of_two_scales_measure_bit_for_bit(self):
        # Multiplying by a power of two is exact while the samples stay
        # normal, and so is the estimator's own normalisation: every such
        # scale gives the unit-scale measurements bit for bit.
        samples = noisy_snapshot(0)
        want = snapshot_estimate(samples, BANK, u_de=25.0)
        assert len(want) == 2
        for e in range(-1000, 1001):
            assert snapshot_estimate(samples * 2.0 ** e, BANK,
                                     u_de=25.0) == want, e
