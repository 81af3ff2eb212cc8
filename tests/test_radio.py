"""Radio forward model and snapshot-estimator tests: pulse properties and
a full-evaluation pulse oracle, steering-vector consistency, linearity, the
batched steering kernel and lock-step refinement against one-point oracles,
the forward-inverse round trip and hostile sample vectors."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mpctrack import radio
from mpctrack.model import KinematicState, wrap_angle
from mpctrack.radio import (_pulse_periodic, _sample_times,
                            default_geometry, rrc_mean_square_bandwidth,
                            rrc_pulse, snapshot_estimate, steering_vectors,
                            synth_radio)

from conftest import component_sum

GEOM = default_geometry()


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
        comps = [(KinematicState(rng.uniform(2, 12), rng.uniform(-3, 3),
                                 rng.uniform(3, 30), 0, 0),
                  rng.uniform(0, 2 * np.pi)) for _ in range(n_comps)]
        got = synth_radio(comps, GEOM, np.random.default_rng(11))
        noise_rng = np.random.default_rng(11)
        n1 = noise_rng.standard_normal(GEOM.n_eff)
        n2 = noise_rng.standard_normal(GEOM.n_eff)
        want = component_sum(comps, GEOM) + math.sqrt(0.5) * (n1 + 1j * n2)
        assert got.tobytes() == want.tobytes()

    def test_zero_components_zero_noise(self):
        samples = component_sum([], GEOM)
        assert np.all(samples == 0.0)
        assert samples.shape == (GEOM.n_eff,)

    def test_opposite_amplitudes_cancel(self):
        s = KinematicState(5.0, 0.3, 10.0, 0.0, 0.0)
        samples = component_sum([(s, 0.0), (s, np.pi)], GEOM)
        assert np.allclose(samples, 0.0, atol=1e-12)

    def test_component_snr_reproduced(self):
        # With the noiseless reference scale 1, the projected amplitude
        # satisfies |alpha|^2 ||s||^2 = u^2.
        u = 12.0
        s = KinematicState(4.0, -0.7, u, 0.0, 0.0)
        sv = steering_vectors([s.d], [s.phi], GEOM)[0]
        samples = component_sum([(s, 0.4)], GEOM)
        alpha = np.vdot(sv, samples) / np.vdot(sv, sv)
        got = abs(alpha) ** 2 * float(np.vdot(sv, sv).real)
        assert got == pytest.approx(u * u, rel=1e-9)

    def test_linearity_superposition(self):
        rng = np.random.default_rng(3)
        comps = [(KinematicState(rng.uniform(2, 12), rng.uniform(-3, 3),
                                 rng.uniform(3, 30), 0, 0),
                  rng.uniform(0, 2 * np.pi)) for _ in range(4)]
        whole = component_sum(comps, GEOM)
        parts = sum(component_sum([c], GEOM) for c in comps)
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
        s = KinematicState(d_true, phi_true, 30.0, 0.0, 0.0)
        samples = component_sum([(s, 0.7)], GEOM)
        ms = snapshot_estimate(samples, None, GEOM, u_de=25.0)
        assert len(ms) == 1
        assert abs(ms[0].z_d - d_true) < GEOM.c * GEOM.T_s / 20.0
        assert abs(ms[0].z_phi - phi_true) < math.radians(1.0)

    def test_two_separated_components_recovered(self):
        u = math.sqrt(414 * 10 ** 1.84)
        s1 = KinematicState(3.0, math.radians(-40.0), u, 0, 0)
        s2 = KinematicState(9.0, math.radians(60.0), u, 0, 0)
        samples = synth_radio([(s1, 0.3), (s2, 2.1)], GEOM,
                              np.random.default_rng(1))
        ms = snapshot_estimate(samples, None, GEOM, u_de=25.0)
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
            ms = snapshot_estimate(noise, None, GEOM, u_de=u_de)
            spurious += len(ms)
        assert spurious <= 5  # a handful on average, not per snapshot

    def test_feedback_seeds_accepted(self):
        s = KinematicState(7.0, math.radians(-10.0), 40.0, 0.0, 0.0)
        samples = synth_radio([(s, 1.0)], GEOM, np.random.default_rng(4))

        class Seed:
            d, phi = 7.02, math.radians(-10.3)

        ms = snapshot_estimate(samples, [Seed()], GEOM, u_de=25.0)
        assert len(ms) == 1
        assert ms[0].z_d == pytest.approx(7.0, abs=0.02)


# ---------------------------------------------------------------------------
# One-point oracles: the estimator as it was before batching, one steering
# vector per point and one candidate per refinement.
# ---------------------------------------------------------------------------

def oracle_steering_vector(d, phi, geom):
    times = _sample_times(geom)
    period = geom.N_s * geom.T_s
    g = geom.delay_shift(phi).reshape(-1)          # (H,)
    tau = d / geom.c - g                           # per-element delay
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


def oracle_newton_refine(residual, d, phi, geom):
    """The one-candidate refinement; also returns why it stopped ("curv":
    no proper local maximum, "gain": the Newton point scored no higher,
    "steps": both steps taken) and the number of accepted steps."""
    hd = geom.c * geom.T_s / 50.0
    hp = math.radians(0.2)
    best, _, _, _ = oracle_objective(residual, d, phi, geom)
    stop, taken = "steps", 0
    for _ in range(radio.NEWTON_STEPS):
        f0, _, _, _ = oracle_objective(residual, d, phi, geom)
        fdp, _, _, _ = oracle_objective(residual, d + hd, phi, geom)
        fdm, _, _, _ = oracle_objective(residual, d - hd, phi, geom)
        fpp, _, _, _ = oracle_objective(residual, d, phi + hp, geom)
        fpm, _, _, _ = oracle_objective(residual, d, phi - hp, geom)
        fxy, _, _, _ = oracle_objective(residual, d + hd, phi + hp, geom)
        gd = (fdp - fdm) / (2 * hd)
        gp = (fpp - fpm) / (2 * hp)
        hdd = (fdp - 2 * f0 + fdm) / hd**2
        hpp = (fpp - 2 * f0 + fpm) / hp**2
        hdp = (fxy - fdp - fpp + f0) / (hd * hp)
        det = hdd * hpp - hdp * hdp
        if det <= 0 or hdd >= 0:  # not a proper local maximum, keep point
            stop = "curv"
            break
        dd = -(hpp * gd - hdp * gp) / det
        dp = -(-hdp * gd + hdd * gp) / det
        cand_d, cand_p = d + dd, float(wrap_angle(phi + dp))
        f1, _, _, _ = oracle_objective(residual, cand_d, cand_p, geom)
        if f1 <= f0:
            stop = "gain"
            break
        d, phi = cand_d, cand_p
        best = f1
        taken += 1
    return (d, float(wrap_angle(phi)), best), (stop, taken)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def check_refined(residual, start, got):
    """got is _newton_refine's (d, phi, score, match) for start: (d, phi,
    score) equal the one-candidate oracle's bit for bit, and match is the
    returned point's projection (steering row, nsq, corr), missing exactly
    when the start never moved and wrapping changed its phi. Returns the
    oracle's (stop, taken)."""
    want, stop = oracle_newton_refine(residual, *start, GEOM)
    assert bits(got[:3]) == bits(want), (start, stop)
    assert (got[3] is None) == (
        stop[1] == 0 and float(wrap_angle(start[1])) != start[1]), start
    if got[3] is not None:
        check_projection(residual, got[0], got[1], *got[3])
    return stop


def check_projection(residual, d, phi, s, nsq, corr):
    _, s_want, nsq_want, corr_want = oracle_objective(residual, d, phi, GEOM)
    assert s.tobytes() == s_want.tobytes()
    assert bits([nsq, corr.real, corr.imag]) == \
        bits([nsq_want, corr_want.real, corr_want.imag])


def noisy_snapshot(seed):
    comps = [(KinematicState(4.0, math.radians(-35.0), 40.0, 0, 0), 0.4),
             (KinematicState(9.5, math.radians(70.0), 25.0, 0, 0), 2.0)]
    return synth_radio(comps, GEOM, np.random.default_rng(seed))


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

    def test_lock_step_stops_each_candidate_like_the_oracle(self):
        # Three candidates leave the lock step at different points: one at
        # once for want of a local maximum, one after its first Newton point
        # scored no higher, and the coarse peak after both steps. Wrapping
        # changes the first one's phi, so it returns no projection.
        residual = noisy_snapshot(7)
        d0, p0, _ = radio.MatchedFilterBank(GEOM).coarse_peak(residual)
        starts = [(6.5, math.radians(150.0)), (2.0, -2.5), (d0, p0)]
        got = radio._newton_refine(residual, starts, GEOM)
        stops = [check_refined(residual, st_, g)
                 for st_, g in zip(starts, got)]
        assert stops == [("curv", 0), ("gain", 0), ("steps", 2)]
        assert [g[3] is None for g in got] == [True, False, False]

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_lock_step_refinement_equals_oracle(self, seed):
        residual = noisy_snapshot(seed)
        d0, p0, _ = radio.MatchedFilterBank(GEOM).coarse_peak(residual)
        # The coarse peak, feedback seeds near both components, and points
        # away from them; float64 and Python floats mixed as in the estimator.
        starts = [(d0, p0), (4.03, math.radians(-34.0)),
                  (9.45, math.radians(71.0))]
        rng = np.random.default_rng(seed)
        starts += [(float(rng.uniform(1, 15)), float(rng.uniform(-3, 3)))
                   for _ in range(15)]
        got = radio._newton_refine(residual, starts, GEOM)
        for st_, g in zip(starts, got):
            check_refined(residual, st_, g)

    def test_single_candidate_and_empty(self):
        residual = noisy_snapshot(7)
        (got,) = radio._newton_refine(residual, [(4.03, -0.6)], GEOM)
        check_refined(residual, (4.03, -0.6), got)
        assert radio._newton_refine(residual, [], GEOM) == []

    @pytest.mark.parametrize("phi", [math.radians(23.4), 1.0, -2.0])
    @pytest.mark.parametrize("turns", [1, -1])
    def test_extract_projects_the_wrapped_winner(self, phi, turns):
        # A seed exactly on a noiseless component but a full turn off
        # scores highest without moving, so the winner's projection is
        # evaluated afresh at the wrapped angle.
        residual = component_sum(
            [(KinematicState(5.37, phi, 30.0, 0.0, 0.0), 0.7)], GEOM)
        seed = (5.37, phi + turns * 2.0 * math.pi)
        bank = radio.MatchedFilterBank(GEOM)
        d, phi_hat, s, nsq, corr = radio._extract(residual, [seed], bank,
                                                  GEOM)
        assert (d, phi_hat) == (seed[0], float(wrap_angle(seed[1])))
        check_projection(residual, d, phi_hat, s, nsq, corr)

    @pytest.mark.parametrize("n_seeds", [0, 2, 12])
    def test_steering_calls_per_component(self, monkeypatch, n_seeds):
        # Whatever the candidate count, a component costs at most four
        # batched steering evaluations here: stencil and start points,
        # Newton points, the second stencil and the second Newton points.
        # The winner's projection comes from the refinement (a fifth call
        # only when the winner is a start point that wrapping moves).
        calls = []
        kernel = radio.steering_vectors

        def counting(d, phi, geom):
            calls.append(len(d))
            return kernel(d, phi, geom)

        class Seed:
            def __init__(self, d, phi):
                self.d, self.phi = d, phi

        rng = np.random.default_rng(n_seeds)
        seeds = [Seed(rng.uniform(1, 15), rng.uniform(-3, 3))
                 for _ in range(n_seeds)]
        iterations = []
        peak = radio.MatchedFilterBank.coarse_peak

        def counting_peak(bank, samples):
            iterations.append(len(calls))
            return peak(bank, samples)

        samples = noisy_snapshot(7)
        monkeypatch.setattr(radio, "steering_vectors", counting)
        monkeypatch.setattr(radio.MatchedFilterBank, "coarse_peak",
                            counting_peak)
        ms = snapshot_estimate(samples, seeds, GEOM, u_de=25.0)
        assert len(ms) == 2
        per_component = np.diff(iterations + [len(calls)])
        assert len(per_component) == 3   # two found, one rejected
        assert max(per_component) <= 4
        assert calls[0] == 6 * (1 + n_seeds)   # every start and stencil


class Records(logging.Handler):
    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        self.records.append(record)


class TestHostileSamples:
    BANK = radio.MatchedFilterBank(GEOM)

    @given(st.integers(0, 3), st.lists(st.integers(0, GEOM.n_eff - 1),
                                       min_size=1, max_size=8),
           st.sampled_from([np.nan, np.inf, -np.inf]), st.booleans(),
           st.one_of(st.none(), st.just(1e300), st.floats(1e145, 1e300)))
    @settings(max_examples=60, deadline=None)
    def test_non_finite_or_overflowing_samples_give_nothing(
            self, seed, positions, value, imag, scale):
        # NaN or +-inf at random positions, in the real or the imaginary
        # part, or every sample scaled so far up that the estimator's
        # squared correlations would overflow: no measurement and one
        # warning that counts the bad samples.
        samples = noisy_snapshot(seed)
        if scale is None:
            samples[positions] += complex(0.0, value) if imag else value
            bad = len(set(positions))
        else:
            samples *= scale
            bad = int(np.count_nonzero(~np.isfinite(samples)))
        handler = Records()
        radio.log.addHandler(handler)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                ms = snapshot_estimate(samples, None, GEOM, u_de=25.0,
                                       bank=self.BANK)
        finally:
            radio.log.removeHandler(handler)
        assert ms == []
        (record,) = handler.records
        assert record.levelno == logging.WARNING
        assert f"{bad} of {GEOM.n_eff} samples not finite" in \
            record.getMessage()

    def test_largest_accepted_scale_still_measures(self):
        # Just below the guard the estimator runs as usual.
        ms = snapshot_estimate(noisy_snapshot(0) * 1e140, None, GEOM,
                               u_de=25.0, bank=self.BANK)
        assert len(ms) == 2
        assert all(math.isfinite(m.z_u) for m in ms)
