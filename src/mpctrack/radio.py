"""Radio-signal forward synthesis and a successive-cancellation snapshot
estimator.

The transmit pulse is a root-raised-cosine, treated as periodic over the
observation window (delays wrap), truncated at +-8 symbol periods. The
snapshot estimator takes the residual's per-element harmonics once per
component. On them it runs a coarse delay-angle matched filter (an np.fft
inverse transform, in place, on a grid sized to the geometry: eight angle
cells per beamwidth lambda / D, at most 180, and a 2-3-5-smooth count of at
least four delay cells per sample) and refines the coarse peak and each
feedback seed with Newton steps on the harmonic matched-filter power, whose
gradient and Hessian are exact. The best point is projected once onto its
time-domain steering vector, which gives the least-squares amplitude and the
subtraction; the estimator repeats while the normalized amplitude exceeds the
detection threshold.
"""

import logging
import math

import numpy as np

from .model import (SPEED_OF_LIGHT, ArrayGeometry, Measurement, wrap_angle,
                    wrap_periodic)

log = logging.getLogger(__name__)

PULSE_DURATION = 2e-9     # root-raised-cosine symbol period, seconds
PULSE_ROLLOFF = 0.6
PULSE_TRUNC_SYMBOLS = 8.0  # pulse support is +- this many symbol periods


def rrc_pulse(t):
    """Root-raised-cosine pulse of symbol period T = PULSE_DURATION and
    rolloff b = PULSE_ROLLOFF, unit peak scale 1/T convention, zero outside
    +-PULSE_TRUNC_SYMBOLS symbol periods (NaN stays NaN)."""
    T, b = PULSE_DURATION, PULSE_ROLLOFF
    x = np.asarray(t, dtype=float) / T
    out = np.zeros_like(x)
    # Only the support is evaluated; NaN fails the comparison, so it is kept.
    inside = ~(np.abs(x) > PULSE_TRUNC_SYMBOLS)
    x = x[inside]
    val = np.empty_like(x)

    near_zero = np.abs(x) < 1e-8
    val[near_zero] = (1.0 + b * (4.0 / np.pi - 1.0)) / T

    near_sing = np.abs(np.abs(x) - 1.0 / (4.0 * b)) < 1e-8
    val[near_sing] = (b / (T * math.sqrt(2.0))) * (
        (1.0 + 2.0 / np.pi) * math.sin(np.pi / (4.0 * b))
        + (1.0 - 2.0 / np.pi) * math.cos(np.pi / (4.0 * b)))

    rest = ~(near_zero | near_sing)
    xr = x[rest]
    num = (np.sin(np.pi * xr * (1.0 - b))
           + 4.0 * b * xr * np.cos(np.pi * xr * (1.0 + b)))
    den = np.pi * xr * (1.0 - (4.0 * b * xr) ** 2)
    val[rest] = num / den / T

    out[inside] = val
    return out


def rrc_mean_square_bandwidth(T: float = PULSE_DURATION,
                              rolloff: float = PULSE_ROLLOFF) -> float:
    """Mean-square bandwidth (Hz^2) of the root-raised-cosine pulse: the
    second moment of its raised-cosine energy spectrum."""
    b = rolloff
    return (1.0 / 12.0 + b * b * (0.25 - 2.0 / np.pi**2)) / (T * T)


def default_geometry() -> ArrayGeometry:
    """3x3 uniform rectangular array with 2 cm spacing at 6 GHz, 46 samples
    per element at 1.25 ns, and the standard pulse's mean-square
    bandwidth."""
    return ArrayGeometry.uniform_rectangular(
        3, 3, 0.02, psi=0.0, f_c=6e9,
        beta_bw_sq=rrc_mean_square_bandwidth(), N_s=46, T_s=1.25e-9)


# ---------------------------------------------------------------------------
# Steering vectors and snapshots
# ---------------------------------------------------------------------------

def _sample_times(geom: ArrayGeometry) -> np.ndarray:
    return (np.arange(geom.N_s) - (geom.N_s - 1) / 2.0) * geom.T_s


def _pulse_periodic(t, period: float) -> np.ndarray:
    """Transmit pulse with delays wrapped onto the observation period."""
    return rrc_pulse(wrap_periodic(t, period))


def steering_vectors(d, phi, geom: ArrayGeometry) -> np.ndarray:
    """Sampled, element-major stacked signals of unit-amplitude components at
    distances d and arrival angles phi (equal-length sequences); shape
    (P, N_s * H), one row per (d, phi) pair."""
    d = np.asarray(d, dtype=float)
    times = _sample_times(geom)
    period = geom.N_s * geom.T_s
    g = geom.delay_shift(np.asarray(phi, dtype=float)).T  # (P, H)
    tau = d[:, None] / SPEED_OF_LIGHT - g          # per-element delay
    ph = np.exp(2j * np.pi * geom.f_c * g)         # per-element carrier phase
    blocks = _pulse_periodic(times[None, None, :] - tau[:, :, None], period) \
        * ph[:, :, None]
    return blocks.reshape(d.size, geom.n_eff)


def synth_radio(truth: np.ndarray, phases: np.ndarray, geom: ArrayGeometry,
                rng: np.random.Generator) -> np.ndarray:
    """One sampled array observation (complex, (N_s * H,), element-major
    stacking): components given as (P, 5) truth rows (d, phi, u, v_d, v_phi)
    with (P,) amplitude phases, plus circular complex Gaussian noise of unit
    variance.

    Each component's amplitude magnitude is set so its normalized amplitude
    (|alpha| ||s|| / sigma) equals the row's u.
    """
    samples = np.zeros(geom.n_eff, dtype=complex)
    S = steering_vectors(truth[:, 0], truth[:, 1], geom)
    for u, phase, s in zip(truth[:, 2].tolist(), phases.tolist(), S):
        norm = np.linalg.norm(s)
        if norm == 0.0:
            continue
        samples += u / norm * np.exp(1j * phase) * s
    samples += math.sqrt(0.5) * (rng.standard_normal(geom.n_eff)
                                 + 1j * rng.standard_normal(geom.n_eff))
    return samples


# ---------------------------------------------------------------------------
# Successive-cancellation snapshot estimator
# ---------------------------------------------------------------------------

NEWTON_STEPS = 2
MAX_COMPONENTS = 25


def _smooth_length(n: int) -> int:
    """The smallest integer >= n (n >= 1) whose only prime factors are 2, 3
    and 5, a length pocketfft transforms with its fast passes."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _angle_cells(geom: ArrayGeometry) -> int:
    """Coarse angle cells for the geometry: eight per beamwidth lambda / D
    over the full turn, ceil(16 pi D / lambda), with D twice the largest
    element distance from the centroid; at least 1 (an array without
    aperture) and at most 180 (a 2 degree grid)."""
    aperture = 2.0 * max(abs(d) for d, _ in geom.element_offsets)
    cells = 16.0 * math.pi * aperture * geom.f_c / SPEED_OF_LIGHT
    return max(1, math.ceil(min(180.0, cells)))


def _pulse_harmonics(geom: ArrayGeometry) -> np.ndarray:
    """Fourier-series coefficients of the periodic pulse on the baseband
    harmonics k in [-N_s/2, N_s/2), computed from a fine sampling."""
    period = geom.N_s * geom.T_s
    Q = 16 * geom.N_s
    tq = (np.arange(Q) / Q - 0.5) * period
    p = _pulse_periodic(tq, period)
    spec = np.fft.fft(p) / Q
    # fft of samples p(tq): coefficient k lives at bin k with a phase from
    # the -period/2 start offset.
    k = np.fft.fftfreq(Q, d=1.0 / Q)
    coeff = spec * np.exp(-1j * np.pi * k)  # shift start to t = -T/2
    half = geom.N_s // 2
    ks = np.arange(-half, geom.N_s - half)
    return ks, coeff[ks % Q]


class MatchedFilterBank:
    """Precomputed coarse delay-angle correlation machinery for one geometry:
    L delay cells of delay_step seconds over the period, and
    _angle_cells(geom) angles evenly over [-pi, pi). Nothing here depends
    on the samples' scale; snapshot_estimate brings each snapshot to unit
    scale by one power of two before it searches."""

    def __init__(self, geom: ArrayGeometry):
        self.geom = geom
        self.period = geom.N_s * geom.T_s
        self.L = _smooth_length(4 * geom.N_s)
        self.delay_step = self.period / self.L
        self.ks, coeff = _pulse_harmonics(geom)
        self.coeff_conj = np.conj(coeff)
        self.fft_cols = np.mod(self.ks, geom.N_s)   # harmonic k's FFT bin
        self.pad_cols = np.mod(self.ks, self.L)     # and its fine-grid bin
        self.angles = np.linspace(-np.pi, np.pi, _angle_cells(geom),
                                  endpoint=False)
        # Per-angle, per-element phase factors on each harmonic.
        g = geom.delay_shift(self.angles).T           # (A, H)
        carrier = np.exp(-2j * np.pi * geom.f_c * g)  # (A, H)
        # e^{-j 2 pi k g / T} times the carrier, harmonic-major (K, A, H) so
        # coarse_peak's element sum is one batched matrix product.
        self.shifted_carrier = np.exp(
            -2j * np.pi * self.ks[:, None, None] * g[None, :, :] / self.period
        ) * carrier[None, :, :]
        # score's phase derivatives: omega_k / c in d, omega_k + 2 pi f_c
        # times q_h = -g_h' in phi.
        omega = 2.0 * np.pi * self.ks / self.period
        self.omega_d = omega / SPEED_OF_LIGHT
        self.omega_rf = omega + 2.0 * np.pi * geom.f_c
        i0 = (geom.N_s - 1) / 2.0
        self.center_phase = np.exp(2j * np.pi * self.ks * i0 / geom.N_s)

    def harmonics(self, samples: np.ndarray) -> np.ndarray:
        """The (H, K) table conj(c_k) Y_hk e^{j 2 pi k i0 / N_s} of a sample
        vector: each element's FFT on the baseband harmonics k, matched to
        the pulse's Fourier coefficients c_k and referred to the centre
        sample i0. coarse_peak and score search it."""
        geom = self.geom
        Y = np.fft.fft(samples.reshape(geom.H, geom.N_s), axis=1)
        return self.coeff_conj[None, :] * Y[:, self.fft_cols] \
            * self.center_phase[None, :]

    def coarse_peak(self, base: np.ndarray):
        """Return (delay, angle) of the grid cell with the largest
        |correlation|^2 against a harmonics table (the mean steering norm
        that would normalize it is the same in every cell)."""
        # (K, A, 1): coherent element sum with angle-dependent shifts.
        W = np.matmul(self.shifted_carrier, base.T[:, :, None])
        # Evaluate C(tau) on the fine grid via an L-point inverse transform;
        # its 1/L scale does not move the peak.
        Wpad = np.zeros((len(self.angles), self.L), dtype=complex)
        Wpad[:, self.pad_cols] = W[:, :, 0].T
        C = np.fft.ifft(Wpad, axis=1, out=Wpad).view(float)
        C *= C                 # squared real and imaginary parts, in place
        power = C[:, 0::2] + C[:, 1::2]
        ai, qi = np.unravel_index(int(np.argmax(power)), power.shape)
        return qi * self.delay_step * SPEED_OF_LIGHT, float(self.angles[ai])

    def score(self, base: np.ndarray, d: float, phi: float):
        """|corr|^2 of the point (d, phi) against a harmonics table, with its
        gradient and Hessian in (d, phi): (score, (g_d, g_phi), (h_dd,
        h_dphi, h_phiphi)) as Python floats.

        corr sums base_hk e^{j theta_hk} over elements h and harmonics k,
        theta_hk = omega_k (d / c - g_h) - 2 pi f_c g_h with g_h the delay
        shift at phi: np.vdot(s, y) for the point's steering vector s, in
        the harmonic domain. By Parseval ||s|| does not depend on (d, phi),
        so |corr|^2 is the score. theta's derivatives are omega_k / c in d
        and (omega_k + 2 pi f_c) q_h in phi, with q_h = -g_h' the delay shift
        at phi - pi / 2 and q_h' = g_h; without aperture (g_h = 0) every phi
        term is exactly 0.
        """
        g, q = self.geom.delay_shift(np.array([phi, phi - 0.5 * math.pi])).T
        E = base * np.exp(1j * (self.omega_d * d
                                - np.multiply.outer(g, self.omega_rf)))
        # Element sums weighted by 1, q, q^2 and g, per harmonic.
        S0, Sq, Sqq, Sg = E.sum(axis=0), q @ E, (q * q) @ E, g @ E
        C = complex(S0.sum())
        Cd = 1j * complex(self.omega_d @ S0)
        Cdd = -complex((self.omega_d * self.omega_d) @ S0)
        Cp = 1j * complex(self.omega_rf @ Sq)
        Cdp = -complex((self.omega_d * self.omega_rf) @ Sq)
        Cpp = 1j * complex(self.omega_rf @ Sg) \
            - complex((self.omega_rf * self.omega_rf) @ Sqq)
        Cc = C.conjugate()
        return (abs(C) ** 2,
                (2.0 * (Cc * Cd).real, 2.0 * (Cc * Cp).real),
                (2.0 * (abs(Cd) ** 2 + (Cc * Cdd).real),
                 2.0 * (Cd.conjugate() * Cp + Cc * Cdp).real,
                 2.0 * (abs(Cp) ** 2 + (Cc * Cpp).real)))


def _newton_refine(base: np.ndarray, start, bank: MatchedFilterBank):
    """Newton steps on the bank's score of a harmonics table from the point
    start = (d, phi), at most NEWTON_STEPS of them. The search stops where
    the Hessian shows no proper local maximum or the Newton point does not
    score higher; where the phi curvature is exactly 0 (an array without
    aperture) it steps in d alone. phi is not wrapped: the score is
    2 pi-periodic in it. Returns (d, phi, score)."""
    d, phi = start
    f, (gd, gp), (hdd, hdp, hpp) = bank.score(base, d, phi)
    for _ in range(NEWTON_STEPS):
        det = hdd * hpp - hdp * hdp
        if hpp == 0 and hdd < 0:    # no aperture: the step in d alone
            dd, dp = -gd / hdd, 0.0
        elif det <= 0 or hdd >= 0:  # not a proper local maximum
            break
        else:
            dd = -(hpp * gd - hdp * gp) / det
            dp = -(-hdp * gd + hdd * gp) / det
        f1, (gd, gp), (hdd, hdp, hpp) = bank.score(base, d + dd, phi + dp)
        if not f1 > f:              # a NaN score is no higher either
            break
        d, phi, f = d + dd, phi + dp, f1
    return d, phi, f


def _cancel(residual: np.ndarray, seeds: list, bank: MatchedFilterBank):
    """One cancellation step: the coarse grid peak and the seed points
    (d, phi) each refined on the residual's harmonics, the best of them (max
    keeps the first of equal scores), and the residual's projection alpha s
    on its steering vector. Returns (d, phi, amp, z_u, rest, rest_energy):
    amp = |alpha| ||s||, z_u = amp / sigma_hat with sigma_hat^2 the rest's
    energy per sample, rest = residual - alpha s; None where ||s|| = 0."""
    base = bank.harmonics(residual)
    starts = [bank.coarse_peak(base)] + seeds
    d, phi, _ = max((_newton_refine(base, st, bank) for st in starts),
                    key=lambda c: c[2])
    (s,) = steering_vectors([d], [phi], bank.geom)
    nsq = float(np.vdot(s, s).real)
    if nsq <= 0.0:
        return None
    alpha = complex(np.vdot(s, residual)) / nsq
    rest = residual - alpha * s
    rest_energy = float(np.vdot(rest, rest).real)
    sigma_hat = math.sqrt(max(rest_energy / bank.geom.n_eff,
                              np.finfo(float).tiny))
    amp = abs(alpha) * math.sqrt(nsq)
    return d, phi, amp, amp / sigma_hat, rest, rest_energy


def snapshot_estimate(samples: np.ndarray, prior_tracks,
                      bank: MatchedFilterBank, u_de: float) -> list:
    """Extract measurement triples from a sample vector of the bank's
    geometry by successive cancellation.

    prior_tracks: optional iterable of feedback summaries (objects with .d
    and .phi) used as additional search seeds before the global grid. The
    acceptance test during extraction uses the running residual, while the
    reported amplitudes are normalized by the final noise estimate so they
    are not biased low by components still awaiting subtraction. Every
    output is scale-free, and the samples are first scaled, exactly, by the
    power of two that brings their largest real or imaginary part into
    [1, 2): any power-of-two multiple of a snapshot measures the same bit
    for bit. A sample vector with a non-finite sample gives [] and one
    warning; feedback summaries with a non-finite d or phi are dropped with
    one warning.
    """
    n = bank.geom.n_eff
    residual = np.array(samples, dtype=complex)
    # The peak is taken over the parts, whose moduli could overflow; it is
    # NaN or inf exactly when a sample is not finite.
    parts = residual.view(float)
    peak = float(np.max(np.abs(parts)))
    if not math.isfinite(peak):
        log.warning("snapshot_estimate: %d of %d samples not finite; no "
                    "measurements", np.count_nonzero(~np.isfinite(residual)),
                    n)
        return []
    # At unit scale nothing in the search over- or underflows (the Newton
    # determinant goes as the residual's scale to the fourth power).
    np.ldexp(parts, 1 - math.frexp(peak)[1], out=parts)
    energy = initial_energy = float(np.vdot(residual, residual).real)
    thresh = math.sqrt(u_de)
    seeds = [(t.d, float(t.phi)) for t in (prior_tracks or [])]
    finite = [sd for sd in seeds
              if math.isfinite(sd[0]) and math.isfinite(sd[1])]
    if len(finite) < len(seeds):
        log.warning("snapshot_estimate: %d of %d feedback seeds not finite; "
                    "dropped", len(seeds) - len(finite), len(seeds))
        seeds = finite
    found = []

    for _ in range(MAX_COMPONENTS):
        # Below this the residual is cancellation error, not signal.
        if energy < 1e-9 * initial_energy:
            break
        step = _cancel(residual, seeds, bank)
        if step is None:
            break
        d, phi, amp, z_u, rest, rest_energy = step
        if z_u <= thresh:
            break
        found.append((d, float(wrap_angle(phi)), amp))
        residual, energy = rest, rest_energy
        seeds = [sd for sd in seeds
                 if abs(sd[0] - d) > 0.3 or abs(wrap_angle(sd[1] - phi)) > 0.1]

    sigma_final = math.sqrt(max(energy / n, np.finfo(float).tiny))
    return [Measurement(float(d), float(phi), float(amp / sigma_final))
            for d, phi, amp in found]


def calibrate_detection_threshold(geom: ArrayGeometry, fa_prob: float = 0.01,
                                  trials: int = 100,
                                  rng: np.random.Generator = None) -> float:
    """Monte-Carlo calibration of the estimator's detection threshold: the
    (1 - fa_prob) quantile of the estimator's own acceptance statistic
    z_u^2 on the first cancellation step of pure unit-variance noise."""
    if rng is None:
        rng = np.random.default_rng(0)
    bank = MatchedFilterBank(geom)
    n = geom.n_eff
    stats = []
    for _ in range(trials):
        residual = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
            / math.sqrt(2.0)
        step = _cancel(residual, [], bank)
        stats.append(step[3] ** 2 if step else 0.0)
    return float(np.quantile(np.array(stats), 1.0 - fa_prob))
