"""Radio-signal forward synthesis and a successive-cancellation snapshot
estimator.

The transmit pulse is a root-raised-cosine defined by its spectrum: its
Fourier-series coefficients on the N_s baseband harmonics of the observation
window, over which it is periodic (delays wrap). Synthesis places them on
each element's FFT bins, and the estimator works on the per-element
harmonics of a snapshot, taken once. On them it runs a coarse delay-angle
matched filter (an np.fft inverse transform, in place, on a grid sized to the
geometry: eight angle cells per beamwidth lambda / D, at most 180, and a
2-3-5-smooth count of at least four delay cells per sample) and refines the
coarse peak once, with Newton steps on the harmonic matched-filter power,
whose gradient and Hessian are exact. The refined component's least-squares
amplitude and its subtraction are taken on the harmonics too; the estimator
repeats while the normalized amplitude exceeds the detection threshold. Its
measurements depend on the samples alone.
"""

import logging
import math

import numpy as np

from .model import SPEED_OF_LIGHT, ArrayGeometry, Measurement, wrap_angle

log = logging.getLogger(__name__)

PULSE_DURATION = 2e-9     # root-raised-cosine symbol period, seconds
PULSE_ROLLOFF = 0.6


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

def _pulse_harmonics(geom: ArrayGeometry):
    """The baseband harmonics k in [-N_s/2, N_s/2) of the observation period
    and the pulse's Fourier-series coefficients on them, c_k = P(k / period)
    / period. P is the root-raised-cosine spectrum of symbol period T and
    rolloff b: 1 in the pass band |f| <= (1 - b) / 2T, the square root of a
    raised cosine in the roll-off and 0 beyond (1 + b) / 2T. The c_k are
    real and even."""
    T, b = PULSE_DURATION, PULSE_ROLLOFF
    period = geom.N_s * geom.T_s
    half = geom.N_s // 2
    ks = np.arange(-half, geom.N_s - half)
    # 0 in the pass band, 1 at the band edge and beyond.
    roll = np.clip((np.abs(ks) * T / period - 0.5 * (1.0 - b)) / b, 0.0, 1.0)
    return ks, np.sqrt(0.5 + 0.5 * np.cos(np.pi * roll)) / period


def steering_vectors(d, phi, geom: ArrayGeometry) -> np.ndarray:
    """Sampled, element-major stacked signals of unit-amplitude components at
    distances d and arrival angles phi (equal-length sequences); shape
    (P, N_s * H), one row per (d, phi) pair.

    Element h samples sum_k c_k e^{j omega_k (t_n - tau_h)} e^{j 2 pi f_c g_h}
    at the times t_n = (n - i0) T_s about the centre sample i0 = (N_s - 1) / 2,
    with omega_k = 2 pi k / period, g_h the delay shift at phi and tau_h =
    d / c - g_h: the inverse FFT of N_s c_k e^{-j theta_hk} e^{-j 2 pi k i0 /
    N_s} on bin k mod N_s, theta_hk = omega_k tau_h - 2 pi f_c g_h.
    """
    d = np.asarray(d, dtype=float)
    ks, coeff = _pulse_harmonics(geom)
    omega = 2.0 * np.pi * ks / (geom.N_s * geom.T_s)
    g = geom.delay_shift(np.asarray(phi, dtype=float)).T[:, :, None]  # (P,H,1)
    theta = omega * (d[:, None, None] / SPEED_OF_LIGHT - g) \
        - 2.0 * np.pi * geom.f_c * g
    spec = np.empty((d.size, geom.H, geom.N_s), dtype=complex)
    spec[:, :, np.mod(ks, geom.N_s)] = geom.N_s * coeff * np.exp(
        -1j * (theta + np.pi * ks * (geom.N_s - 1) / geom.N_s))
    return np.fft.ifft(spec, axis=2).reshape(d.size, geom.n_eff)


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
        samples += u / np.linalg.norm(s) * np.exp(1j * phase) * s
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
        self.ks, self.coeff = _pulse_harmonics(geom)
        # A unit steering vector's harmonics table is power_k e^{-j theta_hk}
        # (see rotation), and by Parseval its squared norm is nsq at every
        # point.
        self.power = geom.N_s * self.coeff * self.coeff
        self.nsq = geom.H * float(self.power.sum())
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
        """The (H, K) table c_k Y_hk e^{j 2 pi k i0 / N_s} of a sample vector:
        each element's FFT on the baseband harmonics k, matched to the
        pulse's Fourier coefficients c_k and referred to the centre sample
        i0. coarse_peak and score search it."""
        geom = self.geom
        Y = np.fft.fft(samples.reshape(geom.H, geom.N_s), axis=1)
        return self.coeff[None, :] * Y[:, self.fft_cols] \
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

    def rotation(self, d: float, phi: float):
        """The (H, K) table e^{j theta_hk} of the point (d, phi), theta_hk =
        omega_k (d / c - g_h) - 2 pi f_c g_h, with the delay shifts g_h at
        phi and q_h at phi - pi / 2: (table, g, q). The sum of a harmonics
        table times it is np.vdot(s, y) for the point's steering vector s,
        whose own harmonics table is power_k e^{-j theta_hk}."""
        g, q = self.geom.delay_shift(np.array([phi, phi - 0.5 * math.pi])).T
        return np.exp(1j * (self.omega_d * d
                            - np.multiply.outer(g, self.omega_rf))), g, q

    def score(self, base: np.ndarray, d: float, phi: float):
        """|corr|^2 of the point (d, phi) against a harmonics table, with its
        gradient and Hessian in (d, phi): (score, (g_d, g_phi), (h_dd,
        h_dphi, h_phiphi)) as Python floats.

        corr sums base_hk e^{j theta_hk} over elements h and harmonics k (see
        rotation). ||s||^2 = nsq does not depend on (d, phi), so |corr|^2 is
        the score. theta's derivatives are omega_k / c in d and (omega_k +
        2 pi f_c) q_h in phi, with q_h = -g_h' and q_h' = g_h; without
        aperture (g_h = 0) every phi term is exactly 0.
        """
        rot, g, q = self.rotation(d, phi)
        E = base * rot
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


def _cancel(base: np.ndarray, energy: float, bank: MatchedFilterBank):
    """One cancellation step on a residual's harmonics table base and its
    energy ||residual||^2: the coarse grid peak refined on the table, and the
    residual's least-squares projection alpha s on the refined point's
    steering vector s, alpha = np.vdot(s, residual) / nsq, taken off in the
    harmonic domain. Returns (d, phi, amp, z_u, rest, rest_energy): amp =
    |alpha| ||s||, z_u = amp / sigma_hat with sigma_hat^2 the rest's energy
    per sample, rest the harmonics table of residual - alpha s and
    rest_energy = energy - |np.vdot(s, residual)|^2 / nsq its energy."""
    d, phi, _ = _newton_refine(base, bank.coarse_peak(base), bank)
    rot = bank.rotation(d, phi)[0]
    corr = complex((base * rot).sum())
    alpha = corr / bank.nsq
    rest = base - alpha * bank.power * rot.conj()
    rest_energy = energy - abs(corr) ** 2 / bank.nsq
    sigma_hat = math.sqrt(max(rest_energy / bank.geom.n_eff,
                              np.finfo(float).tiny))
    amp = abs(alpha) * math.sqrt(bank.nsq)
    return d, phi, amp, amp / sigma_hat, rest, rest_energy


def snapshot_estimate(samples: np.ndarray, bank: MatchedFilterBank,
                      u_de: float) -> list:
    """Extract measurement triples from a sample vector of the bank's
    geometry by successive cancellation on its harmonics table, taken once,
    with one refinement of the coarse peak per extracted component; the
    measurements depend on the samples alone.

    The acceptance test during extraction uses the running residual, while
    the reported amplitudes are normalized by the final noise estimate so
    they are not biased low by components still awaiting subtraction. Every
    output is scale-free, and the samples are first scaled, exactly, by the
    power of two that brings their largest real or imaginary part into
    [1, 2): any power-of-two multiple of a snapshot measures the same bit
    for bit. A sample vector with a non-finite sample gives [] and one
    warning.
    """
    n = bank.geom.n_eff
    samples = np.array(samples, dtype=complex)
    # The peak is taken over the parts, whose moduli could overflow; it is
    # NaN or inf exactly when a sample is not finite.
    parts = samples.view(float)
    peak = float(np.max(np.abs(parts)))
    if not math.isfinite(peak):
        log.warning("snapshot_estimate: %d of %d samples not finite; no "
                    "measurements", np.count_nonzero(~np.isfinite(samples)),
                    n)
        return []
    # At unit scale nothing in the search over- or underflows (the Newton
    # determinant goes as the residual's scale to the fourth power).
    np.ldexp(parts, 1 - math.frexp(peak)[1], out=parts)
    energy = initial_energy = float(np.vdot(samples, samples).real)
    base = bank.harmonics(samples)
    thresh = math.sqrt(u_de)
    found = []

    for _ in range(MAX_COMPONENTS):
        # Below this the residual is cancellation error, not signal.
        if energy < 1e-9 * initial_energy:
            break
        d, phi, amp, z_u, rest, rest_energy = _cancel(base, energy, bank)
        if z_u <= thresh:
            break
        found.append((d, float(wrap_angle(phi)), amp))
        base, energy = rest, rest_energy

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
        stats.append(_cancel(bank.harmonics(residual), float(
            np.vdot(residual, residual).real), bank)[3] ** 2)
    return float(np.quantile(np.array(stats), 1.0 - fa_prob))
