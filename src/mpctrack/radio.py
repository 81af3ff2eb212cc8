"""Radio-signal forward synthesis and a successive-cancellation snapshot
estimator.

The transmit pulse is a root-raised-cosine, treated as periodic over the
observation window (delays wrap), truncated at +-8 symbol periods. The
snapshot estimator runs a coarse delay-angle matched filter (an np.fft
inverse transform, in place, on a grid sized to the geometry: eight angle
cells per beamwidth lambda / D, at most 180, and a 2-3-5-smooth count of at
least four delay cells per sample), refines candidates with two Newton steps
on the exact steering vector, estimates the amplitude by least squares,
subtracts, and repeats while the normalized amplitude exceeds the detection
threshold. Feedback summaries from the tracker seed the search.

The refinement moves all candidates of a component (the coarse peak and the
feedback seeds) in lock step: one batched steering-vector evaluation covers
every start point with its five-point stencil, and one per Newton step covers
every candidate's Newton point, with its stencil unless the step is the last;
a candidate leaves the lock step where it would have stopped alone. Each
point is scored with one vdot per steering row and the score is formed on
Python floats, so a point's score does not depend on the batch it is in. The
winner keeps the steering row and (nsq, corr) it was scored with, so a
component costs three batched steering evaluations (four when the winner is
a start point whose phi wrapping changes).
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
    _angle_cells(geom) angles evenly over [-pi, pi)."""

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
        i0 = (geom.N_s - 1) / 2.0
        self.center_phase = np.exp(2j * np.pi * self.ks * i0 / geom.N_s)
        # Mean sampled pulse energy per element (snapshot_estimate's
        # overflow guard).
        times = _sample_times(geom)
        taus = np.arange(self.L) * self.delay_step
        e = _pulse_periodic(times[None, :] - taus[:, None], self.period)
        self.mean_energy = float(np.mean(np.sum(e * e, axis=1)))

    def coarse_peak(self, samples: np.ndarray):
        """Return (delay, angle) of the grid cell with the largest
        |correlation|^2 (the mean steering norm that would normalize it is
        the same in every cell)."""
        geom = self.geom
        y = samples.reshape(geom.H, geom.N_s)
        Y = np.fft.fft(y, axis=1)                     # (H, N_s)
        Yk = Y[:, self.fft_cols]                      # harmonics k
        base = self.coeff_conj[None, :] * Yk * self.center_phase[None, :]
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


def _match(residual: np.ndarray, points: list, geom: ArrayGeometry):
    """Steering vectors of the (d, phi) points, from one batched evaluation,
    and each one's (score, nsq, corr) against the residual: one np.vdot per
    row and the score |corr|^2 / nsq on Python floats, so a point scores the
    same in a batch of any size."""
    d, phi = zip(*points)
    S = steering_vectors(d, phi, geom)
    out = []
    for s in S:
        nsq = float(np.vdot(s, s).real)
        if nsq <= 0.0:
            out.append((-np.inf, nsq, 0j))
            continue
        corr = complex(np.vdot(s, residual))
        out.append((abs(corr) ** 2 / nsq, nsq, corr))
    return S, out


def _newton_refine(residual: np.ndarray, starts: list, geom: ArrayGeometry):
    """Two finite-difference Newton steps on the matched-filter power for
    every start point (d, phi), moved in lock step.

    One batch scores every start point with its five-point stencil. Each
    step then scores the Newton points of the candidates still improving in
    one batch, every non-final one with its own stencil, so a candidate that
    improves has its next stencil scored already. A candidate stops where
    the stencil shows no proper local maximum or its Newton point does not
    score higher. Returns one (d, phi, score, match) per start point: match
    is the point's steering row and _match's (nsq, corr) when wrapping phi
    left the point as scored, else None.
    """
    if not starts:
        return []
    hd = SPEED_OF_LIGHT * geom.T_s / 50.0
    hp = math.radians(0.2)

    def with_stencils(points):
        batch = []
        for d, phi in points:
            batch += [(d, phi), (d + hd, phi), (d - hd, phi), (d, phi + hp),
                      (d, phi - hp), (d + hd, phi + hp)]
        return batch

    pts = list(starts)
    S, scored = _match(residual, with_stencils(pts), geom)
    f0 = [score for score, _, _ in scored[::6]]
    rows = [(s, nsq, corr) for s, (_, nsq, corr) in zip(S[::6], scored[::6])]
    stencils = [[score for score, _, _ in scored[6 * i + 1:6 * i + 6]]
                for i in range(len(pts))]
    active = list(range(len(pts)))
    for step in range(NEWTON_STEPS):
        newton = []
        for i in active:
            fdp, fdm, fpp, fpm, fxy = stencils[i]
            d, phi = pts[i]
            gd = (fdp - fdm) / (2 * hd)
            gp = (fpp - fpm) / (2 * hp)
            hdd = (fdp - 2 * f0[i] + fdm) / hd**2
            hpp = (fpp - 2 * f0[i] + fpm) / hp**2
            hdp = (fxy - fdp - fpp + f0[i]) / (hd * hp)
            det = hdd * hpp - hdp * hdp
            if hpp == 0 and hdd < 0:
                # A flat angle stencil (an array without aperture): the
                # Newton step in d alone.
                dd, dp = -gd / hdd, 0.0
            elif det <= 0 or hdd >= 0:  # not a proper local maximum, keep point
                continue
            else:
                dd = -(hpp * gd - hdp * gp) / det
                dp = -(-hdp * gd + hdd * gp) / det
            newton.append((i, (d + dd, float(wrap_angle(phi + dp)))))
        if not newton:
            break
        cands = [c for _, c in newton]
        width = 1 if step == NEWTON_STEPS - 1 else 6
        S, scored = _match(residual,
                           cands if width == 1 else with_stencils(cands), geom)
        active = []
        for j, (i, cand) in enumerate(newton):
            f1, nsq, corr = scored[width * j]
            if f1 > f0[i]:
                pts[i], f0[i], rows[i] = cand, f1, (S[width * j], nsq, corr)
                stencils[i] = [score for score, _, _
                               in scored[width * j + 1:width * j + width]]
                active.append(i)
    out = []
    for (d, phi), f, row in zip(pts, f0, rows):
        wrapped = float(wrap_angle(phi))
        out.append((d, wrapped, f, row if wrapped == phi else None))
    return out


def _extract(residual: np.ndarray, seeds: list, bank: MatchedFilterBank):
    """The strongest component left in the residual: the coarse grid peak
    and the seed points (d, phi) refined in lock step on the bank's
    geometry, the best of them (max keeps the first of equal scores), its
    steering vector s and _match's (nsq, corr), taken from the refinement
    unless wrapping moved the point. Returns (d, phi, s, nsq, corr)."""
    geom = bank.geom
    d0, p0 = bank.coarse_peak(residual)
    d, phi, _, row = max(_newton_refine(residual, [(d0, p0)] + seeds, geom),
                         key=lambda c: c[2])
    if row is None:
        (s,), ((_, nsq, corr),) = _match(residual, [(d, phi)], geom)
        row = s, nsq, corr
    return (d, phi) + row


def snapshot_estimate(samples: np.ndarray, prior_tracks,
                      bank: MatchedFilterBank, u_de: float) -> list:
    """Extract measurement triples from a sample vector of the bank's
    geometry by successive cancellation.

    prior_tracks: optional iterable of feedback summaries (objects with .d
    and .phi) used as additional search seeds before the global grid. The
    acceptance test during extraction uses the running residual, while the
    reported amplitudes are normalized by the final noise estimate so they
    are not biased low by components still awaiting subtraction. A sample
    vector with a non-finite sample, or with an energy so large that the
    squared correlations would overflow, gives [] and one warning; feedback
    summaries with a non-finite d or phi are dropped with one warning.
    """
    n = bank.geom.n_eff
    residual = np.array(samples, dtype=complex)
    energy = initial_energy = float(np.vdot(residual, residual).real)
    # Non-finite samples, or an energy that would overflow the squared
    # correlations (|corr|^2 <= nsq * energy, nsq < n * mean_energy).
    if not math.isfinite(energy * n * bank.mean_energy):
        log.warning("snapshot_estimate: %d of %d samples not finite, sample "
                    "energy %.3g out of range; no measurements",
                    np.count_nonzero(~np.isfinite(residual)), n, energy)
        return []
    # Far from unit scale the Newton determinant over- or underflows; a
    # power of two brings the largest sample into [1, 2), in two exact
    # steps so each factor stays representable. Every output is scale-free.
    peak = float(np.max(np.abs(residual)))
    if peak and not 2.0**-64 <= peak <= 2.0**64:
        k = 1 - math.frexp(peak)[1]
        residual *= 2.0 ** (k // 2)
        residual *= 2.0 ** (k - k // 2)
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
        if initial_energy > 0 and energy < 1e-9 * initial_energy:
            break
        d, phi, s, nsq, corr = _extract(residual, seeds, bank)
        if nsq <= 0.0:
            break
        alpha = corr / nsq
        new_residual = residual - alpha * s
        new_energy = float(np.vdot(new_residual, new_residual).real)
        sigma_hat_sq = new_energy / n
        if sigma_hat_sq <= 0.0:
            sigma_hat_sq = np.finfo(float).tiny
        z_u = abs(alpha) * math.sqrt(nsq) / math.sqrt(sigma_hat_sq)
        if z_u <= thresh:
            break
        found.append((d, float(wrap_angle(phi)), abs(alpha) * math.sqrt(nsq)))
        residual, energy = new_residual, new_energy
        seeds = [sd for sd in seeds
                 if abs(sd[0] - d) > 0.3 or abs(wrap_angle(sd[1] - phi)) > 0.1]

    sigma_final = math.sqrt(max(energy / n, np.finfo(float).tiny))
    return [Measurement(float(d), float(phi), float(amp / sigma_final))
            for d, phi, amp in found]


def calibrate_detection_threshold(geom: ArrayGeometry, fa_prob: float = 0.01,
                                  trials: int = 100,
                                  rng: np.random.Generator = None) -> float:
    """Monte-Carlo calibration of the estimator's detection threshold: the
    (1 - fa_prob) quantile of the strongest pure-noise amplitude statistic."""
    if rng is None:
        rng = np.random.default_rng(0)
    bank = MatchedFilterBank(geom)
    n = geom.n_eff
    stats = []
    for _ in range(trials):
        residual = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
            / math.sqrt(2.0)
        _, _, s, nsq, corr = _extract(residual, [], bank)
        alpha = corr / nsq
        sigma_hat_sq = float(np.vdot(residual - alpha * s,
                                     residual - alpha * s).real) / n
        stats.append(abs(alpha) ** 2 * nsq / sigma_hat_sq)
    return float(np.quantile(np.array(stats), 1.0 - fa_prob))
