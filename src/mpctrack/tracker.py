"""Sequential detection and estimation engine.

Maintains a stack of particle beliefs, one row per potential component,
plus a particle belief over the mean false-alarm rate. Each snapshot is
processed by predict() followed by update(): measurement evaluation, loopy
data association, measurement update of legacy and new components,
false-alarm-rate update, resampling, pruning and estimate extraction. Both
return the next TrackerState and write to nothing they are given; update()
restores the generator, which the two states share, when a stage raises,
so a failed update changes nothing. Between steps every belief is J
equally weighted particles: weights exist only inside update().
"""

import logging
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy.special import log_ndtr

from . import dabp, model
from .dabp import AssociationMarginals
from .model import (ArrayGeometry, HyperParams, Measurement, TWO_PI,
                    ang_diff, log_sum_exp, wrap_angle)

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Belief containers
# ---------------------------------------------------------------------------

@dataclass
class PmpcBelief:
    """Particle posterior of one potential component: kinematic particles,
    normalized weights and the scalar existence probability."""
    id: int
    birth_step: int
    particles: np.ndarray   # (J, 5): [d, phi, u, v_d, v_phi]
    weights: np.ndarray     # (J,), normalized
    p_exist: float


@dataclass
class FarBelief:
    """Reweighted rate particles, as update() hands them to resample()."""
    particles: np.ndarray   # (J,), all > 0
    weights: np.ndarray     # (J,), max-scaled (largest 1), not normalized


@dataclass
class TrackEstimate:
    """Posterior summary of one component."""
    id: int
    d: float
    phi: float
    u: float
    sigma_d: float
    sigma_phi: float
    p_exist: float


@dataclass
class StepEstimate:
    """Per-snapshot output: detected components, their count, the
    false-alarm-rate estimate and summaries of every maintained belief."""
    step: int
    detected: list
    nom_hat: int
    mu_fa_mmse: float
    all_tracks: list


@dataclass
class TrackerState:
    """Legacy beliefs, one row each of J equally weighted particles: the
    stack particles (5, K, J). far: the equally weighted rate particles
    (J,), None until the first measurement set."""
    particles: np.ndarray
    p_exist: np.ndarray
    ids: np.ndarray
    birth_steps: np.ndarray
    far: Optional[np.ndarray] = None
    step: int = 0
    rng: Optional[np.random.Generator] = None
    next_id: int = 1

    @property
    def legacy(self) -> list:
        """The rows as PmpcBelief, particles viewing the stack, weights 1/J."""
        J = self.particles.shape[2]
        return [PmpcBelief(int(i), int(b), self.particles[:, k].T,
                           np.full(J, 1.0 / J), float(q)) for k, (i, b, q)
                in enumerate(zip(self.ids, self.birth_steps, self.p_exist))]


# ---------------------------------------------------------------------------
# Lifecycle operations
# ---------------------------------------------------------------------------

def init(params: HyperParams, geom: ArrayGeometry, seed) -> TrackerState:
    """Fresh tracker: no legacy components; the false-alarm-rate belief is
    deferred until the first measurement set fixes its initial mean."""
    problems = params.validate()
    if problems:
        raise ValueError(f"invalid hyperparameters: {problems}")
    return TrackerState(np.empty((5, 0, params.J)), np.empty(0),
                        np.empty(0, int), np.empty(0, int),
                        rng=np.random.default_rng(seed))


def predict(state: TrackerState, params: HyperParams) -> TrackerState:
    """Propagate all beliefs one step: survival folds into the existence
    probability, kinematics follow the motion model, the false-alarm rate
    random-walks. Returns the next state; the input is not written."""
    particles = model.propagate_kinematics(state.particles, params, state.rng)
    far = state.far
    if far is not None:
        step = params.sigma_fa * state.rng.standard_normal(far.shape)
        far = model.reflect_positive(far + step)
    return replace(state, p_exist=state.p_exist * params.p_s,
                   particles=particles, far=far)


def _systematic(w: np.ndarray, u: float, J: int) -> np.ndarray:
    """Indices of systematic resampling of w to J particles at uniform u.
    The weights need not be normalized: this is where they are."""
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise ValueError("degenerate particle weights")
    idx = np.searchsorted(np.cumsum(w / total), (u + np.arange(J)) / J)
    return np.minimum(idx, len(w) - 1)


def resample(belief, J: int, rng: np.random.Generator):
    """Systematic resampling to J equally weighted particles. Returns a new
    belief of the same type; the input is not written."""
    idx = _systematic(np.asarray(belief.weights, dtype=float), rng.random(), J)
    return replace(belief, particles=belief.particles[idx],
                   weights=np.full(J, 1.0 / J))


def estimate(state: TrackerState, params: HyperParams) -> StepEstimate:
    """Detection (p_exist strictly above p_de) and posterior-mean extraction
    for every maintained component, plus the false-alarm-rate estimate, each
    a mean over the particles. The angle takes the circular mean and
    wrapped second moment (clouds may straddle +-pi)."""
    d_j, phi_j, u_j = state.particles[:3]
    d = d_j.mean(axis=1)
    u = u_j.mean(axis=1)
    phi = np.arctan2(np.sin(phi_j).mean(axis=1), np.cos(phi_j).mean(axis=1))
    sigma_d = np.sqrt(np.mean((d_j - d[:, None]) ** 2, axis=1))
    dphi = ang_diff(phi_j, phi[:, None])
    sigma_phi = np.sqrt(np.mean(dphi * dphi, axis=1))
    all_tracks = [TrackEstimate(*row) for row in zip(
        state.ids.tolist(), d.tolist(), wrap_angle(phi).tolist(), u.tolist(),
        sigma_d.tolist(), sigma_phi.tolist(), state.p_exist.tolist())]
    detected = [t for t in all_tracks if t.p_exist > params.p_de]
    mu_fa = float(state.far.mean()) if state.far is not None \
        else float("nan")
    return StepEstimate(state.step, detected, len(detected), mu_fa, all_tracks)


# ---------------------------------------------------------------------------
# Measurement update
# ---------------------------------------------------------------------------

def _build_proposals(z: np.ndarray, log_fa: np.ndarray, sd: np.ndarray,
                     sp: np.ndarray, params: HyperParams, geom: ArrayGeometry,
                     rng: np.random.Generator) -> tuple:
    """For each measurement row (z_d, z_phi, z_u) of z (M, 3), whose
    clutter log density is log_fa[m] and whose distance and angle standard
    deviations are sd[m, 0] and sp[m, 0], sample a 5-D Gaussian centered on it
    and importance-weight it against the birth prior times the measurement
    likelihood. Returns (particles, weights, log_mass), row m for
    measurement m: field-major particles (5, M, J), laid out like the
    legacy stack, weights (M, J) max-scaled per row (largest 1; all 1 on a
    row without a finite weight), not normalized, and log_mass (M,), the log
    importance estimate of <f(z | x)>_birth-prior / f_fa(z), the evidence
    that the measurement was produced by a newly appearing component
    rather than clutter.

    The velocity prior equals the proposal (it cancels); distance and angle
    have the uniform birth density, and the amplitude a uniform prior over a
    plausible range (widened when the measurement itself is stronger, so
    strong components are never gated by it). The weight is therefore
    f_n * f(z | x) / (proposal density over (d, phi, u) * f_fa(z)).

    Everything runs on (M, J) arrays: the particles live in one
    field-major (5, M, J) buffer X of standard normals, drawn at once and
    then scaled in place, one log_lik_matrix call pairs each measurement
    with its own particle set, and the weights and log masses are reduced
    along the rows.
    """
    M, J = len(z), params.J
    zd, zp, zu = z[:, 0:1], z[:, 1:2], z[:, 2:3]
    su = np.sqrt(model.amp_scale_sq(zu, geom.n_eff))

    X = rng.standard_normal((5, M, J))
    d, phi, u, v_d, v_phi = X
    # Amplitude proposal truncated at zero: redraw the rare noise values
    # that give u <= 0, all measurements at once.
    for _ in range(100):
        neg = zu + su * u <= 0.0
        if not neg.any():
            break
        u[neg] = rng.standard_normal(int(neg.sum()))
    d *= sd
    d += zd
    phi *= sp
    phi += zp
    phi[...] = wrap_angle(phi)
    u *= su
    u += zu
    np.maximum(u, model.U_FLOOR, out=u)
    v_d *= params.sigma_v_d
    v_phi *= params.sigma_v_phi

    log_lik = model.log_lik_matrix(z, X.transpose(2, 1, 0), params, geom).T
    u_prior_max = np.maximum(params.u_birth_max, zu + 6.0 * su)
    log_c = -np.log(TWO_PI * params.d_max * u_prior_max)
    log_birth = np.where((d >= 0.0) & (d <= params.d_max) & (u <= u_prior_max),
                         log_c, -np.inf)
    log_prop = -0.5 * (((d - zd) / sd) ** 2 + (ang_diff(phi, zp) / sp) ** 2
                       + ((u - zu) / su) ** 2)
    log_prop -= np.log(TWO_PI ** 1.5 * sd * sp * su) + log_ndtr(zu / su)
    log_w = log_birth + log_lik - log_prop - log_fa[:, None]

    top = np.max(log_w, axis=1, keepdims=True)
    flat = ~np.isfinite(top[:, 0])
    top[flat] = 0.0
    shifted = np.exp(log_w - top)
    total = np.sum(shifted, axis=1)
    with np.errstate(divide="ignore"):
        log_mass = np.log(total / J) + top[:, 0]
    shifted[flat] = 1.0
    return X, shifted, log_mass


def _update_legacy(p_exist: np.ndarray, w: dabp.AssociationWeights,
                   log_nu: np.ndarray) -> tuple:
    """The legacy rows' posterior weights (K, J), 1/J reweighted with the
    converged extrinsic messages and max-scaled per row (largest 1), not
    normalized, and their existence probabilities (K,).

    Row k's factor per particle is psi = 1 - P_d + sum_m nu[m] t P_d
    f(z_m|x) / f_fa(z_m). With the linear ratio matrix R = w.ratio[k] and
    its row scales c, the sum is exp(b) @ R for b = log nu + log t + c. The
    row is held in the linear domain as psi e^-s, (1 - P_d) e^-s +
    exp(b - s) @ R: one vector-matrix product and no per-particle
    transcendental. s is the larger of max b and log max (1 - P_d), so the
    term it belongs to peaks at 1 and no row underflows; a nonzero 1 - P_d
    is at least 2^-53, so e^-s can overflow only on a row where 1 - P_d is
    0 throughout, and is capped there. The weights are psi / max psi,
    and the existence odds take log S1 = log p_exist + s + log mean psi,
    against the non-existence branch's factor 1. A row with p_exist 0 (or
    NaN), or whose every particle has zero weight, gets 0 and, in the
    second case, weights 1; p_exist 1 stays 1."""
    b = log_nu.T + math.log(w.far_ratio) + w.ratio_log_scale
    miss = np.maximum(1.0 - w.det_prob, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.maximum(np.max(b, axis=1, initial=-np.inf),
                       np.log(np.max(miss, axis=1, initial=0.0)))
        s[s == -np.inf] = 0.0
        psi = np.reshape([x @ R for x, R in zip(np.exp(b - s[:, None]),
                                                w.ratio)], miss.shape)
        psi += miss * np.exp(np.minimum(-s, 700.0))[:, None]
        peak = np.max(psi, axis=1)
        new_w = psi / peak[:, None]
        log_s1 = np.log(p_exist) + s + np.log(np.mean(psi, axis=1))
        gap = np.minimum(np.log(1.0 - p_exist) - log_s1, 700.0)
        p_next = np.where(log_s1 > -np.inf, 1.0 / (1.0 + np.exp(gap)), 0.0)
    new_w[~(peak > 0.0)] = 1.0
    return new_w, p_next


def _update_far(mu: np.ndarray, w: dabp.AssociationWeights,
                marg: AssociationMarginals, log_d: np.ndarray) -> FarBelief:
    """The FarBelief of the equally weighted rate particles mu (J,),
    reweighted by the particle-marginalized association factors evaluated at
    each rate particle, its weights max-scaled (largest 1), not normalized.
    log_d is the (M,) array of log(1 + sum_k zeta[k, m]), each
    measurement's legacy message sum.

    Factor i is log(a_i + b_i / mu): one row per legacy component (b_i its
    message-weighted association sum), then one per measurement (with
    M = 0, b_i = 0). Each is its leading term plus log1p of the other's
    ratio to it, x_i = exp(-|log b_i - log a_i|) <= 1: log a_i +
    log1p(x_i / mu) where log b_i <= log a_i, else log b_i - log mu +
    log1p(x_i mu). The leading terms sum to scalars, so only the log1p
    runs per particle."""
    log_mu = np.log(mu)
    log_a = np.concatenate([w.log_beta[:, 0], log_d])
    log_b = np.concatenate([
        log_sum_exp(marg.log_nu.T + w.log_beta[:, 1:], axis=1),
        w.log_new_mass]) - math.log(w.far_ratio)
    b_leads = log_b > log_a
    lead = np.maximum(log_a, log_b)
    x = np.exp(np.minimum(log_a, log_b) - lead)[:, None]
    log_w = ((len(log_d) - np.count_nonzero(b_leads)) * log_mu - mu
             + np.sum(lead) + np.log1p(x[~b_leads] / mu).sum(axis=0)
             + np.log1p(x[b_leads] * mu).sum(axis=0))
    return FarBelief(mu, np.exp(log_w - np.max(log_w)))


def _prune_and_resample(state: TrackerState, legacy_weights: np.ndarray,
                        particles: np.ndarray, weights: np.ndarray,
                        p_new: np.ndarray, params):
    """The state with the stack's surviving rows (their posterior weights
    legacy_weights), then the surviving new rows (particles, weights,
    p_new), each resampled to J equal weights. Every row draws one uniform,
    so pruning (NaN included) keeps the rng stream."""
    K, J = len(state.p_exist), params.J
    p_all = np.concatenate([state.p_exist, p_new])
    keep = p_all >= params.p_pr
    uniforms = state.rng.random(len(keep))
    stack = np.empty((5, int(np.sum(keep)), J))
    for n, i in enumerate(np.flatnonzero(keep)):
        x, w = (state.particles[:, i], legacy_weights[i]) if i < K \
            else (particles[:, i - K], weights[i - K])
        idx = _systematic(w, uniforms[i], J)
        # Field by field: one (5, J) fancy index x[:, idx] is about 2x slower.
        for f in range(5):
            stack[f, n] = x[f][idx]
    # New row i, if kept, is the n-th new survivor and gets next_id - 1 + n.
    born = np.cumsum(keep[K:])
    return replace(
        state, particles=stack, p_exist=p_all[keep],
        ids=np.concatenate([state.ids, state.next_id - 1 + born])[keep],
        birth_steps=np.concatenate([
            state.birth_steps, np.full(len(born), state.step)])[keep],
        next_id=state.next_id + (int(born[-1]) if len(born) else 0))


# The gate's rejection reasons, in the order tested: the warning and the
# measurement fields (z_d, z_phi, z_u) it names.
_REJECT = (
    ("rejecting non-finite measurement: z_d=%.4g z_phi=%.4g z_u=%.4g",
     [0, 1, 2]),
    ("rejecting measurement with angle outside [-pi, pi]: z_phi=%.4g", [1]),
    ("rejecting measurement with zero variance: z_u=%.4g", [2]),
    ("rejecting measurement outside the clutter support: z_d=%.4g "
     "z_u=%.4g", [0, 2]),
)


def update(state: TrackerState, measurements: Sequence[Measurement],
           params: HyperParams, geom: ArrayGeometry):
    """Process one snapshot's measurement set.

    Returns (next state, StepEstimate, AssociationMarginals), all or
    nothing: state is not written, and a stage that raises leaves the
    generator as it was. The measurements are gated here only, in one pass
    over their (M, 3) array (one call each of sigma_d_sq, sigma_phi_sq and
    log_fa_density), and a row is rejected, with one WARNING naming the
    first test it fails, for: a non-finite field; an angle outside
    [-pi, pi]; a zero distance or angle standard deviation (an amplitude so
    large that its variance underflows); a zero clutter density, whose
    support is z_u above sqrt(u_de) and z_d in [0, d_max]. Processing uses
    set semantics: the accepted rows are sorted (lexicographically by z_d,
    z_phi, z_u), so the output is invariant to their input order. A state
    with legacy components but no false-alarm-rate belief raises
    RuntimeError, and a non-empty set that is not M rows of three fields
    raises ValueError.
    """
    z = np.array(measurements, dtype=float)
    if z.size and (z.ndim != 2 or z.shape[1] != 3):
        raise ValueError("measurements must be M rows of (z_d, z_phi, z_u); "
                         f"got shape {z.shape}")
    z = z.reshape(-1, 3)
    # Non-finite rows give NaN, and a huge amplitude overflows the
    # variances' denominators to inf (standard deviation 0).
    with np.errstate(over="ignore", invalid="ignore"):
        sd = np.sqrt(model.sigma_d_sq(z[:, 2], geom))
        sp = np.sqrt(model.sigma_phi_sq(z[:, 2], z[:, 1], geom))
        log_fa = model.log_fa_density(z, params.u_de, params.d_max)
        # Each row's first failing test; the last, which every row fails,
        # is acceptance.
        reason = np.argmin(np.stack([
            np.isfinite(z).all(axis=1), np.abs(z[:, 1]) <= math.pi,
            (sd > 0.0) & (sp > 0.0), log_fa > -np.inf,
            np.zeros(len(z), bool)]), axis=0)
    for i in np.flatnonzero(reason < len(_REJECT)):
        message, fields = _REJECT[reason[i]]
        log.warning(message, *z[i, fields])
    # Accepted rows, sorted by measurement (z_d, then z_phi, then z_u).
    keep = np.flatnonzero(reason == len(_REJECT))
    keep = keep[np.lexsort(z[keep].T[::-1])]
    z, log_fa, sd, sp = z[keep], log_fa[keep], sd[keep, None], sp[keep, None]
    M = len(z)
    K = len(state.p_exist)
    # Legacy components only exist after some measurement was processed, so
    # the rate belief is initialized by the time K > 0.
    if K and state.far is None:
        raise RuntimeError(f"tracker state has K={K} legacy components but no "
                           f"false-alarm-rate belief (M={M} accepted "
                           "measurements)")

    if state.far is None and M == 0:
        nxt = replace(state, step=state.step + 1)
        return nxt, estimate(nxt, params), AssociationMarginals(
            np.zeros((0, 1)), np.zeros((0, 1)), 0, True)

    rng = state.rng
    saved = rng.bit_generator.state
    try:
        far = state.far
        if far is None:
            mu0 = M / 2.0 + params.sigma_fa_ini * rng.standard_normal(params.J)
            far = model.reflect_positive(mu0)
        particles, new_weights, log_mass = _build_proposals(
            z, log_fa, sd, sp, params, geom, rng)
        weights = dabp.evaluate_weights(state, log_mass, z, log_fa, far,
                                        params, geom)
        marg = dabp.loopy_da(weights, params.P, params.da_tol)
        legacy_weights, p_exist = _update_legacy(state.p_exist, weights,
                                                 marg.log_nu)
        # Each measurement's legacy message sum.
        log_d = np.logaddexp(0.0, log_sum_exp(marg.log_zeta.T, axis=1))
        far_post = _update_far(far, weights, marg, log_d)
        p_new = 1.0 / (1.0 + np.exp(np.minimum(
            log_d - weights.log_new_mass, 700.0)))
        # The input keeps its stack until update returns: free the K (M, J)
        # ratio matrices before the next stack is built (peak memory).
        del weights
        nxt = _prune_and_resample(
            replace(state, step=state.step + 1, p_exist=p_exist),
            legacy_weights, particles, new_weights, p_new, params)
        nxt = replace(nxt, far=resample(far_post, params.J, rng).particles)
        return nxt, estimate(nxt, params), marg
    except BaseException:
        rng.bit_generator.state = saved
        raise
