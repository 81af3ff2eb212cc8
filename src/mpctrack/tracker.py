"""Sequential detection and estimation engine.

Maintains one particle belief per potential component plus a particle belief
over the mean false-alarm rate. Each snapshot is processed by predict()
followed by update(): measurement evaluation, loopy data association,
measurement update of legacy and new components, false-alarm-rate update,
resampling, pruning and estimate extraction.
"""

import logging
import math
from dataclasses import dataclass, field
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
    """Particle posterior of the mean false-alarm rate."""
    particles: np.ndarray   # (J,), all > 0
    weights: np.ndarray     # (J,), normalized


@dataclass
class NewTrackProposal:
    """Measurement-centered importance sample for a candidate new component.

    log_mass is the log importance estimate of
    <f(z | x)>_birth-prior / f_fa(z), the evidence that the measurement was
    produced by a newly appearing component rather than clutter.
    """
    particles: np.ndarray
    weights: np.ndarray
    log_mass: float


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
    legacy: list = field(default_factory=list)
    far: Optional[FarBelief] = None
    step: int = 0
    rng: Optional[np.random.Generator] = None
    next_id: int = 1


# ---------------------------------------------------------------------------
# Lifecycle operations
# ---------------------------------------------------------------------------

def init(params: HyperParams, geom: ArrayGeometry, seed) -> TrackerState:
    """Fresh tracker: no legacy components; the false-alarm-rate belief is
    deferred until the first measurement set fixes its initial mean."""
    problems = params.validate()
    if problems:
        raise ValueError(f"invalid hyperparameters: {problems}")
    return TrackerState(rng=np.random.default_rng(seed))


def predict(state: TrackerState, params: HyperParams) -> TrackerState:
    """Propagate all beliefs one step: survival folds into the existence
    probability, kinematics follow the motion model, the false-alarm rate
    random-walks."""
    for tr in state.legacy:
        tr.p_exist *= params.p_s
        tr.particles = model.propagate_kinematics(tr.particles, params, state.rng)
    if state.far is not None:
        step = params.sigma_fa * state.rng.standard_normal(state.far.particles.shape)
        state.far.particles = model.reflect_positive(state.far.particles + step)
    return state


def resample(belief, J: int, rng: np.random.Generator):
    """Systematic resampling to J equally weighted particles (in place)."""
    w = np.asarray(belief.weights, dtype=float)
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise ValueError("degenerate particle weights")
    positions = (rng.random() + np.arange(J)) / J
    idx = np.searchsorted(np.cumsum(w / total), positions)
    idx = np.minimum(idx, len(w) - 1)
    belief.particles = belief.particles[idx]
    belief.weights = np.full(J, 1.0 / J)
    return belief


def _weighted_summary(tr: PmpcBelief) -> TrackEstimate:
    """Posterior means and stds. The angle uses the circular mean and the
    wrapped second moment, since the particle cloud may straddle +-pi."""
    w = tr.weights
    p = tr.particles
    d = float(np.sum(w * p[:, 0]))
    u = float(np.sum(w * p[:, 2]))
    phi = float(np.arctan2(np.sum(w * np.sin(p[:, 1])),
                           np.sum(w * np.cos(p[:, 1]))))
    sigma_d = float(np.sqrt(max(np.sum(w * (p[:, 0] - d) ** 2), 0.0)))
    dphi = ang_diff(p[:, 1], phi)
    sigma_phi = float(np.sqrt(max(np.sum(w * dphi * dphi), 0.0)))
    return TrackEstimate(tr.id, d, float(wrap_angle(phi)), u,
                         sigma_d, sigma_phi, tr.p_exist)


def estimate(state: TrackerState, params: HyperParams) -> StepEstimate:
    """Detection (p_exist strictly above p_de) and posterior-mean extraction
    for every maintained component, plus the false-alarm-rate estimate."""
    all_tracks = [_weighted_summary(tr) for tr in state.legacy]
    detected = [t for t in all_tracks if t.p_exist > params.p_de]
    mu_fa = float(np.sum(state.far.weights * state.far.particles)) \
        if state.far is not None else float("nan")
    return StepEstimate(state.step, detected, len(detected), mu_fa, all_tracks)


# ---------------------------------------------------------------------------
# Measurement update
# ---------------------------------------------------------------------------

def _build_proposal(z: Measurement, params: HyperParams, geom: ArrayGeometry,
                    J: int, rng: np.random.Generator) -> NewTrackProposal:
    """Sample a 5-D Gaussian centered on the measurement and importance-weight
    it against the birth prior times the measurement likelihood.

    The velocity prior equals the proposal (it cancels); distance and angle
    have the uniform birth density, and the amplitude a uniform prior over a
    plausible range (widened when the measurement itself is stronger, so
    strong components are never gated by it). The weight is therefore
    f_n * f(z | x) / (proposal density over (d, phi, u) * f_fa(z)).
    """
    sd = math.sqrt(float(model.sigma_d_sq(z.z_u, geom)))
    sp = math.sqrt(float(model.sigma_phi_sq(z.z_u, z.z_phi, geom)))
    su = math.sqrt(float(model.amp_scale_sq(z.z_u, geom.n_eff)))

    d = z.z_d + sd * rng.standard_normal(J)
    phi = wrap_angle(z.z_phi + sp * rng.standard_normal(J))
    # Amplitude proposal truncated at zero (resample the rare negatives).
    u = z.z_u + su * rng.standard_normal(J)
    for _ in range(100):
        neg = u <= 0.0
        if not np.any(neg):
            break
        u[neg] = z.z_u + su * rng.standard_normal(int(neg.sum()))
    u = np.maximum(u, model.U_FLOOR)
    v_d = params.sigma_v_d * rng.standard_normal(J)
    v_phi = params.sigma_v_phi * rng.standard_normal(J)
    particles = np.stack([d, phi, u, v_d, v_phi], axis=1)

    log_lik = model.log_lik_matrix([z], particles, params, geom)[:, 0]
    u_prior_max = max(params.u_birth_max, z.z_u + 6.0 * su)
    log_birth = np.where((d >= 0.0) & (d <= params.d_max) & (u <= u_prior_max),
                         -math.log(TWO_PI * params.d_max)
                         - math.log(u_prior_max), -np.inf)
    log_prop = (-0.5 * ((d - z.z_d) / sd) ** 2 - math.log(sd * math.sqrt(TWO_PI))
                - 0.5 * (ang_diff(phi, z.z_phi) / sp) ** 2
                - math.log(sp * math.sqrt(TWO_PI))
                - 0.5 * ((u - z.z_u) / su) ** 2 - math.log(su * math.sqrt(TWO_PI))
                - log_ndtr(z.z_u / su))
    log_fa = model.log_fa_density(z, params.u_de, params.d_max)
    log_w = log_birth + log_lik - log_prop - log_fa

    log_mass = log_sum_exp(log_w) - math.log(J)
    shifted = np.exp(log_w - np.max(log_w)) if np.isfinite(np.max(log_w)) \
        else np.full(J, 1.0)
    weights = shifted / shifted.sum()
    return NewTrackProposal(particles, weights, float(log_mass))


def _update_legacy(tr: PmpcBelief, w: dabp.AssociationWeights, k: int,
                   log_nu: np.ndarray) -> None:
    """Reweight one legacy belief with the converged extrinsic messages and
    recompute its existence probability."""
    llr = w.log_lratio[k]  # (J, M) detection-weighted, measurement-major
    M = llr.shape[1]
    log_t = math.log(w.far_ratio)
    with np.errstate(divide="ignore"):
        log_miss = np.log(np.maximum(1.0 - w.det_prob[k], 0.0))
    if M:
        assoc = log_sum_exp(llr.T + (log_nu[:, k] + log_t)[:, None], axis=0)
        log_psi = np.logaddexp(log_miss, assoc)
    else:
        log_psi = log_miss
    # Existence odds in log space: the alternative (non-existence) branch
    # evaluates the same factor at r = 0, which is the constant 1 here.
    log_lw = np.log(np.maximum(tr.weights, 1e-300))
    log_s1 = math.log(tr.p_exist) + log_sum_exp(log_lw + log_psi) \
        if tr.p_exist > 0.0 else -np.inf
    log_s0 = math.log(1.0 - tr.p_exist) if tr.p_exist < 1.0 else -np.inf
    if log_s1 == -np.inf and log_s0 == -np.inf:
        tr.p_exist = 0.0
    else:
        gap = min(log_s0 - log_s1, 700.0) if log_s1 > -np.inf else np.inf
        tr.p_exist = 0.0 if gap == np.inf else 1.0 / (1.0 + math.exp(gap))
    new_w = np.exp(log_lw + log_psi - np.max(log_lw + log_psi)) \
        if np.any(np.isfinite(log_psi)) else np.ones_like(tr.weights)
    tr.weights = new_w / new_w.sum()


def _update_far(state: TrackerState, w: dabp.AssociationWeights,
                marg: AssociationMarginals, log_d: list, K: int) -> None:
    """Reweight the false-alarm-rate particles by the particle-marginalized
    association factors evaluated at each rate particle. log_d[m] is
    log(1 + sum_k zeta[k, m]), measurement m's legacy message sum."""
    M = len(log_d)
    mu = state.far.particles
    log_mu = np.log(mu)
    log_w = np.log(np.maximum(state.far.weights, 1e-300))
    log_w = log_w - mu + M * log_mu
    log_t = math.log(w.far_ratio)
    for k in range(K):
        log_a = w.log_beta[k, 0]
        if M:
            log_b = log_sum_exp(marg.log_nu[:, k] + w.log_beta[k, 1:]) - log_t
            log_w = log_w + np.logaddexp(log_a, log_b - log_mu)
        else:
            log_w = log_w + log_a
    for m in range(M):
        log_cm = w.log_new_mass[m] - log_t
        log_w = log_w + np.logaddexp(log_d[m], log_cm - log_mu)
    shifted = np.exp(log_w - np.max(log_w))
    state.far.weights = shifted / shifted.sum()


def update(state: TrackerState, measurements: Sequence[Measurement],
           params: HyperParams, geom: ArrayGeometry):
    """Process one snapshot's measurement set.

    Returns (state, StepEstimate, AssociationMarginals). Measurements with a
    non-finite field, at or below the detection threshold or outside the
    distance support are rejected with a diagnostic. Processing
    uses set semantics: measurements are canonically ordered internally, so
    the output is invariant to their input order. A state with legacy
    components but no false-alarm-rate belief raises RuntimeError before
    anything in it changes.
    """
    thresh = math.sqrt(params.u_de)
    ms = []
    for z in measurements:
        if not all(map(math.isfinite, (z.z_d, z.z_phi, z.z_u))):
            log.warning("rejecting non-finite measurement: z_d=%.4g "
                        "z_phi=%.4g z_u=%.4g", z.z_d, z.z_phi, z.z_u)
        elif z.z_u <= thresh:
            log.warning("rejecting measurement below detection threshold: "
                        "z_u=%.4g <= %.4g", z.z_u, thresh)
        elif not (0.0 <= z.z_d <= params.d_max):
            log.warning("rejecting measurement outside distance support: "
                        "z_d=%.4g", z.z_d)
        else:
            ms.append(z)
    ms.sort(key=lambda z: (z.z_d, z.z_phi, z.z_u))
    M = len(ms)
    K = len(state.legacy)
    # Legacy components only exist after some measurement was processed, so
    # the rate belief is initialized by the time K > 0.
    if K and state.far is None:
        raise RuntimeError(f"tracker state has K={K} legacy components but no "
                           f"false-alarm-rate belief (M={M} accepted "
                           "measurements)")

    state.step += 1

    if state.far is None and M > 0:
        center = M / 2.0
        mu0 = center + params.sigma_fa_ini * state.rng.standard_normal(params.J)
        state.far = FarBelief(model.reflect_positive(mu0),
                              np.full(params.J, 1.0 / params.J))

    if K + M == 0:
        if state.far is not None:
            # No factors this step beyond the zero-count Poisson evidence.
            log_w = np.log(state.far.weights) - state.far.particles
            shifted = np.exp(log_w - log_w.max())
            state.far.weights = shifted / shifted.sum()
            resample(state.far, params.J, state.rng)
        return state, estimate(state, params), AssociationMarginals(
            np.zeros((0, 1)), np.zeros((0, 1)), 0, True)

    proposals = [_build_proposal(z, params, geom, params.J, state.rng)
                 for z in ms]
    weights = dabp.evaluate_weights(state.legacy, proposals, ms, state.far,
                                    params, geom)
    marg = dabp.loopy_da(weights, params.P, params.da_tol)

    for k, tr in enumerate(state.legacy):
        _update_legacy(tr, weights, k, marg.log_nu)

    log_d = [np.logaddexp(0.0, log_sum_exp(marg.log_zeta[:, m])) if K else 0.0
             for m in range(M)]
    new_tracks = []
    for m, prop in enumerate(proposals):
        gap = log_d[m] - weights.log_new_mass[m]
        p_new = 1.0 / (1.0 + math.exp(min(gap, 700.0)))
        new_tracks.append(PmpcBelief(0, state.step, prop.particles,
                                     prop.weights, p_new))

    _update_far(state, weights, marg, log_d, K)

    for tr in state.legacy + new_tracks:
        resample(tr, params.J, state.rng)
    resample(state.far, params.J, state.rng)

    state.legacy = [tr for tr in state.legacy if tr.p_exist >= params.p_pr]
    for tr in new_tracks:
        if tr.p_exist >= params.p_pr:
            tr.id = state.next_id
            state.next_id += 1
            state.legacy.append(tr)

    return state, estimate(state, params), marg
