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

def _build_proposals(ms: Sequence[Measurement], params: HyperParams,
                     geom: ArrayGeometry, rng: np.random.Generator) -> tuple:
    """For each measurement, sample a 5-D Gaussian centered on it and
    importance-weight it against the birth prior times the measurement
    likelihood. Returns (particles, weights, log_mass), row m for
    measurement m: particles (M, J, 5), a view of the field-major buffer
    below (not contiguous; resampling copies it), normalized weights (M, J)
    and log_mass (M,), the log importance estimate of
    <f(z | x)>_birth-prior / f_fa(z), the evidence that the measurement was
    produced by a newly appearing component rather than clutter.

    The velocity prior equals the proposal (it cancels); distance and angle
    have the uniform birth density, and the amplitude a uniform prior over a
    plausible range (widened when the measurement itself is stronger, so
    strong components are never gated by it). The weight is therefore
    f_n * f(z | x) / (proposal density over (d, phi, u) * f_fa(z)).

    Only the random draws run per measurement, in the order d, phi, u, the
    redraws of non-positive u, v_d, v_phi. Everything else runs on (M, J)
    arrays: the particles live in one field-major (5, M, J) buffer X, one
    log_lik_matrix call pairs each measurement with its own particle set,
    and the weights and log masses are reduced row by row.
    """
    M, J = len(ms), params.J
    if M == 0:
        return np.empty((0, J, 5)), np.empty((0, J)), np.empty(0)
    z = np.array([(m.z_d, m.z_phi, m.z_u) for m in ms], dtype=float)
    zd, zp, zu = z[:, 0:1], z[:, 1:2], z[:, 2:3]
    # Per measurement as scalars: on a scalar u**2 is pow(), on an array
    # u*u, and the two differ in the last bit for about 1e-3 of amplitudes.
    sd = np.array([[math.sqrt(float(model.sigma_d_sq(m.z_u, geom)))]
                   for m in ms])
    sp = np.array([[math.sqrt(float(model.sigma_phi_sq(m.z_u, m.z_phi, geom)))]
                   for m in ms])
    su = np.sqrt(model.amp_scale_sq(zu, geom.n_eff))

    X = np.empty((5, M, J))
    for m in range(M):
        X[:3, m] = rng.standard_normal((3, J))
        # Amplitude proposal truncated at zero: redraw the rare noise values
        # that give u <= 0. u = z_u + su * n is monotone in n, so the
        # smallest n decides whether there is any.
        n_u, z_u, s_u = X[2, m], z[m, 2], su[m, 0]
        for _ in range(100):
            if z_u + s_u * n_u.min() > 0.0:
                break
            neg = z_u + s_u * n_u <= 0.0
            n_u[neg] = rng.standard_normal(int(neg.sum()))
        X[3:, m] = rng.standard_normal((2, J))
    d, phi, u, v_d, v_phi = X
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

    log_lik = model.log_lik_matrix(ms, X.transpose(2, 1, 0), params, geom).T
    u_prior_max = np.maximum(params.u_birth_max, zu + 6.0 * su)
    log_c = [[-math.log(TWO_PI * params.d_max) - math.log(x)]
             for x in u_prior_max[:, 0]]
    log_birth = np.where((d >= 0.0) & (d <= params.d_max) & (u <= u_prior_max),
                         log_c, -np.inf)
    # Log normalizers per measurement on math.log (np.log on an array
    # differs from it in the last bit for some inputs), subtracted one at a
    # time in the order of the one-measurement formula, so no float changes.
    norm_d, norm_p, norm_u = (
        [[math.log(s * math.sqrt(TWO_PI))] for s in col[:, 0]]
        for col in (sd, sp, su))
    log_prop = -0.5 * ((d - zd) / sd) ** 2
    log_prop -= norm_d
    log_prop -= 0.5 * (ang_diff(phi, zp) / sp) ** 2
    log_prop -= norm_p
    log_prop -= 0.5 * ((u - zu) / su) ** 2
    log_prop -= norm_u
    log_prop -= log_ndtr(zu / su)
    log_fa = [[model.log_fa_density(m, params.u_de, params.d_max)] for m in ms]
    log_w = log_birth + log_lik - log_prop - log_fa

    top = np.max(log_w, axis=1, keepdims=True)
    flat = ~np.isfinite(top[:, 0])
    top[flat] = 0.0
    shifted = np.exp(log_w - top)
    total = np.sum(shifted, axis=1)
    with np.errstate(divide="ignore"):
        log_mass = np.log(total) + top[:, 0] - math.log(J)
    shifted[flat] = 1.0
    total[flat] = J
    return X.transpose(1, 2, 0), shifted / total[:, None], log_mass


def _update_legacy(tr: PmpcBelief, w: dabp.AssociationWeights, k: int,
                   log_nu: np.ndarray) -> None:
    """Reweight one legacy belief with the converged extrinsic messages and
    recompute its existence probability.

    Each particle's association sum log sum_m nu[m] t P_d f(z_m|x)/f_fa(z_m)
    comes from the linear ratio matrix R = w.ratio[k] as
    log(exp(b - max b) @ R) + max b, with b = log nu + log t + c and c the
    row scales of R."""
    R = w.ratio[k]  # (M, J), rows scaled by exp(-c)
    M = R.shape[0]
    log_t = math.log(w.far_ratio)
    with np.errstate(divide="ignore"):
        log_miss = np.log(np.maximum(1.0 - w.det_prob[k], 0.0))
        if M:
            b = log_nu[:, k] + log_t + w.ratio_log_scale[k]
            top = np.max(b)
            assoc = np.log(np.exp(b - top) @ R) + top
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
                marg: AssociationMarginals, log_d: np.ndarray,
                K: int) -> None:
    """Reweight the false-alarm-rate particles by the particle-marginalized
    association factors evaluated at each rate particle. log_d is the (M,)
    array of log(1 + sum_k zeta[k, m]), each measurement's legacy message
    sum.

    Factor i is log(a_i + b_i / mu): one row per legacy component, then one
    per measurement, all built by one (K+M, J) logaddexp and added to the
    log weights one row at a time, in that order."""
    M = len(log_d)
    mu = state.far.particles
    log_mu = np.log(mu)
    log_w = np.log(np.maximum(state.far.weights, 1e-300))
    log_w = log_w - mu + M * log_mu
    log_t = math.log(w.far_ratio)
    log_a = np.concatenate([w.log_beta[:K, 0], log_d])
    if M:
        # Row k's message-weighted association sum. Contiguous rows keep
        # each row's reduction in the order of a one-row call.
        log_b = np.concatenate([
            log_sum_exp(np.ascontiguousarray(marg.log_nu.T)
                        + w.log_beta[:K, 1:], axis=1),
            w.log_new_mass]) - log_t
        rows = np.logaddexp(log_a[:, None], log_b[:, None] - log_mu)
    else:
        rows = log_a[:, None]
    for row in rows:
        log_w += row
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

    particles, new_weights, log_mass = _build_proposals(ms, params, geom,
                                                        state.rng)
    weights = dabp.evaluate_weights(state.legacy, log_mass, ms, state.far,
                                    params, geom)
    marg = dabp.loopy_da(weights, params.P, params.da_tol)

    for k, tr in enumerate(state.legacy):
        _update_legacy(tr, weights, k, marg.log_nu)

    # Each measurement's legacy message sum, reduced along contiguous rows.
    log_d = np.logaddexp(0.0, log_sum_exp(
        np.ascontiguousarray(marg.log_zeta.T), axis=1)) if K else np.zeros(M)
    _update_far(state, weights, marg, log_d, K)

    # One pass over legacy, then new beliefs. A belief about to be pruned
    # (NaN included) is not resampled but still consumes the one uniform
    # resample would draw, so the rng stream does not depend on the pruning
    # threshold; new survivors get the next ids.
    p_new = [1.0 / (1.0 + math.exp(min(gap, 700.0)))
             for gap in log_d - weights.log_new_mass]
    new_tracks = [PmpcBelief(0, state.step, *belief)
                  for belief in zip(particles, new_weights, p_new)]
    survivors = []
    for i, tr in enumerate(state.legacy + new_tracks):
        if not tr.p_exist >= params.p_pr:
            state.rng.random()
            continue
        resample(tr, params.J, state.rng)
        if i >= K:
            tr.id = state.next_id
            state.next_id += 1
        survivors.append(tr)
    resample(state.far, params.J, state.rng)
    state.legacy = survivors

    return state, estimate(state, params), marg
