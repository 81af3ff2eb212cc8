"""Sequential detection and estimation engine.

Maintains a stack of particle beliefs, one row per potential component,
plus a particle belief over the mean false-alarm rate. Each snapshot is
processed by predict() followed by update(): measurement evaluation, loopy
data association, measurement update of legacy and new components,
false-alarm-rate update, resampling, pruning and estimate extraction.
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
    """Legacy beliefs, one row each: particles (5, K, J), weights (K, J)."""
    particles: np.ndarray = field(default_factory=lambda: np.empty((5, 0, 0)))
    weights: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    p_exist: np.ndarray = field(default_factory=lambda: np.empty(0))
    ids: np.ndarray = field(default_factory=lambda: np.empty(0, int))
    birth_steps: np.ndarray = field(default_factory=lambda: np.empty(0, int))
    far: Optional[FarBelief] = None
    step: int = 0
    rng: Optional[np.random.Generator] = None
    next_id: int = 1

    @property
    def legacy(self) -> list:
        """The rows as PmpcBelief, particles and weights viewing the stack."""
        return [PmpcBelief(int(i), int(b), self.particles[:, k].T,
                           self.weights[k], float(q)) for k, (i, b, q)
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
    return TrackerState(np.empty((5, 0, params.J)), np.empty((0, params.J)),
                        rng=np.random.default_rng(seed))


def predict(state: TrackerState, params: HyperParams) -> TrackerState:
    """Propagate all beliefs one step: survival folds into the existence
    probability, kinematics follow the motion model, the false-alarm rate
    random-walks."""
    state.p_exist = state.p_exist * params.p_s
    state.particles = model.propagate_kinematics(state.particles, params,
                                                 state.rng)
    if state.far is not None:
        step = params.sigma_fa * state.rng.standard_normal(state.far.particles.shape)
        state.far.particles = model.reflect_positive(state.far.particles + step)
    return state


def _systematic(w: np.ndarray, u: float, J: int) -> np.ndarray:
    """Indices of systematic resampling of w to J particles at uniform u."""
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise ValueError("degenerate particle weights")
    idx = np.searchsorted(np.cumsum(w / total), (u + np.arange(J)) / J)
    return np.minimum(idx, len(w) - 1)


def resample(belief, J: int, rng: np.random.Generator):
    """Systematic resampling to J equally weighted particles (in place)."""
    belief.particles = belief.particles[_systematic(
        np.asarray(belief.weights, dtype=float), rng.random(), J)]
    belief.weights = np.full(J, 1.0 / J)
    return belief


def estimate(state: TrackerState, params: HyperParams) -> StepEstimate:
    """Detection (p_exist strictly above p_de) and posterior-mean extraction
    for every maintained component, plus the false-alarm-rate estimate. The
    angle takes the circular mean and wrapped second moment (clouds may
    straddle +-pi)."""
    w = state.weights
    d_j, phi_j, u_j = state.particles[:3]
    d = np.sum(w * d_j, axis=1)
    u = np.sum(w * u_j, axis=1)
    phi = np.arctan2(np.sum(w * np.sin(phi_j), axis=1),
                     np.sum(w * np.cos(phi_j), axis=1))
    sigma_d = np.sqrt(np.maximum(np.sum(w * (d_j - d[:, None]) ** 2, axis=1),
                                 0.0))
    dphi = ang_diff(phi_j, phi[:, None])
    sigma_phi = np.sqrt(np.maximum(np.sum(w * dphi * dphi, axis=1), 0.0))
    all_tracks = [TrackEstimate(*row) for row in zip(
        state.ids.tolist(), d.tolist(), wrap_angle(phi).tolist(), u.tolist(),
        sigma_d.tolist(), sigma_phi.tolist(), state.p_exist.tolist())]
    detected = [t for t in all_tracks if t.p_exist > params.p_de]
    mu_fa = float(np.sum(state.far.weights * state.far.particles)) \
        if state.far is not None else float("nan")
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
    legacy stack, normalized weights (M, J) and log_mass (M,), the log
    importance estimate of <f(z | x)>_birth-prior / f_fa(z), the evidence
    that the measurement was produced by a newly appearing component
    rather than clutter.

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
    M, J = len(z), params.J
    if M == 0:
        return np.empty((5, 0, J)), np.empty((0, J)), np.empty(0)
    zd, zp, zu = z[:, 0:1], z[:, 1:2], z[:, 2:3]
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

    log_lik = model.log_lik_matrix(z, X.transpose(2, 1, 0), params, geom).T
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
    log_w = log_birth + log_lik - log_prop - log_fa[:, None]

    top = np.max(log_w, axis=1, keepdims=True)
    flat = ~np.isfinite(top[:, 0])
    top[flat] = 0.0
    shifted = np.exp(log_w - top)
    total = np.sum(shifted, axis=1)
    with np.errstate(divide="ignore"):
        log_mass = np.log(total) + top[:, 0] - math.log(J)
    shifted[flat] = 1.0
    total[flat] = J
    return X, shifted / total[:, None], log_mass


def _update_legacy(state: TrackerState, w: dabp.AssociationWeights,
                   log_nu: np.ndarray) -> None:
    """Reweight every legacy row with the converged extrinsic messages and
    recompute its existence probability.

    Row k's association sum per particle, log sum_m nu[m] t P_d f(z_m|x) /
    f_fa(z_m), comes from the linear ratio matrix R = w.ratio[k] as
    log(exp(b - max b) @ R) + max b, with b = log nu + log t + c and c the
    row scales of R: one vector-matrix product per row."""
    log_t = math.log(w.far_ratio)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_psi = np.log(np.maximum(1.0 - w.det_prob, 0.0))
        b = log_nu.T + log_t + w.ratio_log_scale
        top = np.max(b, axis=1, keepdims=True, initial=-np.inf)
        assoc = np.reshape([x @ R for x, R in zip(np.exp(b - top), w.ratio)],
                           log_psi.shape)
        log_psi = np.logaddexp(log_psi, np.log(assoc) + top)
        log_post = np.log(np.maximum(state.weights, 1e-300)) + log_psi
        new_w = np.exp(log_post - np.max(log_post, axis=1, keepdims=True))
    new_w[~np.any(np.isfinite(log_psi), axis=1)] = 1.0
    state.weights = new_w / new_w.sum(axis=1, keepdims=True)
    # Existence odds in log space, on scalar math: the alternative
    # (non-existence) branch evaluates the same factor at r = 0, i.e. 1.
    for k, (q, s) in enumerate(zip(state.p_exist.tolist(),
                                   log_sum_exp(log_post, axis=1).tolist())):
        log_s1 = math.log(q) + s if q > 0.0 else -math.inf
        log_s0 = math.log(1.0 - q) if q < 1.0 else -math.inf
        gap = min(log_s0 - log_s1, 700.0) if log_s1 > -math.inf else math.inf
        state.p_exist[k] = 0.0 if gap == math.inf else 1.0 / (1.0 + math.exp(gap))


def _update_far(state: TrackerState, w: dabp.AssociationWeights,
                marg: AssociationMarginals, log_d: np.ndarray) -> None:
    """Reweight the false-alarm-rate particles by the particle-marginalized
    association factors evaluated at each rate particle. log_d is the (M,)
    array of log(1 + sum_k zeta[k, m]), each measurement's legacy message
    sum.

    Factor i is log(a_i + b_i / mu): one row per legacy component, then one
    per measurement, all built by one (K+M, J) logaddexp and added to the
    log weights one row at a time, in that order (with M = 0, b_i = 0)."""
    M = len(log_d)
    mu = state.far.particles
    log_mu = np.log(mu)
    log_w = np.log(np.maximum(state.far.weights, 1e-300))
    log_w = log_w - mu + M * log_mu
    log_t = math.log(w.far_ratio)
    log_a = np.concatenate([w.log_beta[:, 0], log_d])
    # Row k's message-weighted association sum. Contiguous rows keep each
    # row's reduction in the order of a one-row call.
    log_b = np.concatenate([
        log_sum_exp(np.ascontiguousarray(marg.log_nu.T) + w.log_beta[:, 1:],
                    axis=1),
        w.log_new_mass]) - log_t
    rows = np.logaddexp(log_a[:, None], log_b[:, None] - log_mu)
    for row in rows:
        log_w += row
    shifted = np.exp(log_w - np.max(log_w))
    state.far.weights = shifted / shifted.sum()


def _prune_and_resample(state: TrackerState, particles: np.ndarray,
                        weights: np.ndarray, p_new: list, params) -> None:
    """Replace the stack by its surviving rows, then the surviving new rows
    (particles, weights, p_new), each resampled to J equal weights. Every
    row draws one uniform, so pruning (NaN included) keeps the rng stream."""
    K, J = len(state.p_exist), params.J
    p_all = np.concatenate([state.p_exist, p_new])
    keep = p_all >= params.p_pr
    uniforms = state.rng.random(len(keep))
    stack = np.empty((5, int(np.sum(keep)), J))
    for n, i in enumerate(np.flatnonzero(keep)):
        x, w = (state.particles[:, i], state.weights[i]) if i < K \
            else (particles[:, i - K], weights[i - K])
        idx = _systematic(w, uniforms[i], J)
        for f in range(5):
            stack[f, n] = x[f][idx]
    state.particles, state.weights = stack, np.full(stack.shape[1:], 1.0 / J)
    state.p_exist = p_all[keep]
    # New row i, if kept, is the n-th new survivor and gets next_id - 1 + n.
    born = np.cumsum(keep[K:])
    state.ids = np.concatenate([state.ids, state.next_id - 1 + born])[keep]
    state.birth_steps = np.concatenate([
        state.birth_steps, np.full(len(born), state.step)])[keep]
    state.next_id += int(born[-1]) if len(born) else 0


def update(state: TrackerState, measurements: Sequence[Measurement],
           params: HyperParams, geom: ArrayGeometry):
    """Process one snapshot's measurement set.

    Returns (state, StepEstimate, AssociationMarginals). Each measurement is
    gated here only, and rejected with a diagnostic, in this order: a
    non-finite field; a zero distance or angle standard deviation (an
    amplitude so large that its variance underflows); a zero clutter
    density, whose support is z_u above sqrt(u_de) and z_d in [0, d_max].
    Processing uses set semantics: measurements are canonically ordered
    internally, so the output is invariant to their input order. A state
    with legacy components but no false-alarm-rate belief raises
    RuntimeError before anything in it changes.
    """
    accepted = []
    # A huge amplitude overflows the variances' denominators to inf.
    with np.errstate(over="ignore"):
        for z in measurements:
            if not all(map(math.isfinite, z)):
                log.warning("rejecting non-finite measurement: z_d=%.4g "
                            "z_phi=%.4g z_u=%.4g", *z)
                continue
            # Scalar calls: on a scalar u**2 is pow(), on an array u*u, and
            # the two differ in the last bit for about 1e-3 of amplitudes.
            sd = math.sqrt(float(model.sigma_d_sq(z.z_u, geom)))
            sp = math.sqrt(float(model.sigma_phi_sq(z.z_u, z.z_phi, geom)))
            if not (sd > 0.0 and sp > 0.0):
                log.warning("rejecting measurement with zero variance: "
                            "z_u=%.4g", z.z_u)
            elif (log_fa := model.log_fa_density(z, params.u_de,
                                                 params.d_max)) == -math.inf:
                log.warning("rejecting measurement outside the clutter "
                            "support: z_d=%.4g z_u=%.4g", z.z_d, z.z_u)
            else:
                accepted.append((*z, log_fa, sd, sp))
    # Rows (z_d, z_phi, z_u, log_fa, sd, sp), sorted by measurement.
    acc = np.array(sorted(accepted), dtype=float).reshape(-1, 6)
    z, log_fa, sd, sp = acc[:, :3], acc[:, 3], acc[:, 4:5], acc[:, 5:]
    M = len(acc)
    K = len(state.p_exist)
    # Legacy components only exist after some measurement was processed, so
    # the rate belief is initialized by the time K > 0.
    if K and state.far is None:
        raise RuntimeError(f"tracker state has K={K} legacy components but no "
                           f"false-alarm-rate belief (M={M} accepted "
                           "measurements)")

    state.step += 1

    if state.far is None:
        if M == 0:
            return state, estimate(state, params), AssociationMarginals(
                np.zeros((0, 1)), np.zeros((0, 1)), 0, True)
        mu0 = M / 2.0 + params.sigma_fa_ini * state.rng.standard_normal(params.J)
        state.far = FarBelief(model.reflect_positive(mu0),
                              np.full(params.J, 1.0 / params.J))

    particles, new_weights, log_mass = _build_proposals(
        z, log_fa, sd, sp, params, geom, state.rng)
    weights = dabp.evaluate_weights(state, log_mass, z, log_fa, state.far,
                                    params, geom)
    marg = dabp.loopy_da(weights, params.P, params.da_tol)
    _update_legacy(state, weights, marg.log_nu)

    # Each measurement's legacy message sum, reduced along contiguous rows.
    log_d = np.logaddexp(0.0, log_sum_exp(
        np.ascontiguousarray(marg.log_zeta.T), axis=1))
    _update_far(state, weights, marg, log_d)

    _prune_and_resample(state, particles, new_weights, [
        1.0 / (1.0 + math.exp(min(gap, 700.0)))
        for gap in (log_d - weights.log_new_mass).tolist()], params)
    resample(state.far, params.J, state.rng)

    return state, estimate(state, params), marg
