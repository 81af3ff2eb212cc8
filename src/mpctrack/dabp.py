"""Loopy belief propagation for probabilistic data association.

The bipartite association problem couples track-oriented variables a_k (0 =
missed detection, m >= 1 = measurement index) with measurement-oriented
variables b_m (0 = new component or clutter, k >= 1 = legacy index) through
pairwise exclusion constraints. Local evidence enters as logs
(AssociationWeights.log_beta, .log_xi0), in the form of Meyer et al. (Proc.
IEEE 2018) and Williams & Lau (IEEE TAES 2014):

  beta[k, m]  -- legacy k associating with measurement m (column 0 = miss),
                 particle- and FAR-integrated, marginalized over existence;
  xi0[m]      -- one number per measurement: the new-or-clutter weight of
                 measurement m over its coupling to any legacy component,
                 which is the same for every k (all measurement evidence for
                 legacy associations lives in beta).

Messages are iterated in log space so extreme likelihood ratios cannot
overflow; per-row scaling of the weights therefore never changes the output
marginals.
"""

import logging
from dataclasses import InitVar, dataclass, field
from typing import Optional

import numpy as np

from . import model
from .model import ArrayGeometry, HyperParams, log_sum_exp

log = logging.getLogger(__name__)

_LOG_TINY = -745.0  # log of the smallest positive double, used as a guard
# Floor of the log ratio, relative to its row maximum, before it is
# exponentiated. np.exp is several times slower on arguments that underflow
# to zero or to subnormals, and most entries of a track's matrix do. A
# floored entry moves no row sum, whose peak is 1, and lifts only the
# association sum of a particle that stays some e^-550 below the track's
# best one, too little to move any sum of particle weights.
_LOG_RATIO_FLOOR = -600.0


@dataclass
class AssociationWeights:
    """DA factor weights, kept as logs only, plus optional per-particle
    caches used downstream by the measurement update (filled by
    evaluate_weights, ignored by the BP). A beta given instead of log_beta
    is stored as its log; an (M, K+1) xi or log_xi matrix given instead of
    log_xi0 is reduced to log(xi[m, 0] / xi[m, 1]), and raises ValueError
    unless its K coupling columns are equal."""
    beta: InitVar[Optional[np.ndarray]] = None
    xi: InitVar[Optional[np.ndarray]] = None
    log_beta: Optional[np.ndarray] = None  # (K, M+1), row-scaled
    log_xi: InitVar[Optional[np.ndarray]] = None
    far_ratio: float = 1.0              # E[n(mu)/mu] / E[n(mu)] under the FAR belief
    det_prob: Optional[np.ndarray] = None  # (K, J) P_d(x), for the miss term
    # Per track, the detection-weighted ratio P_d(x_j) f(z_m|x_j)/f_fa(z_m)
    # in the linear domain: ratio[k] is the (M, J) array R with
    # R[m, j] = exp(max(log ratio[m, j] - c_m, _LOG_RATIO_FLOOR)), whose rows
    # each peak at 1, and ratio_log_scale[k] the (M,) row scales c_m.
    ratio: Optional[list] = None
    ratio_log_scale: Optional[np.ndarray] = None  # (K, M)
    log_new_mass: Optional[np.ndarray] = None  # (M,) log(far_ratio*mu_n*<f>/f_fa)
    log_xi0: Optional[np.ndarray] = None  # (M,) log(xi[m, 0] / xi[m, k>=1])

    def __post_init__(self, beta, xi, log_xi):
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.log_beta is None:
                self.log_beta = np.log(beta)
            if self.log_xi0 is None:
                lx = np.log(xi) if log_xi is None else np.asarray(log_xi, float)
                if np.any(lx[:, 1:] != lx[:, 1:2]):
                    raise ValueError("xi's coupling columns are not equal")
                self.log_xi0 = lx[:, 0] - (lx[:, 1] if lx.shape[1] > 1 else 0)


# No InitVar defaults: reading .beta, .xi or .log_xi raises AttributeError.
del AssociationWeights.beta, AssociationWeights.xi, AssociationWeights.log_xi


@dataclass
class AssociationMarginals:
    """Approximate association marginals and the converged messages."""
    p_a: np.ndarray        # (K, M+1)
    p_b: np.ndarray        # (M, K+1)
    iterations_used: int
    converged: bool
    log_nu: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    log_zeta: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    degenerate_rows: tuple = ()


def evaluate_weights(legacy, log_mass: np.ndarray, z: np.ndarray,
                     log_fa: np.ndarray, far_belief, params: HyperParams,
                     geom: ArrayGeometry) -> AssociationWeights:
    """Integrate the association factors over the particle beliefs and the
    false-alarm-rate belief.

    legacy: the stack, with .particles (5, K, J), each row J equally
    weighted particles, and .p_exist (K,) (predicted). log_mass: (M,), the
    log importance estimate of <f(z|x)>_birth / f_fa(z) per measurement.
    z: (M, 3) measurement rows (z_d, z_phi, z_u), log_fa: (M,) their
    clutter log densities. far_belief: the equally weighted rate particles
    (all > 0).

    Each log_beta row is shifted to a zero maximum; downstream marginals
    are scale-invariant per row, so this is lossless. log_xi0 is log(1 +
    new-component mass) over a unit coupling.

    Each legacy row's (M, J) log-ratio matrix is exponentiated once, in
    place, after subtracting its row maxima c_m (entries more than 600
    below are raised to that floor, see _LOG_RATIO_FLOOR): the linear
    matrix R and c give log_beta through R's row means and are kept for the
    measurement update (AssociationWeights.ratio, .ratio_log_scale). The
    miss term is likewise a mean over the particles.
    """
    _, K, J = legacy.particles.shape
    M = len(z)

    # FAR-integrated normalization factors nbar = E[n(mu)] and ntil =
    # E[n(mu)/mu] over the equally weighted rate particles: only their ratio
    # t, the 1/mu_fa weighting ratio, is used, so the 1/J of each mean cancels.
    mu = np.asarray(far_belief, dtype=float)
    log_n = (-mu + M * np.log(mu)) / max(K + M, 1)
    log_t = log_sum_exp(log_n - np.log(mu)) - log_sum_exp(log_n)

    det_prob = model.detection_prob(legacy.particles[2], params.u_de,
                                    geom.n_eff, params.amp_mode)
    # One kernel call scores as many rows as keep its (M, rows * J) arrays
    # within 2^15 entries, in cache (at J = 10000 each row is its own call).
    rows = max(1, (1 << 15) // max(M * J, 1))
    ratio, ratio_log_scale = [], np.empty((K, M))
    for k0 in range(0, K, rows):
        x = legacy.particles[:, k0:k0 + rows]
        # Detection-weighted ratio log P_d + log f - log f_fa: the kernel
        # result is a view of a measurement-major (M, rows * J) array.
        lr = model.log_lik_matrix(z, x.reshape(5, -1).T, params,
                                  geom, True).T.reshape(M, *x.shape[1:])
        lr -= log_fa[:, None, None]
        c = np.max(lr, axis=2)
        lr -= c[:, :, None]
        np.maximum(lr, _LOG_RATIO_FLOOR, out=lr)
        np.exp(lr, out=lr)
        ratio += list(lr.transpose(1, 0, 2))
        ratio_log_scale[k0:k0 + rows] = c.T
    mass = np.reshape([R.mean(axis=1) for R in ratio], (K, M))
    # Column 0 marginalizes existence: non-existence plus missed detection.
    q = legacy.p_exist
    miss = (1.0 - q) + q * np.mean(1.0 - det_prob, axis=1)
    log_beta = np.full((K, M + 1), -np.inf)
    log_beta[:, 0] = np.log(np.maximum(miss, 1e-300))
    live = q > 0.0
    with np.errstate(divide="ignore"):
        log_beta[live, 1:] = ((log_t + np.log(q[live]))[:, None]
                              + np.log(mass[live]) + ratio_log_scale[live])

    log_new_mass = log_t + np.log(params.mu_n) + log_mass

    # Row scaling (recorded implicitly via the log arrays; marginals unaffected).
    shift_b = np.max(log_beta, axis=1, keepdims=True)
    log_beta = log_beta - np.where(np.isfinite(shift_b), shift_b, 0.0)

    return AssociationWeights(
        log_beta=log_beta, far_ratio=float(np.exp(log_t)),
        det_prob=det_prob, ratio=ratio, ratio_log_scale=ratio_log_scale,
        log_new_mass=log_new_mass,
        log_xi0=np.logaddexp(0.0, log_new_mass),
    )


def _leave_one_out(base: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Row-wise log( exp(base) + sum_j exp(terms[:, j]) ) with column j
    excluded, computed stably. base: (R,), terms: (R, C) -> (R, C)."""
    stacked = np.concatenate([base[:, None], terms], axis=1)
    c = np.max(stacked, axis=1, keepdims=True)
    c = np.where(np.isfinite(c), c, 0.0)
    expd = np.exp(stacked - c)
    total = expd.sum(axis=1, keepdims=True)
    rest = np.maximum(total - expd[:, 1:], 0.0)
    with np.errstate(divide="ignore"):
        return np.maximum(np.log(rest), _LOG_TINY) + c


def _normalize_rows(logp: np.ndarray) -> np.ndarray:
    out = np.exp(logp - log_sum_exp(logp, axis=1)[:, None])
    return out / out.sum(axis=1, keepdims=True)


def loopy_da(w: AssociationWeights, P: int, tol: float) -> AssociationMarginals:
    """Iterate the bipartite sum-product messages until the maximum absolute
    message change drops below tol or P iterations are reached.

    All messages are updated synchronously from the previous sweep, so the
    result is deterministic for identical inputs. Within each iteration the
    legacy-to-measurement messages (zeta) are refreshed from the previous
    measurement-to-legacy messages (nu), then nu from the new zeta.

    The measurement side has base 0 and the coupling -log_xi0[m] (0 on a
    degenerate row). An empty side (K or M = 0) converges in one sweep.
    """
    lb, lx0 = w.log_beta, w.log_xi0
    K = lb.shape[0]
    M = len(lx0)
    if lb.shape != (K, M + 1) or lx0.shape != (M,):
        raise ValueError("inconsistent weight shapes")

    # An all-zero weight row is replaced by a uniform one.
    dead_a = ~np.any(np.isfinite(lb), axis=1)
    dead_b = ~np.isfinite(lx0)
    lb = np.where(dead_a[:, None], 0.0, lb)
    # 0 - x, not -x: a zero coupling stays +0.0.
    couple = 0.0 - np.where(dead_b, 0.0, lx0)[:, None]
    base = np.zeros(M)

    log_nu = np.zeros((M, K))
    log_zeta = np.zeros((K, M))
    nu = np.ones((M, K))
    converged = False
    iterations = 0
    for iterations in range(1, P + 1):
        # zeta[k, m] = beta[k, m] / (beta[k, 0] + sum_{m' != m} beta[k, m'] nu[m', k])
        log_zeta = lb[:, 1:] - _leave_one_out(lb[:, 0], lb[:, 1:] + log_nu.T)
        # nu[m, k] = 1 / (xi0[m] + sum_{k' != k} zeta[k', m]), computed as
        # c / (1 + sum_{k' != k} c zeta[k', m]) with the coupling c = 1 / xi0[m]
        log_nu_new = couple - _leave_one_out(base, couple + log_zeta.T)
        nu_new = np.exp(log_nu_new)
        delta = float(np.max(np.abs(nu_new - nu), initial=0.0))
        log_nu, nu = log_nu_new, nu_new
        if delta < tol:
            converged = True
            break
    if not converged:
        log.warning("loopy BP did not converge: K=%d M=%d after %d "
                    "iterations", K, M, iterations)

    p_a = _normalize_rows(np.concatenate([lb[:, :1], lb[:, 1:] + log_nu.T], axis=1))
    p_b = _normalize_rows(np.concatenate([base[:, None], couple + log_zeta.T],
                                         axis=1))
    p_a[dead_a] = 1.0 / (M + 1)
    p_b[dead_b] = 1.0 / (K + 1)
    return AssociationMarginals(
        p_a, p_b, iterations, converged, log_nu, log_zeta,
        tuple([("a", int(i)) for i in np.flatnonzero(dead_a)]
              + [("b", int(i)) for i in np.flatnonzero(dead_b)]))


def exhaustive_da_oracle(w: AssociationWeights) -> AssociationMarginals:
    """Exact association marginals by enumerating every admissible (a, b)
    configuration: each a_k picks a distinct measurement or 0, and b is the
    implied inverse. Only feasible for small instances."""
    beta = np.exp(w.log_beta)
    xi0 = np.exp(w.log_xi0)
    K = beta.shape[0]
    M = len(xi0)
    if K > 8 or M > 8:
        raise ValueError("instance too large for exhaustive enumeration")

    p_a = np.zeros((K, M + 1))
    p_b = np.zeros((M, K + 1))
    assign = np.zeros(K, dtype=int)

    def recurse(k: int, used: int, weight: float):
        if k == K:
            # b is determined by a; unclaimed measurements fall to column 0.
            wght = weight
            for m in range(M):
                if used & (1 << m):
                    continue
                wght *= xi0[m]
            if wght == 0.0:
                return
            for kk in range(K):
                p_a[kk, assign[kk]] += wght
            for m in range(M):
                p_b[m, 0 if not (used & (1 << m)) else _owner(m)] += wght
            return
        for a_k in range(M + 1):
            if a_k > 0 and (used & (1 << (a_k - 1))):
                continue
            base = beta[k, a_k]
            if base == 0.0:
                continue
            assign[k] = a_k
            recurse(k + 1, used | (1 << (a_k - 1)) if a_k else used,
                    weight * base)

    def _owner(m: int) -> int:
        for kk in range(K):
            if assign[kk] == m + 1:
                return kk + 1
        raise AssertionError("claimed measurement without owner")

    recurse(0, 0, 1.0)
    tot_a = p_a.sum(axis=1, keepdims=True)
    tot_b = p_b.sum(axis=1, keepdims=True)
    if not np.all(tot_a > 0):
        raise ValueError("all configurations have zero weight")
    return AssociationMarginals(p_a / tot_a, p_b / tot_b, 0, True)
