"""Loopy belief propagation for probabilistic data association.

The bipartite association problem couples track-oriented variables a_k (0 =
missed detection, m >= 1 = measurement index) with measurement-oriented
variables b_m (0 = new component or clutter, k >= 1 = legacy index) through
pairwise exclusion constraints. Local evidence enters through two weight
matrices, stored as their logs (AssociationWeights.log_beta, .log_xi):

  beta[k, m]  -- legacy k associating with measurement m (column 0 = miss),
                 particle- and FAR-integrated, marginalized over existence;
  xi[m, k]    -- measurement m (column 0 = new-or-clutter); the nonzero
                 columns are pure couplings (equal entries), all measurement
                 evidence for legacy associations lives in beta.

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
    """DA factor weights, kept as logs only (beta or xi given instead is
    stored as its log), plus optional per-particle caches used downstream by
    the measurement update (filled by evaluate_weights, ignored by the BP)."""
    beta: InitVar[Optional[np.ndarray]] = None
    xi: InitVar[Optional[np.ndarray]] = None
    log_beta: Optional[np.ndarray] = None  # (K, M+1), row-scaled
    log_xi: Optional[np.ndarray] = None    # (M, K+1), row-scaled
    far_ratio: float = 1.0              # E[n(mu)/mu] / E[n(mu)] under the FAR belief
    det_prob: Optional[np.ndarray] = None  # (K, J) P_d(x), for the miss term
    # Per track, the detection-weighted ratio P_d(x_j) f(z_m|x_j)/f_fa(z_m)
    # in the linear domain: ratio[k] is the (M, J) array R with
    # R[m, j] = exp(max(log ratio[m, j] - c_m, _LOG_RATIO_FLOOR)), whose rows
    # each peak at 1, and ratio_log_scale[k] the (M,) row scales c_m.
    ratio: Optional[list] = None
    ratio_log_scale: Optional[np.ndarray] = None  # (K, M)
    log_new_mass: Optional[np.ndarray] = None  # (M,) log(far_ratio*mu_n*<f>/f_fa)

    def __post_init__(self, beta, xi):
        with np.errstate(divide="ignore"):
            if self.log_beta is None:
                self.log_beta = np.log(beta)
            if self.log_xi is None:
                self.log_xi = np.log(xi)


del AssociationWeights.beta, AssociationWeights.xi  # no InitVar defaults


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

    legacy: stacked beliefs with .particles (5, K, J), .weights (K, J)
    normalized and .p_exist (K,) (predicted). log_mass: (M,), the log
    importance estimate of <f(z|x)>_birth / f_fa(z) per measurement.
    z: (M, 3) measurement rows (z_d, z_phi, z_u), log_fa: (M,) their
    clutter log densities. far_belief: object with .particles (> 0) and
    .weights.

    Each log_beta/log_xi row is shifted to a zero maximum; downstream
    marginals are scale-invariant per row, so this is lossless.

    Each legacy row's (M, J) log-ratio matrix is exponentiated once, in
    place, after subtracting its row maxima c_m (entries more than 600
    below are raised to that floor, see _LOG_RATIO_FLOOR): the linear
    matrix R and c give log_beta through R @ weights and are kept for the
    measurement update (AssociationWeights.ratio, .ratio_log_scale).
    """
    K = len(legacy.weights)
    M = len(z)
    if K + M == 0:
        raise ValueError("nothing to associate: no tracks and no measurements")

    # FAR-integrated normalization factors: nbar = E[n(mu)], ntil = E[n(mu)/mu].
    mu = np.asarray(far_belief.particles, dtype=float)
    fw = np.asarray(far_belief.weights, dtype=float)
    log_n = (-mu + M * np.log(mu)) / (K + M)
    log_w = np.log(np.maximum(fw, 1e-300))
    log_nbar = log_sum_exp(log_n + log_w)
    log_ntil = log_sum_exp(log_n - np.log(mu) + log_w)
    log_t = log_ntil - log_nbar  # log of the 1/mu_fa weighting ratio

    det_prob = model.detection_prob(legacy.particles[2], params.u_de,
                                    geom.n_eff, params.amp_mode)
    # One kernel call scores as many rows as keep its (M, rows * J) arrays
    # within 2^15 entries, in cache (at J = 10000 each row is its own call).
    rows = max(1, (1 << 15) // max(M * legacy.weights.shape[1], 1))
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
    mass = np.reshape([R @ w for R, w in zip(ratio, legacy.weights)], (K, M))
    # Column 0 marginalizes existence: non-existence plus missed detection.
    q = legacy.p_exist
    miss = (1.0 - q) + q * np.sum(legacy.weights * (1.0 - det_prob), axis=1)
    log_beta = np.full((K, M + 1), -np.inf)
    log_beta[:, 0] = np.log(np.maximum(miss, 1e-300))
    live = q > 0.0
    with np.errstate(divide="ignore"):
        log_beta[live, 1:] = ((log_t + np.log(q[live]))[:, None]
                              + np.log(mass[live]) + ratio_log_scale[live])

    log_new_mass = log_t + np.log(params.mu_n) + log_mass
    log_xi = np.zeros((M, K + 1))
    log_xi[:, 0] = np.logaddexp(0.0, log_new_mass)

    # Row scaling (recorded implicitly via the log arrays; marginals unaffected).
    if K:
        shift_b = np.max(log_beta, axis=1, keepdims=True)
        shift_b = np.where(np.isfinite(shift_b), shift_b, 0.0)
        log_beta = log_beta - shift_b
    if M:
        shift_x = np.max(log_xi, axis=1, keepdims=True)
        log_xi = log_xi - shift_x

    return AssociationWeights(
        log_beta=log_beta, log_xi=log_xi,
        far_ratio=float(np.exp(log_t)),
        det_prob=det_prob, ratio=ratio, ratio_log_scale=ratio_log_scale,
        log_new_mass=log_new_mass,
    )


def _fix_degenerate_rows(lw: np.ndarray, tag: str, flagged: list) -> np.ndarray:
    """Replace all-zero weight rows by uniform rows, recording which."""
    bad = ~np.any(np.isfinite(lw), axis=1)
    for i in np.flatnonzero(bad):
        flagged.append((tag, int(i)))
    lw = lw.copy()
    lw[bad, :] = 0.0
    return lw


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
    """
    lb, lx = w.log_beta, w.log_xi
    K = lb.shape[0]
    M = lx.shape[0]
    if lb.shape != (K, M + 1) or lx.shape != (M, K + 1):
        raise ValueError("inconsistent weight shapes")

    flagged: list = []
    lb = _fix_degenerate_rows(lb, "a", flagged)
    lx = _fix_degenerate_rows(lx, "b", flagged)

    if K == 0 or M == 0:
        p_a = _normalize_rows(lb) if K else np.zeros((0, M + 1))
        p_b = _normalize_rows(lx) if M else np.zeros((0, K + 1))
        return AssociationMarginals(p_a, p_b, 0, True,
                                    np.zeros((M, K)), np.zeros((K, M)),
                                    tuple(flagged))

    log_nu = np.zeros((M, K))
    log_zeta = np.zeros((K, M))
    nu = np.ones((M, K))
    converged = False
    iterations = 0
    for iterations in range(1, P + 1):
        # zeta[k, m] = beta[k, m] / (beta[k, 0] + sum_{m' != m} beta[k, m'] nu[m', k])
        log_zeta = lb[:, 1:] - _leave_one_out(lb[:, 0], lb[:, 1:] + log_nu.T)
        # nu[m, k] = xi[m, k] / (xi[m, 0] + sum_{k' != k} xi[m, k'] zeta[k', m])
        log_nu_new = lx[:, 1:] - _leave_one_out(lx[:, 0], lx[:, 1:] + log_zeta.T)
        nu_new = np.exp(log_nu_new)
        delta = float(np.max(np.abs(nu_new - nu))) if nu.size else 0.0
        log_nu, nu = log_nu_new, nu_new
        if delta < tol:
            converged = True
            break
    if not converged:
        log.warning("loopy BP did not converge: K=%d M=%d after %d "
                    "iterations", K, M, iterations)

    p_a = _normalize_rows(np.concatenate([lb[:, :1], lb[:, 1:] + log_nu.T], axis=1))
    p_b = _normalize_rows(np.concatenate([lx[:, :1], lx[:, 1:] + log_zeta.T], axis=1))
    for tag, i in flagged:
        if tag == "a":
            p_a[i, :] = 1.0 / (M + 1)
        else:
            p_b[i, :] = 1.0 / (K + 1)
    return AssociationMarginals(p_a, p_b, iterations, converged,
                                log_nu, log_zeta, tuple(flagged))


def exhaustive_da_oracle(w: AssociationWeights) -> AssociationMarginals:
    """Exact association marginals by enumerating every admissible (a, b)
    configuration: each a_k picks a distinct measurement or 0, and b is the
    implied inverse. Only feasible for small instances."""
    beta = np.exp(w.log_beta)
    xi = np.exp(w.log_xi)
    K = beta.shape[0]
    M = xi.shape[0]
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
                wght *= xi[m, 0]
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
            if a_k > 0:
                base *= xi[a_k - 1, k + 1]
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
    if K and not np.all(tot_a > 0):
        raise ValueError("all configurations have zero weight")
    p_a = p_a / tot_a if K else np.zeros((0, M + 1))
    if M:
        p_b = p_b / tot_b
    else:
        p_b = np.zeros((0, K + 1))
    return AssociationMarginals(p_a, p_b, 0, True)
