"""Kernel sweep: single kernels timed on seeded synthetic inputs of growing
size, reported as per-layer metrics of the traced run."""

import statistics
import time

import numpy as np

from mpctrack import dabp, model
from mpctrack.model import HyperParams, Measurement

# (K, M) sizes for loopy BP; the desk and standard workloads run near
# K=4-6, M=5, the clutter workload near K=4-6, M=22.
DA_SIZES = ((2, 4), (4, 8), (8, 16), (16, 32))
LIK_PARTICLES = (1000, 10000)
LIK_MEASUREMENTS = 8
DETECTION_PARTICLES = 10000
# Each kernel is called until this much time has passed, at least 5 times.
MIN_SECONDS = 0.1


def _per_call_ms(fn) -> float:
    """Median wall time of one call, in ms."""
    times = []
    deadline = time.perf_counter() + MIN_SECONDS
    while len(times) < 5 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _particles(rng: np.random.Generator, J: int) -> np.ndarray:
    return np.stack([rng.uniform(0.5, 16.0, J), rng.uniform(-np.pi, np.pi, J),
                     rng.uniform(3.0, 40.0, J), rng.normal(0.0, 0.01, J),
                     rng.normal(0.0, 0.01, J)], axis=1)


def _da_weights(rng: np.random.Generator, K: int, M: int):
    log_beta = rng.normal(0.0, 2.0, (K, M + 1))
    log_xi = np.zeros((M, K + 1))
    log_xi[:, 0] = rng.normal(0.0, 2.0, M)
    return dabp.AssociationWeights(np.exp(log_beta), np.exp(log_xi),
                                   log_beta, log_xi)


def kernel_sweep(seed: int, geom) -> dict:
    """{metric name: (value, unit)} for every kernel size."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EE9]))
    params = HyperParams()
    out = {}
    for K, M in DA_SIZES:
        w = _da_weights(rng, K, M)
        marg = dabp.loopy_da(w, params.P, params.da_tol)
        key = f"sweep.loopy_da.K{K}xM{M}"
        out[f"{key}.ms"] = (_per_call_ms(
            lambda: dabp.loopy_da(w, params.P, params.da_tol)), "ms")
        out[f"{key}.iterations"] = (float(marg.iterations_used), "count")
    zs = [Measurement(float(d), float(p), float(u)) for d, p, u in zip(
        rng.uniform(0.5, 16.0, LIK_MEASUREMENTS),
        rng.uniform(-np.pi, np.pi, LIK_MEASUREMENTS),
        rng.uniform(3.0, 40.0, LIK_MEASUREMENTS))]
    for J in LIK_PARTICLES:
        x = _particles(rng, J)
        ms = _per_call_ms(lambda: model.log_lik_matrix(zs, x, params, geom))
        key = f"sweep.log_lik_matrix.J{J}"
        out[f"{key}.ms"] = (ms, "ms")
        out[f"{key}.ns_per_pair"] = (ms * 1e6 / (J * LIK_MEASUREMENTS),
                                     "ns/pair")
    u = _particles(rng, DETECTION_PARTICLES)[:, 2]
    for mode in ("gauss", "exact"):
        out[f"sweep.detection_prob.{mode}.ms"] = (_per_call_ms(
            lambda: model.detection_prob(u, params.u_de, geom.n_eff, mode)),
            "ms")
    return out
