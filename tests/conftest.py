"""Shared fixtures."""

import math

import numpy as np
import pytest

from mpctrack import model, radio, tracker
from mpctrack.model import HyperParams, Measurement


def stacked(beliefs, state=None):
    """state (a fresh TrackerState by default) with the given beliefs as its
    legacy rows, in order. A belief has .particles (J, 5), .weights (J,) and
    .p_exist, and .id and .birth_step where the test needs them (default:
    ids 1, 2, ... and birth step 0). Returns the state."""
    st = tracker.TrackerState() if state is None else state
    beliefs = list(beliefs)
    J = len(beliefs[0].weights) if beliefs else st.weights.shape[1]
    # C order, as the tracker builds its stacks (np.stack would keep the
    # transposed layout of the (J, 5) inputs).
    st.particles = np.ascontiguousarray(np.stack(
        [np.asarray(b.particles, float).T for b in beliefs], axis=1)) \
        if beliefs else np.empty((5, 0, J))
    st.weights = np.array([b.weights for b in beliefs], float).reshape(-1, J)
    st.p_exist = np.array([b.p_exist for b in beliefs], float)
    st.ids = np.array([getattr(b, "id", k + 1)
                       for k, b in enumerate(beliefs)], int)
    st.birth_steps = np.array([getattr(b, "birth_step", 0)
                               for b in beliefs], int)
    return st


def packed(ms, params):
    """The (M, 3) measurement rows and (M,) clutter log densities that
    tracker.update hands to _build_proposals and evaluate_weights."""
    return (np.array(ms, dtype=float).reshape(-1, 3),
            np.array([model.log_fa_density(m, params.u_de, params.d_max)
                      for m in ms]))


def proposal_inputs(ms, params, geom):
    """packed(ms, params) and the (M, 1) distance and angle standard
    deviations: the measurement arguments tracker.update hands to
    _build_proposals."""
    sd = [[math.sqrt(float(model.sigma_d_sq(m.z_u, geom)))] for m in ms]
    sp = [[math.sqrt(float(model.sigma_phi_sq(m.z_u, m.z_phi, geom)))]
          for m in ms]
    return (*packed(ms, params), np.reshape(sd, (-1, 1)),
            np.reshape(sp, (-1, 1)))


def rows(comps):
    """The (P, 5) truth rows and (P,) amplitude phases, the arguments of
    radio.synth_radio, of ((d, phi, u, v_d, v_phi), phase) pairs."""
    return (np.array([x for x, _ in comps], dtype=float).reshape(-1, 5),
            np.array([phase for _, phase in comps], dtype=float))


def component_sum(truth, phases, geom):
    """The noiseless part of radio.synth_radio's observation: each truth
    row's steering row scaled to normalized amplitude u at unit noise
    variance and turned by its phase, summed in order. test_radio pins
    synth_radio to this sum plus its noise, bit for bit."""
    samples = np.zeros(geom.n_eff, dtype=complex)
    S = radio.steering_vectors(truth[:, 0], truth[:, 1], geom)
    for u, phase, s in zip(truth[:, 2].tolist(), phases.tolist(), S):
        norm = np.linalg.norm(s)
        if norm > 0.0:
            samples += u / norm * np.exp(1j * phase) * s
    return samples


@pytest.fixture(scope="session")
def amp_lik():
    """The amplitude likelihood f(z_u | u) as the tracker evaluates it.

    It is read off the joint kernel model.log_lik_matrix on the default
    geometry (n_eff = 414) with the default threshold u_de: the measurement
    sits on the particle in distance and angle, so only the two Gaussian
    normalizers remain besides the amplitude factor, and they are divided
    out.
    """
    geom = radio.default_geometry()
    params = {mode: HyperParams(amp_mode=mode) for mode in ("exact", "gauss")}
    d, phi = 5.0, 0.2

    def lik(z_u, u, mode):
        x = np.array([[d, phi, u, 0.0, 0.0]])
        log_f = model.log_lik_matrix([Measurement(d, phi, float(z_u))], x,
                                     params[mode], geom)[0, 0]
        log_norms = 0.5 * math.log(
            model.TWO_PI * float(model.sigma_d_sq(u, geom))) + 0.5 * math.log(
            model.TWO_PI * float(model.sigma_phi_sq(u, phi, geom)))
        return math.exp(log_f + log_norms)

    return lik
