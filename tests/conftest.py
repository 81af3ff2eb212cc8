"""Shared fixtures."""

import math

import numpy as np
import pytest

from mpctrack import model, radio
from mpctrack.model import HyperParams, Measurement


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
