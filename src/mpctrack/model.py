"""Channel model: domain types, state transitions, Fisher-information
variances, detection probability and the measurement and false-alarm
likelihoods used by the tracker.

Likelihoods are evaluated in log space only, for overflow-safe arithmetic;
the association factors built from them live in dabp.evaluate_weights. Every
function is vectorized over numpy arrays where it makes sense (particle sets).
"""

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np
from scipy import special

TWO_PI = 2.0 * np.pi

# Numerical guards (see module docs): amplitudes below U_FLOOR carry no usable
# dispersion information, so the Fisher-information variances are clamped at
# their value for u = U_FLOOR. A single-element array has zero aperture; the
# angle variance is then capped at SIGMA_PHI_SQ_MAX (a wrapped Gaussian with
# std 2*pi is effectively uniform on the circle).
U_FLOOR = 1e-3
MU_FA_FLOOR = 1e-6
SIGMA_PHI_SQ_MAX = TWO_PI**2
# Propagation speed of the radio signal, m/s.
SPEED_OF_LIGHT = 299792458.0


def wrap_periodic(x, period: float):
    """Wrap x into [-period/2, period/2) as
    np.mod(x + period/2, period) - period/2. Works on scalars and arrays.

    A float64 array whose shifted values y = x + period/2 all lie in
    [-period, 2 period), such as a residual of two wrapped angles, an angle
    one motion step off the circle or the radio's sample-time-minus-delay
    grid, is wrapped by adding or subtracting the period where y < 0 or
    y >= period. Subtracting is exact (Sterbenz) and adding rounds as
    np.mod's own correction does, so the result is bit-for-bit the np.mod
    form at a fraction of its cost. Every other input (0-d, empty,
    non-finite, further out) takes np.mod.
    """
    y = np.asarray(x) + period / 2.0
    if (np.ndim(y) and y.dtype == np.float64 and y.size
            and y.min() >= -period and y.max() < 2.0 * period):
        np.subtract(y, period, out=y, where=y >= period)
        np.add(y, period, out=y, where=y < 0.0)
        y -= period / 2.0
        return y
    return np.mod(y, period) - period / 2.0


def wrap_angle(phi):
    """Wrap angles (radians) into [-pi, pi): wrap_periodic with period 2 pi."""
    return wrap_periodic(phi, TWO_PI)


def ang_diff(a, b):
    """Shortest signed angular difference a - b, wrapped into [-pi, pi)."""
    return wrap_angle(np.asarray(a) - np.asarray(b))


def log_sum_exp(a: np.ndarray, axis=None):
    """Overflow-safe log(sum(exp(a))); rows of all -inf, and empty rows,
    give -inf."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True, initial=-np.inf)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m_safe), axis=axis))
    return out + np.squeeze(m_safe, axis=axis) if axis is not None \
        else float(out + m_safe.reshape(()))


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

class Measurement(NamedTuple):
    """One snapshot-estimator output: distance, AoA and normalized amplitude."""
    z_d: float
    z_phi: float
    z_u: float


@dataclass
class ArrayGeometry:
    """Receiver array and signal parameters.

    element_offsets are polar (distance, angle) offsets of each element from
    the array centroid; the centroid must be at the origin.
    """
    element_offsets: list   # [(d_h meters, phi_h radians), ...]
    psi: float              # array orientation, radians
    f_c: float              # carrier frequency, Hz
    beta_bw_sq: float       # mean-square bandwidth, Hz^2
    N_s: int                # samples per element
    T_s: float              # sampling period, seconds

    def __post_init__(self):
        problems = self.validate()
        if problems:
            raise ValueError("invalid array geometry: " + "; ".join(
                f"{f} {msg}" for f, msg in problems))
        self._polar = np.asarray(self.element_offsets,
                                 dtype=float).reshape(-1, 2)
        # Closed-form aperture coefficients (see aperture_sq).
        d2h, two_phi_h = self._polar[:, 0] ** 2, 2.0 * self._polar[:, 1]
        a, b, c = (float(np.sum(d2h)) / 2.0,
                   float(np.sum(d2h * np.cos(two_phi_h))) / 2.0,
                   float(np.sum(d2h * np.sin(two_phi_h))) / 2.0)
        self._aperture_abc = (a, b, c)
        # a - b cos - c sin rounds to exactly a at every angle when |b| and
        # |c| each stay below half the spacing of the floats around a (a
        # quarter of an ulp when a is a power of two, whose lower neighbour
        # is half an ulp away). Quarter-turn symmetric arrays, such as the
        # default 3x3 one, have b and c at rounding level.
        tol = float(np.spacing(a)) / (4.0 if math.frexp(a)[0] == 0.5 else 2.0)
        self._aperture_flat = abs(b) < tol and abs(c) < tol

    def validate(self) -> list:
        """'(field, message)' problems, empty when valid: N_s an integer
        >= 1, psi finite, the other numbers finite and positive, and
        element_offsets at least one (distance, angle) pair of finite
        numbers, centred on the origin, each distance 0 or with a square in
        the normal float range. It reads only the fields, so may precede
        construction."""
        problems = number_problems(
            self, ("psi", "f_c", "beta_bw_sq", "N_s", "T_s"),
            integers=("N_s",), rules=(
                (("f_c", "beta_bw_sq", "T_s"), lambda v: v > 0,
                 "must be positive"),
                (("N_s",), lambda v: v >= 1, "must be >= 1")))
        seq = (list, tuple, np.ndarray)
        if not (isinstance(self.element_offsets, seq) and all(
                isinstance(e, seq) and len(e) == 2
                and not any(map(_type_problem, e))
                for e in self.element_offsets)):
            return problems + [("element_offsets", "must be (distance, angle) "
                                "pairs of finite numbers")]
        if len(self.element_offsets) < 1:
            return problems + [("element_offsets",
                                "must have at least one element")]
        d, phi = np.asarray(self.element_offsets, dtype=float).T
        xy = np.stack([d * np.cos(phi), d * np.sin(phi)], axis=1)
        scale = max(1.0, float(np.max(np.abs(xy))))
        if np.any(np.abs(xy.mean(axis=0)) > 1e-9 * scale):
            problems.append(("element_offsets",
                             "element centroid must be at the origin"))
        # A subnormal, underflowed or overflowed square has no relative
        # precision, so the aperture would be rounding noise.
        fi, sq = np.finfo(float), d ** 2
        bad = (d != 0.0) & ~((sq >= fi.tiny) & (sq <= fi.max))
        if np.any(bad):
            problems.append(("element_offsets", "distances must be 0 or have "
                             "squares in the normal float range; got "
                             f"{d[bad].tolist()}"))
        return problems

    @property
    def H(self) -> int:
        return len(self.element_offsets)

    @property
    def n_eff(self) -> int:
        """Total number of complex samples N_s * H."""
        return self.N_s * self.H

    def delay_shift(self, phi) -> np.ndarray:
        """Plane-wave delay shift (seconds) of each element for AoA phi.

        Broadcasts over phi; result shape (H,) + shape(phi).
        """
        off = self._polar
        d_h = off[:, 0].reshape(-1, *([1] * np.ndim(phi)))
        phi_h = off[:, 1].reshape(-1, *([1] * np.ndim(phi)))
        return d_h * np.cos(np.asarray(phi) - self.psi - phi_h) \
            / SPEED_OF_LIGHT

    @classmethod
    def uniform_rectangular(cls, nx: int, ny: int, spacing: float, *,
                            psi: float, f_c: float, beta_bw_sq: float,
                            N_s: int, T_s: float) -> "ArrayGeometry":
        """Uniform rectangular nx-by-ny array centered on its centroid."""
        xs = (np.arange(nx) - (nx - 1) / 2.0) * spacing
        ys = (np.arange(ny) - (ny - 1) / 2.0) * spacing
        offsets = []
        for x in xs:
            for y in ys:
                offsets.append((float(np.hypot(x, y)), float(np.arctan2(y, x))))
        return cls(offsets, psi, f_c, beta_bw_sq, N_s, T_s)


def _type_problem(v, integer=False):
    """The type-check message for v, or None when v is a finite real number
    (and an integer if integer is set; bool is neither)."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return f"must be a number, got {v!r}"
    if integer and not isinstance(v, numbers.Integral):
        return f"must be an integer, got {v!r}"
    if not math.isfinite(v):
        return f"must be finite, got {v!r}"
    return None


def number_problems(obj, names, integers=(), rules=()) -> list:
    """'(field, message)' problems of obj's named fields for a validate()
    report. Each must be a finite real number (an integer if named in
    integers); then each (fields, ok, message) rule checks, in order, its
    named fields that passed, and message may show the value through {}."""
    problems = [(name, msg) for name in names
                if (msg := _type_problem(getattr(obj, name),
                                         name in integers))]
    typed = {name for name, _ in problems}
    for fields, ok, message in rules:
        problems.extend((name, message.format(getattr(obj, name)))
                        for name in fields if name in names
                        and name not in typed and not ok(getattr(obj, name)))
    return problems


@dataclass
class HyperParams:
    """Tracker hyperparameters. Defaults match the standard simulation setup
    (3x3 array at 6 GHz, 46 samples/element, -20 dB input detection
    threshold). P, da_tol, p_de, sigma_v_d, sigma_v_phi and u_birth_max are
    class constants, not fields: no config sets them."""
    p_s: float = 0.999            # survival probability
    p_pr: float = 1e-4            # existence threshold for pruning
    mu_n: float = 0.008           # mean number of new components per step
    u_de: float = 4.14            # detection threshold, squared-amplitude units
    d_max: float = 17.0           # maximum distance, meters
    sigma_d: float = 0.002        # distance driving noise, m/s^2
    sigma_phi: float = math.radians(0.17)   # angle driving noise, rad/s^2
    sigma_u_rel: float = 0.02     # relative amplitude driving noise
    sigma_fa: float = 0.15        # false-alarm-rate random-walk std
    sigma_fa_ini: float = 0.5     # false-alarm-rate initialization std
    J: int = 10000                # particles per belief
    amp_mode: str = "gauss"       # amplitude likelihood: "exact" or "gauss"
    P: ClassVar[int] = 5000           # max DA message-passing iterations
    da_tol: ClassVar[float] = 1e-6    # DA convergence tolerance (max-norm)
    p_de: ClassVar[float] = 0.5       # existence threshold for detection
    # New-track velocity prior stds (m/s, rad/s), birth amplitude range.
    sigma_v_d: ClassVar[float] = 0.01
    sigma_v_phi: ClassVar[float] = math.radians(0.6)
    u_birth_max: ClassVar[float] = 120.0

    def validate(self) -> list:
        """Return a list of '(field, message)' problems; empty when valid.

        Types come first: J must be an integer and every other field except
        amp_mode a finite real number (bool is neither). A field of the
        wrong type gets that one problem and no range check.
        """
        problems = number_problems(
            self, [f.name for f in dataclasses.fields(self)
                   if f.name != "amp_mode"], integers=("J",), rules=(
                (("p_s", "p_pr"), lambda v: 0.0 <= v <= 1.0,
                 "must be in [0, 1], got {}"),
                (("mu_n", "u_de", "d_max"), lambda v: v > 0,
                 "must be positive"),
                (("sigma_d", "sigma_phi", "sigma_u_rel", "sigma_fa",
                  "sigma_fa_ini"), lambda v: v >= 0, "must be >= 0"),
                (("J",), lambda v: v >= 1, "must be >= 1")))
        if self.amp_mode not in ("exact", "gauss"):
            problems.append(("amp_mode", "must be 'exact' or 'gauss'"))
        return problems


# ---------------------------------------------------------------------------
# State transitions
# ---------------------------------------------------------------------------

def propagate_kinematics(particles: np.ndarray, params: HyperParams,
                         rng: np.random.Generator) -> np.ndarray:
    """Propagate field-major particles (5, ...) one 1 s step through the
    motion model: d + v_d + eps_d / 2 and v_d + eps_d, the same for phi,
    and the random walk u + eps_u, with one (..., 3) noise draw.

    The amplitude driving noise is scaled per particle: sigma_u_rel * u_j.
    Angles are re-wrapped and amplitudes clamped at zero.
    """
    d, phi, u, v_d, v_phi = particles
    eps = rng.standard_normal(u.shape + (3,))
    eps[..., 0] *= params.sigma_d
    eps[..., 1] *= params.sigma_phi
    eps[..., 2] *= params.sigma_u_rel * u
    return np.stack([d + v_d + 0.5 * eps[..., 0],
                     wrap_angle(phi + v_phi + 0.5 * eps[..., 1]),
                     np.maximum(u + eps[..., 2], 0.0),
                     v_d + eps[..., 0],
                     v_phi + eps[..., 1]])


def reflect_positive(mu):
    """Reflect values at MU_FA_FLOOR. Unlike clamping, reflection leaves no
    absorbing atom at the boundary, which would otherwise capture the whole
    particle set after a run of zero-clutter snapshots."""
    return MU_FA_FLOOR + np.abs(np.asarray(mu) - MU_FA_FLOOR)


# ---------------------------------------------------------------------------
# Fisher-information measurement variances
# ---------------------------------------------------------------------------

def sigma_d_sq(u, geom: ArrayGeometry):
    """Distance measurement variance c^2 / (8 pi^2 beta_bw^2 u^2), with the
    amplitude clamped at U_FLOOR so the variance stays finite."""
    u_eff = np.maximum(np.abs(u), U_FLOOR)
    return SPEED_OF_LIGHT**2 / (8.0 * np.pi**2 * geom.beta_bw_sq * u_eff**2)


def aperture_sq(phi, geom: ArrayGeometry):
    """Squared array aperture D^2(phi): the summed squared sensitivity of the
    per-element plane-wave path lengths to the arrival angle (meters^2),
    sum_h d_h^2 sin^2(phi - psi - phi_h), shaped like phi.

    Evaluated in closed form, D^2 = a - b cos 2(phi - psi) - c sin 2(phi - psi)
    with a = sum d_h^2 / 2, b = sum d_h^2 cos(2 phi_h) / 2 and
    c = sum d_h^2 sin(2 phi_h) / 2 fixed per geometry, and clamped at 0.
    For a geometry whose b and c are too small to move a (see
    ArrayGeometry), that form is the constant a, returned without computing
    cos or sin; a + 0 * 2(phi - psi) keeps the shape and turns the angles
    the form maps to NaN into NaN, so the result is bit for bit the same.
    """
    a, b, c = geom._aperture_abc
    two = 2.0 * (np.asarray(phi, dtype=float) - geom.psi)
    if geom._aperture_flat:
        return a + 0.0 * two
    return np.maximum(a - b * np.cos(two) - c * np.sin(two), 0.0)


def sigma_phi_sq(u, phi, geom: ArrayGeometry):
    """AoA measurement variance c^2 / (8 pi^2 f_c^2 u^2 D^2(phi)), clamped at
    SIGMA_PHI_SQ_MAX (degenerate geometry carries no angular information)."""
    u_eff = np.maximum(np.abs(u), U_FLOOR)
    d2 = aperture_sq(phi, geom)
    with np.errstate(divide="ignore"):
        raw = SPEED_OF_LIGHT**2 / (8.0 * np.pi**2 * geom.f_c**2 * u_eff**2
                                   * d2)
    return np.minimum(raw, SIGMA_PHI_SQ_MAX)


def amp_scale_sq(u, n_eff):
    """Squared scale of the amplitude measurement: 1/2 plus the contribution
    of estimating the noise variance from n_eff complex samples."""
    u = np.asarray(u, dtype=float)
    return 0.5 + u * u / (4.0 * n_eff)


def crlb_amp_scale_numeric(alpha_re: float, alpha_im: float, s_norm_sq: float,
                           sigma_sq: float, n_eff: float) -> float:
    """Amplitude-scale variance computed from the full Fisher information of
    (Re alpha, Im alpha, sigma^2) and the Jacobian of u; numeric cross-check
    of amp_scale_sq."""
    if sigma_sq <= 0 or s_norm_sq <= 0:
        raise ValueError("singular Fisher information: need sigma_sq > 0 "
                         "and s_norm_sq > 0")
    J = np.diag([2.0 * s_norm_sq / sigma_sq,
                 2.0 * s_norm_sq / sigma_sq,
                 n_eff / sigma_sq**2])
    mod = math.hypot(alpha_re, alpha_im)
    if mod == 0.0:
        # Limit: the (Re, Im) direction cosines square-sum to 1 and the noise
        # term vanishes with |alpha|.
        return 0.5
    s_norm = math.sqrt(s_norm_sq)
    sigma = math.sqrt(sigma_sq)
    t = np.array([alpha_re * s_norm / (mod * sigma),
                  alpha_im * s_norm / (mod * sigma),
                  -mod * s_norm / (2.0 * sigma**3)])
    return float(t @ np.linalg.solve(J, t))


# ---------------------------------------------------------------------------
# Measurement likelihoods
# ---------------------------------------------------------------------------

def marcum_q1(a, b):
    """First-order Marcum Q function, via the noncentral chi-square survival
    function with 2 degrees of freedom. Only amp_mode "exact" calls it; it
    imports scipy.stats (about 0.35-0.45 s and 20 MiB) at its first call in
    each process."""
    # Deferred so that "gauss" runs, the default, never load scipy.stats.
    from scipy.stats import ncx2
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return ncx2.sf(b * b, 2, a * a)


def detection_prob(u, u_de: float, n_eff, mode: str):
    """Probability that a component of amplitude u produces a measurement
    above the detection threshold.

    "exact" uses the Rician tail (Marcum Q); "gauss" the Gaussian-CDF
    approximation matching the truncated-Gaussian amplitude likelihood.
    """
    u = np.asarray(u, dtype=float)
    s = np.sqrt(amp_scale_sq(u, n_eff))
    if mode == "exact":
        return marcum_q1(u / s, math.sqrt(u_de) / s)
    if mode == "gauss":
        return special.ndtr((u - math.sqrt(u_de)) / s)
    raise ValueError(f"unknown amplitude mode: {mode!r}")


def log_detection_prob(u, u_de: float, n_eff, mode: str):
    u = np.asarray(u, dtype=float)
    s = np.sqrt(amp_scale_sq(u, n_eff))
    if mode == "gauss":
        return special.log_ndtr((u - math.sqrt(u_de)) / s)
    return np.log(np.maximum(detection_prob(u, u_de, n_eff, mode), 1e-300))


def log_fa_density(z, u_de: float, d_max: float):
    """Log of the false-alarm measurement density: uniform in distance and
    angle, truncated Rayleigh (scale^2 = 1/2) in amplitude. z is one
    Measurement, giving a float, or an (M, 3) array of measurement rows,
    giving an (M,) array; -inf off the support (z_u above sqrt(u_de), z_d
    in [0, d_max])."""
    z = np.asarray(z, dtype=float)
    z_d, z_u = z[..., 0], z[..., 2]
    # 2 z exp(-z^2) / exp(-u_de), uniform 1/d_max and 1/2pi
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = (np.log(2.0 * z_u) - (z_u * z_u - u_de)
               - math.log(d_max) - math.log(TWO_PI))
    out = np.where((z_u > math.sqrt(u_de)) & (z_d >= 0.0) & (z_d <= d_max),
                   out, -np.inf)
    return out if out.ndim else float(out)


def log_lik_matrix(measurements, particles: np.ndarray, params: HyperParams,
                   geom: ArrayGeometry, detected: bool = False) -> np.ndarray:
    """Log joint measurement likelihoods log f(z_m | x_j) as a (J, M) matrix.

    measurements is M Measurement tuples or an (M, 3) array of such rows.
    particles is either one shared (J, 5) set, scored against every
    measurement, or a (J, M, 5) array whose column m is measurement m's own
    particle set (the new-track proposals): entry (j, m) is then
    log f(z_m | particles[j, m]). Either way len(particles) is J.

    The joint likelihood is a Gaussian in distance, a Gaussian on the wrapped
    angular residual and a truncated amplitude likelihood: in "exact" mode a
    Rician truncated at sqrt(u_de) and renormalized by the detection
    probability, in "gauss" mode the truncated-Gaussian approximation.
    Columns of measurements at or below the threshold are -inf.

    With the fifth argument `detected` true (pass it positionally), each
    entry is the detection-weighted log P_d(x_j) + log f(z_m | x_j) instead:
    the detection probability that normalizes the truncated amplitude
    likelihood cancels, so it is not evaluated at all.

    Per-particle constants (the three inverse variances and one log
    normalizer) are computed once, as J-vectors for a shared set and as
    (M, J) arrays for paired sets. The residuals are built
    measurement-major as an (M, J) array and updated in place; the result
    is its (J, M) transposed view, so reductions over particles run along
    contiguous memory.
    """
    J = particles.shape[0]
    M = len(measurements)
    if M == 0:
        return np.zeros((J, 0))
    exact = params.amp_mode == "exact"
    if not exact and params.amp_mode != "gauss":
        raise ValueError(f"unknown amplitude mode: {params.amp_mode!r}")
    d, phi, u = (particles[..., i].T for i in range(3))
    var_d = sigma_d_sq(u, geom)
    var_p = sigma_phi_sq(u, phi, geom)
    s2 = amp_scale_sq(u, geom.n_eff)
    log_norm = -0.5 * np.log(TWO_PI * var_d) - 0.5 * np.log(TWO_PI * var_p)
    # Rician: (z/s2) exp(-(z-u)^2/(2 s2)) i0e(z u / s2), written with the
    # exponentially scaled Bessel i0e for overflow safety.
    log_norm -= np.log(s2) if exact else 0.5 * np.log(TWO_PI * s2)
    if not detected:
        log_norm -= log_detection_prob(u, params.u_de, geom.n_eff,
                                       params.amp_mode)
    z = np.asarray(measurements, dtype=float).reshape(M, 3)
    zd, zp, zu = z[:, 0:1], z[:, 1:2], z[:, 2:3]
    out = zd - d
    out *= out
    out *= 0.5 / var_d
    r = wrap_angle(zp - phi)
    r *= r
    r *= 0.5 / var_p
    out += r
    np.subtract(zu, u, out=r)
    r *= r
    r *= 0.5 / s2
    out += r
    np.subtract(log_norm, out, out=out)
    if exact:
        np.multiply(zu, u / s2, out=r)
        out += np.log(special.i0e(r, out=r), out=r)
        out += np.log(np.maximum(zu, 1e-300))
    out[z[:, 2] <= math.sqrt(params.u_de)] = -np.inf
    return out.T
