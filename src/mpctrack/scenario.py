"""Ground-truth scenario construction and (de)serialization.

A scenario fixes, per step, which components are alive and their true
distance, angle, amplitude and velocities, plus the true mean false-alarm
rate. Scenarios serialize to versioned JSON and round-trip bit-exactly.
"""

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import wrap_angle

SCHEMA_VERSION = 1
# Complex samples per snapshot of the default array (radio.default_geometry:
# 9 elements x 46 samples); the builders set u_de = 1e-2 * N_EFF.
N_EFF = 414


@dataclass
class TrackTruth:
    """One component's truth: alive on [birth_step, death_step] inclusive,
    with one state row [d, phi, u, v_d, v_phi] per alive step."""
    birth_step: int
    death_step: int
    states: np.ndarray  # (death - birth + 1, 5)


@dataclass
class Scenario:
    steps: int
    tracks: list            # of TrackTruth
    far_profile: np.ndarray  # (steps,), all > 0
    u_de: float
    seed: int

    def truth_arrays(self, step: int) -> np.ndarray:
        """Stacked (L, 5) truth states of the components alive at step."""
        alive = [t.states[step - t.birth_step] for t in self.tracks
                 if t.birth_step <= step <= t.death_step]
        return np.array(alive, dtype=float).reshape(-1, 5)

    def to_json(self) -> str:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "steps": self.steps,
            "u_de": self.u_de,
            "seed": self.seed,
            "far_profile": list(map(float, self.far_profile)),
            "tracks": [
                {
                    "birth_step": t.birth_step,
                    "death_step": t.death_step,
                    "states": [[float(v) for v in row] for row in t.states],
                }
                for t in self.tracks
            ],
        }
        return json.dumps(doc, indent=1)

    @staticmethod
    def from_json(text: str) -> "Scenario":
        """Parse a scenario document; a ValueError names the first key that
        is missing, of the wrong type or shape, or out of range: steps must
        be at least 1, each death_step at least its birth_step, the
        false-alarm rates non-negative and u_de positive and finite."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("scenario root must be an object")
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported scenario schema version: {version}")
        steps = _key(doc, "steps", int, ok=lambda n: n >= 1, rule="at least 1")
        tracks = []
        for i, t in enumerate(_key(doc, "tracks", list)):
            where = f"scenario track {i}"
            birth = _key(t, "birth_step", int, where)
            death = _key(t, "death_step", int, where, ok=lambda d: d >= birth,
                         rule=f"at least birth_step ({birth})")
            tracks.append(TrackTruth(birth, death, _key(
                t, "states", (death - birth + 1, 5), where)))
        far = _key(doc, "far_profile", (steps,), ok=lambda a: np.all(a >= 0.0),
                   rule="non-negative")
        u_de = _key(doc, "u_de", numbers.Real, ok=lambda u: 0.0 < u < math.inf,
                    rule="positive and finite")
        return Scenario(steps, tracks, far, u_de, _key(doc, "seed", int))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json())
            f.write("\n")

    @staticmethod
    def load(path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as f:
            return Scenario.from_json(f.read())


def _key(doc, key, kind, where: str = "scenario", ok=None, rule: str = ""):
    """doc[key], which must be an instance of kind (bool is no number), or,
    with kind a shape tuple, finite JSON numbers (no strings, no booleans)
    of that shape, returned as an array; then ok(value), if given, must
    hold, or the error says the value must be the rule."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{where}: missing key {key!r}")
    v = doc[key]
    if isinstance(kind, tuple):
        try:
            a = np.array(v, dtype=object)
            if a.shape == kind and set(map(type, a.flat)) <= {int, float}:
                v = a.astype(float)
        except (TypeError, ValueError, OverflowError):
            pass
        if not (isinstance(v, np.ndarray) and np.isfinite(v).all()):
            raise ValueError(f"{where}: {key!r} must be finite numbers of "
                             f"shape {kind}")
    elif isinstance(v, bool) or not isinstance(v, kind):
        raise ValueError(f"{where}: {key!r} must be {kind.__name__}, got {v!r}")
    if ok is not None and not ok(v):
        raise ValueError(f"{where}: {key!r} must be {rule}")
    return v


def _track_from_paths(birth: int, death: int, d: np.ndarray, phi: np.ndarray,
                      u: np.ndarray) -> TrackTruth:
    """Assemble a TrackTruth from sampled paths, with velocities per 1 s
    step from central finite differences."""
    v_d = np.gradient(d)
    v_phi = np.gradient(np.unwrap(phi))
    states = np.stack([d, wrap_angle(phi), u, v_d, v_phi], axis=1)
    return TrackTruth(birth, death, states)


def _pathloss_amplitude(d: np.ndarray, u_1m: float, reflections: int) -> np.ndarray:
    """Free-space pathloss amplitude with 3 dB attenuation per reflection."""
    return u_1m / d * 10.0 ** (-3.0 * reflections / 20.0)


def _smooth_path(n: np.ndarray, start: float, end: float, sway: float,
                 period: float, phase: float) -> np.ndarray:
    """Linear trend plus one slow sinusoidal sway."""
    frac = n / max(n[-1], 1)
    return start + (end - start) * frac + sway * np.sin(
        2.0 * np.pi * n / period + phase)


def paper_scenario(variant: str = "standard") -> Scenario:
    """Seven components over 364 steps with staggered lifetimes, free-space
    pathloss amplitudes (3 dB per reflection), a distance-and-amplitude
    crossing at step 83 and an angle crossing at step 125.

    The false-alarm rate ramps linearly from 1.5 to 3 ("standard") or
    switches between levels ("fast_far").
    """
    if variant not in ("standard", "fast_far"):
        raise ValueError(f"unknown scenario variant: {variant!r}")
    steps = 364
    snr_in_db = 5.4  # input SNR at 1 m
    u_1m = math.sqrt(10.0 ** ((snr_in_db + 10.0 * math.log10(N_EFF)) / 10.0))

    def seg(birth, death):
        return np.arange(birth, death + 1, dtype=float)

    tracks = []

    # 1: line-of-sight-like, alive throughout.
    t = seg(0, 363)
    d = _smooth_path(t, 2.2, 3.6, 0.15, 260.0, 0.3)
    phi = np.deg2rad(_smooth_path(t, -30.0, -12.0, 3.0, 300.0, 1.1))
    tracks.append(_track_from_paths(0, 363, d, phi,
                                    _pathloss_amplitude(d, u_1m, 0)))

    # 2 and 3: first-order reflections engineered to cross in distance (and
    # thus amplitude, same reflection order) exactly at step 83.
    t = seg(0, 250)
    d2 = 6.0 + 0.012 * (t - 83.0)
    phi2 = np.deg2rad(_smooth_path(t, 40.0, 60.0, 2.0, 240.0, 0.0))
    tracks.append(_track_from_paths(0, 250, d2, phi2,
                                    _pathloss_amplitude(d2, u_1m, 1)))
    t = seg(20, 300)
    d3 = 6.0 - 0.010 * (t - 83.0)
    phi3 = np.deg2rad(_smooth_path(t - 20.0, -80.0, -100.0, 2.5, 280.0, 0.7))
    tracks.append(_track_from_paths(20, 300, d3, phi3,
                                    _pathloss_amplitude(d3, u_1m, 1)))

    # 4 and 5: second-order reflections crossing in angle at step 125.
    t = seg(40, 363)
    phi4 = np.deg2rad(95.0 + 0.10 * (t - 125.0))
    d4 = _smooth_path(t - 40.0, 9.0, 10.5, 0.2, 320.0, 0.2)
    tracks.append(_track_from_paths(40, 363, d4, phi4,
                                    _pathloss_amplitude(d4, u_1m, 2)))
    t = seg(60, 340)
    phi5 = np.deg2rad(95.0 - 0.08 * (t - 125.0))
    d5 = _smooth_path(t - 60.0, 11.5, 10.0, 0.25, 300.0, 1.9)
    tracks.append(_track_from_paths(60, 340, d5, phi5,
                                    _pathloss_amplitude(d5, u_1m, 2)))

    # 6: short-lived second-order reflection.
    t = seg(150, 230)
    d6 = _smooth_path(t - 150.0, 13.0, 14.0, 0.1, 200.0, 0.5)
    phi6 = np.deg2rad(_smooth_path(t - 150.0, 160.0, 150.0, 1.0, 220.0, 0.0))
    tracks.append(_track_from_paths(150, 230, d6, phi6,
                                    _pathloss_amplitude(d6, u_1m, 2)))

    # 7: weak third-order reflection, component SNR near the threshold.
    t = seg(0, 363)
    d7 = _smooth_path(t, 14.5, 16.0, 0.2, 340.0, 2.2)
    phi7 = np.deg2rad(_smooth_path(t, -150.0, -140.0, 1.5, 330.0, 0.9))
    tracks.append(_track_from_paths(0, 363, d7, phi7,
                                    _pathloss_amplitude(d7, u_1m, 3)))

    if variant == "standard":
        far = np.linspace(1.5, 3.0, steps)
    else:
        levels = [1.5, 4.0, 2.0, 5.0, 3.0, 1.5, 4.0]
        far = np.concatenate([np.full(52, lv) for lv in levels])
    return Scenario(steps, tracks, far, u_de=1e-2 * N_EFF, seed=0)


def desk_scenario(variant: str = "standard") -> Scenario:
    """Three well-separated high-amplitude components alive for the whole
    run; compact setting for fast experiments and acceptance checks."""
    if variant not in ("standard", "fast_far"):
        raise ValueError(f"unknown scenario variant: {variant!r}")
    steps = 100
    n = np.arange(steps, dtype=float)
    specs = [
        (3.0, 4.5, -60.0, -45.0, 35.0),
        (8.0, 6.8, 15.0, 30.0, 30.0),
        (12.0, 13.0, 120.0, 105.0, 25.0),
    ]
    tracks = []
    for d0, d1, p0, p1, u0 in specs:
        d = _smooth_path(n, d0, d1, 0.05, 150.0, 0.4)
        phi = np.deg2rad(_smooth_path(n, p0, p1, 0.5, 180.0, 0.0))
        u = u0 * (0.5 * (d0 + d1)) / d
        tracks.append(_track_from_paths(0, steps - 1, d, phi, u))
    if variant == "standard":
        far = np.linspace(1.5, 3.0, steps)
    else:
        thirds = steps // 3
        far = np.concatenate([np.full(thirds, 1.5), np.full(thirds, 4.0),
                              np.full(steps - 2 * thirds, 2.0)])
    return Scenario(steps, tracks, far, u_de=1e-2 * N_EFF, seed=0)


def pipeline_scenario() -> Scenario:
    """Two widely separated components for the radio-pipeline round trip."""
    steps = 50
    u = math.sqrt(N_EFF * 10.0 ** (18.4 / 10.0))  # 18.4 dB input SNR
    tracks = []
    for d0, d1, p0, p1 in [(3.0, 3.5, -40.0, -35.0), (9.0, 8.5, 60.0, 65.0)]:
        d = np.linspace(d0, d1, steps)
        phi = np.deg2rad(np.linspace(p0, p1, steps))
        tracks.append(_track_from_paths(0, steps - 1, d, phi,
                                        np.full(steps, u)))
    far = np.full(steps, 0.05)
    return Scenario(steps, tracks, far, u_de=1e-2 * N_EFF, seed=0)


BUILTIN_SCENARIOS = {
    "standard": lambda: paper_scenario("standard"),
    "fast_far": lambda: paper_scenario("fast_far"),
    "desk": lambda: desk_scenario("standard"),
    "desk_fast_far": lambda: desk_scenario("fast_far"),
    "pipeline": pipeline_scenario,
}


def get_scenario(name_or_path: str) -> Scenario:
    """Resolve a builtin scenario name or load a scenario file."""
    if name_or_path in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[name_or_path]()
    return Scenario.load(name_or_path)
