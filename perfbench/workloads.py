"""The benchmark's four workloads and the checks their runs must pass.

Each workload turns the benchmark seed into an `ExperimentConfig` (and, where
the scenario is generated, a scenario JSON written with `Scenario.save`). The
program receives only that config. README.md gives the reason for each
workload.
"""

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from mpctrack import scenario
from mpctrack.config import ExperimentConfig, config_to_dict
from mpctrack.metrics import RunLog
from mpctrack.model import HyperParams

# Acceptance criterion C06 calls the steps from 20 on the steady state.
STEADY_FROM_STEP = 20
# Steps of the short scenario used by the warm-up run.
WARMUP_STEPS = 10
# Run index of the warm-up run; far above any measured run index.
WARMUP_RUN = 1 << 19
# The paper scenario crosses two pairs of components at steps 83 and 125;
# this window spans both and leaves 13 steps to acquire the components.
STANDARD_WINDOW = (70, 130)
CLUTTER_RATE = 20.0


def window(scn: scenario.Scenario, lo: int, hi: int) -> scenario.Scenario:
    """Steps [lo, hi) of a scenario, renumbered from 0."""
    tracks = []
    for t in scn.tracks:
        b, e = max(t.birth_step, lo), min(t.death_step, hi - 1)
        if b <= e:
            rows = t.states[b - t.birth_step:e - t.birth_step + 1]
            tracks.append(scenario.TrackTruth(b - lo, e - lo, rows.copy()))
    return scenario.Scenario(hi - lo, tracks, scn.far_profile[lo:hi].copy(),
                             scn.u_de, scn.seed)


def _standard() -> scenario.Scenario:
    return window(scenario.paper_scenario("standard"), *STANDARD_WINDOW)


def _clutter() -> scenario.Scenario:
    desk = scenario.desk_scenario("standard")
    return scenario.Scenario(desk.steps, desk.tracks,
                             np.full(desk.steps, CLUTTER_RATE), desk.u_de,
                             desk.seed)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    scenario: builtin scenario name, or None when `make_scenario` builds it.
    quality_runs: the first runs, by index, whose logs give the quality
      metrics; the count is fixed so that quality is a function of the seed.
    bounds: per-run upper bounds on steady-state means (see `check_run`).
    """
    name: str
    scenario: Optional[str]
    make_scenario: Optional[Callable[[], scenario.Scenario]]
    hyper: dict
    quality_runs: int
    bounds: dict
    mode: str = "fully_synthetic"
    snapshot_u_de: Optional[float] = None

    def scenario_obj(self) -> scenario.Scenario:
        if self.make_scenario is not None:
            return self.make_scenario()
        return scenario.get_scenario(self.scenario)


# Acceptance criterion C06's desk bounds: 2 cm and 2 degrees.
_DESK_BOUNDS = {"ospa_d_m": 0.02, "ospa_phi_deg": 2.0}

WORKLOADS = {w.name: w for w in [
    Workload("desk", "desk", None, {"J": 1000}, quality_runs=12,
             bounds=_DESK_BOUNDS),
    # 80% of the OSPA cutoffs (10 cm, 10 degrees): a run that loses every
    # component reads at the cutoff.
    Workload("standard", None, _standard, {"J": 10000}, quality_runs=3,
             bounds={"ospa_d_m": 0.08, "ospa_phi_deg": 8.0}),
    Workload("clutter", None, _clutter, {"J": 1000}, quality_runs=6,
             bounds=_DESK_BOUNDS),
    # The settings of configs/pipeline_radio.json, fixed here so that editing
    # the bundled config does not change the workload. The NOM bound is
    # acceptance criterion C09's.
    Workload("pipeline", "pipeline", None, {"J": 1000, "u_de": 25.0},
             quality_runs=12,
             bounds={**_DESK_BOUNDS, "nom_abs_err": 0.5},
             mode="radio_pipeline", snapshot_u_de=25.0),
]}


def base_seed(seed: int) -> int:
    """Config base seed for a benchmark seed. Runs seed from base_seed XOR
    run index, so the low 20 bits are left free for run indices and no two
    benchmark seeds share a run."""
    return (seed % (1 << 32)) << 20


def make_config(wl: Workload, seed: int, workdir: Path) -> ExperimentConfig:
    """The workload's config for one seed; writes a generated scenario into
    workdir."""
    name = wl.scenario
    if name is None:
        path = workdir / f"{wl.name}_scenario.json"
        wl.scenario_obj().save(path)
        name = str(path)
    cfg = ExperimentConfig(mode=wl.mode, scenario=name, runs=1,
                           base_seed=base_seed(seed), out_dir=str(workdir),
                           hyper=HyperParams(**wl.hyper),
                           snapshot_u_de=wl.snapshot_u_de)
    problems = cfg.validate()
    if problems:
        raise ValueError(f"invalid {wl.name} config: {problems}")
    return cfg


def warmup_config(wl: Workload, cfg: ExperimentConfig,
                  workdir: Path) -> ExperimentConfig:
    """The same config on the first WARMUP_STEPS steps of the scenario."""
    path = workdir / f"{wl.name}_warmup.json"
    window(wl.scenario_obj(), 0, WARMUP_STEPS).save(path)
    return dataclasses.replace(cfg, scenario=str(path))


def input_digest(cfg: ExperimentConfig) -> str:
    """Digest of what the program receives: the config and the scenario
    file's contents, leaving out the paths, which name a temporary
    directory."""
    doc = config_to_dict(cfg)
    del doc["out_dir"]
    path = Path(cfg.scenario)
    if path.is_file():
        doc["scenario"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def check_run(wl: Workload, log: RunLog) -> list:
    """Problems with one run's log: non-finite values and steady-state bounds
    that do not hold. Empty when the run passes."""
    problems = []
    for col in ("ospa_d_m", "ospa_phi_deg", "ospa_snr_db", "nom_hat",
                "mu_fa_hat"):
        if not np.all(np.isfinite(log.column(col))):
            problems.append(f"non-finite {col}")
    steady = log.column("step") >= STEADY_FROM_STEP
    values = {
        "ospa_d_m": log.column("ospa_d_m")[steady].mean(),
        "ospa_phi_deg": log.column("ospa_phi_deg")[steady].mean(),
        "nom_abs_err": np.abs(log.column("nom_hat")
                              - log.column("nom_true"))[steady].mean(),
    }
    for key, bound in wl.bounds.items():
        if not values[key] < bound:
            problems.append(f"steady {key} {values[key]:.4g} >= {bound}")
    return problems


def nonfinite_estimates(state, est) -> int:
    """Count non-finite numbers in one step's estimate. The false-alarm-rate
    estimate is NaN by design while its belief does not exist yet."""
    bad = sum(1 for t in est.all_tracks
              for v in (t.d, t.phi, t.u, t.sigma_d, t.sigma_phi, t.p_exist)
              if not math.isfinite(v))
    if state.far is not None and not math.isfinite(est.mu_fa_mmse):
        bad += 1
    return bad
