"""Seeded Monte-Carlo experiment runner.

One run = synthesize measurements (or radio snapshots plus the snapshot
estimator), track them sequentially, and evaluate against truth. Runs are
independently seeded from (base_seed XOR run index) through a splittable
seed sequence, so per-run outputs are identical whether executed serially or
across workers.
"""

import concurrent.futures
import json
import math
import os

import numpy as np

from . import metrics, radio, synth, tracker
from .config import ExperimentConfig, config_to_dict
from .metrics import RunLog
from .scenario import Scenario, get_scenario


def _run_rngs(base_seed: int, run_index: int):
    ss = np.random.SeedSequence(entropy=base_seed ^ run_index)
    synth_seed, tracker_seed = ss.spawn(2)
    return np.random.default_rng(synth_seed), tracker_seed


def _radio_measurements(scn: Scenario, step: int, cfg: ExperimentConfig,
                        feedback, bank, rng: np.random.Generator) -> list:
    """Synthesize one radio snapshot from truth with unit noise variance,
    so the truth amplitudes are the normalized amplitudes u, and run the
    snapshot estimator on it."""
    truth = []
    for row in scn.truth_arrays(step):
        state = tracker.model.KinematicState.from_array(row)
        truth.append((state, rng.uniform(0.0, 2.0 * np.pi)))
    samples = radio.synth_radio(truth, cfg.geom, rng)
    u_de = cfg.snapshot_u_de if cfg.snapshot_u_de is not None \
        else cfg.hyper.u_de
    return radio.snapshot_estimate(samples, feedback, cfg.geom, u_de,
                                   bank=bank)


def run_single(cfg: ExperimentConfig, run_index: int) -> RunLog:
    """Execute one seeded run and return its evaluation log."""
    scn = get_scenario(cfg.scenario)
    synth_rng, tracker_seed = _run_rngs(cfg.base_seed, run_index)
    state = tracker.init(cfg.hyper, cfg.geom, tracker_seed)
    if cfg.mode == "radio_pipeline":
        bank = radio.MatchedFilterBank(cfg.geom)
    feedback = []
    log = RunLog()
    for step in range(scn.steps):
        tracker.predict(state, cfg.hyper)
        if cfg.mode == "radio_pipeline":
            ms = _radio_measurements(scn, step, cfg, feedback, bank,
                                     synth_rng)
        else:
            ms = synth.synth_measurements(scn, step, cfg.hyper, cfg.geom,
                                          synth_rng)
        state, est, _ = tracker.update(state, ms, cfg.hyper, cfg.geom)
        feedback = est.detected
        rec = metrics.evaluate_step(scn.truth_arrays(step), est.detected,
                                    cfg.ospa, cfg.geom.n_eff)
        log.append(step=step, mu_fa_true=float(scn.far_profile[step]),
                   mu_fa_hat=est.mu_fa_mmse if not math.isnan(est.mu_fa_mmse)
                   else 0.0, **rec)
    return log


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run all Monte-Carlo runs, write per-run CSVs, the aggregate summary
    and a config echo into cfg.out_dir. Returns the aggregate."""
    problems = cfg.validate()
    if problems:
        raise ValueError(f"invalid config: {problems}")
    os.makedirs(cfg.out_dir, exist_ok=True)

    if cfg.workers > 1 and cfg.runs > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=cfg.workers) as pool:
            logs = list(pool.map(run_single, [cfg] * cfg.runs,
                                 range(cfg.runs)))
    else:
        logs = [run_single(cfg, i) for i in range(cfg.runs)]

    for i, lg in enumerate(logs):
        path = os.path.join(cfg.out_dir, f"run_{i:03d}.csv")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(lg.to_csv())

    agg = metrics.aggregate(logs)
    with open(os.path.join(cfg.out_dir, "summary.csv"), "w",
              encoding="utf-8", newline="") as f:
        f.write(metrics.aggregate_csv(agg))
    with open(os.path.join(cfg.out_dir, "config_echo.json"), "w",
              encoding="utf-8") as f:
        json.dump(config_to_dict(cfg), f, indent=1, sort_keys=True)
        f.write("\n")
    return agg
