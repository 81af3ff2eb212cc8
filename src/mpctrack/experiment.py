"""Seeded Monte-Carlo experiment runner.

One run = synthesize measurements (or radio snapshots plus the snapshot
estimator), track them sequentially, and evaluate against truth. The stages
run one way only: the estimator sees each snapshot's samples alone, never
the tracker's state. Runs are independently seeded from (base_seed XOR run
index) through a splittable seed sequence, so per-run outputs are identical
whether executed serially or across workers.
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
                        bank, rng: np.random.Generator) -> list:
    """Synthesize one radio snapshot from truth with unit noise variance,
    so the truth amplitudes are the normalized amplitudes u, and run the
    snapshot estimator on it."""
    truth = scn.truth_arrays(step)
    phases = rng.uniform(0.0, 2.0 * np.pi, len(truth))
    samples = radio.synth_radio(truth, phases, cfg.geom, rng)
    u_de = cfg.snapshot_u_de if cfg.snapshot_u_de is not None \
        else cfg.hyper.u_de
    return radio.snapshot_estimate(samples, bank, u_de)


def run_single(cfg: ExperimentConfig, run_index: int) -> RunLog:
    """Execute one seeded run and return its evaluation log."""
    scn = get_scenario(cfg.scenario)
    synth_rng, tracker_seed = _run_rngs(cfg.base_seed, run_index)
    state = tracker.init(cfg.hyper, cfg.geom, tracker_seed)
    if cfg.mode == "radio_pipeline":
        bank = radio.MatchedFilterBank(cfg.geom)
    log = RunLog()
    for step in range(scn.steps):
        state = tracker.predict(state, cfg.hyper)
        if cfg.mode == "radio_pipeline":
            ms = _radio_measurements(scn, step, cfg, bank, synth_rng)
        else:
            ms = synth.synth_measurements(scn, step, cfg.hyper, cfg.geom,
                                          synth_rng)
        state, est, _ = tracker.update(state, ms, cfg.hyper, cfg.geom)
        rec = metrics.evaluate_step(scn.truth_arrays(step), est.detected,
                                    cfg.geom.n_eff)
        log.append(step=step, mu_fa_true=float(scn.far_profile[step]),
                   mu_fa_hat=est.mu_fa_mmse if not math.isnan(est.mu_fa_mmse)
                   else 0.0, **rec)
    return log


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run all Monte-Carlo runs, on min(workers, runs, cores) processes
    (serially when that is 1), and write per-run CSVs, the aggregate summary
    and a config echo into cfg.out_dir. Returns the aggregate."""
    problems = cfg.validate()
    if problems:
        raise ValueError(f"invalid config: {problems}")
    os.makedirs(cfg.out_dir, exist_ok=True)

    workers = min(cfg.workers, cfg.runs, os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers) as pool:
            logs = list(pool.map(run_single, [cfg] * cfg.runs,
                                 range(cfg.runs)))
    else:
        logs = [run_single(cfg, i) for i in range(cfg.runs)]

    agg = metrics.aggregate(logs)
    files = {f"run_{i:03d}.csv": lg.to_csv() for i, lg in enumerate(logs)}
    files["summary.csv"] = metrics.aggregate_csv(agg)
    files["config_echo.json"] = json.dumps(config_to_dict(cfg), indent=1,
                                           sort_keys=True) + "\n"
    for name, text in files.items():
        with open(os.path.join(cfg.out_dir, name), "w", encoding="utf-8",
                  newline="") as f:
            f.write(text)
    return agg
