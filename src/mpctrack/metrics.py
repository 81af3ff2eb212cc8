"""Optimal-subpattern-assignment evaluation against scenario ground truth.

Per-dimension OSPA (distance, angle, component SNR) with order OSPA_P and
fixed per-dimension cutoffs; the assignment inside the metric is solved
exactly. Run logs carry one record per scenario step and aggregate into
per-step means across runs.
"""

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .model import ang_diff

# Metric order and per-dimension cutoffs: 10 cm, 10 degrees and 6 dB.
OSPA_P = 2.0
CUTOFF_D = 0.1
CUTOFF_PHI = math.radians(10.0)
CUTOFF_SNR_DB = 6.0


def ospa(truth, est, p: float, cutoff: float, angular: bool = False) -> float:
    """Optimal-subpattern-assignment distance between two scalar sets.

    With angular=True the base distance is the wrapped angular difference
    (inputs in radians). Both sets empty gives 0.
    """
    x = np.asarray(list(truth), dtype=float)
    y = np.asarray(list(est), dtype=float)
    n, m = len(x), len(y)
    if n == 0 and m == 0:
        return 0.0
    if n == 0 or m == 0:
        return float(cutoff)
    diff = ang_diff(x[:, None], y[None, :]) if angular \
        else x[:, None] - y[None, :]
    cost = np.minimum(np.abs(diff), cutoff) ** p
    ri, ci = linear_sum_assignment(cost)
    matched = float(cost[ri, ci].sum())
    n_max, n_min = max(n, m), min(n, m)
    return float(((matched + cutoff**p * (n_max - n_min)) / n_max) ** (1.0 / p))


RUNLOG_COLUMNS = ("step", "ospa_d_m", "ospa_phi_deg", "ospa_snr_db",
                  "nom_true", "nom_hat", "mu_fa_true", "mu_fa_hat")


@dataclass
class RunLog:
    """Per-step evaluation records of one simulation run."""
    records: list = field(default_factory=list)  # dicts keyed by RUNLOG_COLUMNS

    def append(self, **kw) -> None:
        missing = set(RUNLOG_COLUMNS) - set(kw)
        if missing:
            raise ValueError(f"missing record fields: {sorted(missing)}")
        self.records.append({k: kw[k] for k in RUNLOG_COLUMNS})

    def column(self, name: str) -> np.ndarray:
        return np.array([r[name] for r in self.records], dtype=float)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(RUNLOG_COLUMNS)
        for r in self.records:
            w.writerow([_fmt(r[c]) for c in RUNLOG_COLUMNS])
        return buf.getvalue()


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def snr_in_db(u, n_eff: int):
    """Input component SNR in dB of a normalized amplitude."""
    u = np.maximum(np.asarray(u, dtype=float), 1e-12)
    return 20.0 * np.log10(u) - 10.0 * math.log10(n_eff)


def evaluate_step(truth_states: np.ndarray, detected, n_eff: int) -> dict:
    """Per-dimension OSPA between the alive truth (L, 5) and the detected
    track summaries for one step; either may be empty."""
    td, tp, tu = truth_states[:, :3].T
    ed = [t.d for t in detected]
    ep = [t.phi for t in detected]
    eu = [t.u for t in detected]
    return {
        "ospa_d_m": ospa(td, ed, OSPA_P, CUTOFF_D),
        "ospa_phi_deg": math.degrees(
            ospa(tp, ep, OSPA_P, CUTOFF_PHI, angular=True)),
        "ospa_snr_db": ospa(snr_in_db(tu, n_eff), snr_in_db(eu, n_eff),
                            OSPA_P, CUTOFF_SNR_DB),
        "nom_true": len(truth_states),
        "nom_hat": len(detected),
    }


def aggregate(logs: list) -> dict:
    """Average run logs step by step.

    Returns {"per_step": {column: (steps,) mean array}, "overall":
    {column: scalar mean}}. All logs must cover the same steps.
    """
    if not logs:
        raise ValueError("no logs to aggregate")
    steps = logs[0].column("step")
    for lg in logs[1:]:
        if len(lg.records) != len(steps) or np.any(lg.column("step") != steps):
            raise ValueError("run logs cover different step sets")
    per_step = {"step": steps.astype(int)}
    overall = {}
    for col in RUNLOG_COLUMNS[1:]:
        stack = np.stack([lg.column(col) for lg in logs])
        per_step[col] = stack.mean(axis=0)
        overall[col] = float(stack.mean())
    return {"per_step": per_step, "overall": overall}


def aggregate_csv(agg: dict) -> str:
    """Render an aggregate() result as the summary CSV: its per-step means
    written as a RunLog."""
    per_step = agg["per_step"]
    return RunLog([{c: per_step[c][i] for c in RUNLOG_COLUMNS}
                   for i in range(len(per_step["step"]))]).to_csv()
