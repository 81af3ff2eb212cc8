"""Optimal-subpattern-assignment evaluation against scenario ground truth.

Per-dimension OSPA (Schuhmacher, Vo & Vo, IEEE TSP 2008) with order OSPA_P
and fixed per-dimension cutoffs; the assignment inside the metric is solved
exactly by Crouse's shortest augmenting path method (IEEE TAES 2016), ported
from scipy's linear_sum_assignment with its tie-breaking, so the matched pairs
are scipy's. Run logs carry one record per scenario step and aggregate into
per-step means across runs.
"""

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .model import TWO_PI

# Metric order (_cost_matrix squares) and per-dimension cutoffs: 10 cm, 10
# degrees and 6 dB.
OSPA_P = 2.0
CUTOFF_D = 0.1
CUTOFF_PHI = math.radians(10.0)
CUTOFF_SNR_DB = 6.0


def ospa(truth, est, cutoff: float, angular: bool = False) -> float:
    """Optimal-subpattern-assignment distance of order OSPA_P between two
    scalar sets.

    With angular=True the base distance is the wrapped angular difference
    (inputs in radians). Both sets empty gives 0. The assignment comes from
    _linear_sum_assignment, Crouse's 2016 solver as scipy implements it,
    and the matched costs are added in the row order scipy returns, the way
    numpy sums them, so the value is bit for bit the one scipy's solver and
    numpy's sum give.
    """
    x = list(map(float, truth))
    y = list(map(float, est))
    n, m = len(x), len(y)
    if n == 0 and m == 0:
        return 0.0
    if n == 0 or m == 0:
        return float(cutoff)
    cost = _cost_matrix(x, y, cutoff, angular)
    ri, ci = _linear_sum_assignment(cost)
    costs = [cost[i][j] for i, j in zip(ri, ci)]
    # numpy adds fewer than 8 values one after another, as sum() does.
    matched = sum(costs) if len(costs) < 8 else float(np.sum(costs))
    n_max, n_min = max(n, m), min(n, m)
    return float(((matched + cutoff**OSPA_P * (n_max - n_min)) / n_max)
                 ** (1.0 / OSPA_P))


def _cost_matrix(x: list, y: list, cutoff: float, angular: bool):
    """np.minimum(np.abs(diff), cutoff) ** OSPA_P as a list of rows, diff
    being x[i] - y[j], wrapped into [-pi, pi) by model.ang_diff when
    angular.

    The entries are computed in Python floats to numpy's bits: numpy's
    ** 2.0 is a square, and Python's float % wraps by np.mod's rule (fmod,
    then add the period to a remainder of the wrong sign).
    """
    cc = cutoff * cutoff
    if angular:
        h = TWO_PI / 2.0
        return [[cc if (d := abs((a - b + h) % TWO_PI - h)) > cutoff
                 else d * d for b in y] for a in x]
    return [[cc if (d := abs(a - b)) > cutoff else d * d for b in y]
            for a in x]


_above_neg_inf = (-math.inf).__lt__    # False for -inf and NaN


def _linear_sum_assignment(cost: list):
    """Rows and columns of a minimum-cost assignment of a cost matrix given
    as a list of rows: scipy.optimize.linear_sum_assignment (Crouse, IEEE
    TAES 2016, shortest augmenting paths with dual variables) on Python
    floats, with scipy's choices wherever costs tie, so both return the same
    (rows, cols) lists.

    A tall matrix is solved transposed and its pairs returned by row. A NaN
    or -inf entry, or a matrix with no finite assignment, raises ValueError.
    """
    # A NaN or -inf entry makes the total NaN or -inf; so can an overflow,
    # which the entry-by-entry check then clears.
    if not (sum(map(sum, cost)) > -math.inf
            or all(all(map(_above_neg_inf, row)) for row in cost)):
        raise ValueError("matrix contains invalid numeric entries")
    transpose = len(cost[0]) < len(cost)
    c = list(zip(*cost)) if transpose else cost
    nr, nc = len(c), len(c[0])
    u, v = [0.0] * nr, [0.0] * nc
    col4row, row4col, path = [-1] * nr, [-1] * nc, [-1] * nc
    for cur in range(nr):
        # u[cur] is still 0, so the path search's first scan sees the
        # reduced costs row - v. On a tie it keeps the free column it meets
        # last, scanning last column first: if the first column holding the
        # lowest finite reduced cost is free, the path ends there, and
        # u[cur] is the only dual variable that changes.
        row = c[cur]
        red = [a - b for a, b in zip(row, v)] if any(v) else row
        low = min(red)
        j = red.index(low)
        if low < math.inf and row4col[j] < 0:
            u[cur], col4row[cur], row4col[j] = low, j, cur
            continue
        # Shortest augmenting path from row `cur`; `remaining` holds the
        # unvisited columns, last column first.
        spc = [math.inf] * nc
        visited_rows, visited_cols = [], []
        remaining = list(range(nc - 1, -1, -1))
        min_val, i, sink = 0.0, cur, -1
        while sink < 0:
            visited_rows.append(i)
            row, ui = c[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                s = spc[j]
                if r < s:
                    path[j] = i
                    spc[j] = s = r
                # On a tie prefer a free column: it ends the path.
                if s < lowest or (s == lowest and row4col[j] < 0):
                    lowest, index = s, it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            visited_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in visited_rows:
            if i != cur:
                u[i] += min_val - spc[col4row[i]]
        for j in visited_cols:
            v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        rows = [j for j in range(nc) if row4col[j] >= 0]
        return rows, [row4col[j] for j in rows]
    return list(range(nr)), col4row


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
        "ospa_d_m": ospa(td, ed, CUTOFF_D),
        "ospa_phi_deg": math.degrees(ospa(tp, ep, CUTOFF_PHI, angular=True)),
        "ospa_snr_db": ospa(snr_in_db(tu, n_eff), snr_in_db(eu, n_eff),
                            CUTOFF_SNR_DB),
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
