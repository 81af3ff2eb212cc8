"""Measure one workload: set-up, warm-up, timed runs, output checks, and the
end-to-end or per-layer metrics that run.py prints.

Every run goes through the public API, `experiment.run_single`, in this one
process. The untraced runs wrap only `tracker.predict` and `tracker.update`,
to time each snapshot and to check its estimate; traced runs wrap every layer
listed in `LAYERS`. Every reported time is scaled by the machine speed that
`reference.py` measures around it; the raw times are in the info line.
"""

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from mpctrack import dabp, experiment, metrics, model, radio, synth, tracker
from mpctrack.config import config_to_dict

import reference
import spans
import sweep
import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
# No run starts after this many seconds, so that an invocation ends within
# its time limit even when the program has become several times slower.
HARD_STOP_S = 100.0
STEP_SPANS = ("tracker.predict", "tracker.update")

END_TO_END_UNITS = {
    "setup_s": "s", "run_s_p50": "s", "step_ms_p50": "ms",
    "step_ms_p90": "ms", "peak_rss_mb": "MiB", "ok_ratio": "ratio",
    "ospa_d_m": "m", "ospa_phi_deg": "deg", "ospa_snr_db": "dB",
    "nom_score": "ratio",
}


# ---------------------------------------------------------------------------
# Hooks taking counts at the call boundaries
# ---------------------------------------------------------------------------

def _update_before(state, *_):
    return {"K": len(state.legacy)}


def _update_after(info, out):
    state, est, marg = out
    births = sum(1 for tr in state.legacy if tr.birth_step == state.step)
    info.update(M=marg.p_b.shape[0], births=births,
                prunes=info["K"] - (len(state.legacy) - births),
                nonfinite=workloads.nonfinite_estimates(state, est))
    return info


def _resample_before(belief, J, _rng):
    w = np.asarray(belief.weights, dtype=float)
    sq = float(np.dot(w, w))
    return {"ess_ratio": float(w.sum()) ** 2 / sq / J if sq > 0 else 0.0}


def _lik_before(measurements, particles, *_):
    return {"pairs": len(particles) * len(measurements)}


def _da_after(_info, marg):
    return {"KM": marg.p_a.shape[0] * marg.p_b.shape[0],
            "iterations": marg.iterations_used, "converged": marg.converged}


def _snapshot_after(_info, found):
    return {"components": len(found)}


# (module, function, wrap options) of every traced layer function.
LAYERS = (
    (experiment, "run_single", {}),
    (tracker, "predict", {"new_step": True}),
    (tracker, "update", {"before": _update_before, "after": _update_after}),
    (tracker, "resample", {"before": _resample_before}),
    (tracker, "estimate", {}),
    (dabp, "evaluate_weights", {}),
    (dabp, "loopy_da", {"after": _da_after}),
    (model, "propagate_kinematics", {}),
    (model, "log_lik_matrix", {"before": _lik_before}),
    (synth, "synth_measurements", {}),
    (radio, "synth_radio", {}),
    (radio, "snapshot_estimate", {"after": _snapshot_after}),
    (metrics, "evaluate_step", {}),
)
UNTRACED = tuple(layer for layer in LAYERS
                 if layer[0] is tracker and layer[1] in ("predict", "update"))


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    index: int
    traced: bool
    run_s: float
    step_s: list        # predict + update seconds of each snapshot
    log: object         # the RunLog; None when the run raised
    problems: list
    spans: list
    scale: float = 1.0  # reference.NOMINAL_S over the reference loop's time

    @property
    def csv_sha256(self):
        if self.log is None:
            return None
        return hashlib.sha256(self.log.to_csv().encode()).hexdigest()


def run_once(wl, cfg, index: int, traced: bool,
             check: bool = True) -> RunResult:
    """One `experiment.run_single`, timed and recorded; with `check`, its log
    must also pass the workload's bounds."""
    with spans.Recorder() as rec:
        for module, attr, opts in (LAYERS if traced else UNTRACED):
            rec.wrap(module, attr, **opts)
        rec.run = index
        t0 = time.perf_counter()
        try:
            log = experiment.run_single(cfg, index)
            problems = []
        except Exception as exc:  # a failing run is counted, not fatal
            log, problems = None, [f"{type(exc).__name__}: {exc}"]
        run_s = time.perf_counter() - t0
    if check and log is not None:
        problems += workloads.check_run(wl, log)
    step_s = {}
    nonfinite = 0
    for s in rec.spans:
        if s.name in STEP_SPANS:
            step_s[s.step] = step_s.get(s.step, 0.0) + s.duration
        if s.name == "tracker.update" and s.info and "nonfinite" in s.info:
            nonfinite += s.info["nonfinite"]
    if nonfinite:
        problems.append(f"{nonfinite} non-finite track estimates")
    return RunResult(index, traced, run_s, list(step_s.values()), log,
                     problems, rec.spans)


def _set_scales(runs: list, refs: list) -> None:
    """Scale each run by the reference loop times taken just before and just
    after it; `refs` has one more entry than `runs`, in time order."""
    for r, before, after in zip(runs, refs, refs[1:]):
        r.scale = reference.NOMINAL_S / (0.5 * (before + after))


def timed_runs(wl, cfg, seconds: float) -> list:
    """Untraced runs 0, 1, ... until `seconds` have passed and the quality
    runs are done."""
    results, refs = [], [reference.reference_s()]
    start = time.perf_counter()
    while not results or (time.perf_counter() - start < HARD_STOP_S and (
            len(results) < wl.quality_runs
            or time.perf_counter() - start < seconds)):
        results.append(run_once(wl, cfg, len(results), traced=False))
        refs.append(reference.reference_s())
    _set_scales(results, refs)
    return results


def paired_runs(wl, cfg, seconds: float) -> tuple:
    """Run i untraced and then traced, for i = 0, 1, ... until `seconds` have
    passed. Both runs of a pair compute the same outputs."""
    plain, traced, refs = [], [], [reference.reference_s()]
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < min(seconds, HARD_STOP_S):
        i = len(plain)
        plain.append(run_once(wl, cfg, i, traced=False))
        refs.append(reference.reference_s())
        traced.append(run_once(wl, cfg, i, traced=True))
        refs.append(reference.reference_s())
        if plain[-1].csv_sha256 != traced[-1].csv_sha256:
            traced[-1].problems.append("traced run's output differs")
    _set_scales([r for pair in zip(plain, traced) for r in pair], refs)
    return plain, traced


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _quality(wl, results: list) -> dict:
    logs = [r.log for r in results[:wl.quality_runs] if r.log is not None]
    if not logs:
        raise RuntimeError("no quality run completed")

    def col(name):
        return np.concatenate([lg.column(name) for lg in logs])

    return {
        "ospa_d_m": float(col("ospa_d_m").mean()),
        "ospa_phi_deg": float(col("ospa_phi_deg").mean()),
        "ospa_snr_db": float(col("ospa_snr_db").mean()),
        "nom_err": float(np.abs(col("nom_hat") - col("nom_true")).mean()),
        "mu_fa_err": float(np.abs(col("mu_fa_hat")
                                  - col("mu_fa_true")).mean()),
    }


def end_to_end(wl, results: list, setup_s: float) -> tuple:
    """({name: value}, quality details) of the untraced runs."""
    steps = [s * r.scale for r in results for s in r.step_s]
    q = _quality(wl, results)
    failed = sum(1 for r in results if r.problems)
    values = {
        "setup_s": setup_s,
        "run_s_p50": statistics.median(r.run_s * r.scale for r in results),
        "step_ms_p50": statistics.median(steps) * 1e3,
        "step_ms_p90": statistics.quantiles(steps, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ok_ratio": 1.0 - failed / len(results),
        "ospa_d_m": q["ospa_d_m"],
        "ospa_phi_deg": q["ospa_phi_deg"],
        "ospa_snr_db": q["ospa_snr_db"],
        # Cardinality error mapped into (0, 1], so that a perfect count
        # is not a zero metric.
        "nom_score": 1.0 / (1.0 + q["nom_err"]),
    }
    return values, q


def _mean(xs) -> float:
    xs = list(xs)
    return float(np.mean(xs)) if xs else 0.0


def layer_table(traced: list) -> dict:
    """{span name: {calls, ms, self_ms}} per snapshot over the traced runs,
    plus the summed self time of everything inside the snapshots."""
    steps = sum(len(r.step_s) for r in traced)
    table = {}
    in_step_self = 0.0
    for r in traced:
        selfs = spans.self_times(r.spans)
        for i, s in enumerate(r.spans):
            row = table.setdefault(s.name, {"calls": 0, "ms": 0.0,
                                            "self_ms": 0.0})
            row["calls"] += 1
            row["ms"] += s.duration * r.scale * 1e3
            row["self_ms"] += selfs[i] * r.scale * 1e3
            j = i
            while j >= 0 and r.spans[j].name not in STEP_SPANS:
                j = r.spans[j].parent
            if j >= 0:
                in_step_self += selfs[i] * r.scale * 1e3
    for row in table.values():
        for key in row:
            row[key] /= steps
    return {"steps": steps, "layers": table, "in_step_self_ms": in_step_self
            / steps}


def per_layer(wl, cfg, plain: list, traced: list, table: dict) -> dict:
    """{name: (value, unit)} of the traced run."""
    layers = table["layers"]

    def ms(name, key="ms"):
        return (layers.get(name, {}).get(key, 0.0), "ms")

    def infos(name):
        return [s.info for r in traced for s in r.spans if s.name == name]

    upd = infos("tracker.update")
    da = [i for i in infos("dabp.loopy_da") if i["KM"] > 0]
    lik_ns = sum(s.duration * r.scale for r in traced for s in r.spans
                 if s.name == "model.log_lik_matrix") * 1e9
    lik_pairs = sum(i["pairs"] for i in infos("model.log_lik_matrix"))
    accepted = sum(i["M"] for i in upd)
    plain_step = _mean(s * r.scale for r in plain for s in r.step_s) * 1e3
    out = {
        "model.log_lik_matrix.ms": ms("model.log_lik_matrix"),
        "model.log_lik_matrix.calls_per_step": (
            layers.get("model.log_lik_matrix", {}).get("calls", 0.0),
            "calls/step"),
        "model.log_lik_matrix.ns_per_pair": (
            lik_ns / lik_pairs if lik_pairs else 0.0, "ns/pair"),
        "dabp.evaluate_weights.self_ms": ms("dabp.evaluate_weights",
                                            "self_ms"),
        "tracker.update.self_ms": ms("tracker.update", "self_ms"),
        "tracker.predict.ms": ms("tracker.predict"),
        "model.propagate_kinematics.ms": ms("model.propagate_kinematics"),
        "tracker.resample.ms": ms("tracker.resample"),
        "tracker.resample.calls_per_step": (
            layers.get("tracker.resample", {}).get("calls", 0.0),
            "calls/step"),
        "tracker.estimate.ms": ms("tracker.estimate"),
        "dabp.loopy_da.ms": ms("dabp.loopy_da"),
        "dabp.loopy_da.iterations": (_mean(i["iterations"] for i in da),
                                     "count"),
        "dabp.loopy_da.converged_ratio": (_mean(i["converged"] for i in da),
                                          "ratio"),
        "radio.snapshot_estimate.ms": ms("radio.snapshot_estimate"),
        "radio.snapshot_estimate.components": (
            _mean(i["components"] for i in infos("radio.snapshot_estimate")),
            "count"),
        "radio.synth_radio.ms": ms("radio.synth_radio"),
        "synth.synth_measurements.ms": ms("synth.synth_measurements"),
        "metrics.evaluate_step.ms": ms("metrics.evaluate_step"),
        "experiment.run_single.self_ms": ms("experiment.run_single",
                                            "self_ms"),
        "tracker.resample.ess_ratio": (
            _mean(i["ess_ratio"] for i in infos("tracker.resample")),
            "ratio"),
        "tracker.promote_ratio": (
            sum(i["births"] for i in upd) / accepted if accepted else 0.0,
            "ratio"),
        "tracker.K": (_mean(i["K"] for i in upd), "count"),
        "tracker.M": (_mean(i["M"] for i in upd), "count"),
        "tracker.J": (float(cfg.hyper.J), "count"),
        "tracker.births_per_step": (_mean(i["births"] for i in upd),
                                    "count"),
        "tracker.prunes_per_step": (_mean(i["prunes"] for i in upd),
                                    "count"),
        "tracker.mu_fa_err": (_quality(wl, plain)["mu_fa_err"], "count"),
        "trace.overhead_ratio": (statistics.median(
            t.run_s * t.scale / (p.run_s * p.scale)
            for p, t in zip(plain, traced)), "ratio"),
        "trace.step_overhead_ratio": (
            table["in_step_self_ms"] / plain_step, "ratio"),
    }
    before = reference.reference_s()
    kernels = sweep.kernel_sweep(cfg.base_seed, cfg.geom)
    scale = reference.NOMINAL_S / (0.5 * (before + reference.reference_s()))
    out.update({k: (v * scale if u in ("ms", "ns/pair") else v, u)
                for k, (v, u) in kernels.items()})
    return out


# ---------------------------------------------------------------------------
# One invocation
# ---------------------------------------------------------------------------

def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_pinning": {k: v for k, v in sorted(os.environ.items())
                           if k.endswith("_NUM_THREADS")
                           or k == "VECLIB_MAXIMUM_THREADS"},
    }


def _setup_seconds(config_path: Path) -> tuple:
    """(set-up seconds, reference loop seconds) from a fresh interpreter."""
    src = Path(experiment.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(src),
         str(config_path)],
        capture_output=True, text=True, check=True, timeout=120)
    setup_s, ref_s = map(float, out.stdout.split()[-2:])
    return setup_s, ref_s


def measure(name: str, seed: int, seconds: float, trace: bool,
            workdir_parent: Path, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload and return {"result", "info", "table"}: the result
    line run.py prints last, the details printed before it, and the traced
    layer table (None untraced)."""
    wl = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=workdir_parent) as tmp:
        work = Path(tmp)
        cfg = workloads.make_config(wl, seed, work)
        input_sha = workloads.input_digest(cfg)
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
        setup = [_setup_seconds(cfg_path) for _ in range(setup_repeats)]

        warm = run_once(wl, workloads.warmup_config(wl, cfg, work),
                        workloads.WARMUP_RUN, traced=trace, check=False)
        if trace:
            plain, traced = paired_runs(wl, cfg, seconds)
            results = plain + traced
        else:
            results = timed_runs(wl, cfg, seconds)

    failed = sum(1 for r in results if r.problems)
    info = {
        "workload": name, "seed": seed, "base_seed": cfg.base_seed,
        "input_sha256": input_sha, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "setup_s_raw": [t for t, _ in setup],
        "setup_reference_s": [ref for _, ref in setup],
        "warmup_s": warm.run_s,
        "warmup_problems": warm.problems,
        "runs": len(results),
        "steps": sum(len(r.step_s) for r in results),
        "run_s_raw": [r.run_s for r in results],
        "scale": [r.scale for r in results],
        "run_csv_sha256": [r.csv_sha256 for r in results],
        "fail_ratio": failed / len(results),
        "problems": {f"{r.index}{'t' if r.traced else ''}": r.problems
                     for r in results if r.problems},
    }
    table = None
    if trace:
        table = layer_table(traced)
        values = per_layer(wl, cfg, plain, traced, table)
    else:
        setup_s = statistics.median(t * reference.NOMINAL_S / ref
                                    for t, ref in setup)
        e2e, quality = end_to_end(wl, results, setup_s)
        values = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
        info["quality_runs"] = wl.quality_runs
        info["quality_csv_sha256"] = hashlib.sha256("".join(
            r.csv_sha256 or "-" for r in results[:wl.quality_runs])
            .encode()).hexdigest()
        info["nom_err"] = quality["nom_err"]
        info["mu_fa_err"] = quality["mu_fa_err"]
    result = {
        "correct": failed == 0, "attempted": len(results), "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in values.items()},
    }
    return {"result": result, "info": info, "table": table}
