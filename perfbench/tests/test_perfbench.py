"""Self-tests of the benchmark. Run: python3 -m pytest perfbench/tests -q

They run the desk workload with one quality run and one set-up sample, so
the module takes about 20 s.
"""

import dataclasses
import json
import re
import sys
import time
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Untraced and traced desk invocations for two seeds."""
    small = dataclasses.replace(workloads.WORKLOADS["desk"], quality_runs=1)
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(workloads.WORKLOADS, "desk", small)
        for seed in (1, 2):
            for trace in (False, True):
                out[seed, trace] = bench.measure(
                    "desk", seed, 0.01, trace,
                    tmp_path_factory.mktemp(f"s{seed}"), setup_repeats=1)
    return out


def _names(res) -> set:
    return set(res["result"]["metrics"])


def test_metric_names_are_valid_and_match_benchmark_json(results):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"] for m in spec["end_to_end"]}
    declared_layer = {m["name"] for m in spec["per_layer"]}
    for res in results.values():
        for name in _names(res):
            assert NAME.fullmatch(name), name
    assert _names(results[1, False]) == declared_e2e
    assert _names(results[1, True]) == declared_layer
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for res in results.values():
        for name, metric in res["result"]["metrics"].items():
            assert metric["unit"] == units[name], name


def test_runs_pass_their_checks(results):
    for res in results.values():
        assert res["result"]["correct"], res["info"]["problems"]
        assert res["result"]["failed"] == 0


def test_self_times_never_exceed_parent_span(results):
    layers = results[1, True]["table"]["layers"]
    for row in layers.values():
        assert -1e-9 <= row["self_ms"] <= row["ms"] + 1e-9
    step = layers["tracker.predict"]["ms"] + layers["tracker.update"]["ms"]
    inside = results[1, True]["table"]["in_step_self_ms"]
    assert inside == pytest.approx(step, rel=1e-9)


def test_self_time_of_nested_spans():
    mod = types.SimpleNamespace(__name__="fake")

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        mod.inner()
        mod.inner()

    mod.inner, mod.outer = inner, outer
    with spans.Recorder() as rec:
        rec.wrap(mod, "inner")
        rec.wrap(mod, "outer")
        mod.outer()
    assert mod.inner is inner and mod.outer is outer
    assert [s.name for s in rec.spans] == ["fake.outer", "fake.inner",
                                           "fake.inner"]
    assert [s.parent for s in rec.spans] == [-1, 0, 0]
    top = rec.spans[0]
    top_self = spans.self_times(rec.spans)[0]
    children = rec.spans[1].duration + rec.spans[2].duration
    assert top_self == pytest.approx(top.duration - children)
    assert 0.0 < top_self < top.duration


def test_other_seed_changes_inputs_not_metric_names(results, tmp_path):
    for name, wl in workloads.WORKLOADS.items():
        a = workloads.input_digest(workloads.make_config(wl, 1, tmp_path))
        b = workloads.input_digest(workloads.make_config(wl, 2, tmp_path))
        again = workloads.input_digest(workloads.make_config(wl, 1, tmp_path))
        assert a != b and a == again, name
    for trace in (False, True):
        assert _names(results[1, trace]) == _names(results[2, trace])
        assert (results[1, trace]["info"]["run_csv_sha256"]
                != results[2, trace]["info"]["run_csv_sha256"])
