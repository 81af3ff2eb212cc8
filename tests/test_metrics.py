"""Evaluation-metric tests: OSPA values and axioms, assignment optimality,
run logs and aggregation."""

import csv
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpctrack import metrics
from mpctrack.metrics import RunLog, aggregate, aggregate_csv, ospa


def brute_force_ospa(x, y, p, c):
    """Reference implementation by explicit enumeration of assignments."""
    n, m = len(x), len(y)
    if n == 0 and m == 0:
        return 0.0
    if n == 0 or m == 0:
        return c
    if n > m:
        x, y = y, x
        n, m = m, n
    best = math.inf
    for perm in itertools.permutations(range(m), n):
        cost = sum(min(abs(x[i] - y[j]), c) ** p for i, j in zip(range(n),
                                                                 perm))
        best = min(best, cost)
    return ((best + c**p * (m - n)) / m) ** (1.0 / p)


class TestOspaValues:
    def test_identical_sets(self):
        assert ospa([1.0, 2.0, 3.0], [3.0, 1.0, 2.0], 2.0, 0.1) == 0.0

    def test_pure_cardinality_penalty(self):
        assert ospa([1.0], [], 2.0, 0.1) == pytest.approx(0.1)
        assert ospa([], [1.0], 2.0, 0.1) == pytest.approx(0.1)
        assert ospa([], [], 2.0, 0.1) == 0.0

    def test_single_pair(self):
        assert ospa([1.00], [1.05], 2.0, 0.1) == pytest.approx(0.05)

    def test_cutoff_bound(self):
        assert ospa([0.0], [100.0], 2.0, 0.1) == pytest.approx(0.1)

    def test_angular_base_distance(self):
        got = ospa([math.pi - 0.01], [-math.pi + 0.01], 2.0, 0.5,
                   angular=True)
        assert got == pytest.approx(0.02)

    def test_assignment_optimality_vs_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n, m = rng.integers(0, 7, size=2)
            x = rng.uniform(0, 10, int(n))
            y = rng.uniform(0, 10, int(m))
            c = rng.uniform(0.5, 5.0)
            p = rng.choice([1.0, 2.0])
            assert ospa(x, y, p, c) == pytest.approx(
                brute_force_ospa(list(x), list(y), p, c), abs=1e-12)


class TestOspaAxioms:
    @given(st.lists(st.floats(-50, 50), max_size=5),
           st.lists(st.floats(-50, 50), max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_bounds(self, x, y):
        c, p = 1.7, 2.0
        d_xy = ospa(x, y, p, c)
        assert d_xy == pytest.approx(ospa(y, x, p, c), abs=1e-9)
        assert -1e-12 <= d_xy <= c + 1e-12

    @given(st.lists(st.floats(-20, 20), max_size=4),
           st.lists(st.floats(-20, 20), max_size=4),
           st.lists(st.floats(-20, 20), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, x, y, z):
        c, p = 1.0, 2.0
        assert ospa(x, z, p, c) <= ospa(x, y, p, c) + ospa(y, z, p, c) + 1e-9

    def test_zero_iff_equal_multisets(self):
        assert ospa([1.0, 1.0, 2.0], [1.0, 2.0, 1.0], 2.0, 1.0) == 0.0
        assert ospa([1.0, 1.0], [1.0, 2.0], 2.0, 1.0) > 1e-6


class TestRunLogAndAggregate:
    def make_log(self, values):
        log = RunLog()
        for i, v in enumerate(values):
            log.append(step=i, ospa_d_m=v, ospa_phi_deg=2 * v,
                       ospa_snr_db=3 * v, nom_true=3, nom_hat=2,
                       mu_fa_true=1.5, mu_fa_hat=1.0 + v)
        return log

    def test_csv_round_trip(self):
        log = self.make_log([0.1, 0.25, 1e-17])
        # Every cell to_csv writes parses back to the exact value.
        header, *rows = csv.reader(io.StringIO(log.to_csv()))
        assert tuple(header) == metrics.RUNLOG_COLUMNS
        ints = ("step", "nom_true", "nom_hat")
        back = [{c: int(v) if c in ints else float(v)
                 for c, v in zip(header, row)} for row in rows]
        assert back == log.records

    def test_missing_field_rejected(self):
        log = RunLog()
        with pytest.raises(ValueError):
            log.append(step=0, ospa_d_m=0.0)

    def test_single_log_identity(self):
        log = self.make_log([0.1, 0.2])
        agg = aggregate([log])
        assert np.allclose(agg["per_step"]["ospa_d_m"], [0.1, 0.2])

    def test_two_log_mean(self):
        a = self.make_log([0.1, 0.2])
        b = self.make_log([0.3, 0.4])
        agg = aggregate([a, b])
        assert np.allclose(agg["per_step"]["ospa_d_m"], [0.2, 0.3])
        assert agg["overall"]["ospa_d_m"] == pytest.approx(0.25)

    def test_many_logs_closed_form(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0, 1, size=(100, 5))
        logs = [self.make_log(list(row)) for row in vals]
        agg = aggregate(logs)
        assert np.allclose(agg["per_step"]["ospa_d_m"], vals.mean(axis=0))

    def test_mismatched_steps_error(self):
        with pytest.raises(ValueError):
            aggregate([self.make_log([0.1]), self.make_log([0.1, 0.2])])

    def test_aggregate_csv_has_all_columns(self):
        text = aggregate_csv(aggregate([self.make_log([0.1, 0.2])]))
        header = text.splitlines()[0].split(",")
        assert tuple(header) == metrics.RUNLOG_COLUMNS


class TestEvaluateStep:
    def test_perfect_detection_zero_ospa(self):
        truth = np.array([[5.0, 0.3, 20.0, 0.0, 0.0]])

        class T:
            d, phi, u = 5.0, 0.3, 20.0

        rec = metrics.evaluate_step(truth, [T()], 414)
        assert rec["ospa_d_m"] == 0.0
        assert rec["ospa_phi_deg"] == 0.0
        assert rec["ospa_snr_db"] == 0.0
        assert rec["nom_true"] == 1 and rec["nom_hat"] == 1

    def test_missed_track_costs_cutoffs(self):
        truth = np.array([[5.0, 0.3, 20.0, 0.0, 0.0]])
        rec = metrics.evaluate_step(truth, [], 414)
        assert rec["ospa_d_m"] == pytest.approx(metrics.CUTOFF_D)
        assert rec["ospa_phi_deg"] == pytest.approx(
            math.degrees(metrics.CUTOFF_PHI))
