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
from scipy.optimize import linear_sum_assignment

from mpctrack import metrics
from mpctrack.metrics import (CUTOFF_D, CUTOFF_PHI, OSPA_P, RunLog,
                              _linear_sum_assignment, aggregate,
                              aggregate_csv, ospa)
from mpctrack.model import ang_diff


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


def scipy_ospa(x, y, p, c, angular=False):
    """ospa's formula on scipy's assignment: the matched costs summed in the
    row order linear_sum_assignment returns."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n, m = len(x), len(y)
    diff = ang_diff(x[:, None], y[None, :]) if angular \
        else x[:, None] - y[None, :]
    cost = np.minimum(np.abs(diff), c) ** p
    ri, ci = linear_sum_assignment(cost)
    matched = float(cost[ri, ci].sum())
    n_max, n_min = max(n, m), min(n, m)
    return float(((matched + c**p * (n_max - n_min)) / n_max) ** (1.0 / p))


def cost_matrices(rng, count):
    """Seeded cost matrices of 1-8 rows and 1-8 columns, every tenth one a
    single row and every tenth a single column, of four kinds in turn:
    uniform, OSPA-like truncated squares, small-integer ties, and constant
    with sparse perturbations."""
    for k in range(count):
        n, m = (int(v) for v in rng.integers(1, 9, size=2))
        if k % 10 == 0:
            n = 1
        elif k % 10 == 5:
            m = 1
        kind = k % 4
        if kind == 0:
            cost = rng.uniform(0.0, 1.0, (n, m))
        elif kind == 1:
            diff = rng.normal(0.0, 0.1, (n, 1)) - rng.normal(0.0, 0.1, (1, m))
            cost = np.minimum(np.abs(diff), 0.1) ** 2
        elif kind == 2:
            cost = rng.integers(0, 3, (n, m)).astype(float)
        else:
            cost = np.full((n, m), 0.01)
            hit = rng.random((n, m)) < 0.2
            cost[hit] += rng.uniform(-0.005, 0.005, int(hit.sum()))
        yield cost


class TestAssignmentSolver:
    def test_same_pairs_as_scipy(self):
        rng = np.random.default_rng(2008)
        shapes = set()
        for cost in cost_matrices(rng, 20000):
            rows, cols = linear_sum_assignment(cost)
            assert _linear_sum_assignment(cost.tolist()) == (
                rows.tolist(), cols.tolist()), cost
            n, m = cost.shape
            shapes.add((n == 1, m == 1, (n > m) - (n < m)))
        # Wide, tall and square, with single rows and single columns.
        assert {(False, False, -1), (False, False, 0), (False, False, 1),
                (True, False, -1), (False, True, 1)} <= shapes

    @pytest.mark.parametrize("cost", [
        [[np.nan]], [[1.0, np.nan], [2.0, 3.0]], [[1.0], [np.nan], [2.0]],
        [[-np.inf, 1.0]], [[np.inf, 1.0], [1.0, -np.inf]]])
    def test_invalid_entries_raise_like_scipy(self, cost):
        cost = np.array(cost)
        with pytest.raises(ValueError):
            linear_sum_assignment(cost)
        with pytest.raises(ValueError):
            _linear_sum_assignment(cost.tolist())

    @pytest.mark.parametrize("cost", [
        [[np.inf, np.inf], [1.0, 2.0]], [[np.inf], [np.inf]]])
    def test_infeasible_raises_like_scipy(self, cost):
        cost = np.array(cost)
        with pytest.raises(ValueError):
            linear_sum_assignment(cost)
        with pytest.raises(ValueError):
            _linear_sum_assignment(cost.tolist())


class TestOspaValues:
    def test_identical_sets(self):
        assert ospa([1.0, 2.0, 3.0], [3.0, 1.0, 2.0], 0.1) == 0.0

    def test_pure_cardinality_penalty(self):
        assert ospa([1.0], [], 0.1) == pytest.approx(0.1)
        assert ospa([], [1.0], 0.1) == pytest.approx(0.1)
        assert ospa([], [], 0.1) == 0.0

    def test_single_pair(self):
        assert ospa([1.00], [1.05], 0.1) == pytest.approx(0.05)

    def test_cutoff_bound(self):
        assert ospa([0.0], [100.0], 0.1) == pytest.approx(0.1)

    def test_angular_base_distance(self):
        got = ospa([math.pi - 0.01], [-math.pi + 0.01], 0.5, angular=True)
        assert got == pytest.approx(0.02)

    def test_assignment_optimality_vs_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n, m = rng.integers(0, 7, size=2)
            x = rng.uniform(0, 10, int(n))
            y = rng.uniform(0, 10, int(m))
            c = rng.uniform(0.5, 5.0)
            assert ospa(x, y, c) == pytest.approx(
                brute_force_ospa(list(x), list(y), OSPA_P, c), abs=1e-12)


class TestOspaOnTies:
    @pytest.mark.parametrize("angular", [False, True])
    def test_more_truths_with_saturated_entries_match_scipy(self, angular):
        # n > m >= 3 with most pairs at the cutoff: several optimal
        # assignments exist, and a different one sums the same costs in a
        # different row order. ospa must match scipy's bit for bit.
        rng = np.random.default_rng(16)
        c = CUTOFF_PHI if angular else CUTOFF_D
        for _ in range(1000):
            n = int(rng.integers(4, 9))
            m = int(rng.integers(3, n))
            span = math.pi if angular else 20 * c
            truth = rng.uniform(-span, span, n)
            near = rng.choice(n, size=int(rng.integers(1, m + 1)),
                              replace=False)
            est = np.concatenate([
                truth[near] + rng.normal(0.0, 0.3 * c, len(near)),
                rng.uniform(-span, span, m - len(near))])
            got = ospa(truth, est, c, angular=angular)
            assert got == scipy_ospa(truth, est, OSPA_P, c, angular), \
                (truth, est)

    @pytest.mark.parametrize("angular", [False, True])
    def test_random_sets_match_scipy(self, angular):
        # Every shape up to 10 x 10, so some sums have 8 or more terms.
        rng = np.random.default_rng(2016)
        c = CUTOFF_PHI if angular else CUTOFF_D
        span = math.pi if angular else 5 * c
        for n in range(1, 11):
            for m in range(1, 11):
                for _ in range(20):
                    truth = rng.uniform(-span, span, n)
                    est = rng.uniform(-span, span, m)
                    assert ospa(truth, est, c, angular) == \
                        scipy_ospa(truth, est, OSPA_P, c, angular), \
                        (truth, est)

    @pytest.mark.parametrize("angular", [False, True])
    def test_non_finite_input_raises_like_scipy(self, angular):
        with pytest.raises(ValueError):
            ospa([0.0, np.nan], [0.0], CUTOFF_PHI, angular)
        if angular:
            with pytest.raises(ValueError):
                ospa([0.0], [np.inf, 1.0], CUTOFF_PHI, angular)
        else:
            assert ospa([0.0], [np.inf, 1.0], CUTOFF_D) == \
                scipy_ospa([0.0], [np.inf, 1.0], OSPA_P, CUTOFF_D)

    def test_short_sums_add_in_order_as_numpy(self):
        # ospa adds fewer than 8 matched costs with sum(); numpy's pairwise
        # summation adds them in order too.
        rng = np.random.default_rng(8)
        for k in range(1, 8):
            for _ in range(2000):
                v = rng.uniform(0.0, 1.0, k) * 10.0 ** rng.integers(-8, 3, k)
                assert sum(v.tolist()) == float(v.sum())


class TestCostMatrix:
    @pytest.mark.parametrize("angular", [False, True])
    @pytest.mark.parametrize("cutoff", [0.1, 4.0, 1e7])
    def test_same_bits_as_numpy_form(self, angular, cutoff):
        # Normal draws, values up to +-1e6, +-pi, multiples of 2 pi, signed
        # zeros, +-1e300 and the smallest subnormal, against each other.
        rng = np.random.default_rng(22)
        v = np.concatenate([
            rng.standard_normal(40), rng.uniform(-1e6, 1e6, 40),
            2 * math.pi * np.arange(-20, 21),
            [math.pi, -math.pi, 0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324]])
        x, y = v, rng.permutation(v)[:60]
        diff = ang_diff(x[:, None], y[None, :]) if angular \
            else x[:, None] - y[None, :]
        with np.errstate(over="ignore"):
            expect = np.minimum(np.abs(diff), cutoff) ** OSPA_P
            got = np.array(metrics._cost_matrix(x.tolist(), y.tolist(),
                                                cutoff, angular))
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))


class TestOspaAxioms:
    @given(st.lists(st.floats(-50, 50), max_size=5),
           st.lists(st.floats(-50, 50), max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_bounds(self, x, y):
        c = 1.7
        d_xy = ospa(x, y, c)
        assert d_xy == pytest.approx(ospa(y, x, c), abs=1e-9)
        assert -1e-12 <= d_xy <= c + 1e-12

    @given(st.lists(st.floats(-20, 20), max_size=4),
           st.lists(st.floats(-20, 20), max_size=4),
           st.lists(st.floats(-20, 20), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, x, y, z):
        c = 1.0
        assert ospa(x, z, c) <= ospa(x, y, c) + ospa(y, z, c) + 1e-9

    def test_zero_iff_equal_multisets(self):
        assert ospa([1.0, 1.0, 2.0], [1.0, 2.0, 1.0], 1.0) == 0.0
        assert ospa([1.0, 1.0], [1.0, 2.0], 1.0) > 1e-6


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
