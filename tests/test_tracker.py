"""Tracker tests: lifecycle, prediction, single-target oracles, resampling,
pruning, determinism and measurement-order invariance."""

import copy
import math
import re
import traceback

import numpy as np
import pytest
from scipy.special import log_ndtr
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 rule)

from mpctrack import dabp, model, radio, tracker
from mpctrack.model import TWO_PI, HyperParams, Measurement
from mpctrack.tracker import PmpcBelief

from conftest import packed, proposal_inputs, stacked

GEOM = radio.default_geometry()


def params(**kw):
    kw.setdefault("J", 400)
    return HyperParams(**kw)


def point_track(state, p_exist, J, tid=1):
    return PmpcBelief(tid, 0, np.tile(np.asarray(state, float), (J, 1)),
                      np.full(J, 1.0 / J), p_exist)


def point_far(mu, J):
    return np.full(J, float(mu))


class TestInit:
    def test_fresh_state(self):
        st = tracker.init(params(), GEOM, 0)
        assert st.legacy == [] and st.step == 0 and st.far is None

    def test_equal_seeds_identical(self):
        p = params()
        a = tracker.init(p, GEOM, 123)
        b = tracker.init(p, GEOM, 123)
        assert a.rng.random() == b.rng.random()

    def test_far_init_zero_spread(self):
        p = params(sigma_fa_ini=0.0)
        st = tracker.init(p, GEOM, 0)
        ms = [Measurement(5.0, 0.1, 8.0), Measurement(9.0, -1.0, 6.0)]
        st, _, _ = tracker.update(st, ms, p, GEOM)
        assert np.allclose(st.far, 1.0)  # M/2 with M = 2

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            tracker.init(params(p_s=1.5), GEOM, 0)


class TestPredict:
    def test_deterministic_advance(self):
        p = params(p_s=1.0, sigma_d=0.0, sigma_phi=0.0, sigma_u_rel=0.0)
        st = tracker.init(p, GEOM, 0)
        st = stacked([point_track([5.0, 0.0, 10.0, 1.0, 0.1], 0.5, p.J)], st)
        st = tracker.predict(st, p)
        assert np.allclose(st.legacy[0].particles[:, 0], 6.0)
        assert st.legacy[0].p_exist == pytest.approx(0.5)

    def test_death_branch(self):
        p = params(p_s=0.0)
        st = tracker.init(p, GEOM, 0)
        st = stacked([point_track([5.0, 0.0, 10.0, 0.0, 0.0], 0.9, p.J)], st)
        st = tracker.predict(st, p)
        assert st.legacy[0].p_exist == 0.0

    def test_existence_product(self):
        p = params(p_s=0.999)
        st = tracker.init(p, GEOM, 0)
        st = stacked([point_track([5.0, 0.0, 10.0, 0.0, 0.0], 0.8, p.J)], st)
        st = tracker.predict(st, p)
        assert st.legacy[0].p_exist == pytest.approx(0.7992)


class TestResample:
    def test_uniform_weights_preserved(self):
        rng = np.random.default_rng(0)
        b = point_track([1, 2, 3, 4, 5], 1.0, 8)
        b.particles = np.arange(40, dtype=float).reshape(8, 5)
        before = b.particles.copy()
        b = tracker.resample(b, 8, rng)
        # systematic resampling of uniform weights keeps the multiset
        assert sorted(map(tuple, b.particles)) == sorted(map(tuple, before))
        assert np.allclose(b.weights, 1.0 / 8)

    def test_dominant_particle_replicated(self):
        rng = np.random.default_rng(1)
        b = point_track([0, 0, 0, 0, 0], 1.0, 10)
        b.particles = np.arange(50, dtype=float).reshape(10, 5)
        w = np.full(10, 1e-9)
        w[3] = 1.0
        b.weights = w / w.sum()
        b = tracker.resample(b, 10, rng)
        assert np.all(b.particles == b.particles[0])
        assert b.particles[0, 0] == 15.0

    def test_degenerate_weights_error(self):
        b = point_track([0, 0, 0, 0, 0], 1.0, 4)
        b.weights = np.zeros(4)
        with pytest.raises(ValueError):
            tracker.resample(b, 4, np.random.default_rng(0))


class TestEstimate:
    def test_point_mass_estimate(self):
        p = params()
        st = tracker.init(p, GEOM, 0)
        st = stacked([point_track([5.0, 0.3, 8.0, 0.0, 0.0], 0.9, p.J)], st)
        st.far = point_far(2.0, p.J)
        est = tracker.estimate(st, p)
        t = est.detected[0]
        assert (t.d, t.phi, t.u) == pytest.approx((5.0, 0.3, 8.0))
        assert t.sigma_d == pytest.approx(0.0)
        assert est.mu_fa_mmse == pytest.approx(2.0)

    def test_weighted_mean(self):
        p = params()
        st = tracker.init(p, GEOM, 0)
        b = point_track([0, 0, 0, 0, 0], 0.9, 4)
        b.particles = np.array([[4.0, 0.1, 5.0, 0, 0]]
                               + [[8.0, 0.1, 5.0, 0, 0]] * 3)
        st = stacked([b], st)
        est = tracker.estimate(st, p)
        assert est.detected[0].d == pytest.approx(7.0)

    def test_detection_strictly_above_threshold(self):
        p = params()
        st = tracker.init(p, GEOM, 0)
        st = stacked([point_track([5, 0, 8, 0, 0], 0.5, p.J, tid=1),
                      point_track([6, 0, 8, 0, 0], 0.5001, p.J, tid=2)], st)
        est = tracker.estimate(st, p)
        assert [t.id for t in est.detected] == [2]
        assert est.nom_hat == 1

    def test_circular_mean_near_seam(self):
        p = params()
        st = tracker.init(p, GEOM, 0)
        b = point_track([5, 0, 8, 0, 0], 0.9, 2)
        b.particles = np.array([[5.0, np.pi - 0.05, 8.0, 0, 0],
                                [5.0, -np.pi + 0.05, 8.0, 0, 0]])
        st = stacked([b], st)
        est = tracker.estimate(st, p)
        assert abs(model.ang_diff(est.detected[0].phi, np.pi)) < 1e-9
        assert est.detected[0].sigma_phi == pytest.approx(0.05)


def bernoulli_oracle(q, mu0, p_d, log_l, log_mass, mu_n):
    """Exact legacy-existence posterior for K=1, M=1 by enumerating the
    admissible joint configurations of (existence, a, new-existence, b),
    with all factors evaluated at the point states and a point FAR.

    Weights, with t = 1/mu0 and the shared n(mu0) factor dropped:
      exists & associated, new absent:  q * t * p_d * l
      exists & missed, new present:     q * (1 - p_d) * t * mu_n * lbar
      exists & missed, new absent:      q * (1 - p_d)
      absent, new present:              (1 - q) * t * mu_n * lbar
      absent, new absent:               (1 - q)
    """
    t = 1.0 / mu0
    l = math.exp(log_l)
    xi0 = 1.0 + t * mu_n * math.exp(log_mass)
    num = q * t * p_d * l + q * (1.0 - p_d) * xi0
    den = num + (1.0 - q) * xi0
    return num / den


class TestSingleBernoulliOracle:
    def test_miss_only_update(self):
        p = params()
        st = tracker.init(p, GEOM, 0)
        st = stacked([point_track([5.0, 0.3, 2.5, 0.0, 0.0], 0.8, p.J)], st)
        st.far = point_far(2.0, p.J)
        p_d = float(model.detection_prob(2.5, p.u_de, GEOM.n_eff, p.amp_mode))
        st, _, _ = tracker.update(st, [], p, GEOM)
        expect = 0.8 * (1 - p_d) / (1 - 0.8 * p_d)
        assert st.legacy[0].p_exist == pytest.approx(expect, abs=1e-6)

    @pytest.mark.parametrize("z_off,q", [(0.0, 0.5), (0.05, 0.8), (0.4, 0.2)])
    def test_single_measurement_update(self, z_off, q):
        p = params()
        st = tracker.init(p, GEOM, 42)
        state = [5.0, 0.3, 4.0, 0.0, 0.0]
        st = stacked([point_track(state, q, p.J)], st)
        mu0 = 2.0
        st.far = point_far(mu0, p.J)
        z = Measurement(5.0 + z_off, 0.3, 4.0)
        p_d = float(model.detection_prob(4.0, p.u_de, GEOM.n_eff, p.amp_mode))
        log_l = float(model.log_lik_matrix(
            [z], np.asarray([state], float), p, GEOM)[0, 0]) \
            - model.log_fa_density(z, p.u_de, p.d_max)

        # The birth mass is a Monte-Carlo integral over the tracker's own
        # proposal draws, so the oracle replays the identical rng stream
        # (seed 42, untouched before the proposal is built); everything
        # else is independent arithmetic.
        props = tracker._build_proposals(*proposal_inputs([z], p, GEOM), p,
                                         GEOM, np.random.default_rng(42))
        w = dabp.evaluate_weights(st, props[2], *packed([z], p), st.far, p,
                                  GEOM)
        log_mass = float(w.log_new_mass[0]) - math.log(w.far_ratio) \
            - math.log(p.mu_n)

        expect = bernoulli_oracle(q, mu0, p_d, log_l, log_mass, p.mu_n)
        st, _, _ = tracker.update(st, [z], p, GEOM)
        got = [tr.p_exist for tr in st.legacy if tr.id == 1]
        assert got and got[0] == pytest.approx(expect, abs=1e-6)

    def test_negligible_birth_variant(self):
        # With mu_n ~ 0 the closed form needs nothing from the
        # implementation at all.
        p = params(mu_n=1e-12)
        st = tracker.init(p, GEOM, 0)
        state = [5.0, 0.3, 4.0, 0.0, 0.0]
        q, mu0 = 0.6, 1.5
        st = stacked([point_track(state, q, p.J)], st)
        st.far = point_far(mu0, p.J)
        z = Measurement(5.02, 0.31, 4.2)
        p_d = float(model.detection_prob(4.0, p.u_de, GEOM.n_eff, p.amp_mode))
        log_l = float(model.log_lik_matrix(
            [z], np.asarray([state], float), p, GEOM)[0, 0]) \
            - model.log_fa_density(z, p.u_de, p.d_max)
        t = 1.0 / mu0
        l = math.exp(log_l)
        expect = (q * t * p_d * l + q * (1 - p_d)) \
            / (q * t * p_d * l + 1 - q * p_d)
        st, _, _ = tracker.update(st, [z], p, GEOM)
        assert st.legacy[0].p_exist == pytest.approx(expect, abs=1e-6)

    def test_strong_association_marginal(self):
        p = params()
        st = tracker.init(p, GEOM, 0)
        st = stacked([point_track([5.0, 0.3, 30.0, 0.0, 0.0], 0.8, p.J)], st)
        st.far = point_far(2.0, p.J)
        before = st.legacy[0].p_exist
        st, _, marg = tracker.update(st, [Measurement(5.0, 0.3, 30.0)], p,
                                     GEOM)
        assert marg.p_a[0, 1] > 0.9
        assert st.legacy[0].p_exist > before


class TestUpdateMechanics:
    def test_empty_everything_only_steps(self):
        p = params()
        st = tracker.init(p, GEOM, 0)
        before = copy.deepcopy(st)
        st, est, marg = tracker.update(st, [], p, GEOM)
        assert st.step == before.step + 1
        assert st.legacy == [] and st.far is None
        assert est.nom_hat == 0

    def test_below_threshold_measurement_rejected(self, caplog):
        p = params()
        st = tracker.init(p, GEOM, 0)
        with caplog.at_level("WARNING"):
            st, _, _ = tracker.update(st, [Measurement(5.0, 0.0, 0.5)], p,
                                      GEOM)
        assert "rejecting measurement" in caplog.text
        assert st.far is None  # nothing survived; no initialization

    def test_new_tracks_get_fresh_ids(self):
        p = params()
        st = tracker.init(p, GEOM, 0)
        st, _, _ = tracker.update(st, [Measurement(5.0, 0.0, 30.0)], p,
                                  GEOM)
        st, _, _ = tracker.update(st, [Measurement(9.0, 1.0, 30.0)], p,
                                  GEOM)
        ids = [t.id for t in st.legacy]
        assert len(ids) == len(set(ids))
        assert all(i >= 1 for i in ids)

    def test_survivor_order_and_ids(self):
        # Surviving legacy tracks keep their order, then the surviving new
        # tracks follow in canonical measurement order with consecutive ids
        # from next_id. Track 2 is pruned, and so are some new tracks.
        p = params(J=300)
        st = tracker.init(p, GEOM, 7)
        st = stacked([point_track([5.0, 0.1, 12.0, 0, 0], 0.9, p.J, tid=4),
                      point_track([9.0, -1.0, 2.5, 0, 0], 2e-4, p.J, tid=2),
                      point_track([12.0, 2.0, 10.0, 0, 0], 0.8, p.J, tid=3)],
                     st)
        st.next_id = 7
        st.far = point_far(2.0, p.J)
        ms = burst(10, 3) + [Measurement(5.0, 0.1, 12.0),
                             Measurement(12.0, 2.0, 10.0)]
        canonical = sorted(ms, key=lambda z: (z.z_d, z.z_phi, z.z_u))
        st, _, _ = tracker.update(st, ms[::-1], p, GEOM)
        new = st.legacy[2:]
        assert [t.id for t in st.legacy[:2]] == [4, 3]
        assert all(t.birth_step == 0 for t in st.legacy[:2])
        assert 2 <= len(new) < len(ms)
        assert [t.id for t in new] == list(range(7, 7 + len(new)))
        assert st.next_id == 7 + len(new)
        assert all(t.birth_step == st.step for t in new)
        # Each new track's particles sit on the measurement it was born of.
        born_of = []
        for t in new:
            d = np.mean(t.particles[:, 0])
            phi = np.angle(np.mean(np.exp(1j * t.particles[:, 1])))
            born_of.append(int(np.argmin([
                abs(z.z_d - d) + abs(model.ang_diff(z.z_phi, phi))
                for z in canonical])))
        assert born_of == sorted(set(born_of))

    def test_pruning_threshold_respected(self):
        # u = 2.5 has p_d ~ 0.74: one miss keeps a strong track but pushes
        # a marginal one below the pruning threshold.
        p = params(p_pr=1e-4)
        st = tracker.init(p, GEOM, 0)
        st = stacked([point_track([5, 0, 2.5, 0, 0], 2e-4, p.J, tid=1),
                      point_track([9, 1, 2.5, 0, 0], 0.9, p.J, tid=2)], st)
        st.far = point_far(2.0, p.J)
        st, _, _ = tracker.update(st, [], p, GEOM)
        assert [t.id for t in st.legacy] == [2]
        assert st.legacy[0].p_exist >= p.p_pr

    def test_existence_decays_without_measurements(self):
        p = params(p_s=0.99)
        st = tracker.init(p, GEOM, 0)
        st = stacked([point_track([5.0, 0.3, 3.0, 0.0, 0.0], 0.95, p.J)], st)
        st.far = point_far(2.0, p.J)
        history = [st.legacy[0].p_exist]
        for _ in range(8):
            st = tracker.predict(st, p)
            st, _, _ = tracker.update(st, [], p, GEOM)
            if not st.legacy:
                break
            history.append(st.legacy[0].p_exist)
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_weights_normalized_and_p_exist_in_range(self):
        p = params()
        rng = np.random.default_rng(0)
        st = tracker.init(p, GEOM, 3)
        for step in range(10):
            st = tracker.predict(st, p)
            ms = [Measurement(rng.uniform(2, 15), rng.uniform(-3, 3),
                              math.sqrt(p.u_de) + rng.exponential(2.0))
                  for _ in range(rng.poisson(3))]
            st, _, _ = tracker.update(st, ms, p, GEOM)
            for tr in st.legacy:
                assert 0.0 <= tr.p_exist <= 1.0
                assert np.isclose(tr.weights.sum(), 1.0, atol=1e-9)
                assert np.all(tr.particles[:, 1] >= -np.pi)
                assert np.all(tr.particles[:, 1] < np.pi)

    def test_determinism(self):
        p = params()
        ms_seq = [[Measurement(5.0, 0.1, 12.0), Measurement(9.0, -1.0, 7.0)],
                  [Measurement(5.1, 0.12, 11.0)],
                  [Measurement(5.2, 0.14, 12.5), Measurement(3.0, 2.0, 6.0)]]

        def run():
            st = tracker.init(p, GEOM, 77)
            out = []
            for ms in ms_seq:
                st = tracker.predict(st, p)
                st, est, _ = tracker.update(st, ms, p, GEOM)
                out.append(est)
            return out

        a, b = run(), run()
        for ea, eb in zip(a, b):
            assert ea == eb

    def test_measurement_order_invariance(self):
        p = params()
        ms = [Measurement(5.0, 0.1, 12.0), Measurement(9.0, -1.0, 7.0),
              Measurement(3.0, 2.0, 6.0)]

        def run(order):
            st = tracker.init(p, GEOM, 42)
            st = tracker.predict(st, p)
            st, est, _ = tracker.update(st, [ms[i] for i in order], p, GEOM)
            return est

        a = run([0, 1, 2])
        b = run([2, 0, 1])
        assert a == b


class TestInputGate:
    GOOD = Measurement(5.0, 0.1, 12.0)

    def stepped(self, ms):
        p = params(J=100)
        st = tracker.init(p, GEOM, 9)
        st = stacked([
            point_track([5.0, 0.1, 12.0, 0.0, 0.0], 0.9, p.J),
            point_track([9.0, -1.0, 7.0, 0.0, 0.0], 0.6, p.J, tid=2)], st)
        st.far = point_far(2.0, p.J)
        st = tracker.predict(st, p)
        st, est, _ = tracker.update(st, ms, p, GEOM)
        return st, est

    @pytest.mark.parametrize("field", ["z_d", "z_phi", "z_u"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_measurement_rejected(self, field, value, caplog):
        fields = {"z_d": 7.0, "z_phi": 0.5, "z_u": 9.0, field: value}
        with caplog.at_level("WARNING"):
            st_bad, est_bad = self.stepped([self.GOOD, Measurement(**fields)])
        assert "rejecting" in caplog.text
        st_ok, est_ok = self.stepped([self.GOOD])
        assert est_bad == est_ok
        assert st_bad.step == st_ok.step
        assert [t.id for t in st_bad.legacy] == [t.id for t in st_ok.legacy]
        for a, b in zip(st_bad.legacy, st_ok.legacy):
            assert np.array_equal(a.particles, b.particles)
            assert a.p_exist == b.p_exist
        assert np.array_equal(st_bad.far, st_ok.far)
        assert st_bad.rng.random() == st_ok.rng.random()

    def assert_rejected(self, bad, caplog):
        """bad gets one "rejecting" warning, and the update is the one
        without it."""
        with caplog.at_level("WARNING", logger="mpctrack.tracker"):
            st_bad, est_bad = self.stepped([self.GOOD, bad])
        records = [r for r in caplog.records if r.name == "mpctrack.tracker"]
        assert len(records) == 1
        assert records[0].getMessage().startswith("rejecting")
        st_ok, est_ok = self.stepped([self.GOOD])
        assert est_bad == est_ok
        for f in ("particles", "p_exist", "ids", "birth_steps", "far"):
            assert np.array_equal(getattr(st_bad, f), getattr(st_ok, f))
        assert (st_bad.step, st_bad.next_id) == (st_ok.step, st_ok.next_id)
        assert st_bad.rng.bit_generator.state == st_ok.rng.bit_generator.state

    @pytest.mark.parametrize("z_u", [1e148, 1e160])
    def test_huge_amplitude_rejected(self, z_u, caplog):
        # At 1e148 both variances round to 0 (their denominators overflow),
        # and at 1e160 the clutter density's z_u**2 overflows too: the gate
        # tests the standard deviations first and rejects the measurement,
        # and the update is the one without it.
        self.assert_rejected(Measurement(5.0, 0.3, z_u), caplog)

    @pytest.mark.parametrize("z_phi", [1e300, 4.0, -7.0])
    def test_out_of_range_angle_rejected(self, z_phi, caplog):
        # Every producer emits wrapped angles; a finite angle outside
        # [-pi, pi] is rejected, not wrapped (np.mod of 1e300 is rounding
        # noise).
        self.assert_rejected(Measurement(8.0, z_phi, 15.0), caplog)

    @pytest.mark.parametrize("z_d", [-0.5, -1e-300, 17.0001, 1e300])
    def test_distance_outside_support_rejected(self, z_d, caplog):
        # The clutter density is zero for z_d outside [0, d_max = 17].
        self.assert_rejected(Measurement(z_d, 0.2, 10.0), caplog)

    def test_mixed_set_rejects_each_row_by_its_first_reason(self, caplog):
        # One bad row per reason, between good rows; each bad row also fails
        # every later test (an out-of-support distance, or a weak amplitude,
        # after its own), so its one warning names the first reason.
        good = [self.GOOD, Measurement(9.0, -1.0, 7.0)]
        bad = [Measurement(-1.0, 4.0, math.nan),
               Measurement(30.0, -7.0, 1.0),
               Measurement(-2.0, 0.3, 1e160),
               Measurement(20.0, 0.3, 15.0)]
        reasons = ["non-finite", "angle outside", "zero variance",
                   "outside the clutter support"]
        ms = [bad[0], good[0], bad[1], bad[2], good[1], bad[3]]
        with caplog.at_level("WARNING", logger="mpctrack.tracker"):
            st_bad, est_bad = self.stepped(ms)
        records = [r.getMessage() for r in caplog.records
                   if r.name == "mpctrack.tracker"]
        assert len(records) == len(reasons)
        for message, reason in zip(records, reasons):
            assert message.startswith("rejecting")
            assert reason in message
        st_ok, est_ok = self.stepped(good)
        assert est_bad == est_ok
        for f in ("particles", "p_exist", "ids", "birth_steps", "far"):
            assert np.array_equal(getattr(st_bad, f), getattr(st_ok, f))
        assert (st_bad.step, st_bad.next_id) == (st_ok.step, st_ok.next_id)
        assert st_bad.rng.bit_generator.state == st_ok.rng.bit_generator.state


    @pytest.mark.parametrize("ms", [
        [(5.0, 0.1), (8.0, 0.2), (30.0, 0.3)],
        [(5.0, 0.1, 12.0, 0.0), (9.0, -1.0, 7.0, 0.0)],
        [5.0, 0.1, 12.0]], ids=["rows_of_two", "rows_of_four", "flat"])
    def test_malformed_set_raises(self, ms):
        # A non-empty set that is not M rows of three fields raises
        # ValueError naming its shape (three 2-tuples would otherwise
        # re-row into two measurements), before the generator or the state
        # is touched.
        p = params(J=100)
        st = tracker.predict(tracked_state(p, 9), p)
        before = copy.deepcopy(st)
        est = tracker.estimate(st, p)
        with pytest.raises(ValueError, match=re.escape(str(np.shape(ms)))):
            tracker.update(st, ms, p, GEOM)
        assert_unchanged(st, before)
        assert tracker.estimate(st, p) == est


def counted_update(monkeypatch, name, p):
    """One update with K = 2 legacy tracks and M = 3 accepted measurements
    (the fourth is below the detection threshold), counting the calls of
    model.<name>; returns (calls, shapes, K, M). calls[i] is the set of
    function names on call i's stack; shapes[i] lists the shapes of its
    positional arguments."""
    calls, shapes = [], []
    kernel = getattr(model, name)

    def counting(*args, **kwargs):
        calls.append({frame.name for frame in traceback.extract_stack()})
        shapes.append([np.shape(a) for a in args])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(model, name, counting)
    st = tracker.init(p, GEOM, 0)
    st = stacked([point_track([5.0, 0.1, 12.0, 0.0, 0.0], 0.9, p.J),
                  point_track([9.0, -1.0, 7.0, 0.0, 0.0], 0.6, p.J, tid=2)],
                 st)
    st.far = point_far(2.0, p.J)
    ms = [Measurement(5.0, 0.1, 12.0), Measurement(9.0, -1.0, 7.0),
          Measurement(3.0, 2.0, 6.0), Measurement(4.0, 0.0, 0.5)]
    tracker.update(st, ms, p, GEOM)
    return calls, shapes, 2, 3


def test_log_lik_matrix_calls_per_update(monkeypatch):
    # One call in evaluate_weights for a block of legacy rows scored as one
    # shared set (at M * K * J = 600 entries all K rows fit one block) and
    # one for all accepted measurements in the new-track proposals, which
    # pairs each measurement with its own particle set, through the module
    # attribute.
    p = params(J=100)
    calls, shapes, K, M = counted_update(monkeypatch, "log_lik_matrix", p)
    new = ["_build_proposals" in c for c in calls]
    assert len(calls) == 2
    assert sum(new) == 1
    assert [s[1] for n, s in zip(new, shapes) if n] == [(p.J, M, 5)]
    assert [s[1] for n, s in zip(new, shapes) if not n] == [(K * p.J, 5)]


def test_log_fa_density_calls_per_update(monkeypatch):
    # update's gate scores the clutter density of every measurement offered
    # (the below-threshold one too, which that rejects) in one array call
    # and hands the accepted (M,) rows to the proposals and the association
    # weights, which make none of their own.
    calls, shapes, K, M = counted_update(monkeypatch, "log_fa_density",
                                         params(J=100))
    assert len(calls) == 1
    assert "_build_proposals" not in calls[0]
    assert shapes[0][0] == (M + 1, 3)


@pytest.mark.parametrize("name", ["sigma_d_sq", "sigma_phi_sq"])
def test_variance_calls_per_update(monkeypatch, name):
    # update's gate computes the distance and angle variances of every
    # measurement offered in one array call and hands the accepted standard
    # deviations to the proposals, which make none of their own (the calls
    # log_lik_matrix makes on the particles are not counted).
    calls, shapes, K, M = counted_update(monkeypatch, name, params(J=100))
    gate = [(c, s) for c, s in zip(calls, shapes)
            if "log_lik_matrix" not in c]
    assert len(gate) == 1
    assert "_build_proposals" not in gate[0][0]
    assert gate[0][1][0] == (M + 1,)


def test_marcum_q1_calls_per_update_exact(monkeypatch):
    # In "exact" mode the Rician tail P_d is evaluated once for the legacy
    # stack (its missed-detection terms) and once for all proposals (the
    # normalizer of their likelihood); the legacy likelihoods are
    # detection-weighted, so P_d cancels there.
    calls, _, K, M = counted_update(monkeypatch, "marcum_q1",
                                    params(J=100, amp_mode="exact"))
    assert len(calls) == 2
    assert sum("_build_proposals" in c for c in calls) == 1


def test_log_detection_prob_calls_per_update_gauss(monkeypatch):
    calls, _, K, M = counted_update(monkeypatch, "log_detection_prob",
                                    params(J=100, amp_mode="gauss"))
    assert len(calls) == 1
    assert "_build_proposals" in calls[0]


@pytest.mark.parametrize("n_meas", [0, 1])
def test_legacy_without_far_belief_raises(n_meas):
    # Legacy components imply a false-alarm-rate belief; a state without one
    # is refused before anything in it changes.
    p = params(J=50)
    st = tracker.init(p, GEOM, 0)
    st = stacked([point_track([5.0, 0.1, 12.0, 0.0, 0.0], 0.9, p.J)], st)
    before = copy.deepcopy(st)
    ms = [Measurement(5.0, 0.1, 12.0)][:n_meas]
    with pytest.raises(RuntimeError, match=rf"K=1 .*M={n_meas} "):
        tracker.update(st, ms, p, GEOM)
    assert st.step == before.step
    assert st.far is None and st.next_id == before.next_id
    assert len(st.legacy) == 1
    tr, tr0 = st.legacy[0], before.legacy[0]
    assert np.array_equal(tr.particles, tr0.particles)
    assert np.array_equal(tr.weights, tr0.weights)
    assert tr.p_exist == tr0.p_exist
    assert st.rng.bit_generator.state == before.rng.bit_generator.state


def burst(M, seed):
    """M accepted measurements spread over the support; the first sits just
    above the detection threshold (z_u = 2.1), where the amplitude proposal
    draws non-positive values that must be redrawn."""
    rng = np.random.default_rng(seed)
    thresh = math.sqrt(HyperParams().u_de)
    ms = [Measurement(rng.uniform(0.5, 16.5), rng.uniform(-np.pi, np.pi),
                      thresh + rng.exponential(3.0)) for _ in range(M - 1)]
    return [Measurement(5.0, 3.1, 2.1)] + ms


def proposal_log_weights(z, log_fa, sd, sp, x, p):
    """The one-measurement importance log weights of proposal particles x
    (5, J) for the measurement row z = (z_d, z_phi, z_u) with clutter log
    density log_fa and distance and angle standard deviations sd and sp:
    birth prior times likelihood, over proposal density times clutter
    density."""
    d, phi, u = x[:3]
    zd, zp, zu = z
    su = np.sqrt(model.amp_scale_sq(zu, GEOM.n_eff))
    log_lik = model.log_lik_matrix(z[None], x.T[:, None], p, GEOM)[:, 0]
    u_prior_max = max(p.u_birth_max, zu + 6.0 * su)
    log_birth = np.where((d >= 0.0) & (d <= p.d_max) & (u <= u_prior_max),
                         -np.log(TWO_PI * p.d_max * u_prior_max), -np.inf)
    log_prop = -0.5 * (((d - zd) / sd) ** 2
                       + (model.ang_diff(phi, zp) / sp) ** 2
                       + ((u - zu) / su) ** 2)
    log_prop -= np.log(TWO_PI ** 1.5 * sd * sp * su) + log_ndtr(zu / su)
    return log_birth + log_lik - log_prop - log_fa


class TestBatchedProposals:
    @pytest.mark.parametrize("mode", ["gauss", "exact"])
    @pytest.mark.parametrize("M", [1, 3, 200])
    def test_batch_equals_one_at_a_time(self, M, mode):
        # One (5, M, J) draw of standard normals in the field order d, phi,
        # u, v_d, v_phi, then redraws of the amplitudes that would be
        # non-positive; each row's weights and log mass are the
        # one-measurement formula on that row's particles, to the bit.
        p = params(J=2000, amp_mode=mode)
        ms = burst(M, M)
        rng = np.random.default_rng(5)
        z, log_fa, sd, sp = proposal_inputs(ms, p, GEOM)
        particles, weights, log_mass = tracker._build_proposals(
            z, log_fa, sd, sp, p, GEOM, rng)
        assert particles.shape == (5, M, p.J)
        assert weights.shape == (M, p.J) and log_mass.shape == (M,)
        n = np.random.default_rng(5).standard_normal((5, M, p.J))
        zd, zp, zu = z[:, 0:1], z[:, 1:2], z[:, 2:3]
        assert np.array_equal(particles[0], n[0] * sd + zd)
        assert np.array_equal(particles[1], model.wrap_angle(n[1] * sp + zp))
        assert np.array_equal(particles[3], n[3] * p.sigma_v_d)
        assert np.array_equal(particles[4], n[4] * p.sigma_v_phi)
        su = np.sqrt(model.amp_scale_sq(zu, GEOM.n_eff))
        kept = n[2] * su + zu > 0.0
        assert np.array_equal(particles[2][kept], np.maximum(
            n[2] * su + zu, model.U_FLOOR)[kept])
        assert np.all(particles[2] > 0.0)
        for m in range(M):
            log_w = proposal_log_weights(z[m], log_fa[m], sd[m, 0], sp[m, 0],
                                         particles[:, m], p)
            top = np.max(log_w)
            assert np.isfinite(top)
            shifted = np.exp(log_w - top)
            assert np.array_equal(weights[m] / weights[m].sum(),
                                  shifted / shifted.sum())
            assert log_mass[m] == np.log(shifted.sum() / p.J) + top
        # The near-threshold measurement's redraws consumed extra normals.
        assert not kept[0].all()
        plain = np.random.default_rng(5)
        plain.standard_normal(5 * M * p.J)
        assert plain.bit_generator.state != rng.bit_generator.state

    def test_empty_measurement_set(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        p = params(J=400)
        particles, weights, log_mass = tracker._build_proposals(
            *proposal_inputs([], p, GEOM), p, GEOM, rng)
        assert particles.shape == (5, 0, 400)
        assert weights.shape == (0, 400) and log_mass.shape == (0,)
        assert rng.bit_generator.state == before

    def test_clutter_burst_update_is_finite(self):
        p = params(J=500)
        st = tracker.init(p, GEOM, 4)
        st = stacked([
            point_track([5.0, 0.1, 12.0, 0.0, 0.0], 0.9, p.J),
            point_track([9.0, -1.0, 7.0, 0.0, 0.0], 0.6, p.J, tid=2)], st)
        st.far = point_far(2.0, p.J)
        st = tracker.predict(st, p)
        st, est, marg = tracker.update(st, burst(200, 200), p, GEOM)
        assert marg.p_b.shape[0] == 200
        assert math.isfinite(est.mu_fa_mmse)
        for t in est.all_tracks:
            assert all(map(math.isfinite, (t.d, t.phi, t.u, t.sigma_d,
                                           t.sigma_phi, t.p_exist)))
        for tr in st.legacy:
            assert 0.0 <= tr.p_exist <= 1.0
            assert np.all(np.isfinite(tr.particles))


def test_pruned_beliefs_skip_resampling(monkeypatch):
    # Beliefs below p_pr are dropped without resampling, yet draw the one
    # uniform resampling would have drawn: the rng stream is that of
    # p_pr = 0, where every belief survives and is resampled. Legacy and new
    # rows are resampled in the stack (rows records each call of the
    # systematic kernel), the false-alarm-rate belief through resample.
    def stepped(p_pr):
        p = params(J=200, p_pr=p_pr)
        st = tracker.init(p, GEOM, 12)
        st = stacked([point_track([5.0, 0.1, 12.0, 0.0, 0.0], 0.9, p.J),
                      point_track([9.0, -1.0, 2.5, 0.0, 0.0], 2e-4, p.J,
                                  tid=2)], st)
        st.far = point_far(2.0, p.J)
        st = tracker.predict(st, p)
        calls, rows = [], []
        kernel, row_kernel = tracker.resample, tracker._systematic

        def counting(*args):
            calls.append(kernel(*args))
            return calls[-1]

        def counting_rows(*args):
            rows.append(args[0])
            return row_kernel(*args)

        with monkeypatch.context() as mp:
            mp.setattr(tracker, "resample", counting)
            mp.setattr(tracker, "_systematic", counting_rows)
            st, _, _ = tracker.update(st, burst(8, 3), p, GEOM)
        return st, calls, rows

    st, calls, rows = stepped(HyperParams().p_pr)
    st_all, calls_all, rows_all = stepped(0.0)
    assert len(st_all.legacy) == 2 + 8
    assert len(st.legacy) < len(st_all.legacy)
    assert len(rows) == len(st.legacy) + 1
    assert len(rows_all) == len(st_all.legacy) + 1
    assert len(calls) == len(calls_all) == 1
    assert calls[-1].particles is st.far
    assert st.rng.bit_generator.state == st_all.rng.bit_generator.state


# ---------------------------------------------------------------------------
# Hypothesis properties: measurement order, empty runs, clutter bursts
# ---------------------------------------------------------------------------

TRUTH = ([5.0, 0.3, 12.0], [9.0, -1.0, 8.0])


def truth_measurements(p, rng):
    """One noisy detection of each TRUTH component, with the model's
    measurement variances."""
    out = []
    for d, phi, u in TRUTH:
        out.append(Measurement(
            d + math.sqrt(float(model.sigma_d_sq(u, GEOM)))
            * rng.standard_normal(),
            float(model.wrap_angle(phi + math.sqrt(float(
                model.sigma_phi_sq(u, phi, GEOM))) * rng.standard_normal())),
            u + math.sqrt(float(model.amp_scale_sq(u, GEOM.n_eff)))
            * rng.standard_normal()))
    return out


def clutter(M, p, rng):
    """M false alarms from the false-alarm density: uniform in distance and
    angle, Rayleigh amplitudes truncated at the detection threshold."""
    return [Measurement(float(rng.uniform(0.0, p.d_max)),
                        float(rng.uniform(-np.pi, np.pi)),
                        math.sqrt(p.u_de + rng.exponential(1.0)))
            for _ in range(M)]


def tracked_state(p, seed):
    """A state holding both TRUTH components as legacy tracks and a
    false-alarm-rate belief near one clutter point per snapshot."""
    st_ = tracker.init(p, GEOM, seed)
    st_ = stacked([point_track(x + [0.0, 0.0], 0.9, p.J, tid=i + 1)
                   for i, x in enumerate(TRUTH)], st_)
    st_.next_id = len(TRUTH) + 1
    st_.far = point_far(1.0, p.J)
    return st_


def assert_finite_state(st_):
    for tr in st_.legacy:
        assert np.all(np.isfinite(tr.particles))
        assert 0.0 <= tr.p_exist <= 1.0
    assert np.all(np.isfinite(st_.far))
    assert np.all(st_.far > 0.0)


class TestUpdateProperties:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.booleans(),
           st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_measurement_order_invariance(self, seed, n_clutter, fresh,
                                          shuffler):
        # update sorts the accepted measurements, so any permutation of the
        # input gives the same floats and leaves the rng at the same state,
        # with K = 2 legacy tracks or from a fresh state (K = 0, where only
        # the measurement rows of the false-alarm-rate update act).
        p = params(J=200)
        rng = np.random.default_rng(seed)
        ms = truth_measurements(p, rng) + clutter(n_clutter, p, rng)
        permuted = list(ms)
        shuffler.shuffle(permuted)

        def stepped(batch):
            st_ = tracker.init(p, GEOM, seed) if fresh \
                else tracked_state(p, seed)
            st_ = tracker.predict(st_, p)
            st_, est, _ = tracker.update(st_, batch, p, GEOM)
            return st_, est

        (st_a, est_a), (st_b, est_b) = stepped(ms), stepped(permuted)
        assert est_a == est_b
        assert st_a.rng.bit_generator.state == st_b.rng.bit_generator.state
        assert len(st_a.legacy) == len(st_b.legacy)
        for a, b in zip(st_a.legacy, st_b.legacy):
            assert np.array_equal(a.particles, b.particles)
            assert a.p_exist == b.p_exist
        assert np.array_equal(st_a.far, st_b.far)

    @given(st.integers(0, 2**32 - 1), st.floats(0.3, 1.0),
           st.floats(1e-3, 30.0))
    @settings(max_examples=10, deadline=None)
    def test_fifty_empty_snapshots(self, seed, p_exist, mu):
        # K > 0 and M = 0: only the legacy rows of the false-alarm-rate
        # update act, 50 times in a row.
        p = params(J=200, p_pr=0.0)
        st_ = tracked_state(p, seed)
        st_.p_exist[:] = p_exist
        st_.far = point_far(mu, p.J)
        for _ in range(50):
            st_ = tracker.predict(st_, p)
            st_, est, marg = tracker.update(st_, [], p, GEOM)
            assert marg.p_a.shape == (len(TRUTH), 1)
        assert len(st_.legacy) == len(TRUTH)
        assert_finite_state(st_)
        assert math.isfinite(est.mu_fa_mmse) and est.mu_fa_mmse > 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=3, deadline=None)
    def test_recovers_from_clutter_burst(self, seed):
        # One snapshot of M = 300 (the two detections and 298 false
        # alarms), then 20 ordinary snapshots: the detected count returns
        # to the truth.
        p = params(J=300)
        rng = np.random.default_rng(seed)
        st_ = tracked_state(p, seed)
        for _ in range(5):
            st_ = tracker.predict(st_, p)
            st_, est, _ = tracker.update(
                st_, truth_measurements(p, rng) + clutter(1, p, rng), p, GEOM)
        assert est.nom_hat == len(TRUTH)
        st_ = tracker.predict(st_, p)
        burst_ms = truth_measurements(p, rng) + clutter(298, p, rng)
        st_, _, marg = tracker.update(st_, burst_ms, p, GEOM)
        assert marg.p_b.shape[0] == 300
        assert_finite_state(st_)
        tentative = len(st_.legacy)
        assert tentative > 10 * len(TRUTH)
        for _ in range(20):
            st_ = tracker.predict(st_, p)
            st_, est, _ = tracker.update(
                st_, truth_measurements(p, rng) + clutter(1, p, rng), p, GEOM)
        assert_finite_state(st_)
        assert len(st_.legacy) < tentative
        assert est.nom_hat == len(TRUTH)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def injected(data, ms):
    """ms with one to three corrupted copies of random members inserted at
    random places; each copy has NaN or +-inf in a random nonempty set of
    its fields."""
    out = list(ms)
    for _ in range(data.draw(st.integers(1, 3))):
        z = data.draw(st.sampled_from(ms))
        fields = data.draw(st.sets(st.sampled_from(("z_d", "z_phi", "z_u")),
                                   min_size=1))
        bad = z._replace(
            **{f: data.draw(NON_FINITE) for f in sorted(fields)})
        out.insert(data.draw(st.integers(0, len(out))), bad)
    return out


def assert_same_state(a, b):
    assert (a.step, a.next_id) == (b.step, b.next_id)
    assert [t.id for t in a.legacy] == [t.id for t in b.legacy]
    for ta, tb in zip(a.legacy, b.legacy):
        assert ta.particles.tobytes() == tb.particles.tobytes()
        assert ta.p_exist == tb.p_exist
    assert a.far.tobytes() == b.far.tobytes()
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


class TestNonFiniteInjection:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.booleans(),
           st.data())
    @settings(max_examples=25, deadline=None)
    def test_injected_measurements_change_nothing(self, seed, n_clutter,
                                                  fresh, data):
        # The gate drops every measurement with a non-finite field before
        # any stage sees it, from a fresh state (K = 0) or with K = 2.
        p = params(J=200)
        rng = np.random.default_rng(seed)
        good = truth_measurements(p, rng) + clutter(n_clutter, p, rng)
        mixed = injected(data, good)

        def stepped(ms):
            st_ = tracker.init(p, GEOM, seed) if fresh \
                else tracked_state(p, seed)
            st_ = tracker.predict(st_, p)
            st_, est, _ = tracker.update(st_, ms, p, GEOM)
            return st_, est

        (st_bad, est_bad), (st_ok, est_ok) = stepped(mixed), stepped(good)
        assert est_bad == est_ok
        assert_same_state(st_bad, st_ok)

    @given(st.integers(0, 2**32 - 1), st.booleans(), st.data())
    @settings(max_examples=5, deadline=None)
    def test_recovers_after_injection(self, seed, fresh, data):
        # One snapshot with injected measurements, then 20 clean ones:
        # finite estimates and the detected counts of a run without the
        # injection.
        p = params(J=200)

        def run(inject):
            rng = np.random.default_rng(seed)
            st_ = tracker.init(p, GEOM, seed) if fresh \
                else tracked_state(p, seed)
            counts = []
            for step in range(21):
                st_ = tracker.predict(st_, p)
                ms = truth_measurements(p, rng) + clutter(1, p, rng)
                if inject and step == 0:
                    ms = injected(data, ms)
                st_, est, _ = tracker.update(st_, ms, p, GEOM)
                assert math.isfinite(est.mu_fa_mmse)
                for t in est.all_tracks:
                    assert all(map(math.isfinite, (
                        t.d, t.phi, t.u, t.sigma_d, t.sigma_phi, t.p_exist)))
                counts.append(est.nom_hat)
            assert_finite_state(st_)
            return counts

        assert run(True) == run(False)


# ---------------------------------------------------------------------------
# The state invariants over long mixed sequences of steps
# ---------------------------------------------------------------------------

HOSTILE = [("z_d", math.nan), ("z_phi", math.inf), ("z_u", -math.inf),
           ("z_phi", 3.5), ("z_phi", -math.pi - 1e-12), ("z_u", 1e200),
           ("z_u", -1e200)]


class TrackerMachine(RuleBasedStateMachine):
    """predict and update in any order on one tracker at J = 50, with
    truth-like sets, clutter bursts, empty sets, long runs without clutter
    and sets with hostile rows, which must change nothing. After every rule
    the state holds, whatever came before: existence probabilities in
    [floor, 1], where floor is p_pr times p_s for each prediction since the
    last update (which prunes at p_pr); finite particles with u >= 0 and
    phi in [-pi, pi); unique increasing ids below next_id; rate particles
    at or above MU_FA_FLOOR; and finite estimates. Every rule also checks
    that its input state kept its bytes."""

    p = params(J=50)

    @initialize(seed=st.integers(0, 2**32 - 1))
    def start(self, seed):
        self.st = tracker.init(self.p, GEOM, seed)
        self.rng = np.random.default_rng(seed)
        self.floor = self.p.p_pr

    def step(self, ms):
        before = copy.deepcopy(self.st)
        nxt, est, _ = tracker.update(self.st, ms, self.p, GEOM)
        assert_unchanged(self.st, before, rng=False)
        assert nxt.step == self.st.step + 1
        self.st, self.floor = nxt, self.p.p_pr
        assert_finite_estimate(est, nxt)
        return est

    @rule()
    def predict(self):
        before = copy.deepcopy(self.st)
        nxt = tracker.predict(self.st, self.p)
        assert_unchanged(self.st, before, rng=False)
        self.st = nxt
        self.floor *= self.p.p_s

    @rule(n_clutter=st.integers(0, 3))
    def update_truth(self, n_clutter):
        self.step(truth_measurements(self.p, self.rng)
                  + clutter(n_clutter, self.p, self.rng))

    @rule(M=st.integers(20, 200))
    def clutter_burst(self, M):
        self.step(truth_measurements(self.p, self.rng)
                  + clutter(M - len(TRUTH), self.p, self.rng))

    @rule()
    def update_empty(self):
        self.step([])

    @rule(n=st.integers(10, 40))
    def run_without_clutter(self, n):
        for _ in range(n):
            self.predict()
            self.step(truth_measurements(self.p, self.rng))

    @rule(rows=st.lists(st.sampled_from(HOSTILE), min_size=1, max_size=4),
          data=st.data())
    def update_hostile(self, rows, data):
        # The gate rejects every hostile row: the step is the one without.
        clean = truth_measurements(self.p, self.rng)
        ms = list(clean)
        for field, value in rows:
            z = data.draw(st.sampled_from(clean))._replace(**{field: value})
            ms.insert(data.draw(st.integers(0, len(ms))), z)
        ref, est_ref, _ = tracker.update(copy.deepcopy(self.st), clean,
                                         self.p, GEOM)
        assert self.step(ms) == est_ref
        assert_same_state(self.st, ref)

    @invariant()
    def state_is_sound(self):
        st_, p = self.st, self.p
        assert st_.particles.shape == (5, len(st_.p_exist), p.J)
        assert np.all(st_.p_exist <= 1.0)
        assert np.all(st_.p_exist >= self.floor)
        assert np.all(np.isfinite(st_.particles))
        assert np.all(st_.particles[2] >= 0.0)
        assert np.all(st_.particles[1] >= -math.pi)
        assert np.all(st_.particles[1] < math.pi)
        assert np.all(np.diff(st_.ids) > 0)
        assert np.all(st_.ids < st_.next_id)
        if st_.far is not None:
            assert st_.far.shape == (p.J,)
            assert np.all(np.isfinite(st_.far))
            assert np.all(st_.far >= model.MU_FA_FLOOR)
        assert_finite_estimate(tracker.estimate(st_, p), st_)


def assert_finite_estimate(est, st_):
    assert math.isfinite(est.mu_fa_mmse) == (st_.far is not None)
    assert len(est.all_tracks) == len(st_.p_exist)
    for t in est.all_tracks:
        assert all(map(math.isfinite, (t.d, t.phi, t.u, t.sigma_d,
                                       t.sigma_phi, t.p_exist)))


TrackerMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=15, deadline=None)
TestTrackerMachine = TrackerMachine.TestCase


# ---------------------------------------------------------------------------
# The stacked layout against the per-track code it replaced
# ---------------------------------------------------------------------------
#
# The oracles below are the per-belief predict, legacy-weight evaluation,
# legacy update, posterior summary and survivor loop the tracker ran before
# its beliefs were stacked into arrays. They run on lists of PmpcBelief, and
# the stacked code must reproduce them bit for bit: states, estimates and
# the rng state.

def oracle_propagate(particles, params, rng):
    """Per-track motion model on one (J, 5) particle set, one 1 s step."""
    d, phi, u, v_d, v_phi = particles.T
    eps = rng.standard_normal((particles.shape[0], 3))
    eps[:, 0] *= params.sigma_d
    eps[:, 1] *= params.sigma_phi
    eps[:, 2] *= params.sigma_u_rel * u
    return np.stack([d + v_d + 0.5 * eps[:, 0],
                     model.wrap_angle(phi + v_phi + 0.5 * eps[:, 1]),
                     np.maximum(u + eps[:, 2], 0.0),
                     v_d + eps[:, 0],
                     v_phi + eps[:, 1]], axis=1)


def oracle_predict(beliefs, far, params, rng):
    """Predicts beliefs in place and returns the predicted rate particles
    far (J,), or None."""
    for tr in beliefs:
        tr.p_exist *= params.p_s
        tr.particles = oracle_propagate(tr.particles, params, rng)
    if far is not None:
        step = params.sigma_fa * rng.standard_normal(far.shape)
        far = model.reflect_positive(far + step)
    return far


def oracle_legacy_weights(beliefs, ms, far, params):
    """Per-track det_prob, ratio matrices R, row scales c and unshifted
    log_beta of evaluate_weights, for the rate particles far (J,)."""
    K, M = len(beliefs), len(ms)
    log_n = (-far + M * np.log(far)) / (K + M)
    log_t = model.log_sum_exp(log_n - np.log(far)) \
        - model.log_sum_exp(log_n)
    log_fa = np.array([model.log_fa_density(z, params.u_de, params.d_max)
                       for z in ms])
    det_prob, ratio, scale = [], [], []
    log_beta = np.full((len(beliefs), M + 1), -np.inf)
    for k, tr in enumerate(beliefs):
        p_d = model.detection_prob(tr.particles[:, 2], params.u_de,
                                   GEOM.n_eff, params.amp_mode)
        lr = model.log_lik_matrix(ms, tr.particles, params, GEOM, True).T
        lr -= log_fa[:, None]
        c = np.max(lr, axis=1)
        lr -= c[:, None]
        np.maximum(lr, dabp._LOG_RATIO_FLOOR, out=lr)
        np.exp(lr, out=lr)
        det_prob.append(p_d)
        ratio.append(lr)
        scale.append(c)
        miss = (1.0 - tr.p_exist) + tr.p_exist * np.mean(1.0 - p_d)
        log_beta[k, 0] = np.log(max(miss, 1e-300))
        if M and tr.p_exist > 0.0:
            with np.errstate(divide="ignore"):
                log_beta[k, 1:] = (log_t + np.log(tr.p_exist)
                                   + np.log(lr.mean(axis=1)) + c)
    return det_prob, ratio, scale, log_beta


def oracle_update_legacy(tr, w, k, log_nu):
    R = w.ratio[k]
    M = R.shape[0]
    log_t = math.log(w.far_ratio)
    with np.errstate(divide="ignore"):
        log_miss = np.log(np.maximum(1.0 - w.det_prob[k], 0.0))
        if M:
            b = log_nu[:, k] + log_t + w.ratio_log_scale[k]
            top = np.max(b)
            assoc = np.log(np.exp(b - top) @ R) + top
            log_psi = np.logaddexp(log_miss, assoc)
        else:
            log_psi = log_miss
    log_lw = np.log(np.maximum(tr.weights, 1e-300))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_s1 = np.log(tr.p_exist) + model.log_sum_exp(log_lw + log_psi)
        gap = min(np.log(1.0 - tr.p_exist) - log_s1, 700.0)
    tr.p_exist = float(1.0 / (1.0 + np.exp(gap))) if log_s1 > -np.inf \
        else 0.0
    with np.errstate(invalid="ignore"):
        new_w = np.exp(log_lw + log_psi - np.max(log_lw + log_psi)) \
            if np.any(np.isfinite(log_psi)) else np.ones_like(tr.weights)
    tr.weights = new_w / new_w.sum()


def oracle_summary(tr):
    p = tr.particles
    d = float(np.mean(p[:, 0]))
    u = float(np.mean(p[:, 2]))
    phi = float(np.arctan2(np.mean(np.sin(p[:, 1])),
                           np.mean(np.cos(p[:, 1]))))
    sigma_d = float(np.sqrt(np.mean((p[:, 0] - d) ** 2)))
    dphi = model.ang_diff(p[:, 1], phi)
    sigma_phi = float(np.sqrt(np.mean(dphi * dphi)))
    return tracker.TrackEstimate(tr.id, d, float(model.wrap_angle(phi)), u,
                                 sigma_d, sigma_phi, tr.p_exist)


def oracle_survivors(legacy, new, step, next_id, p_pr, J, rng):
    """The survivor loop: one uniform per belief, legacy then new; pruned
    beliefs draw theirs and are dropped, survivors are resampled one at a
    time and new survivors numbered from next_id."""
    survivors = []
    for i, tr in enumerate(legacy + new):
        if not tr.p_exist >= p_pr:
            rng.random()
            continue
        w = np.asarray(tr.weights, dtype=float)
        total = w.sum()
        positions = (rng.random() + np.arange(J)) / J
        idx = np.minimum(np.searchsorted(np.cumsum(w / total), positions),
                         len(w) - 1)
        tr.particles, tr.weights = tr.particles[idx], np.full(J, 1.0 / J)
        if i >= len(legacy):
            tr.id, tr.birth_step = next_id, step
            next_id += 1
        survivors.append(tr)
    return survivors, next_id


def random_beliefs(rng, K, J, weights="equal"):
    """K beliefs with scattered particles, amplitude clouds near the
    detection threshold and angle clouds straddling +-pi (every third
    belief), and existence probabilities including 0 and 1. weights:
    "equal" (1/J each, as every row of a state), "scattered" (non-uniform
    with some exact zeros) or "positive" (non-uniform, none zero)."""
    out = []
    for k in range(K):
        center = np.array([rng.uniform(1.0, 16.0), rng.uniform(-np.pi, np.pi),
                           rng.uniform(1.5, 20.0), rng.normal(0.0, 0.2),
                           rng.normal(0.0, 0.05)])
        if k % 3 == 0:
            center[1] = np.pi - 0.01
        scale = np.array([0.05, 0.03, 0.4 * center[2], 0.02, 0.01])
        parts = center + scale * rng.standard_normal((J, 5))
        parts[:, 1] = model.wrap_angle(parts[:, 1])
        parts[:, 2] = np.abs(parts[:, 2])
        w = rng.exponential(1.0, J)
        if weights == "scattered":
            w[rng.random(J) < 0.2] = 0.0
        w = np.full(J, 1.0 / J) if weights == "equal" else w / w.sum()
        q = (0.0, 1.0, 0.5)[k] if k < 3 and K > 3 else rng.uniform(0.01, 1.0)
        out.append(PmpcBelief(k + 1, k, parts, w, q))
    return out


def assert_rows_equal(state, beliefs):
    assert [tr.id for tr in state.legacy] == [tr.id for tr in beliefs]
    assert [tr.birth_step for tr in state.legacy] \
        == [tr.birth_step for tr in beliefs]
    for got, want in zip(state.legacy, beliefs):
        assert got.particles.tobytes() == want.particles.tobytes()
        assert got.p_exist == want.p_exist


STACK_SIZES = [(K, J) for K in (1, 4, 12) for J in (1000, 10000)]


class TestStackedEqualsPerTrack:
    @pytest.mark.parametrize("K,J", STACK_SIZES)
    def test_predict(self, K, J):
        p = params(J=J, p_s=0.97, sigma_u_rel=0.3)
        beliefs = random_beliefs(np.random.default_rng(K * J), K, J)
        st = stacked(copy.deepcopy(beliefs), tracker.init(p, GEOM, 5))
        st.far = point_far(2.0, J)
        rng = np.random.default_rng(5)
        st_ = tracker.predict(st, p)
        far = oracle_predict(beliefs, st.far.copy(), p, rng)
        assert_rows_equal(st_, beliefs)
        assert st_.far.tobytes() == far.tobytes()
        assert st_.rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("K,J", STACK_SIZES)
    def test_estimate(self, K, J):
        p = params(J=J)
        beliefs = random_beliefs(np.random.default_rng(K + J), K, J)
        est = tracker.estimate(stacked(beliefs), p)
        assert est.all_tracks == [oracle_summary(tr) for tr in beliefs]
        assert est.detected == [t for t in est.all_tracks
                                if t.p_exist > p.p_de]

    @pytest.mark.parametrize("mode", ["gauss", "exact"])
    @pytest.mark.parametrize("K,J", STACK_SIZES)
    def test_weights_and_legacy_update(self, K, J, mode):
        # evaluate_weights scores blocks of rows in one kernel call (at
        # J = 1000 and M = 3 up to ten rows) and _update_legacy runs on the
        # whole stack; both equal the per-track loops.
        p = params(J=J, amp_mode=mode)
        rng = np.random.default_rng(3 * K + J)
        beliefs = random_beliefs(rng, K, J)
        ms = sorted([Measurement(tr.particles[0, 0] + 0.01,
                                 tr.particles[0, 1], 8.0)
                     for tr in beliefs[:3]],
                    key=lambda z: (z.z_d, z.z_phi, z.z_u))
        st = stacked(copy.deepcopy(beliefs))
        far = rng.uniform(0.5, 4.0, J)
        w = dabp.evaluate_weights(st, np.zeros(len(ms)), *packed(ms, p),
                                  far, p, GEOM)
        det_prob, ratio, scale, log_beta = oracle_legacy_weights(
            beliefs, ms, far, p)
        assert w.det_prob.tobytes() == np.array(det_prob).tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(w.ratio, ratio))
        assert w.ratio_log_scale.tobytes() == np.array(scale).tobytes()
        shift = np.max(log_beta, axis=1, keepdims=True)
        assert w.log_beta.tobytes() == (log_beta - shift).tobytes()

        log_nu = rng.normal(0.0, 1.0, (len(ms), K))
        post, p_exist = tracker._update_legacy(st.p_exist, w, log_nu)
        for k, tr in enumerate(beliefs):
            oracle_update_legacy(tr, w, k, log_nu)
        post /= post.sum(axis=1, keepdims=True)
        assert post.tobytes() == np.array([tr.weights
                                           for tr in beliefs]).tobytes()
        assert p_exist.tolist() == [tr.p_exist for tr in beliefs]

    @pytest.mark.parametrize("K,J", STACK_SIZES)
    def test_survivors(self, K, J):
        # Legacy rows with p_exist 0 and NaN and new rows below p_pr are
        # pruned; the rest are resampled from one uniform each, the legacy
        # rows from their posterior weights.
        p = params(J=J, p_pr=0.05)
        rng = np.random.default_rng(7 * K + J)
        legacy = random_beliefs(rng, K, J, "scattered")
        new = random_beliefs(rng, 5, J, "positive")
        legacy[-1].p_exist = math.nan
        p_new = [1e-3, 0.5, math.nan, 0.9, 0.05]
        for tr, q in zip(new, p_new):
            tr.p_exist = q
        st = stacked(copy.deepcopy(legacy), tracker.init(p, GEOM, 11))
        st.step, st.next_id = 9, 40
        X = np.stack([tr.particles.T for tr in new], axis=1)
        st = tracker._prune_and_resample(
            st, np.array([tr.weights for tr in legacy]), X,
            np.array([tr.weights for tr in new]), p_new, p)
        want, next_id = oracle_survivors(legacy, new, 9, 40, p.p_pr, J,
                                         np.random.default_rng(11))
        assert len(st.legacy) == len(want) == sum(
            tr.p_exist >= p.p_pr for tr in legacy) + 3
        assert_rows_equal(st, want)
        assert st.next_id == next_id == 43
        oracle_rng = np.random.default_rng(11)
        oracle_rng.random(K + 5)
        assert st.rng.bit_generator.state == oracle_rng.bit_generator.state


class TestEmptyStack:
    def test_zero_to_n_to_zero(self, monkeypatch):
        # An empty (5, 0, J) stack runs through predict, update and
        # estimate; births fill it from empty, a step that prunes every row
        # empties it again (after a fault in that step changed nothing),
        # and ids continue across.
        p = params(J=300)
        st = tracker.init(p, GEOM, 21)
        assert st.particles.shape == (5, 0, p.J)
        st = tracker.predict(st, p)
        st, est, _ = tracker.update(st, [], p, GEOM)
        assert st.particles.shape == (5, 0, p.J) and est.all_tracks == []

        ms = [Measurement(5.0, 0.3, 30.0), Measurement(9.0, -2.0, 25.0)]
        st = tracker.predict(st, p)
        st, est, _ = tracker.update(st, ms, p, GEOM)
        K = len(st.p_exist)
        assert K == 2 and st.particles.shape == (5, K, p.J)
        assert st.ids.tolist() == [1, 2] and st.next_id == 3
        assert st.birth_steps.tolist() == [st.step] * K
        assert [t.id for t in est.all_tracks] == [1, 2]

        st.p_exist[:] = 1e-9
        st = tracker.predict(st, p)
        before = copy.deepcopy(st)
        with monkeypatch.context() as mp:
            mp.setattr(tracker, "_prune_and_resample",
                       raising(tracker._prune_and_resample))
            with pytest.raises(Fault):
                tracker.update(st, [], p, GEOM)
        assert_unchanged(st, before)
        assert len(st.p_exist) == K
        ref, est_ref, _ = tracker.update(copy.deepcopy(before), [], p, GEOM)
        st, est, _ = tracker.update(st, [], p, GEOM)
        assert est == est_ref
        assert_same_state(st, ref)
        assert st.particles.shape == (5, 0, p.J)
        assert st.p_exist.shape == st.ids.shape == st.birth_steps.shape \
            == (0,)
        assert st.legacy == [] and est.all_tracks == [] and est.nom_hat == 0

        st = tracker.predict(st, p)
        st, _, _ = tracker.update(st, [Measurement(12.0, 1.0, 30.0)], p,
                                  GEOM)
        assert st.ids.tolist() == [3] and st.next_id == 4


# ---------------------------------------------------------------------------
# One convention for state: predict and update write nothing they are given
# ---------------------------------------------------------------------------

class Fault(BaseException):
    """Raised by a patched stage. Like KeyboardInterrupt it is no Exception,
    so only a handler of every exception can roll an update back."""


def raising(stage):
    """stage run to completion, so that it draws whatever it draws from the
    generator, and then raising Fault."""
    def faulty(*args, **kwargs):
        stage(*args, **kwargs)
        raise Fault(stage.__name__)
    return faulty


def assert_unchanged(st_, before, rng=True):
    """st_ holds the bytes of its deep copy before: stack, rate belief, step,
    next id and (with rng) generator state."""
    for f in ("particles", "p_exist", "ids", "birth_steps"):
        a, b = getattr(st_, f), getattr(before, f)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    if before.far is None:
        assert st_.far is None
    else:
        assert st_.far.tobytes() == before.far.tobytes()
    assert (st_.step, st_.next_id) == (before.step, before.next_id)
    if rng:
        assert st_.rng.bit_generator.state == before.rng.bit_generator.state


# Every stage of update, in the order it runs.
STAGES = [(tracker, "_build_proposals"), (dabp, "evaluate_weights"),
          (dabp, "loopy_da"), (tracker, "_update_legacy"),
          (tracker, "_update_far"), (tracker, "_prune_and_resample"),
          (tracker, "resample"), (tracker, "estimate")]
FAULT_MS = [Measurement(5.0, 0.3, 12.0), Measurement(9.0, -1.0, 8.0),
            Measurement(3.0, 2.0, 6.0)]


def assert_retry_is_uninterrupted(st_, before, p):
    """Updating st_ with FAULT_MS, all three accepted, equals updating a
    copy of before that was never interrupted: state, estimate and
    generator state."""
    ref, est_ref, _ = tracker.update(copy.deepcopy(before), FAULT_MS, p, GEOM)
    nxt, est, marg = tracker.update(st_, FAULT_MS, p, GEOM)
    assert marg.p_b.shape[0] == len(FAULT_MS)
    assert est == est_ref
    assert_same_state(nxt, ref)


class TestFailedUpdateChangesNothing:
    @pytest.mark.parametrize("module,name", STAGES,
                             ids=[name for _, name in STAGES])
    def test_fault_in_each_stage(self, module, name, monkeypatch):
        # K = 2 with a rate belief and M = 3: a stage that raises, after
        # running to completion, leaves the input as it was, and the retry
        # equals an update that was never interrupted.
        p = params(J=200)
        st = tracker.predict(tracked_state(p, 5), p)
        before = copy.deepcopy(st)
        with monkeypatch.context() as mp:
            mp.setattr(module, name, raising(getattr(module, name)))
            with pytest.raises(Fault, match=name):
                tracker.update(st, FAULT_MS, p, GEOM)
        assert_unchanged(st, before)
        assert len(st.p_exist) == 2
        assert_retry_is_uninterrupted(st, before, p)

    def test_fault_before_the_rate_belief_exists(self, monkeypatch):
        # The first accepted measurements initialize the rate belief; a
        # fault after that draw leaves none and the generator as it was.
        p = params(J=200)
        st = tracker.init(p, GEOM, 5)
        before = copy.deepcopy(st)
        with monkeypatch.context() as mp:
            mp.setattr(tracker, "_build_proposals",
                       raising(tracker._build_proposals))
            with pytest.raises(Fault):
                tracker.update(st, FAULT_MS, p, GEOM)
        assert st.far is None
        assert_unchanged(st, before)
        assert_retry_is_uninterrupted(st, before, p)

    def test_predict_writes_nothing(self):
        # predict returns the next state and leaves every array of its
        # input, the rate belief's included, bit for bit as it was (the
        # generator, which the two states share, draws its noise).
        p = params(J=200, p_s=0.97, sigma_u_rel=0.3)
        st = tracked_state(p, 5)
        before = copy.deepcopy(st)
        nxt = tracker.predict(st, p)
        assert_unchanged(st, before, rng=False)
        assert nxt.step == st.step and nxt.far is not st.far
        assert not np.array_equal(nxt.particles, st.particles)

