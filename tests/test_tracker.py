"""Tracker tests: lifecycle, prediction, single-target oracles, resampling,
pruning, determinism and measurement-order invariance."""

import copy
import math
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpctrack import dabp, model, radio, tracker
from mpctrack.model import HyperParams, Measurement
from mpctrack.tracker import FarBelief, PmpcBelief

from conftest import packed, proposal_inputs, stacked

GEOM = radio.default_geometry()


def params(**kw):
    kw.setdefault("J", 400)
    return HyperParams(**kw)


def point_track(state, p_exist, J, tid=1):
    return PmpcBelief(tid, 0, np.tile(np.asarray(state, float), (J, 1)),
                      np.full(J, 1.0 / J), p_exist)


def point_far(mu, J):
    return FarBelief(np.full(J, float(mu)), np.full(J, 1.0 / J))


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
        tracker.update(st, ms, p, GEOM)
        assert np.allclose(st.far.particles, 1.0)  # M/2 with M = 2

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            tracker.init(params(p_s=1.5), GEOM, 0)


class TestPredict:
    def test_deterministic_advance(self):
        p = params(p_s=1.0, sigma_d=0.0, sigma_phi=0.0, sigma_u_rel=0.0)
        st = tracker.init(p, GEOM, 0)
        stacked([point_track([5.0, 0.0, 10.0, 1.0, 0.1], 0.5, p.J)], st)
        tracker.predict(st, p)
        assert np.allclose(st.legacy[0].particles[:, 0], 6.0)
        assert st.legacy[0].p_exist == pytest.approx(0.5)

    def test_death_branch(self):
        p = params(p_s=0.0)
        st = tracker.init(p, GEOM, 0)
        stacked([point_track([5.0, 0.0, 10.0, 0.0, 0.0], 0.9, p.J)], st)
        tracker.predict(st, p)
        assert st.legacy[0].p_exist == 0.0

    def test_existence_product(self):
        p = params(p_s=0.999)
        st = tracker.init(p, GEOM, 0)
        stacked([point_track([5.0, 0.0, 10.0, 0.0, 0.0], 0.8, p.J)], st)
        tracker.predict(st, p)
        assert st.legacy[0].p_exist == pytest.approx(0.7992)


class TestResample:
    def test_uniform_weights_preserved(self):
        rng = np.random.default_rng(0)
        b = point_track([1, 2, 3, 4, 5], 1.0, 8)
        b.particles = np.arange(40, dtype=float).reshape(8, 5)
        before = b.particles.copy()
        tracker.resample(b, 8, rng)
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
        tracker.resample(b, 10, rng)
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
        stacked([point_track([5.0, 0.3, 8.0, 0.0, 0.0], 0.9, p.J)], st)
        st.far = point_far(2.0, p.J)
        est = tracker.estimate(st, p)
        t = est.detected[0]
        assert (t.d, t.phi, t.u) == pytest.approx((5.0, 0.3, 8.0))
        assert t.sigma_d == pytest.approx(0.0)
        assert est.mu_fa_mmse == pytest.approx(2.0)

    def test_weighted_mean(self):
        p = params()
        st = tracker.init(p, GEOM, 0)
        b = point_track([0, 0, 0, 0, 0], 0.9, 2)
        b.particles = np.array([[4.0, 0.1, 5.0, 0, 0], [8.0, 0.1, 5.0, 0, 0]])
        b.weights = np.array([0.25, 0.75])
        stacked([b], st)
        est = tracker.estimate(st, p)
        assert est.detected[0].d == pytest.approx(7.0)

    def test_detection_strictly_above_threshold(self):
        p = params(p_de=0.5)
        st = tracker.init(p, GEOM, 0)
        stacked([point_track([5, 0, 8, 0, 0], 0.5, p.J, tid=1),
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
        b.weights = np.array([0.5, 0.5])
        stacked([b], st)
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
        stacked([point_track([5.0, 0.3, 2.5, 0.0, 0.0], 0.8, p.J)], st)
        st.far = point_far(2.0, p.J)
        p_d = float(model.detection_prob(2.5, p.u_de, GEOM.n_eff, p.amp_mode))
        tracker.update(st, [], p, GEOM)
        expect = 0.8 * (1 - p_d) / (1 - 0.8 * p_d)
        assert st.legacy[0].p_exist == pytest.approx(expect, abs=1e-6)

    @pytest.mark.parametrize("z_off,q", [(0.0, 0.5), (0.05, 0.8), (0.4, 0.2)])
    def test_single_measurement_update(self, z_off, q):
        p = params()
        st = tracker.init(p, GEOM, 42)
        state = [5.0, 0.3, 4.0, 0.0, 0.0]
        stacked([point_track(state, q, p.J)], st)
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
        tracker.update(st, [z], p, GEOM)
        got = [tr.p_exist for tr in st.legacy if tr.id == 1]
        assert got and got[0] == pytest.approx(expect, abs=1e-6)

    def test_negligible_birth_variant(self):
        # With mu_n ~ 0 the closed form needs nothing from the
        # implementation at all.
        p = params(mu_n=1e-12)
        st = tracker.init(p, GEOM, 0)
        state = [5.0, 0.3, 4.0, 0.0, 0.0]
        q, mu0 = 0.6, 1.5
        stacked([point_track(state, q, p.J)], st)
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
        tracker.update(st, [z], p, GEOM)
        assert st.legacy[0].p_exist == pytest.approx(expect, abs=1e-6)

    def test_strong_association_marginal(self):
        p = params()
        st = tracker.init(p, GEOM, 0)
        stacked([point_track([5.0, 0.3, 30.0, 0.0, 0.0], 0.8, p.J)], st)
        st.far = point_far(2.0, p.J)
        before = st.legacy[0].p_exist
        _, _, marg = tracker.update(st, [Measurement(5.0, 0.3, 30.0)], p,
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
            tracker.update(st, [Measurement(5.0, 0.0, 0.5)], p, GEOM)
        assert "rejecting measurement" in caplog.text
        assert st.far is None  # nothing survived; no initialization

    def test_new_tracks_get_fresh_ids(self):
        p = params()
        st = tracker.init(p, GEOM, 0)
        tracker.update(st, [Measurement(5.0, 0.0, 30.0)], p, GEOM)
        tracker.update(st, [Measurement(9.0, 1.0, 30.0)], p, GEOM)
        ids = [t.id for t in st.legacy]
        assert len(ids) == len(set(ids))
        assert all(i >= 1 for i in ids)

    def test_survivor_order_and_ids(self):
        # Surviving legacy tracks keep their order, then the surviving new
        # tracks follow in canonical measurement order with consecutive ids
        # from next_id. Track 2 is pruned, and so are some new tracks.
        p = params(J=300)
        st = tracker.init(p, GEOM, 7)
        stacked([point_track([5.0, 0.1, 12.0, 0, 0], 0.9, p.J, tid=4),
                 point_track([9.0, -1.0, 2.5, 0, 0], 2e-4, p.J, tid=2),
                 point_track([12.0, 2.0, 10.0, 0, 0], 0.8, p.J, tid=3)], st)
        st.next_id = 7
        st.far = point_far(2.0, p.J)
        ms = burst(10, 3) + [Measurement(5.0, 0.1, 12.0),
                             Measurement(12.0, 2.0, 10.0)]
        canonical = sorted(ms, key=lambda z: (z.z_d, z.z_phi, z.z_u))
        tracker.update(st, ms[::-1], p, GEOM)
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
        stacked([point_track([5, 0, 2.5, 0, 0], 2e-4, p.J, tid=1),
                 point_track([9, 1, 2.5, 0, 0], 0.9, p.J, tid=2)], st)
        st.far = point_far(2.0, p.J)
        tracker.update(st, [], p, GEOM)
        assert [t.id for t in st.legacy] == [2]
        assert st.legacy[0].p_exist >= p.p_pr

    def test_existence_decays_without_measurements(self):
        p = params(p_s=0.99)
        st = tracker.init(p, GEOM, 0)
        stacked([point_track([5.0, 0.3, 3.0, 0.0, 0.0], 0.95, p.J)], st)
        st.far = point_far(2.0, p.J)
        history = [st.legacy[0].p_exist]
        for _ in range(8):
            tracker.predict(st, p)
            tracker.update(st, [], p, GEOM)
            if not st.legacy:
                break
            history.append(st.legacy[0].p_exist)
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_weights_normalized_and_p_exist_in_range(self):
        p = params()
        rng = np.random.default_rng(0)
        st = tracker.init(p, GEOM, 3)
        for step in range(10):
            tracker.predict(st, p)
            ms = [Measurement(rng.uniform(2, 15), rng.uniform(-3, 3),
                              math.sqrt(p.u_de) + rng.exponential(2.0))
                  for _ in range(rng.poisson(3))]
            tracker.update(st, ms, p, GEOM)
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
                tracker.predict(st, p)
                _, est, _ = tracker.update(st, ms, p, GEOM)
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
            tracker.predict(st, p)
            _, est, _ = tracker.update(st, [ms[i] for i in order], p, GEOM)
            return est

        a = run([0, 1, 2])
        b = run([2, 0, 1])
        assert a == b


class TestInputGate:
    GOOD = Measurement(5.0, 0.1, 12.0)

    def stepped(self, ms):
        p = params(J=100)
        st = tracker.init(p, GEOM, 9)
        stacked([point_track([5.0, 0.1, 12.0, 0.0, 0.0], 0.9, p.J),
                 point_track([9.0, -1.0, 7.0, 0.0, 0.0], 0.6, p.J, tid=2)], st)
        st.far = point_far(2.0, p.J)
        tracker.predict(st, p)
        _, est, _ = tracker.update(st, ms, p, GEOM)
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
        assert np.array_equal(st_bad.far.particles, st_ok.far.particles)
        assert st_bad.rng.random() == st_ok.rng.random()

    @pytest.mark.parametrize("z_u", [1e148, 1e160])
    def test_huge_amplitude_rejected(self, z_u, caplog):
        # At 1e148 both variances round to 0 (their denominators overflow),
        # and at 1e160 the clutter density's z_u**2 overflows too: the gate
        # tests the standard deviations first and rejects the measurement,
        # and the update is the one without it.
        with caplog.at_level("WARNING", logger="mpctrack.tracker"):
            st_bad, est_bad = self.stepped([self.GOOD,
                                            Measurement(5.0, 0.3, z_u)])
        records = [r for r in caplog.records if r.name == "mpctrack.tracker"]
        assert len(records) == 1
        assert records[0].getMessage().startswith("rejecting")
        st_ok, est_ok = self.stepped([self.GOOD])
        assert est_bad == est_ok
        for f in ("particles", "weights", "p_exist", "ids", "birth_steps"):
            assert np.array_equal(getattr(st_bad, f), getattr(st_ok, f))
        assert (st_bad.step, st_bad.next_id) == (st_ok.step, st_ok.next_id)
        assert np.array_equal(st_bad.far.particles, st_ok.far.particles)
        assert np.array_equal(st_bad.far.weights, st_ok.far.weights)
        assert st_bad.rng.bit_generator.state == st_ok.rng.bit_generator.state


def counted_update(monkeypatch, name, p, scalar_only=False):
    """One update with K = 2 legacy tracks and M = 3 accepted measurements
    (the fourth is below the detection threshold), counting the calls of
    model.<name> (with scalar_only, only those whose first argument is a
    scalar); returns (calls, shapes, K, M). Each call records whether the
    new-track proposals made it; shapes[i] is the shape of call i's second
    argument."""
    calls, shapes = [], []
    kernel = getattr(model, name)

    def counting(*args, **kwargs):
        if not (scalar_only and np.ndim(args[0])):
            callers = {frame.name for frame in traceback.extract_stack()}
            calls.append("_build_proposals" in callers)
            shapes.append(np.shape(args[1]) if len(args) > 1 else None)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(model, name, counting)
    st = tracker.init(p, GEOM, 0)
    stacked([point_track([5.0, 0.1, 12.0, 0.0, 0.0], 0.9, p.J),
             point_track([9.0, -1.0, 7.0, 0.0, 0.0], 0.6, p.J, tid=2)], st)
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
    assert len(calls) == 2
    assert sum(calls) == 1
    assert [s for c, s in zip(calls, shapes) if c] == [(p.J, M, 5)]
    assert [s for c, s in zip(calls, shapes) if not c] == [(K * p.J, 5)]


def test_log_fa_density_calls_per_update(monkeypatch):
    # update's gate scores the clutter density of each finite measurement
    # offered once (the below-threshold one too, which that rejects) and
    # hands the (M,) array to the proposals and the association weights.
    calls, _, K, M = counted_update(monkeypatch, "log_fa_density",
                                    params(J=100))
    assert len(calls) == M + 1
    assert not any(calls)


@pytest.mark.parametrize("name", ["sigma_d_sq", "sigma_phi_sq"])
def test_variance_calls_per_update(monkeypatch, name):
    # update's gate computes each finite measurement's distance and angle
    # standard deviations once, by scalar calls, and hands them to the
    # proposals, which make none of their own (log_lik_matrix's array calls
    # on the particles are not counted).
    calls, _, K, M = counted_update(monkeypatch, name, params(J=100),
                                    scalar_only=True)
    assert len(calls) == M + 1
    assert not any(calls)


def test_marcum_q1_calls_per_update_exact(monkeypatch):
    # In "exact" mode the Rician tail P_d is evaluated once for the legacy
    # stack (its missed-detection terms) and once for all proposals (the
    # normalizer of their likelihood); the legacy likelihoods are
    # detection-weighted, so P_d cancels there.
    calls, _, K, M = counted_update(monkeypatch, "marcum_q1",
                                    params(J=100, amp_mode="exact"))
    assert len(calls) == 2
    assert sum(calls) == 1


def test_log_detection_prob_calls_per_update_gauss(monkeypatch):
    calls, _, K, M = counted_update(monkeypatch, "log_detection_prob",
                                    params(J=100, amp_mode="gauss"))
    assert len(calls) == 1
    assert all(calls)


@pytest.mark.parametrize("n_meas", [0, 1])
def test_legacy_without_far_belief_raises(n_meas):
    # Legacy components imply a false-alarm-rate belief; a state without one
    # is refused before anything in it changes.
    p = params(J=50)
    st = tracker.init(p, GEOM, 0)
    stacked([point_track([5.0, 0.1, 12.0, 0.0, 0.0], 0.9, p.J)], st)
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


class TestBatchedProposals:
    @pytest.mark.parametrize("mode", ["gauss", "exact"])
    @pytest.mark.parametrize("M", [1, 3, 200])
    def test_batch_equals_one_at_a_time(self, M, mode):
        # The batch draws in the same order as building each proposal alone
        # from one continuing rng, and computes the same floats.
        p = params(J=2000, amp_mode=mode)
        ms = burst(M, M)
        rng_batch, rng_one = (np.random.default_rng(5) for _ in range(2))
        particles, weights, log_mass = tracker._build_proposals(
            *proposal_inputs(ms, p, GEOM), p, GEOM, rng_batch)
        alone = [tracker._build_proposals(*proposal_inputs([z], p, GEOM), p,
                                          GEOM, rng_one) for z in ms]
        assert rng_batch.bit_generator.state == rng_one.bit_generator.state
        assert particles.shape[1] == len(alone) == M
        assert weights.shape == (M, p.J) and log_mass.shape == (M,)
        for m, (x, w, lm) in enumerate(alone):
            assert particles[:, m].shape == (5, p.J)
            assert np.array_equal(particles[:, m], x[:, 0])
            assert np.array_equal(weights[m], w[0])
            assert log_mass[m] == lm[0]
        # The near-threshold measurement's redraws consumed extra normals.
        plain = np.random.default_rng(5)
        plain.standard_normal(5 * M * p.J)
        assert plain.bit_generator.state != rng_batch.bit_generator.state
        assert np.all(particles[2, 0] > 0.0)

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
        stacked([point_track([5.0, 0.1, 12.0, 0.0, 0.0], 0.9, p.J),
                 point_track([9.0, -1.0, 7.0, 0.0, 0.0], 0.6, p.J, tid=2)], st)
        st.far = point_far(2.0, p.J)
        tracker.predict(st, p)
        _, est, marg = tracker.update(st, burst(200, 200), p, GEOM)
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
        stacked([point_track([5.0, 0.1, 12.0, 0.0, 0.0], 0.9, p.J),
                 point_track([9.0, -1.0, 2.5, 0.0, 0.0], 2e-4, p.J, tid=2)],
                st)
        st.far = point_far(2.0, p.J)
        tracker.predict(st, p)
        calls, rows = [], []
        kernel, row_kernel = tracker.resample, tracker._systematic

        def counting(*args):
            calls.append(args[0])
            return kernel(*args)

        def counting_rows(*args):
            rows.append(args[0])
            return row_kernel(*args)

        with monkeypatch.context() as mp:
            mp.setattr(tracker, "resample", counting)
            mp.setattr(tracker, "_systematic", counting_rows)
            tracker.update(st, burst(8, 3), p, GEOM)
        return st, calls, rows

    st, calls, rows = stepped(HyperParams().p_pr)
    st_all, calls_all, rows_all = stepped(0.0)
    assert len(st_all.legacy) == 2 + 8
    assert len(st.legacy) < len(st_all.legacy)
    assert len(rows) == len(st.legacy) + 1
    assert len(rows_all) == len(st_all.legacy) + 1
    assert len(calls) == len(calls_all) == 1
    assert calls[-1] is st.far
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
    stacked([point_track(x + [0.0, 0.0], 0.9, p.J, tid=i + 1)
             for i, x in enumerate(TRUTH)], st_)
    st_.next_id = len(TRUTH) + 1
    st_.far = point_far(1.0, p.J)
    return st_


def assert_finite_state(st_):
    for tr in st_.legacy:
        assert np.all(np.isfinite(tr.particles))
        assert np.all(np.isfinite(tr.weights))
        assert 0.0 <= tr.p_exist <= 1.0
    assert np.all(np.isfinite(st_.far.particles))
    assert np.all(st_.far.particles > 0.0)
    assert np.all(st_.far.weights > 0.0)
    assert np.isclose(st_.far.weights.sum(), 1.0)


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
            tracker.predict(st_, p)
            _, est, _ = tracker.update(st_, batch, p, GEOM)
            return st_, est

        (st_a, est_a), (st_b, est_b) = stepped(ms), stepped(permuted)
        assert est_a == est_b
        assert st_a.rng.bit_generator.state == st_b.rng.bit_generator.state
        assert len(st_a.legacy) == len(st_b.legacy)
        for a, b in zip(st_a.legacy, st_b.legacy):
            assert np.array_equal(a.particles, b.particles)
            assert a.p_exist == b.p_exist
        assert np.array_equal(st_a.far.particles, st_b.far.particles)

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
            tracker.predict(st_, p)
            _, est, marg = tracker.update(st_, [], p, GEOM)
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
            tracker.predict(st_, p)
            _, est, _ = tracker.update(
                st_, truth_measurements(p, rng) + clutter(1, p, rng), p, GEOM)
        assert est.nom_hat == len(TRUTH)
        tracker.predict(st_, p)
        burst_ms = truth_measurements(p, rng) + clutter(298, p, rng)
        _, _, marg = tracker.update(st_, burst_ms, p, GEOM)
        assert marg.p_b.shape[0] == 300
        assert_finite_state(st_)
        tentative = len(st_.legacy)
        assert tentative > 10 * len(TRUTH)
        for _ in range(20):
            tracker.predict(st_, p)
            _, est, _ = tracker.update(
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
        assert ta.weights.tobytes() == tb.weights.tobytes()
        assert ta.p_exist == tb.p_exist
    assert a.far.particles.tobytes() == b.far.particles.tobytes()
    assert a.far.weights.tobytes() == b.far.weights.tobytes()
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
            tracker.predict(st_, p)
            _, est, _ = tracker.update(st_, ms, p, GEOM)
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
                tracker.predict(st_, p)
                ms = truth_measurements(p, rng) + clutter(1, p, rng)
                if inject and step == 0:
                    ms = injected(data, ms)
                _, est, _ = tracker.update(st_, ms, p, GEOM)
                assert math.isfinite(est.mu_fa_mmse)
                for t in est.all_tracks:
                    assert all(map(math.isfinite, (
                        t.d, t.phi, t.u, t.sigma_d, t.sigma_phi, t.p_exist)))
                counts.append(est.nom_hat)
            assert_finite_state(st_)
            return counts

        assert run(True) == run(False)


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
    """Per-track motion model on one (J, 5) particle set."""
    dt = params.delta_t
    d, phi, u, v_d, v_phi = particles.T
    eps = rng.standard_normal((particles.shape[0], 3))
    eps[:, 0] *= params.sigma_d
    eps[:, 1] *= params.sigma_phi
    eps[:, 2] *= params.sigma_u_rel * u
    return np.stack([d + dt * v_d + dt**2 / 2 * eps[:, 0],
                     model.wrap_angle(phi + dt * v_phi + dt**2 / 2 * eps[:, 1]),
                     np.maximum(u + eps[:, 2], 0.0),
                     v_d + dt * eps[:, 0],
                     v_phi + dt * eps[:, 1]], axis=1)


def oracle_predict(beliefs, far, params, rng):
    for tr in beliefs:
        tr.p_exist *= params.p_s
        tr.particles = oracle_propagate(tr.particles, params, rng)
    if far is not None:
        step = params.sigma_fa * rng.standard_normal(far.particles.shape)
        far.particles = model.reflect_positive(far.particles + step)


def oracle_legacy_weights(beliefs, ms, far, params):
    """Per-track det_prob, ratio matrices R, row scales c and unshifted
    log_beta of evaluate_weights."""
    K, M = len(beliefs), len(ms)
    log_n = (-far.particles + M * np.log(far.particles)) / (K + M)
    log_w = np.log(np.maximum(far.weights, 1e-300))
    log_t = model.log_sum_exp(log_n - np.log(far.particles) + log_w) \
        - model.log_sum_exp(log_n + log_w)
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
        miss = (1.0 - tr.p_exist) \
            + tr.p_exist * float(np.sum(tr.weights * (1.0 - p_d)))
        log_beta[k, 0] = np.log(max(miss, 1e-300))
        if M and tr.p_exist > 0.0:
            with np.errstate(divide="ignore"):
                log_beta[k, 1:] = (log_t + np.log(tr.p_exist)
                                   + np.log(lr @ tr.weights) + c)
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
    log_s1 = math.log(tr.p_exist) + model.log_sum_exp(log_lw + log_psi) \
        if tr.p_exist > 0.0 else -np.inf
    log_s0 = math.log(1.0 - tr.p_exist) if tr.p_exist < 1.0 else -np.inf
    if log_s1 == -np.inf and log_s0 == -np.inf:
        tr.p_exist = 0.0
    else:
        gap = min(log_s0 - log_s1, 700.0) if log_s1 > -np.inf else np.inf
        tr.p_exist = 0.0 if gap == np.inf else 1.0 / (1.0 + math.exp(gap))
    with np.errstate(invalid="ignore"):
        new_w = np.exp(log_lw + log_psi - np.max(log_lw + log_psi)) \
            if np.any(np.isfinite(log_psi)) else np.ones_like(tr.weights)
    tr.weights = new_w / new_w.sum()


def oracle_summary(tr):
    w, p = tr.weights, tr.particles
    d = float(np.sum(w * p[:, 0]))
    u = float(np.sum(w * p[:, 2]))
    phi = float(np.arctan2(np.sum(w * np.sin(p[:, 1])),
                           np.sum(w * np.cos(p[:, 1]))))
    sigma_d = float(np.sqrt(max(np.sum(w * (p[:, 0] - d) ** 2), 0.0)))
    dphi = model.ang_diff(p[:, 1], phi)
    sigma_phi = float(np.sqrt(max(np.sum(w * dphi * dphi), 0.0)))
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


def random_beliefs(rng, K, J, zero_weights=True):
    """K beliefs with scattered particles, amplitude clouds near the
    detection threshold and angle clouds straddling +-pi (every third
    belief), non-uniform weights with some exact zeros, and existence
    probabilities including 0 and 1."""
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
        if zero_weights:
            w[rng.random(J) < 0.2] = 0.0
        q = (0.0, 1.0, 0.5)[k] if k < 3 and K > 3 else rng.uniform(0.01, 1.0)
        out.append(PmpcBelief(k + 1, k, parts, w / w.sum(), q))
    return out


def assert_rows_equal(state, beliefs):
    assert [tr.id for tr in state.legacy] == [tr.id for tr in beliefs]
    assert [tr.birth_step for tr in state.legacy] \
        == [tr.birth_step for tr in beliefs]
    for got, want in zip(state.legacy, beliefs):
        assert got.particles.tobytes() == want.particles.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.p_exist == want.p_exist


STACK_SIZES = [(K, J) for K in (1, 4, 12) for J in (1000, 10000)]


class TestStackedEqualsPerTrack:
    @pytest.mark.parametrize("K,J", STACK_SIZES)
    def test_predict(self, K, J):
        p = params(J=J, p_s=0.97, sigma_u_rel=0.3)
        beliefs = random_beliefs(np.random.default_rng(K * J), K, J)
        st = stacked(copy.deepcopy(beliefs), tracker.init(p, GEOM, 5))
        st.far = point_far(2.0, J)
        far = copy.deepcopy(st.far)
        rng = np.random.default_rng(5)
        tracker.predict(st, p)
        oracle_predict(beliefs, far, p, rng)
        assert_rows_equal(st, beliefs)
        assert st.far.particles.tobytes() == far.particles.tobytes()
        assert st.rng.bit_generator.state == rng.bit_generator.state

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
        far = FarBelief(rng.uniform(0.5, 4.0, J), np.full(J, 1.0 / J))
        w = dabp.evaluate_weights(st, np.zeros(len(ms)), *packed(ms, p), far,
                                  p, GEOM)
        det_prob, ratio, scale, log_beta = oracle_legacy_weights(
            beliefs, ms, far, p)
        assert w.det_prob.tobytes() == np.array(det_prob).tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(w.ratio, ratio))
        assert w.ratio_log_scale.tobytes() == np.array(scale).tobytes()
        shift = np.max(log_beta, axis=1, keepdims=True)
        assert w.log_beta.tobytes() == (log_beta - shift).tobytes()

        log_nu = rng.normal(0.0, 1.0, (len(ms), K))
        tracker._update_legacy(st, w, log_nu)
        for k, tr in enumerate(beliefs):
            oracle_update_legacy(tr, w, k, log_nu)
        assert_rows_equal(st, beliefs)

    @pytest.mark.parametrize("K,J", STACK_SIZES)
    def test_survivors(self, K, J):
        # Legacy rows with p_exist 0 and NaN and new rows below p_pr are
        # pruned; the rest are resampled from one uniform each.
        p = params(J=J, p_pr=0.05)
        rng = np.random.default_rng(7 * K + J)
        legacy = random_beliefs(rng, K, J)
        new = random_beliefs(rng, 5, J, zero_weights=False)
        legacy[-1].p_exist = math.nan
        p_new = [1e-3, 0.5, math.nan, 0.9, 0.05]
        for tr, q in zip(new, p_new):
            tr.p_exist = q
        st = stacked(copy.deepcopy(legacy), tracker.init(p, GEOM, 11))
        st.step, st.next_id = 9, 40
        X = np.stack([tr.particles.T for tr in new], axis=1)
        tracker._prune_and_resample(st, X, np.array([tr.weights for tr in new]),
                                    p_new, p)
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
    def test_zero_to_n_to_zero(self):
        # An empty (5, 0, J) stack runs through predict, update and
        # estimate; births fill it from empty, a step that prunes every row
        # empties it again, and ids continue across.
        p = params(J=300)
        st = tracker.init(p, GEOM, 21)
        assert st.particles.shape == (5, 0, p.J)
        assert st.weights.shape == (0, p.J)
        tracker.predict(st, p)
        _, est, _ = tracker.update(st, [], p, GEOM)
        assert st.particles.shape == (5, 0, p.J) and est.all_tracks == []

        ms = [Measurement(5.0, 0.3, 30.0), Measurement(9.0, -2.0, 25.0)]
        tracker.predict(st, p)
        _, est, _ = tracker.update(st, ms, p, GEOM)
        K = len(st.p_exist)
        assert K == 2 and st.particles.shape == (5, K, p.J)
        assert st.ids.tolist() == [1, 2] and st.next_id == 3
        assert st.birth_steps.tolist() == [st.step] * K
        assert [t.id for t in est.all_tracks] == [1, 2]

        st.p_exist[:] = 1e-9
        tracker.predict(st, p)
        _, est, _ = tracker.update(st, [], p, GEOM)
        assert st.particles.shape == (5, 0, p.J)
        assert st.weights.shape == (0, p.J)
        assert st.p_exist.shape == st.ids.shape == st.birth_steps.shape \
            == (0,)
        assert st.legacy == [] and est.all_tracks == [] and est.nom_hat == 0

        tracker.predict(st, p)
        tracker.update(st, [Measurement(12.0, 1.0, 30.0)], p, GEOM)
        assert st.ids.tolist() == [3] and st.next_id == 4
