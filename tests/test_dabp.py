"""Data-association tests: weight evaluation, loopy BP vs the exhaustive
enumeration oracle, tree exactness, scaling invariance and determinism."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from mpctrack import dabp, model, radio, tracker
from mpctrack.dabp import AssociationWeights, exhaustive_da_oracle, loopy_da
from mpctrack.model import HyperParams, Measurement

from conftest import packed, stacked

GEOM = radio.default_geometry()
PARAMS = HyperParams(J=200)


def random_instance(rng, K, M):
    beta = rng.uniform(0.1, 10.0, size=(K, M + 1))
    xi = np.ones((M, K + 1))
    xi[:, 0] = rng.uniform(0.1, 10.0, size=M)
    return AssociationWeights(beta=beta, xi=xi)


def tv_distance(p, q):
    return 0.5 * float(np.abs(p - q).sum(axis=1).max()) if len(p) else 0.0


class PointBelief:
    def __init__(self, state, p_exist, J=64):
        self.particles = np.tile(np.asarray(state, dtype=float), (J, 1))
        self.weights = np.full(J, 1.0 / J)
        self.p_exist = p_exist


class PointFar:
    def __init__(self, mu, J=64):
        self.particles = np.full(J, mu)
        self.weights = np.full(J, 1.0 / J)


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

class TestOracle:
    def test_two_term_enumeration(self):
        w = AssociationWeights(beta=np.array([[1.0, 2.0]]),
                               xi=np.array([[1.0, 1.0]]))
        out = exhaustive_da_oracle(w)
        assert out.p_a[0, 1] == pytest.approx(2.0 / 3.0)
        assert out.p_b[0, 1] == pytest.approx(2.0 / 3.0)

    def test_symmetry_two_tracks(self):
        w = AssociationWeights(beta=np.array([[1.0, 3.0], [1.0, 3.0]]),
                               xi=np.array([[1.0, 1.0, 1.0]]))
        out = exhaustive_da_oracle(w)
        assert out.p_a[0, 1] == pytest.approx(out.p_a[1, 1])

    def test_no_tracks(self):
        w = AssociationWeights(beta=np.zeros((0, 3)),
                               xi=np.ones((2, 1)))
        out = exhaustive_da_oracle(w)
        assert np.allclose(out.p_b[:, 0], 1.0)

    def test_too_large_raises(self):
        w = AssociationWeights(beta=np.ones((9, 2)), xi=np.ones((1, 10)))
        with pytest.raises(ValueError):
            exhaustive_da_oracle(w)

    def test_exclusion_is_enforced(self):
        # Two tracks, one measurement: joint weight of both claiming it is 0.
        w = AssociationWeights(beta=np.array([[1e-9, 1.0], [1e-9, 1.0]]),
                               xi=np.array([[1e-9, 1.0, 1.0]]))
        out = exhaustive_da_oracle(w)
        # p(a_1 = 1) + p(a_2 = 1) <= 1 because claims are exclusive.
        assert out.p_a[0, 1] + out.p_a[1, 1] <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Loopy BP
# ---------------------------------------------------------------------------

class TestLoopyDa:
    def test_rows_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            K, M = rng.integers(1, 6, size=2)
            w = random_instance(rng, int(K), int(M))
            out = loopy_da(w, 1000, 1e-9)
            assert np.allclose(out.p_a.sum(axis=1), 1.0, atol=1e-9)
            assert np.allclose(out.p_b.sum(axis=1), 1.0, atol=1e-9)
            assert np.all((out.p_a >= 0) & (out.p_a <= 1))

    @pytest.mark.parametrize("K,M", [(1, 1), (1, 4), (1, 7), (4, 1), (7, 1)])
    def test_tree_exactness(self, K, M):
        rng = np.random.default_rng(K * 100 + M)
        for _ in range(20):
            w = random_instance(rng, K, M)
            bp = loopy_da(w, 2000, 1e-12)
            ex = exhaustive_da_oracle(w)
            assert np.allclose(bp.p_a, ex.p_a, atol=1e-9)
            assert np.allclose(bp.p_b, ex.p_b, atol=1e-9)

    def test_loopy_close_to_oracle(self):
        # Loopy BP is exact on trees but only approximate on loopy
        # instances; arbitrary dense random weights occasionally deviate
        # by a few percent (the fixed point itself, not a convergence
        # issue). Gate the ensemble mean tightly and the worst case
        # loosely as a regression guard.
        rng = np.random.default_rng(7)
        tvs = []
        for _ in range(100):
            K, M = rng.integers(2, 4, size=2)
            w = random_instance(rng, int(K), int(M))
            bp = loopy_da(w, 5000, 1e-8)
            ex = exhaustive_da_oracle(w)
            tvs.append(max(tv_distance(bp.p_a, ex.p_a),
                           tv_distance(bp.p_b, ex.p_b)))
        assert float(np.mean(tvs)) < 0.02
        assert max(tvs) < 0.15

    def test_marginal_consistency(self):
        # p_a[k][m] and p_b[m][k] approximate the same joint marginal.
        rng = np.random.default_rng(3)
        for _ in range(50):
            K, M = rng.integers(1, 5, size=2)
            w = random_instance(rng, int(K), int(M))
            bp = loopy_da(w, 5000, 1e-10)
            for k in range(K):
                for m in range(M):
                    assert abs(bp.p_a[k, m + 1] - bp.p_b[m, k + 1]) < 0.02

    def test_scaling_invariance(self):
        rng = np.random.default_rng(11)
        w = random_instance(rng, 3, 3)
        base = loopy_da(w, 5000, 1e-10)
        scaled = AssociationWeights(beta=np.exp(w.log_beta)
                                    * np.array([[7.0], [0.01], [300.0]]),
                                    log_xi0=w.log_xi0)
        out = loopy_da(scaled, 5000, 1e-10)
        assert np.allclose(out.p_a, base.p_a, atol=1e-12)
        assert np.allclose(out.p_b, base.p_b, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        w = random_instance(rng, 4, 4)
        a = loopy_da(w, 5000, 1e-8)
        b = loopy_da(w, 5000, 1e-8)
        assert np.array_equal(a.p_a, b.p_a)
        assert np.array_equal(a.p_b, b.p_b)
        assert a.iterations_used == b.iterations_used

    def test_zero_row_flagged_uniform(self):
        w = AssociationWeights(beta=np.array([[0.0, 0.0, 0.0],
                                              [1.0, 2.0, 3.0]]),
                               xi=np.ones((2, 3)))
        out = loopy_da(w, 100, 1e-9)
        assert ("a", 0) in out.degenerate_rows
        assert np.allclose(out.p_a[0], 1.0 / 3.0)

    def test_empty_measurements(self):
        # With K = 2 and with K = 0; the empty message sets settle in the
        # first sweep.
        for K in (2, 0):
            w = AssociationWeights(beta=np.array([[0.3], [0.9]])[:K],
                                   xi=np.zeros((0, K + 1)))
            out = loopy_da(w, 100, 1e-9)
            assert np.allclose(out.p_a, 1.0)
            assert out.p_b.shape == (0, K + 1)
            assert out.converged and out.iterations_used == 1

    def test_no_tracks(self):
        w = AssociationWeights(beta=np.zeros((0, 3)), xi=np.ones((2, 1)))
        out = loopy_da(w, 100, 1e-9)
        assert out.p_a.shape == (0, 3)
        assert np.array_equal(out.p_b, np.ones((2, 1)))
        assert out.converged and out.iterations_used == 1

    def test_unequal_couplings_raise(self):
        # The measurement side carries one number per measurement; a matrix
        # whose coupling columns differ has no such form.
        with pytest.raises(ValueError, match="coupling"):
            AssociationWeights(beta=np.ones((2, 2)),
                               xi=np.array([[2.0, 1.0, 1.5]]))

    def test_matrix_form_reduces_to_one_number(self):
        # xi[m, 0] over the equal couplings: scaling a row leaves it.
        xi = np.array([[6.0, 2.0, 2.0], [1.0, 4.0, 4.0]])
        w = AssociationWeights(beta=np.ones((2, 3)), xi=xi)
        assert w.log_xi0.tobytes() == (np.log(xi[:, 0])
                                       - np.log(xi[:, 1])).tobytes()
        scaled = AssociationWeights(beta=np.ones((2, 3)),
                                    xi=xi * np.array([[7.0], [0.01]]))
        assert np.allclose(scaled.log_xi0, [math.log(3.0), math.log(0.25)],
                           rtol=0, atol=1e-15)
        assert not hasattr(w, "log_xi")

    def test_non_finite_xi0_flagged_uniform(self):
        w = AssociationWeights(log_beta=np.zeros((2, 3)),
                               log_xi0=np.array([np.inf, 0.5]))
        out = loopy_da(w, 100, 1e-9)
        assert ("b", 0) in out.degenerate_rows
        assert np.allclose(out.p_b[0], 1.0 / 3.0)

    def test_non_convergence_logs_one_warning(self, caplog):
        # P = 1 stops before the messages settle: one WARNING names K, M
        # and the iterations used; a run that converges logs nothing.
        w = random_instance(np.random.default_rng(8), 3, 4)
        with caplog.at_level("WARNING", logger="mpctrack.dabp"):
            out = loopy_da(w, 1, 1e-12)
            settled = loopy_da(w, 5000, 1e-10)
        records = [r for r in caplog.records if r.name == "mpctrack.dabp"]
        assert len(records) == 1 and records[0].levelname == "WARNING"
        assert "K=3 M=4 after 1 iterations" in records[0].getMessage()
        assert not out.converged and out.iterations_used == 1
        assert settled.converged and settled.iterations_used > 1

    def test_linear_and_log_construction_agree(self):
        # The linear weights are constructor arguments only: they are
        # stored as their logs, bit for bit, and the BP sees the same input.
        rng = np.random.default_rng(12)
        beta = rng.uniform(0.1, 10.0, size=(3, 5))
        beta[1, 2] = 0.0
        xi = np.ones((4, 4))
        xi[:, 0] = rng.uniform(0.1, 10.0, size=4)
        lin = AssociationWeights(beta=beta, xi=xi)
        with np.errstate(divide="ignore"):
            log = AssociationWeights(log_beta=np.log(beta), log_xi=np.log(xi))
        assert lin.log_beta.tobytes() == log.log_beta.tobytes()
        assert lin.log_xi0.tobytes() == log.log_xi0.tobytes()
        a, b = loopy_da(lin, 5000, 1e-10), loopy_da(log, 5000, 1e-10)
        assert a.p_a.tobytes() == b.p_a.tobytes()
        assert a.p_b.tobytes() == b.p_b.tobytes()

    def test_extreme_ratios_do_not_overflow(self):
        lb = np.array([[0.0, 900.0, -900.0]])
        lx = np.zeros((2, 2))
        w = AssociationWeights(beta=np.exp(np.minimum(lb, 700)),
                               xi=np.exp(lx), log_beta=lb, log_xi=lx)
        out = loopy_da(w, 1000, 1e-9)
        assert np.all(np.isfinite(out.p_a))
        assert out.p_a[0, 1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Weight evaluation
# ---------------------------------------------------------------------------

class TestEvaluateWeights:
    def test_empty_measurement_set(self):
        tr = PointBelief([5.0, 0.2, 8.0, 0.0, 0.0], 0.7)
        w = dabp.evaluate_weights(stacked([tr]), np.zeros(0),
                                  *packed([], PARAMS), PointFar(2.0), PARAMS,
                                  GEOM)
        assert np.exp(w.log_beta).shape == (1, 1)
        p_d = float(model.detection_prob(8.0, PARAMS.u_de, GEOM.n_eff,
                                         PARAMS.amp_mode))
        # Row scaling maps the only entry to 1; the cached log carries it.
        assert np.exp(w.log_beta)[0, 0] == pytest.approx(1.0)
        assert w.det_prob[0][0] == pytest.approx(p_d)

    def test_single_particle_closed_form(self):
        # Point mass exactly on the measurement, FAR fixed at 1 so the
        # 1/mu factor drops out; the amplitude is moderate so 1 - p_d is
        # representable and the whole row is hand-checkable.
        state = [5.0, 0.2, 4.0, 0.0, 0.0]
        z = Measurement(5.0, 0.2, 4.0)
        tr = PointBelief(state, 1.0)
        log_mass = np.array([0.0])
        far = PointFar(1.0)
        w = dabp.evaluate_weights(stacked([tr]), log_mass,
                                  *packed([z], PARAMS), far, PARAMS, GEOM)
        p_d = float(model.detection_prob(4.0, PARAMS.u_de, GEOM.n_eff,
                                         PARAMS.amp_mode))
        log_f = float(model.log_lik_matrix(
            [z], np.asarray([state], dtype=float), PARAMS, GEOM)[0, 0])
        log_fa = model.log_fa_density(z, PARAMS.u_de, PARAMS.d_max)
        # Unscaled entries: beta0 = 1 - p_d, beta1 = t p_d f/f_fa with t = 1.
        expect0 = 1.0 - p_d
        expect1 = p_d * math.exp(log_f - log_fa)
        ratio = np.exp(w.log_beta)[0, 0] / np.exp(w.log_beta)[0, 1]
        assert ratio == pytest.approx(expect0 / expect1, rel=1e-9)
        assert w.far_ratio == pytest.approx(1.0)

    def test_weights_are_stored_as_logs_only(self):
        tr = PointBelief([5.0, 0.2, 8.0, 0.0, 0.0], 0.5)
        z = Measurement(6.0, 0.0, 5.0)
        w = dabp.evaluate_weights(stacked([tr]), np.array([-1.0]),
                                  *packed([z], PARAMS), PointFar(2.0), PARAMS,
                                  GEOM)
        assert not hasattr(w, "beta") and not hasattr(w, "xi")
        assert w.log_beta.shape == (1, 2) and w.log_xi0.shape == (1,)

    def test_far_ratio_integrates_one_over_mu(self):
        tr = PointBelief([5.0, 0.2, 8.0, 0.0, 0.0], 0.5)
        z = Measurement(6.0, 0.0, 5.0)
        far = PointFar(2.5)
        w = dabp.evaluate_weights(stacked([tr]), np.array([-1.0]),
                                  *packed([z], PARAMS), far, PARAMS, GEOM)
        assert w.far_ratio == pytest.approx(1.0 / 2.5)

    def test_xi_coupling_convention(self):
        trs = [PointBelief([5.0, 0.2, 8.0, 0.0, 0.0], 0.5) for _ in range(3)]
        z = Measurement(6.0, 0.0, 5.0)
        w = dabp.evaluate_weights(stacked(trs), np.array([-1.0]),
                                  *packed([z], PARAMS), PointFar(2.0), PARAMS,
                                  GEOM)
        # The equal couplings leave one number per measurement: the matrix
        # form [xi0, 1, 1, 1] reduces to it.
        assert w.log_xi0.shape == (1,)
        xi = np.exp(np.column_stack([w.log_xi0, np.zeros((1, 3))]))
        assert np.allclose(AssociationWeights(beta=np.ones((3, 2)),
                                              xi=xi).log_xi0, w.log_xi0)

    def test_row_scaling_leaves_marginals_unchanged(self):
        rng = np.random.default_rng(2)
        trs = [PointBelief([rng.uniform(3, 10), rng.uniform(-1, 1),
                            rng.uniform(4, 20), 0, 0], 0.8)
               for _ in range(2)]
        zs = [Measurement(5.0, 0.5, 9.0), Measurement(8.0, -0.5, 6.0)]
        props = np.array([0.5, -0.5])
        w = dabp.evaluate_weights(stacked(trs), props, *packed(zs, PARAMS),
                                  PointFar(2.0), PARAMS, GEOM)
        out1 = loopy_da(w, 5000, 1e-10)
        xi = np.exp(np.column_stack([w.log_xi0, np.zeros((2, 2))]))
        w2 = AssociationWeights(beta=np.exp(w.log_beta) * 13.0, xi=xi * 0.03)
        out2 = loopy_da(w2, 5000, 1e-10)
        assert np.allclose(out1.p_a, out2.p_a, atol=1e-12)


# ---------------------------------------------------------------------------
# Linear-domain messages against a log-domain reference
# ---------------------------------------------------------------------------

def spread_belief(rng, center, J, p_exist, tid):
    """Particles scattered around center with non-uniform weights."""
    scale = np.array([0.01, 0.01, 0.3, 0.01, 0.002])
    parts = np.asarray(center, float) + scale * rng.standard_normal((J, 5))
    w = rng.exponential(1.0, J)
    return tracker.PmpcBelief(tid, 0, parts, w / w.sum(), p_exist)


def reference_log_beta(trs, zs, log_t, p):
    """evaluate_weights' log_beta from scipy's logsumexp over the
    detection-weighted log ratios, row-shifted to a zero maximum."""
    log_fa = np.array([model.log_fa_density(z, p.u_de, p.d_max) for z in zs])
    ref = np.empty((len(trs), len(zs) + 1))
    for k, tr in enumerate(trs):
        lr = model.log_lik_matrix(zs, tr.particles, p, GEOM, True) - log_fa
        p_d = model.detection_prob(tr.particles[:, 2], p.u_de, GEOM.n_eff,
                                   p.amp_mode)
        ref[k, 0] = math.log(1.0 - tr.p_exist
                             + tr.p_exist * np.sum(tr.weights * (1.0 - p_d)))
        ref[k, 1:] = log_t + math.log(tr.p_exist) + logsumexp(
            lr + np.log(tr.weights)[:, None], axis=0)
    return ref - ref.max(axis=1, keepdims=True)


def reference_legacy_update(tr, zs, log_nu_k, log_t, p):
    """_update_legacy's weights and existence probability in the log domain:
    psi(x) = 1 - P_d(x) + sum_m nu[m] t P_d(x) f(z_m|x) / f_fa(z_m)."""
    log_fa = np.array([model.log_fa_density(z, p.u_de, p.d_max) for z in zs])
    lr = model.log_lik_matrix(zs, tr.particles, p, GEOM, True) - log_fa
    p_d = model.detection_prob(tr.particles[:, 2], p.u_de, GEOM.n_eff,
                               p.amp_mode)
    with np.errstate(divide="ignore"):
        log_miss = np.log(1.0 - p_d)
    log_psi = np.logaddexp(log_miss,
                           logsumexp(lr + log_nu_k + log_t, axis=1))
    log_post = np.log(tr.weights) + log_psi
    log_s1 = math.log(tr.p_exist) + logsumexp(log_post)
    p_exist = 1.0 / (1.0 + math.exp(math.log(1.0 - tr.p_exist) - log_s1))
    return np.exp(log_post - logsumexp(log_post)), p_exist


class TestLinearDomainMessages:
    """evaluate_weights exponentiates each legacy log-ratio matrix once
    (rows scaled by their maxima c) and _update_legacy reuses it; both must
    agree with the log-domain sums they replace. The third track lies some
    10 m from every measurement, so its ratios only survive the row
    scaling: without c they underflow."""

    @pytest.mark.parametrize("mode", ["gauss", "exact"])
    def test_matches_log_domain_reference(self, mode):
        p = HyperParams(J=400, amp_mode=mode)
        rng = np.random.default_rng(17)
        zs = [Measurement(5.0, 0.2, 9.0), Measurement(5.02, 0.21, 8.6),
              Measurement(9.0, -1.0, 6.0)]
        centers = [([5.0, 0.2, 9.0, 0.0, 0.0], 0.9),
                   ([9.0, -1.0, 6.0, 0.0, 0.0], 0.6),
                   ([16.0, 2.8, 4.0, 0.0, 0.0], 0.7)]
        trs = [spread_belief(rng, c, p.J, q, k + 1)
               for k, (c, q) in enumerate(centers)]
        props = np.array([0.3, -1.0, 0.5])
        w = dabp.evaluate_weights(stacked(trs), props, *packed(zs, p),
                                  PointFar(2.0), p, GEOM)
        log_t = math.log(w.far_ratio)
        assert np.min(w.ratio[2]) < 1e-200

        assert np.all(np.isfinite(w.log_beta))
        assert w.log_beta == pytest.approx(
            reference_log_beta(trs, zs, log_t, p), rel=1e-12)

        log_nu = rng.normal(0.0, 1.0, (len(zs), len(trs)))
        st = stacked(trs)
        tracker._update_legacy(st, w, log_nu)
        for k, (tr, got) in enumerate(zip(trs, st.legacy)):
            want_w, want_p = reference_legacy_update(tr, zs, log_nu[:, k],
                                                     log_t, p)
            assert np.all(np.isfinite(got.weights))
            np.testing.assert_allclose(got.weights, want_w, rtol=1e-12, atol=0)
            assert got.p_exist == pytest.approx(want_p, rel=1e-12)
