"""Scenario construction constraints, serialization round trips, and the
statistical properties of fully synthetic measurement generation."""

import json
import math

import numpy as np
import pytest
from scipy import stats

from mpctrack import model, radio, synth
from mpctrack.model import HyperParams
from mpctrack.scenario import (Scenario, desk_scenario, get_scenario,
                               paper_scenario, pipeline_scenario)

GEOM = radio.default_geometry()


class TestPaperScenario:
    def setup_method(self):
        self.scn = paper_scenario("standard")

    def test_shape(self):
        assert self.scn.steps == 364
        assert len(self.scn.tracks) == 7
        assert len(self.scn.far_profile) == 364

    def test_far_ramp_endpoints(self):
        assert self.scn.far_profile[0] == pytest.approx(1.5)
        assert self.scn.far_profile[363] == pytest.approx(3.0)
        assert np.all(np.diff(self.scn.far_profile) >= 0)

    def test_distance_intersection_at_83(self):
        truth = self.scn.truth_arrays(83)
        d = np.sort(truth[:, 0])
        gaps = np.diff(d)
        assert gaps.min() < 0.01  # two tracks share a distance

    def test_amplitude_intersection_at_83(self):
        truth = self.scn.truth_arrays(83)
        order = np.argsort(truth[:, 0])
        d = truth[order, 0]
        u = truth[order, 2]
        i = int(np.argmin(np.diff(d)))
        assert abs(u[i] - u[i + 1]) / max(u[i], u[i + 1]) < 0.01

    def test_angle_intersection_at_125(self):
        truth = self.scn.truth_arrays(125)
        phi = np.sort(truth[:, 1])
        assert np.diff(phi).min() < math.radians(0.5)

    def test_lifetimes_differ_and_fit(self):
        spans = {(t.birth_step, t.death_step) for t in self.scn.tracks}
        assert len(spans) > 1
        for t in self.scn.tracks:
            assert 0 <= t.birth_step <= t.death_step <= 363
            assert t.states.shape == (t.death_step - t.birth_step + 1, 5)

    def test_distances_within_region(self):
        for t in self.scn.tracks:
            assert np.all(t.states[:, 0] > 0)
            assert np.all(t.states[:, 0] < 17.0)
            assert np.all(t.states[:, 2] > 0)

    def test_pathloss_with_reflection_attenuation(self):
        # The strongest track at equal distance should be the lowest
        # reflection order; amplitudes scale as 1/d within a track.
        t = self.scn.tracks[0]
        d, u = t.states[:, 0], t.states[:, 2]
        assert np.allclose(u * d, u[0] * d[0], rtol=1e-9)

    def test_fast_far_variant(self):
        scn = paper_scenario("fast_far")
        assert len(np.unique(scn.far_profile)) <= 8
        assert np.any(np.abs(np.diff(scn.far_profile)) > 1.0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            paper_scenario("bogus")


class TestDeskScenario:
    def test_three_separated_tracks(self):
        scn = desk_scenario()
        assert scn.steps == 100 and len(scn.tracks) == 3
        for step in (0, 50, 99):
            truth = scn.truth_arrays(step)
            d = np.sort(truth[:, 0])
            assert np.diff(d).min() > 1.0
            assert truth[:, 2].min() > 20.0

    def test_fast_far_profile_steps(self):
        scn = desk_scenario("fast_far")
        changes = np.flatnonzero(np.diff(scn.far_profile) != 0)
        assert len(changes) == 2
        assert np.abs(np.diff(scn.far_profile)[changes]).min() >= 1.0


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        scn = desk_scenario()
        path = tmp_path / "scn.json"
        scn.save(path)
        back = Scenario.load(path)
        assert back.steps == scn.steps
        assert back.u_de == scn.u_de
        assert np.array_equal(back.far_profile, scn.far_profile)
        for a, b in zip(back.tracks, scn.tracks):
            assert (a.birth_step, a.death_step) == (b.birth_step, b.death_step)
            assert np.array_equal(a.states, b.states)
        # serialize again: byte-identical
        assert back.to_json() == scn.to_json()

    def test_schema_version_checked(self):
        scn = desk_scenario()
        bad = scn.to_json().replace('"schema_version": 1',
                                    '"schema_version": 99')
        with pytest.raises(ValueError):
            Scenario.from_json(bad)

    @pytest.mark.parametrize("key,edit", [
        ("steps", lambda doc: doc.pop("steps")),
        ("steps", lambda doc: doc.update(steps=100.0)),
        ("tracks", lambda doc: doc.update(tracks=5)),
        ("birth_step", lambda doc: doc["tracks"][0].pop("birth_step")),
        ("death_step", lambda doc: doc["tracks"][1].update(death_step="99")),
        ("states", lambda doc: doc["tracks"][2].pop("states")),
        ("states", lambda doc: doc["tracks"][0]["states"].pop()),
        ("states", lambda doc: doc["tracks"][0]["states"][3].pop()),
        ("states", lambda doc: doc["tracks"][0].update(states="x")),
        ("states", lambda doc: doc["tracks"][1]["states"][5].__setitem__(
            0, None)),
        ("far_profile", lambda doc: doc["far_profile"].pop()),
        ("far_profile", lambda doc: doc["far_profile"].__setitem__(0, "x")),
        # A numeric string or a boolean is no number.
        ("far_profile", lambda doc: doc["far_profile"].__setitem__(1, "2.5")),
        ("far_profile", lambda doc: doc["far_profile"].__setitem__(1, True)),
        ("states", lambda doc: doc["tracks"][0]["states"][2].__setitem__(
            1, False)),
        ("u_de", lambda doc: doc.update(u_de=None)),
        ("seed", lambda doc: doc.update(seed=True)),
        # Well-typed but out of range: the run could not use them.
        pytest.param("steps", lambda doc: doc.update(steps=0),
                     id="steps-zero"),
        pytest.param("far_profile",
                     lambda doc: doc["far_profile"].__setitem__(4, -1.0),
                     id="far_profile-negative"),
        pytest.param("u_de", lambda doc: doc.update(u_de=-1.0),
                     id="u_de-negative"),
        pytest.param("u_de", lambda doc: doc.update(u_de=0), id="u_de-zero"),
    ])
    def test_malformed_document_names_the_key(self, key, edit):
        doc = json.loads(desk_scenario().to_json())
        edit(doc)
        with pytest.raises(ValueError, match=repr(key)):
            Scenario.from_json(json.dumps(doc))

    def test_zero_false_alarm_rate_is_valid(self):
        doc = json.loads(desk_scenario().to_json())
        doc["far_profile"][0] = 0.0
        assert Scenario.from_json(json.dumps(doc)).far_profile[0] == 0.0

    def test_non_object_document_rejected(self):
        with pytest.raises(ValueError, match="object"):
            Scenario.from_json("[1, 2]")

    def test_get_scenario_builtin_and_path(self, tmp_path):
        assert get_scenario("desk").steps == 100
        p = tmp_path / "s.json"
        pipeline_scenario().save(p)
        assert get_scenario(str(p)).steps == 50


class TestSynthMeasurements:
    def setup_method(self):
        self.params = HyperParams()
        self.scn = desk_scenario()

    def test_noiseless_exact(self):
        # Forcing detection and removing noise reproduces the truth.
        scn = desk_scenario()
        scn.far_profile = np.full(scn.steps, model.MU_FA_FLOOR)
        big = 1e9  # huge amplitudes: p_d = 1 and vanishing noise
        for t in scn.tracks:
            t.states[:, 2] = big
        rng = np.random.default_rng(0)
        ms = synth.synth_measurements(scn, 10, self.params, GEOM, rng)
        truth = scn.truth_arrays(10)
        assert len(ms) == 3
        got = np.sort([z.z_d for z in ms])
        assert np.allclose(got, np.sort(truth[:, 0]), atol=1e-6)

    def test_all_above_threshold(self):
        rng = np.random.default_rng(1)
        for step in range(0, 100, 7):
            for z in synth.synth_measurements(self.scn, step, self.params,
                                              GEOM, rng):
                assert z.z_u > math.sqrt(self.scn.u_de)
                assert 0.0 <= z.z_d <= self.params.d_max

    def test_clutter_count_poisson_mean(self):
        scn = desk_scenario()
        scn.tracks = []
        scn.far_profile = np.full(scn.steps, 3.0)
        rng = np.random.default_rng(2)
        counts = [len(synth.synth_measurements(scn, 0, self.params, GEOM,
                                               rng))
                  for _ in range(10_000)]
        assert abs(np.mean(counts) - 3.0) < 0.06

    def test_clutter_amplitude_distribution(self):
        # z_u^2 - u_de is Exp(1) for threshold-truncated Rayleigh clutter.
        scn = desk_scenario()
        scn.tracks = []
        scn.far_profile = np.full(scn.steps, 2.0)
        rng = np.random.default_rng(3)
        samples = []
        while len(samples) < 10_000:
            for z in synth.synth_measurements(scn, 0, self.params, GEOM, rng):
                samples.append(z.z_u**2 - scn.u_de)
        stat = stats.kstest(samples[:10_000], "expon")
        assert stat.pvalue > 0.01

    def test_detection_thinning_matches_p_d(self):
        scn = desk_scenario()
        scn.far_profile = np.full(scn.steps, model.MU_FA_FLOOR)
        scn.tracks = scn.tracks[:1]
        u_true = 2.8
        scn.tracks[0].states[:, 2] = u_true
        p_d = float(model.detection_prob(u_true, scn.u_de, GEOM.n_eff,
                                         self.params.amp_mode))
        rng = np.random.default_rng(4)
        n = 10_000
        hits = sum(len(synth.synth_measurements(scn, 0, self.params, GEOM,
                                                rng)) for _ in range(n))
        band = 3 * math.sqrt(p_d * (1 - p_d) / n)
        assert abs(hits / n - p_d) < band

    def test_truncated_amplitude_sampler_distribution(self, amp_lik):
        # Conditional law above the threshold matches the truncated density.
        rng = np.random.default_rng(5)
        u, u_de, n_eff = 2.5, self.params.u_de, GEOM.n_eff
        s2 = float(model.amp_scale_sq(u, n_eff))
        draws = np.array([synth._sample_truncated_amplitude(
            u, s2, math.sqrt(u_de), "exact", rng) for _ in range(8000)])

        def cdf(z):
            z = np.atleast_1d(z)
            from scipy.integrate import quad
            lo = math.sqrt(u_de)
            return np.array([quad(lambda t: amp_lik(t, u, "exact"), lo,
                                  zi)[0] for zi in z])

        qs = np.quantile(draws, [0.25, 0.5, 0.75])
        assert np.allclose(cdf(qs), [0.25, 0.5, 0.75], atol=0.03)

    def test_step_out_of_range(self):
        with pytest.raises(IndexError):
            synth.synth_measurements(self.scn, 100, self.params, GEOM,
                                     np.random.default_rng(0))
