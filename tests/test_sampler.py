"""Hit-and-run sampler: feasibility, determinism, accuracy."""
import math
import random
from fractions import Fraction

import pytest

import gen
from ordpoly import (
    ConstraintSet,
    MalformedInputError,
    SamplerConfig,
    SamplerError,
    estimate_expected_value,
    estimate_topk,
    hit_and_run_sample,
    interior_point,
    interpolate_exact,
    local_topk,
    rejection_sample_mean,
)
from ordpoly import sampler

F = Fraction


def two_chain() -> ConstraintSet:
    return ConstraintSet(["xp", "x"], [("xp", "x")], {})


class TestConfig:
    def test_hoeffding_sample_count(self):
        assert SamplerConfig().sample_count() == math.ceil(
            2 * math.log(2 / 0.05) / 0.05**2
        )
        assert SamplerConfig().sample_count() == 2952

    def test_tighter_epsilon_needs_more_samples(self):
        assert (
            SamplerConfig(epsilon=0.01).sample_count()
            > SamplerConfig(epsilon=0.05).sample_count()
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"epsilon": 1.0},
            {"delta": 0.0},
            {"delta": 1.5},
            {"burn_in": -1},
            {"thinning": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(MalformedInputError):
            SamplerConfig(**kwargs)


class TestChainCap:
    def test_chains_above_cap_fail_before_any_thread(self):
        cs = ConstraintSet(["a", "b"], [("a", "b")], {})
        for chains in (sampler.MAX_CHAINS + 1, 3000):
            with pytest.raises(MalformedInputError):
                estimate_expected_value(cs, "a", SamplerConfig(), chains=chains)
            with pytest.raises(MalformedInputError):
                estimate_topk(cs, ["a", "b"], 1, SamplerConfig(), chains=chains)


class TestFeasibility:
    def _violation(self, doc, pt) -> float:
        worst = -math.inf
        for a, b in doc[1]:
            va = float(doc[2][a]) if a in doc[2] else pt.value_of(a)
            vb = float(doc[2][b]) if b in doc[2] else pt.value_of(b)
            worst = max(worst, va - vb)
        for v in doc[0]:
            if v not in doc[2]:
                x = pt.value_of(v)
                worst = max(worst, -x, x - 1.0)
        return worst

    def test_interior_point_is_strictly_feasible(self):
        rng = random.Random(97)
        for _ in range(20):
            doc = gen.mixed_doc(rng, rng.randint(1, 6), rng.randint(0, 2))
            cs = gen.to_cs(doc)
            pt = interior_point(cs)
            assert self._violation(doc, pt) < 0.0

    def test_samples_satisfy_constraints(self):
        rng = random.Random(101)
        for _ in range(10):
            doc = gen.mixed_doc(rng, rng.randint(1, 5), rng.randint(0, 2))
            cs = gen.to_cs(doc)
            for pt in hit_and_run_sample(cs, SamplerConfig(seed=3), 50):
                assert self._violation(doc, pt) <= 1e-12

    def test_tied_variables_share_the_sampled_value(self):
        cs = ConstraintSet(["a", "b", "c"], [("a", "b"), ("b", "a")], {})
        for pt in hit_and_run_sample(cs, SamplerConfig(seed=9), 20):
            assert pt.value_of("a") == pt.value_of("b")

    def test_zero_dimensional_set_repeats_the_point(self):
        cs = ConstraintSet(["p", "q"], [("p", "q")], {"p": F(1, 4), "q": F(3, 4)})
        pts = list(hit_and_run_sample(cs, SamplerConfig(seed=1), 5))
        assert len(pts) == 5
        assert all(pt.value_of("p") == 0.25 for pt in pts)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        cs = two_chain()
        cfg = SamplerConfig(seed=42)
        a = [pt.as_dict() for pt in hit_and_run_sample(cs, cfg, 25)]
        b = [pt.as_dict() for pt in hit_and_run_sample(cs, cfg, 25)]
        assert a == b

    def test_different_seed_different_stream(self):
        cs = two_chain()
        a = next(iter(hit_and_run_sample(cs, SamplerConfig(seed=1), 1)))
        b = next(iter(hit_and_run_sample(cs, SamplerConfig(seed=2), 1)))
        assert a.as_dict() != b.as_dict()

    def test_stream_is_pinned(self):
        # The walk's exact float stream: any change to the random-row
        # consumption or the chord arithmetic shows here.
        cs = ConstraintSet(
            ["a", "b", "c", "d"],
            [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
            {"b": F(2, 5)},
        )
        pts = [pt.as_dict() for pt in hit_and_run_sample(cs, SamplerConfig(seed=42), 5)]
        assert repr(pts) == (
            "[{'a': 0.3760330328739468, 'b': 0.4, 'c': 0.49908160408758584, "
            "'d': 0.6009130517445723}, "
            "{'a': 0.311657806170193, 'b': 0.4, 'c': 0.5599580184003966, "
            "'d': 0.8630606767776211}, "
            "{'a': 0.23433846397314143, 'b': 0.4, 'c': 0.4014819624653838, "
            "'d': 0.8648190823135635}, "
            "{'a': 0.2108326215085761, 'b': 0.4, 'c': 0.25756513523929137, "
            "'d': 0.9844786617576053}, "
            "{'a': 0.11254905170707732, 'b': 0.4, 'c': 0.2595922192763249, "
            "'d': 0.9091837677371134}]"
        )
        cfg = SamplerConfig(epsilon=0.2, burn_in=300, seed=42)
        est = estimate_expected_value(cs, "c", cfg, chains=3)
        assert repr(est) == "EstimateResult(value=0.5055236419509231, samples=185)"

    def test_walk_without_feasible_chords_stalls(self, monkeypatch):
        # every chord is shorter than this tolerance, so every row is rejected
        monkeypatch.setattr(sampler, "CHORD_EPS", math.inf)
        cs = ConstraintSet(["a", "b"], [], {})
        with pytest.raises(SamplerError, match="no feasible chord"):
            list(hit_and_run_sample(cs, SamplerConfig(seed=1, burn_in=5), 3))


class TestEstimates:
    def test_pinned_variable_needs_no_samples(self):
        cs = ConstraintSet(["a", "b"], [("a", "b")], {"a": F(1, 5)})
        res = estimate_expected_value(cs, "a")
        assert res.value == 0.2
        assert res.samples == 0

    def test_two_chain_upper_mean(self):
        est = estimate_expected_value(two_chain(), "x", SamplerConfig(seed=11))
        assert abs(est.value - 2 / 3) <= 0.05
        assert est.samples == 2952

    def test_exceedance_probability(self):
        # P(x > 0.7) = 1 - 0.49 = 0.51 for the larger of two free values
        count = 20_000
        hits = sum(
            pt.value_of("x") > 0.7
            for pt in hit_and_run_sample(two_chain(), SamplerConfig(seed=13), count)
        )
        assert abs(hits / count - 0.51) <= 0.01

    def test_multichain_average_is_deterministic(self):
        cs = two_chain()
        a = estimate_expected_value(cs, "x", SamplerConfig(seed=17), chains=3)
        b = estimate_expected_value(cs, "x", SamplerConfig(seed=17), chains=3)
        assert a.value == b.value
        assert abs(a.value - 2 / 3) <= 0.05

    def test_estimate_topk_matches_exact_order_when_separated(self):
        cs = ConstraintSet(
            ["lo", "hi", "y"], [("lo", "hi")], {"y": F(9, 10)}
        )
        est = estimate_topk(cs, ["lo", "hi", "y"], 2, SamplerConfig(seed=19))
        exact = local_topk(cs, ["lo", "hi", "y"], 2)
        assert [v.name for v, _ in est] == list(exact.names())


class TestRejection:
    def test_pinned_variable_short_circuits(self):
        cs = ConstraintSet(["a", "b"], [("a", "b")], {"a": F(1, 5)})
        assert rejection_sample_mean(cs, "a", 100) == (0.2, 1.0, 0.0)

    def test_agrees_with_exact_value(self):
        cs = two_chain()
        mean, rate, se = rejection_sample_mean(cs, "x", 50_000, seed=23)
        assert rate == pytest.approx(0.5, abs=0.02)
        assert abs(mean - 2 / 3) <= 4 * se

    def test_agrees_with_hit_and_run(self):
        rng = random.Random(107)
        for _ in range(5):
            doc = gen.mixed_doc(rng, rng.randint(2, 4), rng.randint(0, 1))
            cs = gen.to_cs(doc)
            var = sorted(v.name for v in cs.unknowns())[0]
            r_mean, rate, r_se = rejection_sample_mean(cs, var, 30_000, seed=29)
            assert rate > 1e-3
            har = estimate_expected_value(cs, var, SamplerConfig(seed=31)).value
            # hit-and-run carries the Hoeffding epsilon, rejection its SE
            assert abs(r_mean - har) <= 0.05 + 4 * r_se

    def test_thin_polytope_raises(self):
        cs = ConstraintSet(
            ["p", "u", "q"],
            [("p", "u"), ("u", "q")],
            {"p": F(499, 1000), "q": F(501, 1000)},
        )
        with pytest.raises(SamplerError):
            rejection_sample_mean(cs, "u", 10_000, seed=37, max_proposals=20_000)

    def test_accepted_count_must_be_positive(self):
        with pytest.raises(MalformedInputError):
            rejection_sample_mean(two_chain(), "x", 0)
