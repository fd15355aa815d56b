"""The sampler: exact iid draws from the downset lattice, the hit-and-run
walk beyond it; feasibility, determinism, accuracy."""
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import gen
import oracles
from ordpoly import (
    ConstraintSet,
    LimitExceededError,
    MalformedInputError,
    SamplerConfig,
    SamplerError,
    estimate_expected_value,
    estimate_topk,
    hit_and_run_sample,
    interior_point,
    interpolate_exact,
    local_topk,
    part_skeleton,
    sample_points,
    select,
)
from ordpoly import lattice, precount, sampler
from ordpoly.model import Prepared

F = Fraction


def two_chain() -> ConstraintSet:
    return ConstraintSet(["xp", "x"], [("xp", "x")], {})


def each_sampler(monkeypatch):
    """Yield each sampler name in turn, having set the bound so that the
    sets of the loop body draw with it: hit-and-run with every set beyond
    the bound, then exact draws under the default bound."""
    for cap, name in ((0, sampler.HIT_AND_RUN), (sampler.EXACT_MOVE_CAP, sampler.EXACT)):
        with monkeypatch.context() as patch:
            patch.setattr(sampler, "EXACT_MOVE_CAP", cap)
            yield name


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
            {"seed": -1},
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
            assert interior_point(Prepared(cs)) == pt

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
        prepared = [pt.as_dict() for pt in hit_and_run_sample(Prepared(cs), cfg, 25)]
        assert a == b == prepared

    def test_different_seed_different_stream(self):
        cs = two_chain()
        a = next(iter(hit_and_run_sample(cs, SamplerConfig(seed=1), 1)))
        b = next(iter(hit_and_run_sample(cs, SamplerConfig(seed=2), 1)))
        assert a.as_dict() != b.as_dict()

    def test_stream_is_pinned(self, monkeypatch):
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
        with monkeypatch.context() as patch:  # every set is beyond the bound
            patch.setattr(sampler, "EXACT_MOVE_CAP", 0)
            est = estimate_expected_value(cs, "c", cfg, chains=3)
        assert repr(est) == (
            "EstimateResult(value=0.5055236419509231, samples=185, sampler='hit-and-run')"
        )
        # the exact draws' stream on the same configuration (E[c] = 7/15)
        est = estimate_expected_value(cs, "c", cfg, chains=3)
        assert repr(est) == (
            "EstimateResult(value=0.4418887725680416, samples=185, sampler='exact')"
        )

    def test_chords_meet_only_the_cover_pairs(self):
        # x <= z is implied by x <= y <= z, so the walk tests only the covers
        cs = ConstraintSet(["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z")], {})
        walk = sampler._Walk(cs)
        column = {walk.quotient.variables[qid].name: c for qid, c in walk.column.items()}
        pairs = set(zip(walk.pair_a.tolist(), walk.pair_b.tolist()))
        assert pairs == {(column["x"], column["y"]), (column["y"], column["z"])}

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

    def test_two_chain_upper_mean(self, monkeypatch):
        for name in each_sampler(monkeypatch):
            est = estimate_expected_value(two_chain(), "x", SamplerConfig(seed=11))
            assert est.sampler == name
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

    def test_multichain_average_is_deterministic(self, monkeypatch):
        cs = two_chain()
        for name in each_sampler(monkeypatch):
            a = estimate_expected_value(cs, "x", SamplerConfig(seed=17), chains=3)
            b = estimate_expected_value(cs, "x", SamplerConfig(seed=17), chains=3)
            prepared = estimate_expected_value(Prepared(cs), "x", SamplerConfig(seed=17), chains=3)
            assert a.sampler == name
            assert a.value == b.value
            assert a == prepared
            assert abs(a.value - 2 / 3) <= 0.05

    def test_estimate_topk_matches_exact_order_when_separated(self, monkeypatch):
        cs = ConstraintSet(
            ["lo", "hi", "y"], [("lo", "hi")], {"y": F(9, 10)}
        )
        exact = local_topk(cs, ["lo", "hi", "y"], 2)
        for name in each_sampler(monkeypatch):
            est = estimate_topk(cs, ["lo", "hi", "y"], 2, SamplerConfig(seed=19))
            assert est.sampler == name
            assert [v.name for v, _ in est.entries] == list(exact.names())
            assert estimate_topk(Prepared(cs), ["lo", "hi", "y"], 2, SamplerConfig(seed=19)) == est

    def test_estimate_topk_checks_its_input_as_local_topk_does(self):
        cs = ConstraintSet(["lo", "hi", "y"], [("lo", "hi")], {"y": F(9, 10)})
        # "lo" has another id in this set
        foreign = select(ConstraintSet(["hi", "lo"], [], {}), ["lo"])
        for bad in ((foreign, 1), (["lo", "hi"], 1.5), ([], 1)):
            with pytest.raises(MalformedInputError):
                local_topk(cs, *bad)
            with pytest.raises(MalformedInputError):
                estimate_topk(cs, *bad)


def _order(point) -> tuple[str, ...]:
    values = point.as_dict()
    return tuple(sorted(values, key=values.get))


def _pinned_to_bounds(rng: random.Random):
    """A general set whose lowest pin is 0 and highest is 1, which ties
    whatever lies below (above) them to that bound."""
    names, order, exact = gen.mixed_doc(rng, rng.randint(3, 7), 2)
    low, high = sorted(exact, key=exact.get)
    return names, order, {**exact, low: F(0), high: F(1)}


class TestExactDraws:
    """Where every part's lattice fits the bound, a draw picks a
    linear extension with probability its volume over the total, then
    sorted uniforms on each fragment's interval."""

    def test_extensions_are_drawn_in_proportion_to_their_volume(self):
        # each order's count is within 5 binomial standard deviations
        rng = random.Random(211)
        draws = 4000
        for _ in range(4):
            doc = gen.mixed_doc(rng, 4, 2, p=0.3)
            cs = gen.to_cs(doc)
            shares = {names: vol for names, vol, _ in oracles.brute_worlds(*doc)}
            total = sum(shares.values())
            drawn = sample_points(cs, SamplerConfig(seed=5), draws)
            assert drawn.sampler == sampler.EXACT
            counts = Counter(_order(pt) for pt in drawn.points)
            assert set(counts) <= set(shares)
            for order, volume in shares.items():
                share = float(volume / total)
                sd = math.sqrt(draws * share * (1 - share))
                assert abs(counts[order] - draws * share) <= 5 * sd, order

    def test_means_are_within_epsilon_of_the_exact_values(self):
        rng = random.Random(223)
        cfg = SamplerConfig(epsilon=0.1, seed=7)
        docs = [gen.mixed_doc(rng, rng.randint(2, 7), rng.randint(0, 3)) for _ in range(8)]
        docs += [gen.tied_doc(rng, rng.randint(3, 7), 2) for _ in range(4)]
        docs += [_pinned_to_bounds(rng) for _ in range(4)]
        for doc in docs:
            cs = gen.to_cs(doc)
            names = [v.name for v in cs.unknowns()]
            estimates = sampler._estimate_values(cs, names, cfg, 1)
            for name in names:
                est = estimates[name]
                assert (est.samples, est.sampler) == (cfg.sample_count(), sampler.EXACT)
                assert abs(est.value - float(interpolate_exact(cs, name))) <= 0.1, doc

    def test_every_point_passes_the_point_checker(self):
        rng = random.Random(227)
        feasibility = TestFeasibility()
        for _ in range(10):
            doc = gen.mixed_doc(rng, rng.randint(1, 6), rng.randint(0, 3))
            cs = gen.to_cs(doc)
            check = sampler._point_checker(sampler._Walk(cs).closed)
            for pt in sample_points(cs, SamplerConfig(seed=3), 50).points:
                check(pt)
                assert feasibility._violation(doc, pt) <= 1e-12
        cs = gen.to_cs(_pinned_to_bounds(rng))
        check = sampler._point_checker(sampler._Walk(cs).closed)
        for pt in sample_points(cs, SamplerConfig(seed=4), 50).points:
            check(pt)

    def test_same_seed_same_stream(self):
        cs = gen.to_cs(gen.mixed_doc(random.Random(229), 6, 2))
        cfg = SamplerConfig(epsilon=0.2, seed=13)
        first = [pt.as_dict() for pt in sample_points(cs, cfg, 30).points]
        again = [pt.as_dict() for pt in sample_points(cs, cfg, 30).points]
        other = [pt.as_dict() for pt in sample_points(cs, SamplerConfig(seed=14), 30).points]
        prepared = [pt.as_dict() for pt in sample_points(Prepared(cs), cfg, 30).points]
        assert first == again == prepared != other
        a = estimate_expected_value(cs, "u0", cfg, chains=3)
        b = estimate_expected_value(cs, "u0", cfg, chains=3)
        assert a == b and a != estimate_expected_value(cs, "u0", cfg, chains=2)

    def test_weights_beyond_the_float_range_draw_without_overflow(self):
        # a chain of 30 unknowns in overlapping windows of 12 pins whose
        # denominators are distinct primes: the scaled forward weights
        # L^s s! have hundreds of digits
        primes = [53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103]
        pins = {
            f"p{i}": F(round((i + 1) * q / (len(primes) + 1)), q)
            for i, q in enumerate(primes)
        }
        xs = [f"x{i}" for i in range(30)]
        order = [(xs[i], xs[i + 1]) for i in range(29)]
        for i, x in enumerate(xs):
            order += [(f"p{i // 3}", x), (x, f"p{i // 3 + 2}")]
        cs = ConstraintSet([*pins, *xs], order, pins)
        walk = sampler._Walk(cs)
        (part,) = walk.exact_parts
        weights = (
            f for level in part.ext.levels for _, row in level.values() for f in row.values()
        )
        assert max(weights) > 10**308
        drawn = sample_points(cs, SamplerConfig(seed=1), 50)
        assert drawn.sampler == sampler.EXACT and len(drawn.points) == 50

    def test_beyond_the_state_bound_rows_are_hit_and_run(self, monkeypatch):
        cs = gen.to_cs(gen.mixed_doc(random.Random(233), 5, 2))
        cfg = SamplerConfig(seed=7, burn_in=200)
        assert sampler._Walk(cs).sampler == sampler.EXACT
        monkeypatch.setattr(sampler, "EXACT_MOVE_CAP", 5)
        walk = sampler._Walk(cs)
        rows = sampler._draw(walk, cfg, 40, 7)
        assert walk.sampler == sampler.HIT_AND_RUN
        assert rows.tobytes() == sampler._raw_samples(sampler._Walk(cs), cfg, 40, 7).tobytes()
        drawn = sample_points(cs, cfg, 10)
        assert drawn.sampler == sampler.HIT_AND_RUN
        walked = [pt.as_dict() for pt in hit_and_run_sample(cs, cfg, 10)]
        assert [pt.as_dict() for pt in drawn.points] == walked

    def test_a_set_beyond_the_bound_is_refused_at_its_first_level_past_it(self, monkeypatch):
        # every part's table is built level by level, and the walk is
        # chosen at the first level whose moves take the total past the
        # bound: no level after it is built
        tables = []
        levels = lattice._levels

        def recorded(*args, **kwargs):
            tables.append([])
            for level in levels(*args, **kwargs):
                tables[-1].append(level)
                yield level

        monkeypatch.setattr(lattice, "_levels", recorded)
        # 16 unknowns below one: 2^16 + 1 downsets
        star = ConstraintSet(
            [f"s{i}" for i in range(16)] + ["top"], [(f"s{i}", "top") for i in range(16)], {}
        )
        # a small set beyond a low bound
        cs = gen.to_cs(gen.mixed_doc(random.Random(233), 5, 2))
        for beyond, cap in ((star, sampler.EXACT_MOVE_CAP), (cs, 5)):
            monkeypatch.setattr(sampler, "EXACT_MOVE_CAP", cap)
            tables.clear()
            assert sampler._Walk(beyond).sampler == sampler.HIT_AND_RUN
            moves = [
                sum(len(row) * ready.bit_count() for ready, row in level.values())
                for table in tables
                for level in table
            ]
            # so the last level built has moves: it is not the full downset
            assert sum(moves[:-1]) <= cap < sum(moves)

    @staticmethod
    def _battery() -> list:
        """Tie quotients of 30 random DAGs with pins and 10 tied sets."""
        rng = random.Random(239)
        docs = [
            gen.mixed_doc(rng, rng.randint(1, 9), rng.randint(0, 3), rng.choice([0.1, 0.3, 0.6]))
            for _ in range(30)
        ]
        docs += [gen.tied_doc(rng, rng.randint(3, 8), 2) for _ in range(10)]
        return [Prepared(gen.to_cs(doc)).ties.quotient for doc in docs]

    def test_move_count_is_that_of_the_table(self):
        # one move per state of a downset and variable that may join it
        for quotient in self._battery():
            prep = lattice._prepare(part_skeleton(quotient))
            pairs = oracles.covers(quotient)
            moves = sum(
                len(row) * oracles.joinable(pairs, prep.size, placed).bit_count()
                for level in lattice._levels(prep, 10**9)
                for placed, (_, row) in level.items()
            )
            assert lattice.ExtensionDraw(prep, moves).moves == moves, quotient
            with pytest.raises(LimitExceededError):
                lattice.ExtensionDraw(prep, moves - 1)

    def test_every_downset_carries_the_variables_that_may_join_it(self):
        for quotient in self._battery():
            prep = lattice._prepare(part_skeleton(quotient))
            pairs = oracles.covers(quotient)
            for level in lattice._levels(prep, 10**9):
                for placed, (ready, _) in level.items():
                    assert ready == oracles.joinable(pairs, prep.size, placed), quotient

    def test_the_pre_count_is_that_of_the_definition(self):
        for quotient in self._battery():
            count = oracles.count_extensions(quotient)
            assert precount.count_extensions(Prepared(quotient), 10**9) == count, quotient


class TestBatchedWalk:
    """Exact draws walk every point of a chunk at once in numpy; a walk of
    one point at a time with Python integers (``oracles.per_point_draw``)
    gives the same floats, bit for bit."""

    counts = (1, sampler._EXACT_CHUNK_ROWS, sampler._EXACT_CHUNK_ROWS + 1)

    def _assert_same(self, cs, seed):
        walk = sampler._Walk(cs)
        assert walk.sampler == sampler.EXACT
        for count in self.counts:
            drawn = sampler._draw(walk, SamplerConfig(), count, seed)
            walked = oracles.per_point_draw(walk, count, seed, sampler._EXACT_CHUNK_ROWS)
            assert np.array_equal(drawn, walked), (seed, count)

    def test_random_sets(self):
        rng = random.Random(241)
        for seed in range(6):
            doc = gen.mixed_doc(rng, rng.randint(1, 8), rng.randint(0, 3), rng.choice([0.2, 0.4]))
            self._assert_same(gen.to_cs(doc), seed)
        self._assert_same(gen.to_cs(gen.tied_doc(rng, 6, 2)), 6)
        self._assert_same(gen.to_cs(_pinned_to_bounds(rng)), 7)

    def test_bottom_and_top_intervals(self):
        # a stays below the lowest pin (interval 0) and b above the
        # highest; x, y, z and the free f range over all three intervals
        cs = ConstraintSet(
            ["a", "b", "x", "y", "z", "f", "p", "q"],
            [("a", "p"), ("a", "y"), ("x", "y"), ("y", "z"), ("x", "q"), ("p", "z"),
             ("q", "b"), ("y", "b")],
            {"p": F(1, 3), "q": F(5, 7)},
        )
        self._assert_same(cs, 11)


class TestRejection:
    """Estimates against plain rejection sampling in the unit cube
    (``oracles.rejection_mean``)."""

    def test_agrees_with_exact_value(self):
        doc = two_chain().user_view()
        mean, se = oracles.rejection_mean(*doc, "x", 50_000, seed=23)
        assert abs(mean - 2 / 3) <= 4 * se

    def test_agrees_with_hit_and_run(self, monkeypatch):
        rng = random.Random(107)
        for _ in range(5):
            doc = gen.mixed_doc(rng, rng.randint(2, 4), rng.randint(0, 1))
            cs = gen.to_cs(doc)
            var = sorted(v.name for v in cs.unknowns())[0]
            r_mean, r_se = oracles.rejection_mean(*doc, var, 30_000, seed=29)
            for name in each_sampler(monkeypatch):
                est = estimate_expected_value(cs, var, SamplerConfig(seed=31))
                assert est.sampler == name
                # the estimate carries the Hoeffding epsilon, rejection its SE
                assert abs(r_mean - est.value) <= 0.05 + 4 * r_se
