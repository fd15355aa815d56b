"""Extension enumeration engine: counts, volumes, interpolation, marginals."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
import oracles
from ordpoly import (
    BudgetExceededError,
    ConstraintSet,
    count_extensions,
    enumerate_extensions,
    expected_rank,
    expected_val_frag,
    extension_volumes,
    interpolate_all,
    interpolate_exact,
    marginal_exact,
    pw_expectation,
    u_topk,
    volume_exact,
    volume_frag,
)
from ordpoly import exact

F = Fraction


def diamond(gamma) -> ConstraintSet:
    return ConstraintSet(
        ["x", "y", "z", "yp"],
        [("x", "y"), ("y", "z"), ("x", "yp"), ("yp", "z"), ("x", "z")],
        {"yp": gamma},
    )


class TestFragments:
    def test_volume_formula(self):
        # 2 unknowns on [0, 1/2]: (1/2)^2 / 2! = 1/8
        assert volume_frag(0, 3, F(0), F(1, 2)) == F(1, 8)

    def test_empty_fragment(self):
        assert volume_frag(0, 1, F(1, 4), F(1, 4)) == 1

    def test_positional_mean(self):
        # rank 2 of 2 on [0, g]: 2g/3
        g = F(1, 3)
        assert expected_val_frag(0, 3, 2, F(0), g) == 2 * g / 3
        # rank 1 of 2 on [g, 1]: (1+2g)/3
        assert expected_val_frag(0, 3, 1, g, F(1)) == (1 + 2 * g) / 3


class TestEnumeration:
    def test_diamond_has_two_extensions(self):
        cs = diamond(F(1, 2))
        exts = list(enumerate_extensions(cs))
        assert len(exts) == 2
        middles = {
            tuple(
                v.name
                for v in e.order
                if v.name in ("y", "yp")
            )
            for e in exts
        }
        assert middles == {("y", "yp"), ("yp", "y")}

    def test_extension_respects_edges_and_pin_order(self):
        rng = random.Random(5)
        for _ in range(20):
            doc = gen.mixed_doc(rng, rng.randint(1, 5), rng.randint(0, 2))
            cs = gen.to_cs(doc)
            closed = None
            for ext in enumerate_extensions(cs):
                pos = {v.name: i for i, v in enumerate(ext.order)}
                for a, b in doc[1]:
                    assert pos[a] <= pos[b]
                assert list(ext.exact_values) == sorted(ext.exact_values)

    def test_antichain_count_is_factorial(self):
        for n in range(1, 7):
            cs = ConstraintSet([f"v{i}" for i in range(n)], [], {})
            assert count_extensions(cs) == math.factorial(n)

    def test_count_matches_brute_filter(self):
        rng = random.Random(9)
        for _ in range(30):
            doc = gen.pure_order_doc(rng, rng.randint(1, 6))
            assert count_extensions(gen.to_cs(doc)) == oracles.count_orders(
                doc[0], doc[1]
            )


class TestVolume:
    def test_diamond_symbolic_volume(self):
        for g in (F(1, 2), F(1, 4), F(2, 7)):
            want = g**2 * (1 - g) / 2 + g * (1 - g) ** 2 / 2
            assert volume_exact(diamond(g)) == want

    def test_extension_volumes_sum_and_positivity(self):
        rng = random.Random(21)
        for _ in range(20):
            cs = gen.to_cs(gen.mixed_doc(rng, rng.randint(1, 5), rng.randint(0, 2)))
            table = list(extension_volumes(cs))
            assert all(v > 0 for _, v in table)
            assert sum(v for _, v in table) == volume_exact(cs)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_brute_oracle(self, seed):
        rng = random.Random(seed)
        doc = gen.mixed_doc(rng, rng.randint(1, 5), rng.randint(0, 2))
        assert volume_exact(gen.to_cs(doc)) == oracles.brute_volume(*doc)


class TestInterpolation:
    def test_diamond_closed_form(self):
        assert interpolate_exact(diamond(F(1, 2)), "y") == F(1, 2)
        assert interpolate_exact(diamond(F(1, 4)), "y") == F(5, 12)

    def test_two_chain_thirds(self):
        cs = ConstraintSet(["xp", "x"], [("xp", "x")], {})
        assert interpolate_exact(cs, "xp") == F(1, 3)
        assert interpolate_exact(cs, "x") == F(2, 3)

    def test_pinned_variable_returns_pin(self):
        cs = ConstraintSet(["a", "b"], [("a", "b")], {"a": F(1, 5)})
        assert interpolate_exact(cs, "a") == F(1, 5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_brute_oracle(self, seed):
        rng = random.Random(seed)
        doc = gen.mixed_doc(rng, rng.randint(1, 5), rng.randint(0, 2))
        cs = gen.to_cs(doc)
        got = interpolate_all(cs)
        _, means = oracles.brute_volume_and_means(*doc)
        for name, want in means.items():
            assert got[name] == want

    def test_rank_law_on_pure_orders(self):
        rng = random.Random(31)
        for _ in range(25):
            doc = gen.pure_order_doc(rng, rng.randint(1, 6))
            cs = gen.to_cs(doc)
            n = len(doc[0])
            vals = interpolate_all(cs)
            for name in doc[0]:
                assert vals[name] == expected_rank(cs, name) / (n + 1)

    def test_expected_rank_matches_brute_average(self):
        rng = random.Random(37)
        for _ in range(15):
            doc = gen.pure_order_doc(rng, rng.randint(1, 5))
            cs = gen.to_cs(doc)
            for name in doc[0]:
                assert expected_rank(cs, name) == oracles.brute_expected_rank(
                    doc[0], doc[1], name
                )

    def test_decomposition_consistency(self):
        from ordpoly import decompose

        rng = random.Random(41)
        for _ in range(15):
            cs = gen.to_cs(gen.separator_doc(rng))
            whole = interpolate_all(cs)
            for part, cls in zip(decompose(cs).parts, decompose(cs).classes):
                for v in cls:
                    assert interpolate_exact(part, v.name) == whole[v.name]


class TestMarginal:
    def test_two_chain_upper_density(self):
        cs = ConstraintSet(["xp", "x"], [("xp", "x")], {})
        pw = marginal_exact(cs, "x").canonical()
        assert list(pw.breakpoints) == [F(0), F(1)]
        assert pw.pieces[0].coeffs == (F(0), F(2))

    def test_mass_one_and_mean_consistency(self):
        rng = random.Random(43)
        for _ in range(15):
            doc = gen.mixed_doc(rng, rng.randint(1, 4), rng.randint(0, 2))
            cs = gen.to_cs(doc)
            vals = interpolate_all(cs)
            for v in cs.unknowns():
                pw = marginal_exact(cs, v.name)
                assert pw.mass() == 1
                assert pw_expectation(pw) == vals[v.name]


class TestBudget:
    def test_guard_trips_below_true_count(self):
        cs = ConstraintSet([f"v{i}" for i in range(10)], [], {})
        with pytest.raises(BudgetExceededError) as exc_info:
            volume_exact(cs, budget=1000)
        err = exc_info.value
        assert err.budget == 1000
        assert err.lower_bound > 1000

    def test_enumeration_guard_fires_eagerly(self):
        cs = ConstraintSet([f"v{i}" for i in range(10)], [], {})
        with pytest.raises(BudgetExceededError):
            enumerate_extensions(cs, budget=1000)

    def test_within_budget_succeeds(self):
        cs = ConstraintSet([f"v{i}" for i in range(5)], [], {})
        assert count_extensions(cs, budget=120) == 120

    def test_counting_branch_when_precount_gives_up(self, monkeypatch):
        # With the per-level cap at 1 the pre-count gives up at once, so the
        # guard counts extensions as the walk produces them.
        cs = ConstraintSet([f"v{i}" for i in range(6)], [], {})  # 720 extensions
        calls = {
            "count_extensions": lambda b: count_extensions(cs, b),
            "volume_exact": lambda b: volume_exact(cs, b),
            "interpolate_all": lambda b: interpolate_all(cs, b),
            "enumerate_extensions": lambda b: list(enumerate_extensions(cs, b)),
            "extension_volumes": lambda b: list(extension_volumes(cs, b)),
            "u_topk": lambda b: u_topk(cs, ["v0", "v1", "v2"], 2, b),
        }
        unpatched = {name: call(720) for name, call in calls.items()}
        produced = []
        walk = exact._walk

        def counting_walk(prep):
            for item in walk(prep):
                produced.append(item)
                yield item

        precounts = []
        precount = exact._count_extensions

        def counting_precount(prep, budget):
            precounts.append(budget)
            return precount(prep, budget)

        monkeypatch.setattr(exact, "_LEVEL_MASK_CAP", 1)
        monkeypatch.setattr(exact, "_walk", counting_walk)
        monkeypatch.setattr(exact, "_count_extensions", counting_precount)
        for name, call in calls.items():
            produced.clear()
            precounts.clear()
            with pytest.raises(BudgetExceededError) as exc_info:
                call(719)
            assert (exc_info.value.budget, exc_info.value.lower_bound) == (719, 720), name
            assert len(produced) == 720, name
            assert precounts == [719], name
            if name == "u_topk":
                assert "estimate_topk" in str(exc_info.value)
            precounts.clear()
            assert call(720) == unpatched[name], name
            assert precounts == [720], name
