"""Exact engine entry points: extension counts, volumes, interpolation,
marginals and their budget guard, against the brute-force oracles."""
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
    LimitExceededError,
    count_extensions,
    expected_rank,
    global_topk,
    interpolate_all,
    interpolate_exact,
    marginal_exact,
    pw_expectation,
    u_sequence_probabilities,
    u_topk,
    volume_exact,
)
from ordpoly import lattice, precount
from ordpoly.model import Prepared
from ordpoly.tree import MARGINAL, VALUES, VOLUME, solve

F = Fraction


def diamond(gamma) -> ConstraintSet:
    return ConstraintSet(
        ["x", "y", "z", "yp"],
        [("x", "y"), ("y", "z"), ("x", "yp"), ("yp", "z"), ("x", "z")],
        {"yp": gamma},
    )


class TestEnumeration:
    def test_count_matches_brute_worlds_on_pinned_sets(self):
        rng = random.Random(5)
        for _ in range(30):
            doc = gen.mixed_doc(rng, rng.randint(1, 5), rng.randint(1, 3))
            assert count_extensions(gen.to_cs(doc)) == len(list(oracles.brute_worlds(*doc)))

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
                rank = oracles.brute_expected_rank(*doc[:2], name)
                assert vals[name] == rank / (n + 1)

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

    def test_within_budget_succeeds(self):
        cs = ConstraintSet([f"v{i}" for i in range(5)], [], {})
        assert count_extensions(cs, budget=120) == 120

    def test_precount_gives_up_with_the_budget_already_exceeded(self, monkeypatch):
        # With the per-level cap at 1 a part whose level holds more than one
        # prefix gives up at once.  Six unknowns under a seventh form one
        # part whose second level holds 6 distinct prefixes: over a budget
        # of 5 that is proof enough of a budget error; at 719 and 720 every
        # guarded call refuses that part by name.
        names = [f"v{i}" for i in range(6)]
        cs = ConstraintSet([*names, "w"], [(v, "w") for v in names], {})  # 720
        part = "the general part containing 'v0' (7 unknowns, 2 pinned incl. bounds)"
        calls = {
            "count_extensions": count_extensions,
            "volume_exact": volume_exact,
            "interpolate_all": interpolate_all,
        }
        monkeypatch.setattr(lattice, "_LEVEL_MASK_CAP", 1)
        for name, call in calls.items():
            with pytest.raises(BudgetExceededError) as exc_info:
                call(cs, 5)
            assert (exc_info.value.budget, exc_info.value.lower_bound) == (5, 6), name
            assert str(exc_info.value).startswith(part), name
            for budget in (719, 720):
                with pytest.raises(LimitExceededError) as exc_info:
                    call(cs, budget)
                message = str(exc_info.value)
                assert part in message, name
                assert "more than 1 prefixes" in message, name

    def test_merge_refuses_the_set_by_its_running_count(self, monkeypatch):
        # The 6-antichain's singleton parts hold one prefix per level and
        # one fragment profile each, so cap 1 never trips.  Merging their
        # counts gives 1, 2, 6, ...: over a budget of 5 once three parts
        # give 3!, and over 719 at the count itself, naming the whole set.
        cs = ConstraintSet([f"v{i}" for i in range(6)], [], {})
        monkeypatch.setattr(lattice, "_LEVEL_MASK_CAP", 1)
        for budget, lower in ((5, 6), (719, 720)):
            with pytest.raises(BudgetExceededError) as exc_info:
                count_extensions(cs, budget)
            assert (exc_info.value.budget, exc_info.value.lower_bound) == (budget, lower)
            assert str(exc_info.value).startswith(
                "the set containing 'v0' (6 unknowns, 2 pinned incl. bounds)"
            )
        assert count_extensions(cs, 720) == 720
        assert volume_exact(cs, 720) == 1  # the unit cube

    def test_lattice_guard_counts_downsets_per_level(self, monkeypatch):
        # u and global top-k walk the downset lattice of the parts that
        # hold the selection: with all of the 6-antichain selected, its
        # widest level holds C(6, 3) = 20 downsets, so budget 19 is
        # refused (with the sampler hint) and budget 20 answers as the
        # oracle's 720 world classes do; a low state cap names the set
        # instead.
        doc = ([f"v{i}" for i in range(6)], [], {})
        cs = gen.to_cs(doc)
        sel = [f"v{i}" for i in range(6)]
        sequences, ranks = {}, {}
        for ascending, vol, _ in oracles.brute_worlds(*doc):
            top = tuple(name for name in reversed(ascending) if name in sel)
            sequences[top] = sequences.get(top, 0) + vol
            for r, name in enumerate(top, start=1):
                ranks[name, r] = ranks.get((name, r), 0) + vol
        volume = sum(sequences.values())
        for k in (1, 2, 3):
            heads = {}
            for top, vol in sequences.items():
                heads[top[:k]] = heads.get(top[:k], 0) + vol
            assert u_sequence_probabilities(cs, sel, k, 20) == {
                top: vol / volume for top, vol in heads.items()
            }
            assert {v.name: p for v, p in global_topk(cs, sel, k, 20).entries} == {
                name: sum(ranks[name, r] for r in range(1, k + 1)) / volume
                for name in sel[:k]
            }
        calls = {"u_topk": u_topk, "global_topk": global_topk}
        for name, call in calls.items():
            with pytest.raises(BudgetExceededError) as exc_info:
                call(cs, sel, 2, 19)
            assert (exc_info.value.budget, exc_info.value.lower_bound) == (19, 20), name
            assert "estimate_topk" in str(exc_info.value), name
        monkeypatch.setattr(lattice, "_LEVEL_MASK_CAP", 5)
        for name, call in calls.items():
            with pytest.raises(LimitExceededError) as exc_info:
                call(cs, sel, 2, 20)
            message = str(exc_info.value)
            assert "'v0'" in message and "more than 5 states" in message, name


def _fence_doc(rng: random.Random, fences: int) -> gen.Doc:
    """``fences`` zigzag fences of 2-5 unknowns, each between its own two
    random pins, so their pin intervals overlap."""
    names, order, exact = [], [], {}
    for f in range(fences):
        fence = [f"f{f}_{i}" for i in range(rng.randint(2, 5))]
        lo, hi = gen.distinct_fractions(rng, 2)
        names += [*fence, f"f{f}_lo", f"f{f}_hi"]
        exact.update({f"f{f}_lo": lo, f"f{f}_hi": hi})
        order += [(f"f{f}_lo", x) for x in fence] + [(x, f"f{f}_hi") for x in fence]
        zigzag = enumerate(zip(fence, fence[1:]))
        order += [(a, b) if i % 2 == 0 else (b, a) for i, (a, b) in zigzag]
    return names, order, exact


def _forest_doc(rng: random.Random, trees: int) -> gen.Doc:
    """``trees`` small trees side by side, each with its own pins."""
    names, order, exact = [], [], {}
    for t in range(trees):
        tree_names, tree_order, tree_exact = gen.tree_doc(rng, rng.randint(1, 3))
        names += [f"t{t}_{x}" for x in tree_names]
        order += [(f"t{t}_{a}", f"t{t}_{b}") for a, b in tree_order]
        exact.update({f"t{t}_{x}": v for x, v in tree_exact.items()})
    return names, order, exact


class TestPreCount:
    """The --engine exact pre-count walks each part by fragment profile
    and merges the parts' tables; the whole tie quotient's downsets
    (``oracles.count_extensions``) give the reference."""

    @staticmethod
    def _multi_part_sets() -> list[Prepared]:
        rng = random.Random(421)
        docs = [gen.mixed_doc(rng, rng.randint(2, 8), rng.randint(0, 3), 0.1) for _ in range(40)]
        docs += [gen.separator_doc(rng, 4) for _ in range(20)]
        docs += [gen.tied_doc(rng, rng.randint(4, 8), 2, 0.1) for _ in range(20)]
        docs += [_forest_doc(rng, rng.randint(2, 3)) for _ in range(20)]
        docs += [_fence_doc(rng, rng.randint(2, 3)) for _ in range(20)]
        sets = [Prepared(gen.to_cs(doc)) for doc in docs]
        return [prep for prep in sets if len(prep.decomposition.parts) > 1]

    def test_the_count_is_that_of_the_whole_quotient(self):
        sets = self._multi_part_sets()
        assert len(sets) >= 100
        for prep in sets:
            quotient = prep.ties.quotient
            assert precount.count_extensions(prep, 10**12) == oracles.count_extensions(
                quotient
            ), quotient

    def test_a_budget_of_the_count_answers_and_one_less_refuses(self):
        for prep in self._multi_part_sets():
            count = oracles.count_extensions(prep.ties.quotient)
            assert precount.count_extensions(prep, count) == count
            with pytest.raises(BudgetExceededError) as exc_info:
                precount.count_extensions(prep, count - 1)
            assert exc_info.value.lower_bound > count - 1

    def test_a_later_part_refuses_with_the_counts_before_it(self):
        # Each fence of fences() alone has c extensions.  At budget c the
        # second fence's walk refuses once its prefixes times c pass the
        # budget, naming that fence, before any merge
        prep = Prepared(fences())
        first = oracles.count_extensions(prep.decomposition.parts[0])
        with pytest.raises(BudgetExceededError) as exc_info:
            precount.count_extensions(prep, first)
        assert str(exc_info.value).startswith("the general part containing 'f1_0'")
        assert first < exc_info.value.lower_bound <= first**2

    def test_overlapping_fences_share_their_pin_intervals(self):
        # Two 8-unknown fences on [1/10, 6/10] and [3/10, 9/10]: only
        # [3/10, 6/10] is tracked, and the merge gives the whole count
        prep = Prepared(fences())
        count = oracles.count_extensions(prep.ties.quotient)
        assert precount.count_extensions(prep, 10**12) == count
        assert count_extensions(fences(), 10**12) == count


def forest() -> ConstraintSet:
    """Four small trees side by side: 10 unknowns, 1,027,080 extensions."""
    names, order, exact_values = [], [], {}
    for t, n in enumerate((3, 3, 2, 2)):
        tree_names, tree_order, tree_exact = gen.tree_doc(random.Random(100 + t), n)
        names += [f"t{t}_{x}" for x in tree_names]
        order += [(f"t{t}_{a}", f"t{t}_{b}") for a, b in tree_order]
        exact_values.update({f"t{t}_{x}": v for x, v in tree_exact.items()})
    return ConstraintSet(names, order, exact_values)


def test_exact_folds_answer_from_the_lattice_without_walking():
    # --engine exact answers a set with a million extensions as auto does,
    # part by part
    cs = forest()
    assert count_extensions(cs) == 1_027_080
    prep = Prepared(cs)
    unknowns = [v.name for v in cs.unknowns()]
    assert volume_exact(cs) == solve(prep, VOLUME)
    assert interpolate_all(cs) == solve(prep, VALUES, unknowns)
    for x in ("t0_u2", "t3_u1"):
        assert marginal_exact(cs, x) == solve(prep, MARGINAL, [x])


def fences() -> ConstraintSet:
    """Two independent zigzag fences of 8 unknowns, each between its own
    two pins, the pins' intervals overlapping."""
    names, order, exact_values = [], [], {}
    for f, (lo, hi) in enumerate(((F(1, 10), F(6, 10)), (F(3, 10), F(9, 10)))):
        fence = [f"f{f}_{i}" for i in range(8)]
        names += fence + [f"f{f}_lo", f"f{f}_hi"]
        exact_values.update({f"f{f}_lo": lo, f"f{f}_hi": hi})
        for low, high in zip(fence[0::2], fence[1::2]):
            order += [(f"f{f}_lo", low), (low, high), (high, f"f{f}_hi")]
        order += list(zip(fence[2::2], fence[1::2]))
    return ConstraintSet(names, order, exact_values)


def test_exact_engine_answers_part_by_part(monkeypatch):
    # Under --engine exact the budget bounds the whole set's extensions,
    # but no lattice holds unknowns of both fences, and the answers equal
    # auto's
    cs = fences()
    budget = 10**12
    prep = Prepared(cs)
    assert [skel.shape for skel in prep.decomposition.skeletons] == ["general"] * 2
    unknowns = [v.name for v in cs.unknowns()]
    auto = (
        solve(prep, VOLUME),
        solve(prep, VALUES, unknowns),
        solve(prep, MARGINAL, ["f1_3"]),
    )
    seen = []
    levels = lattice._levels

    def spy(prep, *args):
        seen.append({prep.quotient.variables[u].name[:2] for u in prep.unknown_ids})
        return levels(prep, *args)

    monkeypatch.setattr(lattice, "_levels", spy)
    exact_answers = (
        volume_exact(cs, budget),
        interpolate_all(cs, budget),
        marginal_exact(cs, "f1_3", budget),
    )
    assert exact_answers == auto
    assert seen and all(len(fences_held) == 1 for fences_held in seen)
    # When a part's pre-count gives up below the budget, that part is
    # refused by name before any lattice is built
    seen.clear()
    monkeypatch.setattr(lattice, "_LEVEL_MASK_CAP", 1)
    with pytest.raises(LimitExceededError) as exc_info:
        volume_exact(cs, budget)
    message = str(exc_info.value)
    assert "the general part containing 'f0_0' (8 unknowns, 6 pinned" in message
    assert "more than 1 prefixes" in message
    assert seen == []
