"""Top-k evaluation under the three semantics, plus containment."""
import random
from fractions import Fraction

import pytest

import gen
from ordpoly import (
    BudgetExceededError,
    ConstraintSet,
    MalformedInputError,
    check_containment,
    global_topk,
    interpolate_all,
    local_topk,
    select,
    u_sequence_probabilities,
    u_topk,
)
from ordpoly.model import Prepared

F = Fraction


def both(cs: ConstraintSet) -> tuple:
    """A set and its pipeline: every entry point takes either."""
    return cs, Prepared(cs)


def u_lemma() -> ConstraintSet:
    """One unknown pair below/above two pins at .7 and .69."""
    return ConstraintSet(
        ["x_l", "x_h", "x_fp", "x_fm"],
        [("x_l", "x_h")],
        {"x_fp": F(7, 10), "x_fm": F(69, 100)},
    )


def global_lemma() -> ConstraintSet:
    return ConstraintSet(
        ["x_l", "x_h", "x_f", "x_s"],
        [("x_l", "x_h")],
        {"x_l": F(45, 100), "x_f": F(73, 100)},
    )


def local_vs_u() -> ConstraintSet:
    return ConstraintSet(
        ["xp", "x", "y"], [("xp", "x")], {"y": F(7, 10)}
    )


ALL = ["x_l", "x_h", "x_fp", "x_fm"]


class TestLocal:
    def test_ranks_by_expected_value(self):
        for cs in both(local_vs_u()):
            top = local_topk(cs, ["x", "y"], 1)
            assert top.names() == ("y",)
            assert top.entries[0][1] == F(7, 10)

    def test_k_larger_than_selection_truncates(self):
        cs = local_vs_u()
        top = local_topk(cs, ["x", "y"], 5)
        assert top.names() == ("y", "x")

    def test_name_tiebreak_is_deterministic(self):
        cs = ConstraintSet(["b", "a"], [], {})
        top = local_topk(cs, ["a", "b"], 2)
        assert top.names() == ("a", "b")

    def test_containment_holds(self):
        rng = random.Random(83)
        for _ in range(15):
            doc = gen.mixed_doc(rng, rng.randint(2, 5), rng.randint(0, 2))
            cs = gen.to_cs(doc)
            vals = interpolate_all(cs)
            if len(set(vals.values())) != len(vals):
                continue  # strict prefixes need distinct values
            for x in both(cs):
                assert check_containment(x, doc[0], "local").holds


class TestU:
    def test_k1_probabilities(self):
        probs = u_sequence_probabilities(u_lemma(), ALL, 1)
        assert probs[("x_fp",)] == F(49, 100)
        assert probs[("x_h",)] == F(51, 100)

    def test_k2_probabilities_and_sum(self):
        probs = u_sequence_probabilities(u_lemma(), ALL, 2)
        assert u_sequence_probabilities(Prepared(u_lemma()), ALL, 2) == probs
        assert probs[("x_fp", "x_fm")] == F(4761, 10000)
        assert probs[("x_h", "x_fp")] == F(42, 100)
        assert probs[("x_h", "x_l")] == F(9, 100)
        assert probs[("x_fp", "x_h")] == F(139, 10000)
        assert sum(probs.values()) == 1

    def test_argmax_answers(self):
        for cs in both(u_lemma()):
            assert u_topk(cs, ALL, 1).names() == ("x_h",)
            assert u_topk(cs, ALL, 2).names() == ("x_fp", "x_fm")

    def test_containment_violated(self):
        report = check_containment(u_lemma(), ALL, "u")
        assert not report.holds
        assert report.violated_at == 1
        assert report.shorter == ("x_h",)
        assert report.longer[:1] != report.shorter
        assert check_containment(Prepared(u_lemma()), ALL, "u") == report

    def test_u_top1_differs_from_local_top1(self):
        cs = local_vs_u()
        assert u_topk(cs, ["x", "y"], 1).names() == ("x",)
        assert local_topk(cs, ["x", "y"], 1).names() == ("y",)


class TestGlobal:
    def test_top1_and_top2_disagree_on_first_element(self):
        cs = global_lemma()
        sel = ["x_h", "x_f", "x_s"]
        top1 = global_topk(cs, sel, 1)
        assert top1.names() == ("x_h",)
        top2 = global_topk(cs, sel, 2)
        assert global_topk(Prepared(cs), sel, 2) == top2
        assert top2.names()[0] == "x_f"
        # the two inclusion probabilities are exactly ordered
        p_f = top2.entries[0][1]
        p_h = dict((v.name, p) for v, p in top2.entries)["x_h"]
        assert p_f > p_h

    def test_full_selection_probabilities_are_one(self):
        cs = u_lemma()
        top = global_topk(cs, ALL, len(ALL))
        assert all(p == 1 for _, p in top.entries)

    def test_probabilities_within_unit_interval(self):
        rng = random.Random(89)
        for _ in range(10):
            doc = gen.mixed_doc(rng, rng.randint(2, 5), rng.randint(0, 2))
            cs = gen.to_cs(doc)
            for k in (1, 2):
                for _, p in global_topk(cs, doc[0], k).entries:
                    assert 0 <= p <= 1

    def test_containment_violated(self):
        for cs in both(global_lemma()):
            report = check_containment(cs, ["x_h", "x_f", "x_s"], "global")
            assert not report.holds
            assert report.violated_at == 1


class TestValidation:
    def test_empty_selection_rejected(self):
        with pytest.raises(MalformedInputError):
            select(u_lemma(), [])

    def test_unknown_name_rejected(self):
        with pytest.raises(MalformedInputError):
            local_topk(u_lemma(), ["nope"], 1)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(MalformedInputError):
            u_topk(u_lemma(), ALL, 0)

    def test_unknown_semantics_rejected(self):
        with pytest.raises(MalformedInputError):
            check_containment(u_lemma(), ALL, "median")

    def test_budget_error_suggests_estimator(self):
        cs = ConstraintSet([f"v{i}" for i in range(10)], [], {})
        with pytest.raises(BudgetExceededError) as exc_info:
            u_topk(cs, [f"v{i}" for i in range(10)], 2, budget=100)
        assert "estimate_topk" in str(exc_info.value)
