"""Top-k evaluation under the three semantics, plus containment."""
import random
from fractions import Fraction

import pytest

import gen
import oracles
from ordpoly import (
    BudgetExceededError,
    ConstraintSet,
    MalformedInputError,
    PersistentTieError,
    check_containment,
    global_topk,
    interpolate_all,
    local_topk,
    select,
    u_sequence_probabilities,
    u_topk,
)
from ordpoly import topk
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


class TestSelectedParts:
    """u and global top-k walk only the parts that hold a selected
    variable; their answers are those of the whole tie quotient's lattice
    (``oracles.whole_set_topk``)."""

    @staticmethod
    def _battery() -> list:
        """72 sets of two or more parts, each with a selection of 1-4
        variables of one or two parts, pins among them at times."""
        rng = random.Random(347)
        out = []
        while len(out) < 72:
            kind = len(out) % 4
            if kind == 0:
                doc = gen.forest_doc(rng)
            elif kind == 1:
                doc = gen.separator_doc(rng)
            elif kind == 2:
                doc = gen.fence_doc(rng, rng.randint(2, 3), rng.randint(2, 4))
            else:
                doc = gen.mixed_doc(rng, rng.randint(3, 7), rng.randint(1, 3), 0.15)
            cs = gen.to_cs(doc)
            prepared = Prepared(cs)
            try:  # two parts' pins may share a value, which ties them
                prepared.reject_user_ties()
            except PersistentTieError:
                continue
            d = prepared.decomposition
            if len(d.parts) < 2:
                continue
            held = rng.sample(range(len(d.parts)), rng.randint(1, min(2, len(d.parts) - 1)))
            pool = [v.name for no in held for v in d.classes[no]]
            pool += [n for n in doc[2] if rng.random() < 0.2]
            names = sorted(rng.sample(pool, rng.randint(1, min(4, len(pool)))))
            out.append((cs, names, rng.randint(1, len(names))))
        return out

    def test_answers_equal_the_whole_set_lattice(self):
        for cs, names, k in self._battery():
            u, in_top = oracles.whole_set_topk(cs, names, k)
            assert u_sequence_probabilities(cs, names, k) == u, (cs, names, k)
            prepared, chosen = topk._selection_vars(cs, names)
            scored = topk._global_rankings(prepared, chosen, 10**12)[min(k, len(names)) - 1]
            assert {v.name: p for v, p in scored} == in_top, (cs, names, k)
            best = min(u, key=lambda seq: (-u[seq], seq))
            assert u_topk(cs, names, k).names() == best

    def test_other_parts_cost_nothing(self):
        # three 8-unknown fences, 4 unknowns of the first selected: the
        # walk holds only the first fence's downsets, so a budget the whole
        # set's lattice overruns answers, and an error names the part
        cs = gen.to_cs(gen.fence_doc(random.Random(7), 3, 8))
        assert len(Prepared(cs).decomposition.parts) == 3
        names = ["f0_0", "f0_1", "f0_2", "f0_3"]
        top = global_topk(cs, names, 2, budget=100)
        assert len(top.entries) == 2
        with pytest.raises(BudgetExceededError, match="general part containing 'f0_0'"):
            u_topk(cs, names, 2, budget=5)
