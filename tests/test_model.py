"""Constraint-set model: closure, consistency, ties, decomposition, shapes."""
import random
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
import oracles
from ordpoly import (
    SHAPE_GENERAL,
    SHAPE_REVERSE_TREE,
    SHAPE_TOTAL_ORDER,
    SHAPE_TREE,
    ConstraintSet,
    ContradictionError,
    PersistentTieError,
    check_consistency,
    classify_shape,
    close_under_implication,
    collapse_ties,
    decompose,
    flip_constraints,
    hasse,
    part_skeleton,
    polytope_dimension,
)
from ordpoly import fileio, model
from ordpoly.model import (
    ConsistencyReport,
    _reachability,
    _strong_components,
    _witness_chain,
)

F = Fraction


def diamond(gamma=F(1, 2)) -> ConstraintSet:
    """Two incomparable middles between a common bottom and top, one pinned."""
    return ConstraintSet(
        ["x", "y", "z", "g"],
        [("x", "y"), ("y", "z"), ("x", "g"), ("g", "z")],
        {"g": gamma},
    )


def lemma_tree(extra_pin=None) -> ConstraintSet:
    exact = {"x_r": F(0), "x_c": F(1, 2), "x_e": F(1)}
    if extra_pin:
        exact.update(extra_pin)
    return ConstraintSet(
        ["x_r", "x_a", "x_b", "x_c", "x_d", "x_e"],
        [("x_r", "x_a"), ("x_a", "x_b"), ("x_b", "x_c"), ("x_a", "x_d"), ("x_d", "x_e")],
        exact,
    )


small_docs = st.integers(0, 10_000).map(
    lambda seed: gen.mixed_doc(
        random.Random(seed), random.Random(seed).randint(1, 4), random.Random(seed + 1).randint(0, 2)
    )
)


class TestClosure:
    def test_diamond_cover_edges(self):
        cs = ConstraintSet(
            ["x", "y", "z", "yp"],
            [("x", "y"), ("y", "z"), ("x", "yp"), ("yp", "z"), ("x", "z")],
            {},
        )
        h = hasse(cs)
        assert h.edges_by_name() == {("x", "y"), ("x", "yp"), ("y", "z"), ("yp", "z")}

    def test_closure_materializes_transitive_edges(self):
        cs = close_under_implication(
            ConstraintSet(["a", "b", "c"], [("a", "b"), ("b", "c")], {})
        )
        a, b, c = (cs.resolve(n).id for n in "abc")
        assert cs.reaches(a, c)

    def test_pinned_values_become_comparable(self):
        cs = close_under_implication(
            ConstraintSet(["p", "q"], [], {"p": F(1, 4), "q": F(3, 4)})
        )
        assert cs.reaches(cs.resolve("p").id, cs.resolve("q").id)

    def test_closure_idempotent(self):
        cs = close_under_implication(diamond())
        again = close_under_implication(cs)
        assert again._succ == cs._succ
        assert again.order_edges == cs.order_edges

    @settings(max_examples=40, deadline=None)
    @given(small_docs)
    def test_closure_idempotent_random(self, doc):
        cs = close_under_implication(gen.to_cs(doc))
        assert close_under_implication(cs)._succ == cs._succ

    def test_hasse_round_trip(self):
        # transitive closure of the cover edges reproduces order_edges
        rng = random.Random(3)
        for _ in range(20):
            cs = close_under_implication(gen.to_cs(gen.mixed_doc(rng, 5, 1)))
            h = hasse(cs, include_bounds=True)
            import networkx as nx

            g = nx.DiGraph(list(h.cover_edges))
            g.add_nodes_from(v.id for v in h.nodes)
            closure = {
                (a, b) for a in g for b in nx.descendants(g, a)
            }
            assert closure == set(cs.order_edges)

    def test_cover_edges_have_nothing_between(self):
        # on tie quotients and their parts: a cover pair has no third
        # variable strictly between its two
        rng = random.Random(13)
        docs = [gen.mixed_doc(rng, rng.randint(1, 9), rng.randint(0, 3)) for _ in range(25)]
        docs += [gen.tied_doc(rng, rng.randint(3, 8), 2) for _ in range(5)]
        docs += [gen.separator_doc(rng) for _ in range(10)]
        for doc in docs:
            prepared = model.Prepared(gen.to_cs(doc))
            for closed in (prepared.ties.quotient, *prepared.decomposition.parts):
                assert model._cover_edges(closed) == oracles.covers(closed), doc


def _adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
    return adj


def _condensation_reachability(n, edges):
    """Reference closure: networkx SCCs, then a pass over the condensation
    in reverse topological order."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    cond = nx.condensation(g)
    comp_succ = {}
    for c in reversed(list(nx.topological_sort(cond))):
        acc = 0
        for d in cond.successors(c):
            for m in cond.nodes[d]["members"]:
                acc |= 1 << m
            acc |= comp_succ[d]
        comp_succ[c] = acc
    succ = [0] * n
    for c in cond.nodes:
        members = cond.nodes[c]["members"]
        bits = comp_succ[c]
        if len(members) > 1:
            bits |= sum(1 << m for m in members)
        for m in members:
            succ[m] = bits
    return succ


digraphs = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
    )
)


class TestStrongComponents:
    @settings(max_examples=300, deadline=None)
    @given(digraphs)
    def test_matches_networkx(self, graph):
        import networkx as nx

        n, edges = graph
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        comps = list(_strong_components(_adjacency(n, edges)))
        assert {frozenset(c) for c in comps} == {
            frozenset(c) for c in nx.strongly_connected_components(g)
        }
        # reverse topological order: each component after all it reaches
        position = {m: k for k, comp in enumerate(comps) for m in comp}
        assert all(position[a] >= position[b] for a, b in edges)
        succ, ties = _reachability(n, set(edges))
        assert succ == _condensation_reachability(n, edges)
        # the tie classes: networkx's components by smallest member, and
        # their bitsets the condensation's reachability, renumbered so
        sccs = sorted((sorted(c) for c in nx.strongly_connected_components(g)), key=min)
        if len(sccs) == n:
            assert ties is None
        else:
            classes, of, class_succ = ties
            assert classes == sccs
            assert of == [k for i in range(n) for k, c in enumerate(sccs) if i in c]
            cond = nx.condensation(g, scc=[set(c) for c in sccs])  # node k is sccs[k]
            assert class_succ == [sum(1 << d for d in nx.descendants(cond, k)) for k in range(len(sccs))]
        # the tie flag agrees with a scan for a variable that reaches itself
        names = [f"v{i}" for i in range(n)]
        closed = close_under_implication(ConstraintSet(names, [(names[a], names[b]) for a, b in edges]))
        scan = any(mask >> i & 1 for i, mask in enumerate(closed._succ))
        assert closed.has_persistent_tie() == scan

    def test_deep_cycle_needs_no_recursion(self):
        n = 5000
        edges = {(i, i + 1) for i in range(n - 1)} | {(n - 1, 0)}
        comps = list(_strong_components(_adjacency(n, edges)))
        assert len(comps) == 1 and sorted(comps[0]) == list(range(n))
        succ, ties = _reachability(n, edges)
        assert succ == [(1 << n) - 1] * n
        assert ties == ([list(range(n))], [0] * n, [0])


class TestConsistency:
    def test_consistent_instance(self):
        assert check_consistency(diamond()).ok

    def test_contradiction_carries_witness_chain(self):
        cs = ConstraintSet(
            ["x", "y"], [("y", "x")], {"x": F(1, 10), "y": F(1, 5)}
        )
        report = check_consistency(cs)
        assert not report.ok
        assert [v.name for v in report.witness] == ["y", "x"]

    def test_ties_alone_stay_consistent(self):
        cs = ConstraintSet(["a", "b"], [("a", "b"), ("b", "a")], {})
        assert check_consistency(cs).ok

    def test_pin_against_order_direction(self):
        cs = ConstraintSet(
            ["lo", "hi"], [("lo", "hi")], {"lo": F(9, 10), "hi": F(1, 10)}
        )
        assert not check_consistency(cs).ok

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_agreement_with_lp_probe(self, seed):
        rng = random.Random(seed)
        names, order, exact = gen.mixed_doc(rng, rng.randint(1, 3), rng.randint(0, 2))
        # same instance, occasionally sabotaged by a reversed pin pair
        if len(exact) >= 2 and rng.random() < 0.5:
            a, b = rng.sample(sorted(exact), 2)
            if exact[a] < exact[b]:
                order = list(order) + [(b, a)]
        cs = ConstraintSet(names, order, exact)
        assert check_consistency(cs).ok == oracles.lp_feasible(names, order, exact)


def _pairwise_consistency(cs: ConstraintSet) -> ConsistencyReport:
    """The reference scan: every pin, in (-value, name) order, against
    every strictly smaller pin in reverse order, the first reached pair
    naming the contradiction."""
    closed = close_under_implication(cs)
    succ = closed._succ
    pinned = sorted(
        closed.exact_values.items(), key=lambda kv: (-kv[1], closed.variables[kv[0]].name)
    )
    for i, vi in pinned:
        for j, vj in reversed(pinned):
            if vj >= vi:
                break
            if succ[i] >> j & 1:
                chain = _witness_chain(closed, i, j)
                names = " <= ".join(v.name for v in chain)
                return ConsistencyReport(
                    ok=False,
                    witness=chain,
                    message=(
                        f"chain {names} forces {vi} <= {vj}, but "
                        f"{closed.variables[i].name} = {vi} and "
                        f"{closed.variables[j].name} = {vj}"
                    ),
                )
    return ConsistencyReport(ok=True)


def _violations(cs: ConstraintSet) -> int:
    """The pairs of pins whose order contradicts their values."""
    closed = close_under_implication(cs)
    pins = closed.exact_values
    return sum(
        1 for i in pins for j in pins if pins[j] < pins[i] and closed._succ[i] >> j & 1
    )


class TestConsistencyWitness:
    """The mask test names the same pair, witness and message as the
    pairwise scan, on sets made contradictory with reversed edges, equal
    pins and pins at 0 and 1."""

    def _doc(self, rng: random.Random):
        names, order, exact = gen.mixed_doc(rng, rng.randint(0, 6), rng.randint(2, 7))
        pins = sorted(exact)
        for p in pins:
            roll = rng.random()
            if roll < 0.15:
                exact[p] = F(0)
            elif roll < 0.3:
                exact[p] = F(1)
            elif roll < 0.5:
                exact[p] = exact[rng.choice(pins)]
        order = list(order)
        for _ in range(rng.randint(1, 4)):
            order.append(tuple(rng.sample(names, 2)))
        return names, order, exact

    def test_agrees_with_the_pairwise_scan(self):
        rng = random.Random(307)
        several = 0
        failing = 0
        for _ in range(400):
            cs = gen.to_cs(self._doc(rng))
            want = _pairwise_consistency(cs)
            assert check_consistency(cs) == want
            failing += not want.ok
            several += _violations(cs) > 1
        assert failing > 150 and several > 100

    def _large_doc(self, rng: random.Random):
        # Names shuffled against ids, so breaking a tie by id is not by
        # name; a few back edges tie unknowns; pins from few values, 0 and
        # 1 among them, so equal pins tie too; half the time the values
        # rise with the ids, along the forward edges (consistent unless a
        # back edge reverses them).
        n = rng.randint(20, 60)
        names = [f"v{i}" for i in range(n)]
        rng.shuffle(names)
        order = [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 2.5 / n
        ]
        order += [tuple(rng.sample(names, 2)) for _ in range(rng.randint(0, 3))]
        pins = sorted(rng.sample(range(n), rng.randint(1, 20)))
        values = [rng.choice([F(0), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1)]) for _ in pins]
        if rng.random() < 0.5:
            values.sort()
        return names, order, {names[i]: v for i, v in zip(pins, values)}

    def test_larger_sets_agree_with_the_pairwise_scan(self):
        rng = random.Random(4242)
        failing = 0
        for _ in range(200):
            cs = gen.to_cs(self._large_doc(rng))
            want = _pairwise_consistency(cs)
            assert check_consistency(cs) == want
            failing += not want.ok
        assert 40 < failing < 180

    def test_a_tie_free_closure_reads_no_pin(self):
        class Counted(Mapping):
            def __init__(self, inner):
                self.inner, self.reads = inner, 0

            def __getitem__(self, key):
                self.reads += 1
                return self.inner[key]

            def __iter__(self):
                self.reads += 1
                return iter(self.inner)

            def __len__(self):
                self.reads += 1
                return len(self.inner)

        cs = ConstraintSet(
            ["a", "p", "b", "q"],
            [("a", "p"), ("p", "b"), ("b", "q")],
            {"p": F(1, 3), "q": F(2, 3)},
        )
        closed = close_under_implication(cs)
        assert not closed.has_persistent_tie()
        closed.exact_values = counted = Counted(closed.exact_values)
        assert check_consistency(closed).ok
        assert counted.reads == 0

    def test_prepared_reuses_its_report(self, monkeypatch):
        # the request's gate, the tie collapse and the decomposition share
        # one strong-components pass and one check
        cs = ConstraintSet(["p", "u", "v"], [("p", "u"), ("u", "v")], {"p": F(0)})
        calls, passes = [], []
        check, reachability = model.check_consistency, model._reachability
        monkeypatch.setattr(model, "check_consistency", lambda c: calls.append(c) or check(c))
        monkeypatch.setattr(model, "_reachability", lambda *a: passes.append(a) or reachability(*a))
        prep = model.Prepared(cs)
        assert prep.closed.has_persistent_tie()
        prep.consistency.raise_if_contradiction()
        assert prep.consistency.ok and not prep.ties.quotient.has_persistent_tie()
        assert len(prep.decomposition.parts) == 1
        assert len(calls) == 1 and len(passes) == 1
        # a tie-free set collapses to itself, unchecked
        free = model.Prepared(ConstraintSet(["u", "v"], [("u", "v")], {"v": F(1, 2)}))
        assert free.ties.quotient is free.closed
        assert len(calls) == 1


class TestTies:
    def test_collapse_merges_cycle(self):
        cs = ConstraintSet(
            ["a", "b", "c"], [("a", "b"), ("b", "a"), ("b", "c")], {}
        )
        tq = collapse_ties(cs)
        rep = tq.quotient_of(cs, "a")
        assert tq.quotient_of(cs, "b") == rep
        assert not tq.quotient.has_persistent_tie()

    def test_tie_with_pin_propagates_value(self):
        cs = ConstraintSet(
            ["a", "p"], [("a", "p"), ("p", "a")], {"p": F(2, 5)}
        )
        tq = collapse_ties(cs)
        rep = tq.quotient_of(cs, "a")
        assert tq.quotient.exact_values[rep.id] == F(2, 5)

    def test_user_tie_rejected_by_strict_surfaces(self):
        cs = ConstraintSet(["a", "b"], [("a", "b"), ("b", "a")], {})
        with pytest.raises(PersistentTieError):
            hasse(cs)
        with pytest.raises(PersistentTieError):
            decompose(cs)

    def test_equal_pins_are_a_user_tie(self):
        # pinning two variables to the same value ties them; strict
        # surfaces ask for an explicit collapse
        cs = ConstraintSet(["p", "q", "u"], [("p", "u")], {"p": F(1, 2), "q": F(1, 2)})
        with pytest.raises(PersistentTieError):
            hasse(cs)

    def test_bound_pins_tie_silently(self):
        # a pin at 0 or 1 coincides with a reserved bound; that tie class
        # has a single visible member and is collapsed without complaint
        cs = ConstraintSet(["p", "u"], [("p", "u")], {"p": F(0)})
        assert hasse(cs).edges_by_name() == {("p", "u")}

    def test_collapse_rejects_contradiction(self):
        cs = ConstraintSet(["x", "y"], [("y", "x")], {"x": F(1, 10), "y": F(1, 5)})
        with pytest.raises(ContradictionError) as err:
            collapse_ties(cs)
        report = check_consistency(cs)
        assert str(err.value) == report.message
        assert err.value.witness == tuple(v.name for v in report.witness)

    def test_quotient_order_comes_from_the_closure(self, monkeypatch):
        # the collapse reads the classes and their order that closing
        # found: no second pass, and the order a fresh one would give
        rng = random.Random(27)
        docs = [gen.tied_doc(rng, rng.randint(3, 10), rng.randint(1, 3)) for _ in range(25)]
        docs += [gen.mixed_doc(rng, rng.randint(2, 10), rng.randint(1, 4)) for _ in range(25)]
        docs += [gen.tree_doc(rng, rng.randint(3, 12)) for _ in range(10)]
        passes = []
        reachability = model._reachability
        monkeypatch.setattr(model, "_reachability", lambda *a: passes.append(a) or reachability(*a))
        tied = 0
        for doc in docs:
            closed = close_under_implication(gen.to_cs(doc))
            if not check_consistency(closed).ok:
                continue
            passes.clear()
            tq = collapse_ties(closed)
            assert passes == []
            q = tq.quotient
            tied += closed.has_persistent_tie()
            assert q._succ == reachability(len(q.variables), set(q._base_edges))[0]
            for v in closed.variables:
                assert v in tq.representatives[tq.class_of[v.id].id]
        assert tied > 20


class TestDecompose:
    def test_separator_splits_parts(self):
        cs = ConstraintSet(
            ["u", "w", "v"], [("u", "w"), ("v", "w")], {"w": F(1, 3)}
        )
        d = decompose(cs)
        assert len(d.parts) == 2
        assert d.part_index["u"] != d.part_index["v"]

    def test_unknown_cover_keeps_one_part(self):
        cs = ConstraintSet(["u", "v", "w"], [("u", "v"), ("v", "w")], {"w": F(1, 3)})
        d = decompose(cs)
        assert len(d.parts) == 1

    def test_parts_preserve_member_relations(self):
        rng = random.Random(11)
        for _ in range(25):
            cs = gen.to_cs(gen.separator_doc(rng))
            closed = close_under_implication(cs)
            for part, cls in zip(decompose(cs).parts, decompose(cs).classes):
                part_closed = close_under_implication(part)
                for a in cls:
                    for b in cls:
                        assert part_closed.reaches(
                            part_closed.resolve(a.name).id,
                            part_closed.resolve(b.name).id,
                        ) == closed.reaches(
                            closed.resolve(a.name).id, closed.resolve(b.name).id
                        )


class TestShapes:
    def test_diamond_is_general(self):
        assert classify_shape(diamond()) == [SHAPE_GENERAL]

    def test_lemma_tree_is_tree(self):
        assert classify_shape(lemma_tree()) == [SHAPE_TREE]

    def test_flipped_tree_is_reverse(self):
        assert classify_shape(flip_constraints(lemma_tree())) == [SHAPE_REVERSE_TREE]

    def test_pinned_chain_is_total_order(self):
        cs = ConstraintSet(
            ["lo", "u0", "u1", "hi"],
            [("lo", "u0"), ("u0", "u1"), ("u1", "hi")],
            {"lo": F(1, 4), "hi": F(3, 4)},
        )
        assert classify_shape(cs) == [SHAPE_TOTAL_ORDER]

    def test_forest_classifies_per_part(self):
        cs = ConstraintSet(
            ["u", "w", "v1", "v2"],
            [("u", "w"), ("v1", "w"), ("v2", "w")],
            {"w": F(1, 2)},
        )
        shapes = classify_shape(cs)
        assert len(shapes) == 3  # u, v1, v2 share no unknown-unknown cover

    def test_part_skeleton_drops_pin_pin_covers(self):
        cs = ConstraintSet(
            ["p", "q", "u"], [("p", "q"), ("q", "u")], {"p": F(1, 4), "q": F(1, 2)}
        )
        for part in decompose(cs).parts:
            skel = part_skeleton(part)
            names = {v.name for v in skel.nodes}
            assert "p" not in names  # isolated after the pin-pin cover drops

    @staticmethod
    def _skeleton_battery() -> list:
        """220 random sets: tied, pinned at 0 and 1, and split in several
        parts (a separator, independent trees, sparse DAGs)."""
        rng = random.Random(331)
        docs = []
        for i in range(220):
            kind = i % 5
            if kind == 0:
                docs.append(gen.tied_doc(rng, rng.randint(3, 8), rng.randint(1, 2)))
            elif kind == 1:
                names, order, exact = gen.mixed_doc(rng, rng.randint(2, 8), rng.randint(2, 4), 0.3)
                low, high = min(exact, key=exact.get), max(exact, key=exact.get)
                exact[low], exact[high] = F(0), F(1)
                docs.append((names, order, exact))
            elif kind == 2:
                docs.append(gen.separator_doc(rng))
            elif kind == 3:
                docs.append(gen.mixed_doc(rng, rng.randint(3, 9), rng.randint(0, 3), 0.1))
            else:
                docs.append(gen.forest_doc(rng))
        return docs

    def test_skeletons_come_from_the_quotients_covers(self):
        # each part's skeleton, built from the tie quotient's covers, holds
        # exactly the part's own covers but the pin-pin ones, and is the
        # skeleton the bare part gives
        several = 0
        for doc in self._skeleton_battery():
            d = model.Prepared(gen.to_cs(doc)).decomposition
            several += len(d.parts) > 1
            for skel in d.skeletons:
                part = skel.part
                pins = part.exact_values
                edges = {(a, b) for a, kids in skel.children.items() for b in kids}
                want = {(a, b) for a, b in oracles.covers(part) if not (a in pins and b in pins)}
                assert edges == want, doc
                bare = part_skeleton(part)
                assert (bare.nodes, bare.children, bare.parents, bare.shape) == (
                    skel.nodes, skel.children, skel.parents, skel.shape
                ), doc
        assert several > 80


class TestDimension:
    def test_counts_free_coordinates(self):
        assert polytope_dimension(diamond()) == 3

    def test_ties_share_a_coordinate(self):
        cs = ConstraintSet(["a", "b", "c"], [("a", "b"), ("b", "a")], {})
        assert polytope_dimension(cs) == 2


class TestFlip:
    def test_involution_on_user_view(self):
        cs = lemma_tree()
        assert flip_constraints(flip_constraints(cs)).user_view() == cs.user_view()

    def test_values_mirror(self):
        cs = flip_constraints(ConstraintSet(["x"], [], {"x": F(1, 5)}))
        _, _, exact = cs.user_view()
        assert exact["x"] == F(4, 5)


class TestVariableId:
    def test_hash_is_that_of_the_id(self):
        a, b = model.VariableId(3, "x"), model.VariableId(3, "x")
        assert a == b and hash(a) == hash(b) == hash(3)
        assert len({a, b}) == 1

    def test_same_id_other_name_stays_unequal(self):
        a, b = model.VariableId(3, "x"), model.VariableId(3, "y")
        assert a != b
        assert len({a, b}) == 2 and {a: 1}.get(b) is None

    def test_resolve_refuses_ids_out_of_range(self):
        from ordpoly import MalformedInputError, interpolate_exact

        cs = ConstraintSet(["a", "b"], [("a", "b")])
        assert cs.resolve(0).name == "a" and cs.resolve(1).name == "b"
        for bad in (-1, -2, 2, 7, model.VariableId(-1, "b")):
            with pytest.raises(MalformedInputError):
                cs.resolve(bad)
        with pytest.raises(MalformedInputError):
            interpolate_exact(cs, -1)
        assert interpolate_exact(cs, 1) == F(2, 3)


class TestSerialization:
    def test_round_trip(self):
        cs = diamond(F(1, 4))
        again = fileio.loads(fileio.dumps(cs))
        assert again.user_view() == cs.user_view()

    def test_decimal_text_parses_exactly(self):
        cs = fileio.loads(
            '{"variables": ["a"], "order": [], "exact": {"a": 0.45}}'
        )
        _, _, exact = cs.user_view()
        assert exact["a"] == F(9, 20)

    def test_duplicate_variable_rejected(self):
        from ordpoly import MalformedInputError

        with pytest.raises(MalformedInputError):
            fileio.loads('{"variables": ["a", "a"], "order": [], "exact": {}}')

    def test_unknown_name_in_order_rejected(self):
        from ordpoly import MalformedInputError

        with pytest.raises(MalformedInputError):
            fileio.loads('{"variables": ["a"], "order": [["a", "b"]], "exact": {}}')
