"""PTIME tree engine, cross-checked against the downset lattice."""
import random
from fractions import Fraction

import pytest

import gen
import oracles
import ordpoly.tree as tree_module
from ordpoly import (
    SHAPE_GENERAL,
    SHAPE_TOTAL_ORDER,
    ConstraintSet,
    ShapeError,
    as_tree,
    flip_constraints,
    interpolate_decomposed,
    interpolate_exact,
    interpolate_tree,
    marginal_decomposed,
    marginal_tree,
    part_skeleton,
    pw_expectation,
    volume_tree,
)
from ordpoly import lattice
from ordpoly.model import Prepared
from ordpoly.tree import MARGINAL, VALUES, VOLUME, solve

F = Fraction


def lattice_answers(cs: ConstraintSet, marginal_of=()):
    """The volume, every unknown's expected value and the marginals of
    ``marginal_of``, from ``lattice.answer`` on each decomposition part.
    The exact wrappers would send these tree-shaped parts back to the
    tree engine; the lattice takes any closed, tie-free part."""
    d = Prepared(cs).decomposition
    volume, values = F(1), {}
    for skel, cls in zip(d.skeletons, d.classes):
        volume *= lattice.answer(skel, VOLUME)
        values.update(lattice.answer(skel, VALUES, [v.name for v in cls]))
    marginals = {
        x: lattice.answer(d.skeletons[d.part_index[x]], MARGINAL, [x]) for x in marginal_of
    }
    return volume, values, marginals


def lemma_tree(extra_pin=None) -> ConstraintSet:
    exact = {"x_r": F(0), "x_c": F(1, 2), "x_e": F(1)}
    if extra_pin:
        exact.update(extra_pin)
    return ConstraintSet(
        ["x_r", "x_a", "x_b", "x_c", "x_d", "x_e"],
        [("x_r", "x_a"), ("x_a", "x_b"), ("x_b", "x_c"), ("x_a", "x_d"), ("x_d", "x_e")],
        exact,
    )


class TestStructure:
    def test_nodes_and_leaf_values(self):
        t = as_tree(lemma_tree())
        assert t.root_value == 0
        assert {v.name for v in t.unknown_nodes()} == {"x_a", "x_b", "x_d"}
        assert t.leaf_values[t.node("x_c")] == F(1, 2)

    def test_multi_component_set_is_refused(self):
        cs = ConstraintSet(
            ["u", "v", "s"], [("u", "s"), ("s", "v")], {"s": F(1, 2)}
        )
        with pytest.raises(ShapeError):
            as_tree(cs)

    def test_non_tree_shape_is_refused(self):
        cs = ConstraintSet(
            ["x", "y", "z", "g"],
            [("x", "y"), ("y", "z"), ("x", "g"), ("g", "z")],
            {"g": F(1, 2)},
        )
        with pytest.raises(ShapeError):
            as_tree(cs)

    def test_a_skeleton_that_is_no_tree_is_refused(self):
        # a general part, and a chain with a pin inside (which decomposes
        # in two parts, so only its undecomposed skeleton is a chain)
        general = ConstraintSet(
            ["x", "y", "z", "g"],
            [("x", "y"), ("y", "z"), ("x", "g"), ("g", "z")],
            {"g": F(1, 2)},
        )
        chain = ConstraintSet(["a", "p", "b"], [("a", "p"), ("p", "b")], {"p": F(1, 2)})
        cases = [
            (general, "not tree-shaped: a non-root node has more than one parent"),
            (chain, "not tree-shaped: an internal node is pinned to an exact value"),
        ]
        for cs, message in cases:
            skel = part_skeleton(cs)
            assert skel.shape == (SHAPE_GENERAL if cs is general else SHAPE_TOTAL_ORDER)
            with pytest.raises(ShapeError, match=f"^{message}"):
                skel.tree

    def test_generator_builds_large_trees(self):
        # 250 unknowns need more distinct leaf values than any drawn
        # denominator alone provides.
        for seed in range(20):
            doc = gen.tree_doc(random.Random(seed), 250)
            leaf_values = [v for name, v in doc[2].items() if name != "r"]
            assert len(set(leaf_values)) == len(leaf_values)
            assert all(0 < v < 1 for v in leaf_values)
            t = as_tree(gen.to_cs(doc))
            assert len(t.unknown_nodes()) == 250


class TestVolume:
    def test_lemma_tree_volume(self):
        # integral of (1/2 - a)(1 - a) for a in [0, 1/2]
        assert volume_tree(as_tree(lemma_tree())) == F(5, 48)

    def test_two_unknown_chain_with_cap(self):
        # r=0 -> u0 -> u1 -> leaf 1/2: (1/2)^2/2 = 1/8
        cs = ConstraintSet(
            ["r", "u0", "u1", "l"],
            [("r", "u0"), ("u0", "u1"), ("u1", "l")],
            {"r": F(0), "l": F(1, 2)},
        )
        assert volume_tree(as_tree(cs)) == F(1, 8)

    def test_degree_bounded_by_subtree_size(self):
        rng = random.Random(3)
        for _ in range(20):
            t = as_tree(gen.to_cs(gen.tree_doc(rng, rng.randint(1, 8))))
            sizes: dict = {}

            def size(v) -> int:
                if v not in sizes:
                    sizes[v] = 1 + sum(size(c) for c in t.children[v])
                return sizes[v]

            for v, poly in t.volume_polys.items():
                assert poly.degree <= size(v)

    def test_volume_polynomials_match_reference(self):
        # Trees and their mirror images (a reverse tree's polynomials come
        # from its mirrored skeleton), half with the root pinned at 0.
        rng = random.Random(23)
        for k in range(40):
            names, order, exact = gen.tree_doc(rng, rng.randint(1, 10))
            if k % 4 < 2:
                exact["r"] = F(0)
            want = oracles.tree_volume_polys(order, exact)
            cs = gen.to_cs((names, order, exact))
            if k % 2:
                (skel,) = Prepared(flip_constraints(cs)).decomposition.skeletons
                t = tree_module._build_tree(skel, mirrored=True)
            else:
                t = as_tree(cs)
            # W_x(s) = Q^d V_x(s/Q): coefficient k of V_x is W_x's over Q^(d-k)
            q = t.scale
            got = {
                v.name: tuple(c / q ** (poly.degree - k) for k, c in enumerate(poly.coeffs))
                for v, poly in t.volume_polys.items()
            }
            assert got == {x: tuple(c) for x, c in want.items()}
            assert volume_tree(t) == sum(c * exact["r"] ** i for i, c in enumerate(want["u0"]))

    def test_cross_engine_on_random_trees(self):
        rng = random.Random(5)
        for _ in range(30):
            cs = gen.to_cs(gen.tree_doc(rng, rng.randint(1, 8)))
            assert volume_tree(as_tree(cs)) == lattice_answers(cs)[0]


class TestInterpolation:
    def test_lemma_tree_uniform_values(self):
        t = as_tree(lemma_tree())
        assert interpolate_tree(t, "x_a") == F(3, 20)
        assert interpolate_tree(t, "x_b") == F(13, 40)

    def test_pinning_shifts_the_uniform_answer(self):
        # the uniform scheme is not stable: committing x_b at its own
        # interpolated value changes the answer for x_a
        pinned = lemma_tree({"x_b": F(13, 40)})
        assert interpolate_exact(pinned, "x_a") == F(611, 4020)

    def test_cross_engine_on_random_trees(self):
        rng = random.Random(7)
        for _ in range(30):
            cs = gen.to_cs(gen.tree_doc(rng, rng.randint(1, 8)))
            t = as_tree(cs)
            whole = lattice_answers(cs)[1]
            for u in t.unknown_nodes():
                assert interpolate_tree(t, u) == whole[u.name]

    def test_one_bottom_up_pass_per_tree(self, monkeypatch):
        calls = []
        one_pass = tree_module._volume_polys

        def counted(t):
            calls.append(t)
            return one_pass(t)

        monkeypatch.setattr(tree_module, "_volume_polys", counted)
        t = as_tree(gen.to_cs(gen.tree_doc(random.Random(15), 30)))
        unknowns = t.unknown_nodes()[:5]
        for u in unknowns:
            interpolate_tree(t, u)
        volume_tree(t)
        marginal_tree(t, unknowns[0])
        t.volume_polys
        assert calls == [t]

    def test_one_pass_per_part_across_queries(self, monkeypatch):
        # the part's tree lives on its skeleton: a marginal and a value on
        # one Prepared, of a tree and of its mirror image, share one pass
        calls = []
        one_pass = tree_module._volume_polys
        monkeypatch.setattr(tree_module, "_volume_polys", lambda t: calls.append(t) or one_pass(t))
        cs = gen.to_cs(gen.tree_doc(random.Random(15), 30))
        for c in (cs, flip_constraints(cs)):
            prep = Prepared(c)
            solve(prep, MARGINAL, ["u3"])
            solve(prep, VALUES, ["u7"])
            (skel,) = prep.decomposition.skeletons
            assert len(calls) == 1 and calls[0] is skel.tree
            calls.clear()

    def test_flip_identity(self):
        cs = lemma_tree()
        rev = flip_constraints(cs)
        assert interpolate_decomposed(rev, "x_a") == 1 - F(3, 20)

    def test_decomposed_dispatch_handles_forests(self):
        cs = ConstraintSet(
            ["u", "v", "s"], [("u", "s"), ("s", "v")], {"s": F(1, 2)}
        )
        whole = lattice_answers(cs)[1]
        assert interpolate_decomposed(cs, "u") == whole["u"]
        assert interpolate_decomposed(cs, "v") == whole["v"]


class TestMarginal:
    def test_mass_is_one(self):
        t = as_tree(lemma_tree())
        for u in t.unknown_nodes():
            assert marginal_tree(t, u).mass() == 1

    def test_matches_enumeration_engine(self):
        cs = lemma_tree()
        t = as_tree(cs)
        unknowns = t.unknown_nodes()
        _, _, marginals = lattice_answers(cs, [u.name for u in unknowns])
        for u in unknowns:
            assert marginal_tree(t, u).canonical() == marginals[u.name]

    def test_decomposed_dispatch(self):
        cs = ConstraintSet(
            ["u", "v", "s"], [("u", "s"), ("s", "v")], {"s": F(1, 2)}
        )
        _, _, marginals = lattice_answers(cs, ["u"])
        assert marginal_decomposed(cs, "u").canonical() == marginals["u"]

    def test_mirrored_parts_match_enumeration(self):
        # Trees and their mirror images (reverse-tree parts are solved on
        # the mirrored skeleton), half with the root pinned at 0, with
        # pinned leaves under most internal nodes so they cut supports.
        rng = random.Random(17)
        for k in range(24):
            names, order, exact = gen.tree_doc(rng, rng.randint(1, 6), extra_leaf_p=0.6)
            if k % 4 < 2:
                exact["r"] = F(0)
            cs = gen.to_cs((names, order, exact))
            if k % 2:
                cs = flip_constraints(cs)
            names = [u.name for u in cs.unknowns()]
            _, whole, marginals = lattice_answers(cs, names)
            for name in names:
                assert interpolate_decomposed(cs, name) == whole[name]
                assert marginal_decomposed(cs, name).canonical() == marginals[name]

    def test_every_marginal_matches_the_lattice(self):
        # Out's pieces, integrated along each unknown's path, against the
        # lattice on 120 trees of 1-10 unknowns and their mirror images.
        rng = random.Random(24)
        for _ in range(120):
            cs = gen.to_cs(gen.tree_doc(rng, rng.randint(1, 10), extra_leaf_p=0.4))
            for c in (cs, flip_constraints(cs)):
                names = [u.name for u in c.unknowns()]
                _, _, marginals = lattice_answers(c, names)
                for name in names:
                    assert marginal_decomposed(c, name) == marginals[name]

    def test_large_marginals_have_the_path_redo_means(self):
        # On 30-80 unknowns the lattice is out of reach; the marginals of 8
        # unknowns per tree and per mirror must have the means the tree
        # engine computes without Out, and their breakpoints must be pins.
        rng = random.Random(2024)
        for _ in range(20):
            cs = gen.to_cs(gen.tree_doc(rng, rng.randint(30, 80)))
            for c in (cs, flip_constraints(cs)):
                prep = Prepared(c)
                names = rng.sample([u.name for u in c.unknowns()], 8)
                values = solve(prep, VALUES, names, engine="tree")
                pins = {F(0), F(1), *c.user_view()[2].values()}
                for name in names:
                    pw = solve(prep, MARGINAL, [name], engine="tree")
                    assert pw_expectation(pw) == values[name]
                    assert set(pw.breakpoints) <= pins

    def test_breakpoints_are_pin_values(self):
        t = as_tree(lemma_tree())
        pw = marginal_tree(t, "x_a").canonical()
        assert set(pw.breakpoints) <= {F(0), F(1, 2), F(1)}


class TestScale:
    """The engine runs in s = Q*v when the pins share a denominator Q, and
    in v itself (Q = 1) when they do not; both must answer exactly."""

    SCALES = {"grid": 997, "decimal": 1000, "coprime": 1, "dyadic": 1}

    @pytest.mark.parametrize("family", gen.PIN_FAMILIES)
    def test_pin_families_match_the_lattice(self, family):
        # Trees of 1-10 unknowns and their mirror images: the volume, every
        # value and every canonical marginal against the lattice.
        rng = random.Random(gen.PIN_FAMILIES.index(family))
        for _ in range(15):
            cs = gen.to_cs(gen.family_tree_doc(rng, rng.randint(1, 10), family))
            for c in (cs, flip_constraints(cs)):
                prep = Prepared(c)
                (skel,) = prep.decomposition.skeletons
                assert skel.tree.scale == self.SCALES[family]
                names = [u.name for u in c.unknowns()]
                volume, values, marginals = lattice_answers(c, names)
                assert solve(prep, VOLUME) == volume
                assert solve(prep, VALUES, names) == values
                for name in names:
                    assert solve(prep, MARGINAL, [name]) == marginals[name]

    def test_scale_needs_every_denominator_to_divide_the_largest(self):
        cases = [
            ({"r": F(1, 4), "l": F(3, 8)}, 8),
            ({"r": F(0), "l": F(1)}, 1),
            ({"r": F(1, 3), "l": F(1, 2)}, 1),
            ({"r": F(1, 6), "l": F(1, 4)}, 1),
            ({"r": F(1, 5), "l": F(7, 10)}, 10),
        ]
        for exact, scale in cases:
            cs = ConstraintSet(["r", "u", "l"], [("r", "u"), ("u", "l")], exact)
            t = as_tree(cs)
            assert t.scale == scale
            assert volume_tree(t) == exact["l"] - exact["r"]
