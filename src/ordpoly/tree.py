"""Polynomial-time engine for tree-shaped constraint sets.

A constraint set is tree-shaped when its cleaned Hasse diagram is a
directed tree whose root is pinned and has exactly one child, and whose
pinned variables are exactly the root and the leaves.  For such sets the
subtree volume below a node x, as a function of the value v' of x's
parent, is a single polynomial

    V_x(v') = integral from v' to m_x of  prod_i V_{x_i}(v) dv,

where the product runs over x's unknown children and m_x is the smallest
pinned leaf value in x's subtree (the polynomial is valid on [0, m_x] and
the true volume is zero beyond).  The whole volume V is the root child's
polynomial evaluated at the root value — quadratic time overall, no
extension enumeration.

The pass runs in integer coordinates.  When the pins share a denominator
Q (``ConstraintTree.scale``: the largest denominator among the root value
and the caps m_x, if every other one divides it, else 1), every polynomial
lives over s = Q*v as W_x(s) = Q^d V_x(s/Q), d being its degree.  The
recurrence is the same, W_x(s) = integral from s to Q*m_x of prod_i
W_{x_i}, with an integer limit Q*m_x, and V = W(Q*rho) / Q^N over the N
unknowns.  Over v, a polynomial whose limits have denominator q keeps a
factor q^k in coefficient k that its value does not need; over s those
bits are gone.  Coprime denominators keep Q = 1, the pass over v itself:
their lcm would only make the numbers longer.
``ConstraintTree.volume_polys`` holds every W_x, from one bottom-up pass
per tree.

Expected values are volume ratios: with a fresh unknown z <= 1 above x,
E[x] = 1 - V'/V, where V' = vol(P and x <= z) redoes the bottom-up step
on x and its ancestors with one extra factor (1 - v) at x, which is
(Q - s) over s.

Marginals factor as f_x(v) = Out_x(v) * prod_i V_{x_i}(v) / V, where
Out_x(v) is the volume of the tree without x's subtree and x pinned at v.
It is built exactly top-down along the root-to-x path as plain polynomial
pieces, contiguous from the root value rho: Out = 1 on [rho, m_c] at the
root child c, and for a child c of p, Out_c(v) is the integral from rho to
min(v, m_p) of Out_p(w) times the volumes of c's unknown siblings at w,
constant from m_p to m_c.  No sibling's cap falls inside [rho, m_p], m_p
being the minimum over all of p's children, so the breakpoints are rho
and pinned values.  The pieces are built over s and mapped back to v at
the end.

Every query of the exact engines ``auto``, ``tree`` and ``exact`` takes
one path, ``solve``, which calls ``solve_part`` once per decomposition
part; under ``exact`` it first pre-counts the linear extensions against
the budget, part by part (``precount``).  ``solve_part`` picks the engine
by shape: the tree engine on trees and on the mirror image v -> 1 - v of
reverse trees, closed forms on total orders, the lattice of downsets
(``lattice.answer``) on general parts.  A part's tree is built at most
once, beside its lattice form: ``PartSkeleton.tree`` decides whether and
how the part is a tree, and every query on the part reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import DEFAULT_BUDGET, MalformedInputError, ShapeError
from .model import (  # the query constants are re-exported for the engines' callers
    MARGINAL,
    SHAPE_GENERAL,
    SHAPE_REVERSE_TREE,
    SHAPE_TOTAL_ORDER,
    STABLE,
    VALUES,
    VOLUME,
    ConstraintSet,
    PartSkeleton,
    Prepared,
    VariableId,
    decompose,
    part_skeleton,
)
from .poly import POLY_ONE, PiecewisePolynomial, Polynomial

# ---------------------------------------------------------------------------
# the tree itself


@dataclass(frozen=True)
class ConstraintTree:
    """Validated tree form of a single decomposition part.

    Nodes are the variables of the part's tie-collapsed skeleton; edges
    point from the pinned root upward through the unknowns to the pinned
    leaves.  ``min_leaf_below`` holds m_x, the smallest pinned leaf value
    in each node's subtree, which is both the upper integration limit and
    the point beyond which the subtree volume is zero.
    """

    source: ConstraintSet
    variables: tuple[VariableId, ...]
    root: VariableId
    root_value: Fraction
    children: Mapping[VariableId, tuple[VariableId, ...]]
    parent: Mapping[VariableId, VariableId]
    leaf_values: Mapping[VariableId, Fraction]
    min_leaf_below: Mapping[VariableId, Fraction]

    def node(self, x) -> VariableId:
        if isinstance(x, VariableId):
            for v in self.variables:
                if v == x:
                    return v
            raise MalformedInputError(f"variable {x} is not a node of this tree")
        for v in self.variables:
            if v.name == x:
                return v
        raise MalformedInputError(f"unknown tree node: {x!r}")

    def is_unknown(self, v: VariableId) -> bool:
        return v not in self.leaf_values and v != self.root

    def unknown_nodes(self) -> tuple[VariableId, ...]:
        return tuple(v for v in self.variables if self.is_unknown(v))

    @property
    def root_child(self) -> VariableId:
        return self.children[self.root][0]

    @cached_property
    def scale(self) -> int:
        """Q, the pins' shared denominator: the largest denominator among
        the root value and the caps ``min_leaf_below`` when each of the
        others divides it, else 1.  Every pin and cap is then an integer
        multiple of 1/Q, and the engine works in s = Q*v."""
        dens = {self.root_value.denominator}
        dens.update(m.denominator for m in self.min_leaf_below.values())
        q = max(dens)
        return q if all(q % d == 0 for d in dens) else 1

    @cached_property
    def volume_polys(self) -> Mapping[VariableId, Polynomial]:
        """W_x(s) = Q^d V_x(s/Q) for every unknown node x, d being its
        degree and Q the ``scale``: the subtree volume V_x(v') in the
        integer coordinate s = Q*v', valid on [0, Q*m_x] with m_x =
        ``min_leaf_below[x]`` (the true subtree volume is zero beyond).
        One bottom-up pass per tree, shared by every query on it."""
        return MappingProxyType(_volume_polys(self))


def as_tree(cs: ConstraintSet) -> ConstraintTree:
    """Build a ConstraintTree from a constraint set with one component."""
    d = decompose(cs)
    if len(d.parts) != 1:
        raise ShapeError(
            f"constraint set splits into {len(d.parts)} independent components; "
            "build one tree per decomposition part"
        )
    return _validated_tree(d.skeletons[0])


def tree_from_part(part: ConstraintSet) -> ConstraintTree:
    """Validate one decomposition part as a tree, or explain why not."""
    return _validated_tree(part_skeleton(part))


def _validated_tree(skel: PartSkeleton) -> ConstraintTree:
    if skel.shape == SHAPE_REVERSE_TREE:
        raise ShapeError(
            "reverse-tree-shaped: flip the constraints (v -> 1-v), solve "
            "on the flipped tree, and flip the results back"
        )
    return skel.tree


def _build_tree(skel: PartSkeleton, mirrored: bool = False) -> ConstraintTree:
    """The tree of a tree-shaped skeleton, or with ``mirrored`` of the mirror
    image v -> 1 - v of a reverse-tree one (children and parents swap, each
    pinned alpha becomes 1 - alpha; ``source`` stays the unmirrored part).
    ``PartSkeleton.tree`` validates the skeleton and calls this once."""
    down = skel.parents if mirrored else skel.children
    node_ids = [v.id for v in skel.nodes]
    by_id = {v.id: v for v in skel.nodes}
    children = {
        by_id[i]: tuple(by_id[c] for c in down[i]) for i in node_ids
    }
    parent = {
        by_id[c]: by_id[i] for i in node_ids for c in down[i]
    }
    root = next(v for v in skel.nodes if v not in parent)
    values = {
        i: 1 - value if mirrored else value
        for i, value in skel.quotient.exact_values.items()
    }
    leaf_values = {
        by_id[i]: values[i] for i in node_ids if not down[i] and i != root.id
    }

    min_leaf: dict[VariableId, Fraction] = {}
    for v in reversed(_top_down(root, children)):
        if v in leaf_values:
            min_leaf[v] = leaf_values[v]
        else:
            min_leaf[v] = min(min_leaf[c] for c in children[v])

    root_value = values[root.id]
    assert root_value <= min_leaf[root], "inconsistent tree survived validation"
    assert min_leaf[root] > 0, "zero-valued leaf must have collapsed into the root"

    return ConstraintTree(
        source=skel.part,
        variables=skel.nodes,
        root=root,
        root_value=root_value,
        children=MappingProxyType(children),
        parent=MappingProxyType(parent),
        leaf_values=MappingProxyType(leaf_values),
        min_leaf_below=MappingProxyType(min_leaf),
    )


# ---------------------------------------------------------------------------
# volume


def _top_down(root: VariableId, children) -> list[VariableId]:
    """Every node below ``root``, parents before children (iterative: deep
    chains overflow the recursion limit)."""
    stack = [root]
    order: list[VariableId] = []
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(children[v])
    return order


def _product(factors: Sequence[Polynomial]) -> Polynomial:
    prod = factors[0] if factors else POLY_ONE
    for f in factors[1:]:
        prod = prod * f
    return prod


def _in_s(t: ConstraintTree, value: Fraction) -> int | Fraction:
    """``value`` (a pin, a cap or a point between them) in s = Q*v: an int
    when Q > 1, which ``value``'s denominator divides; ``value`` itself when
    Q = 1."""
    q = t.scale
    return value.numerator * (q // value.denominator) if q > 1 else value


def _node_step(factors: Sequence[Polynomial], upper: int | Fraction) -> Polynomial:
    """One node of the bottom-up pass: s -> integral from s to ``upper``
    of the product of ``factors``."""
    anti = _product(factors).antideriv()
    if isinstance(upper, int):
        # anti(upper) is Horner's rule on anti's numerators over its own
        # denominator: no Fraction to reduce and no lcm in the difference
        top = 0
        for c in reversed(anti.num):
            top = top * upper + c
        return Polynomial((top,), anti.den) - anti
    return Polynomial.constant(anti(upper)) - anti


def _volume_polys(t: ConstraintTree) -> dict[VariableId, Polynomial]:
    """Bottom-up W_x(s) for every unknown node, children before parents:
    the integral from s to Q*m_x of the children's product."""
    caps = t.min_leaf_below
    polys: dict[VariableId, Polynomial] = {}
    for v in reversed(_top_down(t.root, t.children)):
        if t.is_unknown(v):
            factors = [polys[c] for c in t.children[v] if c in polys]
            polys[v] = _node_step(factors, _in_s(t, caps[v]))
    return polys


def volume_tree(t: ConstraintTree) -> Fraction:
    """Exact polytope volume of the tree: the root child's W at Q*rho over
    Q^N, N (W's degree) being the number of unknowns."""
    poly = t.volume_polys[t.root_child]
    return poly(_in_s(t, t.root_value)) / t.scale**poly.degree


# ---------------------------------------------------------------------------
# expected values and marginals


def _path_up(t: ConstraintTree, x) -> list[VariableId]:
    """Unknown node ``x`` and its ancestors up to the root child."""
    path = [t.node(x)]
    if not t.is_unknown(path[0]):
        raise MalformedInputError(
            f"{path[0].name!r} is pinned; only unknown nodes have a density"
        )
    while path[-1] != t.root_child:
        path.append(t.parent[path[-1]])
    return path


def _expected_values(t: ConstraintTree, names: Sequence) -> dict:
    """``{x: E[x]}`` as 1 - V'/V, V' being the volume with a fresh unknown
    z <= 1 above x: the bottom-up step redone on x and its ancestors.  In
    s = Q*v, z's factor is Q - s and E[x] = 1 - W'(Q*rho) / (Q*W(Q*rho))."""
    q, polys, caps = t.scale, t.volume_polys, t.min_leaf_below
    start = _in_s(t, t.root_value)
    total = q * polys[t.root_child](start)
    fresh = Polynomial((q, -1))
    values = {}
    for x in names:
        path = _path_up(t, x)
        # (Q - s) joins x's own factors; above x it replaces the path child's.
        poly, below = fresh, None
        for v in path:
            factors = [polys[c] for c in t.children[v] if c in polys and c != below]
            poly, below = _node_step([*factors, poly], _in_s(t, caps[v])), v
        value = 1 - poly(start) / total
        assert t.root_value < value < t.min_leaf_below[path[0]], "expected value off support"
        values[x] = value
    return values


def interpolate_tree(t: ConstraintTree, x) -> Fraction:
    """Exact expected value of unknown node ``x``."""
    return _expected_values(t, [x])[x]


def marginal_tree(t: ConstraintTree, x) -> PiecewisePolynomial:
    """Exact marginal density of unknown node ``x``; mass exactly 1.

    Support is [root value, m_x]; the density is Out_x(v) times the
    subtree volumes of x's children, over the volume.  Out's pieces are
    integrated top-down along the root-to-x path: each step takes the
    running integral of Out_p times the siblings' volumes up to m_p and
    holds it constant from m_p to m_c.  The pieces are built in s = Q*v,
    as g(s) = Out_x(s) prod_i W_{x_i}(s) / W(Q*rho), and the density is
    f(v) = Q*g(Q*v): breakpoints over Q, coefficient k times Q^k.
    """
    path = _path_up(t, x)
    q, polys, caps = t.scale, t.volume_polys, t.min_leaf_below
    cuts, outside = [_in_s(t, t.root_value), _in_s(t, caps[path[-1]])], [POLY_ONE]
    for c in reversed(path[:-1]):
        p = t.parent[c]
        siblings = _product([polys[s] for s in t.children[p] if s != c and s in polys])
        pieces, acc = [], Fraction(0)
        for piece, a, b in zip(outside, cuts, cuts[1:]):
            anti = (piece * siblings).antideriv()
            pieces.append(anti + Polynomial.constant(acc - anti(a)))
            acc += anti(b) - anti(a)
        if caps[p] < caps[c]:
            pieces.append(Polynomial.constant(acc))
            cuts.append(_in_s(t, caps[c]))
        outside = pieces
    inside = _product([polys[c] for c in t.children[path[0]] if c in polys])
    norm = q / polys[t.root_child](cuts[0])
    pieces = [o * inside * norm for o in outside]
    if q > 1:
        cuts = [Fraction(b, q) for b in cuts]
        pieces = [_dilated(p, q) for p in pieces]
    return PiecewisePolynomial(tuple(cuts), tuple(pieces)).canonical()


def _dilated(p: Polynomial, q: int) -> Polynomial:
    """v -> p(q*v): numerator k times q^k."""
    num, qk = [], 1
    for c in p.num:
        num.append(c * qk)
        qk *= q
    return Polynomial(num, p.den)


# ---------------------------------------------------------------------------
# decomposition dispatch


def _chain(skel: PartSkeleton) -> tuple[dict[str, int], Fraction, Fraction]:
    """A totally ordered part's one linear extension: each unknown's rank
    1..n, bottom up, between the pinned values alpha below and beta above
    (a part's unknowns are joined by covers between unknowns, so no pin
    sits inside)."""
    order = [next(v.id for v in skel.nodes if not skel.parents[v.id])]
    while skel.children[order[-1]]:
        order.append(skel.children[order[-1]][0])
    values = skel.quotient.exact_values
    assert not values.keys() & order[1:-1], "pin inside a total-order part"
    inner = enumerate(order[1:-1], start=1)
    ranks = {skel.quotient.variables[i].name: k for k, i in inner}
    return ranks, values[order[0]], values[order[-1]]


def solve_part(
    skel: PartSkeleton,
    query: str,
    names: Sequence[str] = (),
    budget: int = DEFAULT_BUDGET,
):
    """Answer ``query`` on one decomposition part by the engine its shape
    allows: the volume (VOLUME), ``{name: value}`` for the unknowns ``names``
    (VALUES, STABLE), or the marginal density of ``names[0]`` (MARGINAL).

    Reverse-tree parts are solved on the tree of their mirror image.  A
    total order alpha < u1 < ... < un < beta has one linear extension,
    hence the volume (beta - alpha)^n / n! and evenly spaced values; its
    skeleton is a tree, which gives its marginal.  A general part's volume,
    values and marginal come from the downset lattice under the budget; it
    has no stable scheme, which ``solve`` refuses before calling this.
    """
    shape = skel.shape
    if shape == SHAPE_TOTAL_ORDER and query != MARGINAL:
        ranks, alpha, beta = _chain(skel)
        if query == VOLUME:
            return (beta - alpha) ** len(ranks) / factorial(len(ranks))
        step = (beta - alpha) / (len(ranks) + 1)
        return {n: alpha + ranks[n] * step for n in names}
    if shape != SHAPE_GENERAL:
        mirrored = shape == SHAPE_REVERSE_TREE
        t = skel.tree
        if query == VOLUME:
            return volume_tree(t)
        if query == MARGINAL:
            pw = marginal_tree(t, names[0])
            if not mirrored:
                return pw
            # density of 1-X: reflect each piece through t -> 1-t
            breakpoints = tuple(1 - b for b in reversed(pw.breakpoints))
            pieces = tuple(p.compose_affine(1, -1) for p in reversed(pw.pieces))
            return PiecewisePolynomial(breakpoints, pieces).canonical()
        if query == STABLE:
            from .stable import stable_interpolate  # stable.py imports this module

            assignment = stable_interpolate(t)
            solved = {n: assignment.value_of(n) for n in names}
        else:
            solved = _expected_values(t, names)
        return {n: 1 - v for n, v in solved.items()} if mirrored else solved
    # Imported on first use: most requests never reach a general part, and
    # a CLI process pays for every module it imports.
    from .lattice import answer

    return answer(skel, query, names, budget)


def solve(
    prep: Prepared,
    query: str,
    names: Sequence = (),
    budget: int = DEFAULT_BUDGET,
    engine: str = "auto",
):
    """Answer ``query``: the volume (VOLUME; persistent user ties refused),
    ``{x: value}`` for the source variables ``names`` (VALUES; STABLE for
    the stable scheme), or the density of the one variable in ``names``
    (MARGINAL).  A pinned tie class gives its value (a MARGINAL of one is
    malformed input).  Every engine answers part by part; ``engine`` is
    the CLI's.  Under "exact" the linear extensions of the tie quotient
    are first pre-counted against the budget, part by part; under "tree"
    or STABLE a general part raises ``ShapeError`` first.
    """
    if query == VOLUME:
        prep.reject_user_ties()
    pinned = prep.ties.quotient.exact_values
    values: dict = {}
    unknown: dict = {}
    for x in names:
        target = prep.target(x)
        if target.id not in pinned:
            unknown[x] = target
        elif query == MARGINAL:
            raise MalformedInputError(
                f"{prep.source.resolve(x).name!r} is pinned to "
                f"{pinned[target.id]}; only unknowns have a density"
            )
        else:
            values[x] = pinned[target.id]
    if engine == "exact" and query != STABLE and (unknown or query == VOLUME):
        from .precount import count_extensions

        count_extensions(prep, budget)
    wanted: dict[int, dict] = {}
    if query == VOLUME:
        wanted = {part_no: {} for part_no in range(len(prep.decomposition.parts))}
    for x, target in unknown.items():
        part_no = prep.decomposition.part_index[target.name]
        wanted.setdefault(part_no, {})[x] = target.name
    if query == STABLE or engine == "tree":
        for part_no in sorted(wanted):
            if prep.decomposition.skeletons[part_no].shape == SHAPE_GENERAL:
                asked = [prep.source.resolve(x).name for x in wanted[part_no]]
                unknowns = prep.decomposition.classes[part_no]
                first = min(asked or [v.name for v in unknowns])
                raise ShapeError(
                    f"the component containing {first!r} is general-shaped; the "
                    "tree engine and the stable scheme solve only (reverse-)"
                    "tree-shaped and totally ordered components"
                )
    volume = Fraction(1)
    for part_no in sorted(wanted):
        targets = wanted[part_no]
        solved = solve_part(
            prep.decomposition.skeletons[part_no],
            query,
            sorted(set(targets.values())),
            budget,
        )
        if query == VOLUME:
            volume *= solved
        elif query == MARGINAL:
            return solved
        else:
            values.update((x, solved[name]) for x, name in targets.items())
    return volume if query == VOLUME else values


def interpolate_decomposed(cs: ConstraintSet, x) -> Fraction:
    """Expected value of ``x`` via its decomposition part.

    Pinned variables return their value; tree-shaped parts use the tree
    engine; reverse-tree-shaped parts are solved on their mirror image
    (v -> 1-v); totally ordered parts have a single linear extension and
    a closed form.  General parts raise ``ShapeError``.
    """
    return solve(Prepared(cs), VALUES, [x], engine="tree")[x]


def marginal_decomposed(cs: ConstraintSet, x) -> PiecewisePolynomial:
    """Marginal density of ``x`` via its decomposition part (tree shapes;
    general parts raise ``ShapeError``)."""
    return solve(Prepared(cs), MARGINAL, [x], engine="tree")
