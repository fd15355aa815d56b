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

Expected values are volume ratios: with a fresh unknown z <= 1 above x,
E[x] = 1 - V'/V, where V' = vol(P and x <= z) redoes the bottom-up step
on x and its ancestors with one extra factor (1 - v) at x.

Marginals factor as f_x(v) = Out_x(v) * prod_i V_{x_i}(v) / V, where
Out_x(v) is the volume of the tree without x's subtree and x pinned at v.
It is built exactly top-down from Out = 1 on [root value, 1] at the root
child: Out_c(v) is the integral from the root value to v of Out_p(w)
times the volumes of c's siblings at w (a pinned leaf caps w at its
value), piecewise polynomial with breakpoints at pinned values.

Reverse-tree-shaped parts are solved on the tree of their mirror image
v -> 1 - v, and ``solve_part`` picks the engine for each decomposition
part by its shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import MalformedInputError, ShapeError
from .exact import DEFAULT_BUDGET, interpolate_all, marginal_exact, volume_exact
from .model import (
    SHAPE_GENERAL,
    SHAPE_REVERSE_TREE,
    SHAPE_TOTAL_ORDER,
    SHAPE_TREE,
    ConstraintSet,
    PartSkeleton,
    Prepared,
    VariableId,
    _tree_violation,
    decompose,
    part_skeleton,
)
from .poly import POLY_ONE, PiecewisePolynomial, Polynomial

# ---------------------------------------------------------------------------
# integer-scaled polynomials
#
# Bottom-up volume passes on large trees produce polynomials whose rational
# coefficients share factorial-sized denominators.  Keeping one integer
# denominator per polynomial (normalized once per node) avoids a gcd per
# coefficient operation, which is what makes 1000-node trees fast.

_IPoly = tuple[list[int], int]  # (integer coefficients, positive denominator)

_IP_ONE: _IPoly = ([1], 1)


def _ip_normalize(coeffs: list[int], den: int) -> _IPoly:
    # Cheap probe first: most products have trivial content, and two gcds
    # settle that without touching every coefficient.
    g = gcd(den, coeffs[-1], coeffs[0])
    if g == 1:
        return coeffs, den
    g = gcd(den, *coeffs)
    if g > 1:
        coeffs = [c // g for c in coeffs]
        den //= g
    return coeffs, den


def _ip_mul(a: _IPoly, b: _IPoly) -> _IPoly:
    ca, da = a
    cb, db = b
    out = [0] * (len(ca) + len(cb) - 1)
    for i, ai in enumerate(ca):
        if ai:
            for j, bj in enumerate(cb):
                if bj:
                    out[i + j] += ai * bj
    return out, da * db


def _ip_antideriv(a: _IPoly) -> _IPoly:
    coeffs, den = a
    scale = 1
    for i in range(1, len(coeffs) + 1):
        scale = scale * i // gcd(scale, i)
    out = [0] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i + 1] = c * (scale // (i + 1))
    return out, den * scale


def _ip_eval(a: _IPoly, at: Fraction) -> Fraction:
    coeffs, den = a
    if not coeffs:
        return Fraction(0)
    p, q = at.numerator, at.denominator
    acc = coeffs[-1]
    qpow = 1
    for c in reversed(coeffs[:-1]):
        qpow *= q
        acc = acc * p + c * qpow
    return Fraction(acc, den * qpow)


def _ip_to_polynomial(a: _IPoly) -> Polynomial:
    coeffs, den = a
    return Polynomial.of(Fraction(c, den) for c in coeffs)


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


@dataclass(frozen=True)
class SubtreeVolumeFn:
    """Per-node volume polynomial V_x(v'), valid on [0, valid_to]."""

    node: VariableId
    poly: Polynomial
    valid_to: Fraction

    def __call__(self, v: Fraction) -> Fraction:
        v = Fraction(v)
        if v >= self.valid_to:
            return Fraction(0)
        return self.poly(v)


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
    node_ids = [v.id for v in skel.nodes]
    exact_ids = set(skel.quotient.exact_values)
    violation = _tree_violation(node_ids, skel.children, skel.parents, exact_ids)
    if violation is not None:
        reverse_ok = (
            _tree_violation(node_ids, skel.parents, skel.children, exact_ids) is None
        )
        if reverse_ok:
            raise ShapeError(
                "reverse-tree-shaped: flip the constraints (v -> 1-v), solve "
                "on the flipped tree, and flip the results back"
            )
        raise ShapeError(f"not tree-shaped: {violation}")
    return _build_tree(skel)


def _build_tree(skel: PartSkeleton, mirrored: bool = False) -> ConstraintTree:
    """The tree of a tree-shaped skeleton, or with ``mirrored`` of the mirror
    image v -> 1 - v of a reverse-tree one (children and parents swap, each
    pinned alpha becomes 1 - alpha; ``source`` stays the unmirrored part)."""
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


def _node_step(factors: Sequence[_IPoly], upper: Fraction) -> _IPoly:
    """One node of the bottom-up pass: v' -> integral from v' to ``upper``
    of the product of ``factors``."""
    prod = _IP_ONE
    for f in factors:
        prod = _ip_mul(prod, f)
    anti = _ip_antideriv(prod)
    top = _ip_eval(anti, upper)
    coeffs, den = anti
    scale = top.denominator
    out = [-c * scale for c in coeffs]
    out[0] = top.numerator * den
    return _ip_normalize(out, den * scale)


def _volume_polys(t: ConstraintTree) -> dict[VariableId, _IPoly]:
    """Bottom-up V_x(v') for every unknown node, children before parents."""
    polys: dict[VariableId, _IPoly] = {}
    for v in reversed(_top_down(t.root, t.children)):
        if t.is_unknown(v):
            polys[v] = _node_step(
                [polys[c] for c in t.children[v] if c in polys], t.min_leaf_below[v]
            )
    return polys


def subtree_volume_fns(t: ConstraintTree) -> dict[VariableId, SubtreeVolumeFn]:
    """The per-node volume polynomials as public, exact-rational objects."""
    return {
        v: SubtreeVolumeFn(v, _ip_to_polynomial(p), t.min_leaf_below[v])
        for v, p in _volume_polys(t).items()
    }


def volume_tree(t: ConstraintTree) -> Fraction:
    """Exact polytope volume of the tree: root child's V evaluated at the root."""
    polys = _volume_polys(t)
    return _ip_eval(polys[t.root_child], t.root_value)


# ---------------------------------------------------------------------------
# expected values and marginals

_IP_ONE_MINUS_V: _IPoly = ([1, -1], 1)


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
    z <= 1 above x: the bottom-up step redone on x and its ancestors."""
    polys = _volume_polys(t)
    total = _ip_eval(polys[t.root_child], t.root_value)
    values = {}
    for x in names:
        path = _path_up(t, x)
        # (1 - v) joins x's own factors; above x it replaces the path child's.
        poly, below = _IP_ONE_MINUS_V, None
        for v in path:
            factors = [polys[c] for c in t.children[v] if c in polys and c != below]
            poly, below = _node_step([*factors, poly], t.min_leaf_below[v]), v
        value = 1 - _ip_eval(poly, t.root_value) / total
        assert t.root_value < value < t.min_leaf_below[path[0]], "expected value off support"
        values[x] = value
    return values


def interpolate_tree(t: ConstraintTree, x) -> Fraction:
    """Exact expected value of unknown node ``x``."""
    return _expected_values(t, [x])[x]


def _factor(t: ConstraintTree, polys: Mapping, nodes) -> PiecewisePolynomial:
    """v -> product of the subtree volumes of ``nodes`` (unknowns, or pinned
    leaves as indicators of v <= value), zero beyond the smallest cap."""
    prod = _IP_ONE
    cap = Fraction(1)
    for c in nodes:
        cap = min(cap, t.min_leaf_below[c])
        if c in polys:
            prod = _ip_mul(prod, polys[c])
    return PiecewisePolynomial((Fraction(0), cap), (_ip_to_polynomial(prod),))


def marginal_tree(t: ConstraintTree, x) -> PiecewisePolynomial:
    """Exact marginal density of unknown node ``x``; mass exactly 1.

    Support is [root value, m_x]; the density is Out_x(v) times the
    subtree volumes of x's children, over the volume, with the outside
    factor Out_x integrated exactly top-down along the root-to-x path.
    """
    path = _path_up(t, x)
    polys = _volume_polys(t)
    total = _ip_eval(polys[t.root_child], t.root_value)
    outside = PiecewisePolynomial((t.root_value, Fraction(1)), (POLY_ONE,))
    for c in reversed(path[:-1]):
        siblings = [s for s in t.children[t.parent[c]] if s != c]
        outside = (outside * _factor(t, polys, siblings)).canonical().cumulative()
    density = outside * _factor(t, polys, t.children[path[0]])
    return density.scale(1 / total).canonical()


# ---------------------------------------------------------------------------
# decomposition dispatch


def _single_extension_value(skel: PartSkeleton, name: str) -> Fraction:
    """Expected value in a totally ordered part (exactly one extension):
    evenly spaced between the nearest pinned values below and above."""
    order = [next(v.id for v in skel.nodes if not skel.parents[v.id])]
    while skel.children[order[-1]]:
        order.append(skel.children[order[-1]][0])
    values = skel.quotient.exact_values
    k = next(pos for pos, i in enumerate(order) if skel.quotient.variables[i].name == name)
    p = max(pos for pos in range(k) if order[pos] in values)
    q = min(pos for pos in range(k + 1, len(order)) if order[pos] in values)
    alpha, beta = values[order[p]], values[order[q]]
    return alpha + Fraction(k - p, q - p) * (beta - alpha)


VOLUME = "volume"
VALUES = "values"
MARGINAL = "marginal"
STABLE = "stable"


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
    total order has one linear extension, hence closed-form values; its
    skeleton is a tree, which gives its marginal, and its volume goes to
    the exact engine under the extension budget, as a general part's
    volume, values and marginal do.
    """
    shape = skel.shape
    if shape == SHAPE_TOTAL_ORDER and query in (VALUES, STABLE):
        return {n: _single_extension_value(skel, n) for n in names}
    if shape in (SHAPE_TREE, SHAPE_REVERSE_TREE) or (
        shape == SHAPE_TOTAL_ORDER and query == MARGINAL
    ):
        mirrored = shape == SHAPE_REVERSE_TREE
        t = _build_tree(skel, mirrored)
        if query == VOLUME:
            return volume_tree(t)
        if query == MARGINAL:
            pw = marginal_tree(t, names[0])
            if not mirrored:
                return pw
            # density of 1-X: reflect each piece through t -> 1-t
            breakpoints = tuple(1 - b for b in reversed(pw.breakpoints))
            pieces = tuple(
                p.compose_affine(Fraction(1), Fraction(-1)) for p in reversed(pw.pieces)
            )
            return PiecewisePolynomial(breakpoints, pieces).canonical()
        if query == STABLE:
            from .stable import stable_interpolate  # stable.py imports this module

            assignment = stable_interpolate(t)
            solved = {n: assignment.value_of(n) for n in names}
        else:
            solved = _expected_values(t, names)
        return {n: 1 - v for n, v in solved.items()} if mirrored else solved
    if query == VOLUME:
        return volume_exact(skel.part, budget=budget)
    if query == VALUES:
        everything = interpolate_all(skel.part, budget=budget)
        return {n: everything[n] for n in names}
    if query == MARGINAL:
        return marginal_exact(skel.part, names[0], budget=budget)
    raise ShapeError("no stable scheme exists for general-shaped components")


def part_values(
    prep: Prepared,
    names: Sequence,
    query: str = VALUES,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """Expected (with STABLE, stable-scheme) values of source variables.  A
    pinned tie class gives its value; the rest are grouped by part and each
    part is solved once, in part order, so the first failing part raises."""
    pinned = prep.ties.quotient.exact_values
    values = {}
    wanted: dict[int, dict] = {}
    for x in names:
        target = prep.target(x)
        if target.id in pinned:
            values[x] = pinned[target.id]
        else:
            part_no = prep.decomposition.part_index[target.name]
            wanted.setdefault(part_no, {})[x] = target.name
    for part_no in sorted(wanted):
        skel = prep.decomposition.skeletons[part_no]
        targets = wanted[part_no]
        if query == STABLE and skel.shape == SHAPE_GENERAL:
            first = min(prep.source.resolve(x).name for x in targets)
            raise ShapeError(
                "no stable scheme exists for general-shaped components "
                f"(component of {first!r})"
            )
        solved = solve_part(skel, query, sorted(set(targets.values())), budget)
        values.update((x, solved[name]) for x, name in targets.items())
    return values


def _refuse_general_parts(prep: Prepared, names: Sequence, why: str) -> None:
    """Raise ``ShapeError`` for the first of ``names`` in a general part."""
    d = prep.decomposition
    for x in names:
        name = prep.target(x).name
        if name in d.part_index and d.skeletons[d.part_index[name]].shape == SHAPE_GENERAL:
            raise ShapeError(f"the component containing {name!r} is {why}")


def tree_values(prep: Prepared, names: Sequence) -> dict:
    """Expected values without the exact engine: a variable in a
    general-shaped part raises ``ShapeError`` (the first such in ``names``).
    """
    _refuse_general_parts(
        prep, names, "general-shaped; use the exact engine (interpolate_exact) or the sampler"
    )
    return part_values(prep, names)


def part_marginal(prep: Prepared, x, budget: int = DEFAULT_BUDGET) -> PiecewisePolynomial:
    """Marginal density of ``x`` from its decomposition part alone: the
    tree engine on tree shapes, the exact engine on a general part."""
    target = prep.target(x)
    if target.id in prep.ties.quotient.exact_values:
        raise MalformedInputError(
            f"{target.name!r} is pinned; only unknowns have a density"
        )
    d = prep.decomposition
    return solve_part(
        d.skeletons[d.part_index[target.name]], MARGINAL, [target.name], budget
    )


def tree_marginal(prep: Prepared, x) -> PiecewisePolynomial:
    """Marginal density without the exact engine: a variable in a
    general-shaped part raises ``ShapeError``."""
    _refuse_general_parts(prep, [x], "not (reverse-)tree-shaped; use marginal_exact")
    return part_marginal(prep, x)


def interpolate_decomposed(cs: ConstraintSet, x) -> Fraction:
    """Expected value of ``x`` via its decomposition part.

    Pinned variables return their value; tree-shaped parts use the tree
    engine; reverse-tree-shaped parts are solved on their mirror image
    (v -> 1-v); totally ordered parts have a single linear extension and
    a closed form.  General parts raise ``ShapeError``.
    """
    return tree_values(Prepared(cs), [x])[x]


def marginal_decomposed(cs: ConstraintSet, x) -> PiecewisePolynomial:
    """Marginal density of ``x`` via its decomposition part (tree shapes;
    general parts raise ``ShapeError``)."""
    return tree_marginal(Prepared(cs), x)
