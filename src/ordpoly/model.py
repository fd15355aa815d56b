"""Constraint sets over [0,1]-valued variables.

A constraint set holds order constraints ``x <= y`` and pinned exact values
``x = v`` with v rational in [0, 1].  Closing a set under implication
materializes the global bounds as two reserved pinned variables (0 and 1),
inserts the order edge between every comparable pinned pair, and stores the
full transitive closure as per-variable bitsets.  The one strong-components
pass that finds it also finds the persistent-tie classes (variables forced
equal) and the order between them.  The reserved bound variables are hidden
from every user-facing view.

On top of the closed form this module provides consistency checking (a tie
class holding two pinned values), persistent-tie collapsing (the classes and
their order as closing found them), Hasse covers, polytope dimension,
independence decomposition of the unknowns, and shape classification of the
parts (total-order / tree / reverse-tree / general).  ``Prepared`` runs these
stages once per request and hands their results to every engine: the
tie quotient's covers are found once, and every part's skeleton is cut
from them.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    ContradictionError,
    MalformedInputError,
    PersistentTieError,
    ShapeError,
)
from .poly import RationalLike, parse_rational

VarLike = Union["VariableId", str, int]

SHAPE_TOTAL_ORDER = "total-order"
SHAPE_TREE = "tree"
SHAPE_REVERSE_TREE = "reverse-tree"
SHAPE_GENERAL = "general"

# The queries ``tree.solve`` and ``lattice.answer`` answer: the volume,
# expected values, one marginal density, and the stable scheme's values.
VOLUME = "volume"
VALUES = "values"
MARGINAL = "marginal"
STABLE = "stable"


@dataclass(frozen=True)
class VariableId:
    """A variable: dense integer id within one constraint set, unique name."""

    id: int
    name: str

    def __hash__(self) -> int:
        # ids are dense and, within a set, unique: hashing the id alone
        # spares building a tuple on every dict lookup
        return hash(self.id)

    def __str__(self) -> str:
        return self.name


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ConstraintSet:
    """Immutable set of order and exact-value constraints.

    Construct with variable names, order pairs ``(a, b)`` meaning a <= b,
    and an exact-value map.  The set starts unclosed; ``close_under_implication``
    returns the closed form used by every engine.
    """

    __slots__ = (
        "variables",
        "exact_values",
        "closed",
        "reserved",
        "_base_edges",
        "_succ",
        "_pred",
        "_ties",
        "_order_edges",
        "_name_to_id",
    )

    def __init__(
        self,
        variables: Sequence[str],
        order: Iterable[tuple[str, str]] = (),
        exact: Mapping[str, RationalLike] | None = None,
    ):
        names = list(variables)
        if any(not isinstance(n, str) or not n for n in names):
            raise MalformedInputError("variable names must be non-empty strings")
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise MalformedInputError(f"duplicate variable names: {dup}")
        vs = tuple(VariableId(i, n) for i, n in enumerate(names))
        lookup = {n: i for i, n in enumerate(names)}

        edges: set[tuple[int, int]] = set()
        for pair in order:
            a, b = pair
            if a not in lookup or b not in lookup:
                missing = [x for x in (a, b) if x not in lookup]
                raise MalformedInputError(f"order constraint uses unknown variable: {missing}")
            if a != b:
                edges.add((lookup[a], lookup[b]))

        values: dict[int, Fraction] = {}
        for name, raw in (exact or {}).items():
            if name not in lookup:
                raise MalformedInputError(f"exact value for unknown variable: {name!r}")
            try:
                v = parse_rational(raw)
            except (ValueError, ZeroDivisionError) as exc:
                raise MalformedInputError(f"bad rational for {name!r}: {raw!r}") from exc
            if not 0 <= v <= 1:
                # the raw text, cut short: v may have any number of digits
                raise MalformedInputError(
                    f"exact value out of [0, 1]: {name} = {reprlib.repr(raw)}"
                )
            values[lookup[name]] = v

        self.variables = vs
        self.exact_values = MappingProxyType(values)
        self.closed = False
        self.reserved = frozenset()
        self._base_edges = tuple(sorted(edges))
        self._succ = None
        self._pred = None
        self._ties = None
        self._order_edges = frozenset(edges)
        self._name_to_id = lookup

    @classmethod
    def _assemble(
        cls,
        variables: tuple[VariableId, ...],
        base_edges: tuple[tuple[int, int], ...],
        exact_values: dict[int, Fraction],
        *,
        closed: bool,
        reserved: frozenset[int],
        succ: list[int] | None,
        ties: _Ties | None = None,
    ) -> "ConstraintSet":
        obj = cls.__new__(cls)
        obj.variables = variables
        obj.exact_values = MappingProxyType(exact_values)
        obj.closed = closed
        obj.reserved = reserved
        obj._base_edges = base_edges
        obj._succ = succ
        obj._pred = None
        obj._ties = ties
        obj._order_edges = None
        obj._name_to_id = {v.name: v.id for v in variables}
        return obj

    # -- lookups ---------------------------------------------------------

    def resolve(self, x: VarLike) -> VariableId:
        if isinstance(x, VariableId):
            got = self.variables[x.id] if 0 <= x.id < len(self.variables) else None
            if got is None or got.name != x.name:
                raise MalformedInputError(f"variable {x} does not belong to this set")
            return x
        if isinstance(x, int):
            if not 0 <= x < len(self.variables):
                raise MalformedInputError(f"variable id out of range: {x}")
            return self.variables[x]
        if x in self._name_to_id:
            return self.variables[self._name_to_id[x]]
        raise MalformedInputError(f"unknown variable: {x!r}")

    def value_of(self, x: VarLike) -> Fraction | None:
        return self.exact_values.get(self.resolve(x).id)

    @property
    def order_edges(self) -> frozenset[tuple[int, int]]:
        if self._order_edges is None:
            succ = self._succ
            edges = set()
            for i in range(len(self.variables)):
                for j in _bits(succ[i]):
                    if i != j:
                        edges.add((i, j))
            self._order_edges = frozenset(edges)
        return self._order_edges

    def reaches(self, i: int, j: int) -> bool:
        self._require_closed()
        return bool(self._succ[i] >> j & 1)

    def _require_closed(self) -> None:
        if not self.closed:
            raise ValueError("operation requires a closed constraint set")

    def _preds(self) -> list[int]:
        if self._pred is None:
            self._require_closed()
            pred = [0] * len(self.variables)
            for i, mask in enumerate(self._succ):
                bit = 1 << i
                for j in _bits(mask):
                    pred[j] |= bit
            self._pred = pred
        return self._pred

    def visible(self) -> tuple[VariableId, ...]:
        return tuple(v for v in self.variables if v.id not in self.reserved)

    def unknowns(self) -> tuple[VariableId, ...]:
        return tuple(v for v in self.variables if v.id not in self.exact_values)

    def has_persistent_tie(self) -> bool:
        self._require_closed()
        return self._ties is not None

    # -- user-facing re-construction -------------------------------------

    def user_view(self) -> tuple[list[str], list[tuple[str, str]], dict[str, Fraction]]:
        """Names, order pairs, and exact values with reserved bounds hidden."""
        keep = [v for v in self.variables if v.id not in self.reserved]
        names = [v.name for v in keep]
        kept_ids = {v.id for v in keep}
        edges = sorted(
            (self.variables[i].name, self.variables[j].name)
            for i, j in self.order_edges
            if i in kept_ids and j in kept_ids
        )
        exact = {
            self.variables[i].name: val
            for i, val in self.exact_values.items()
            if i in kept_ids
        }
        return names, edges, exact

    def with_exact(self, x: VarLike, value: RationalLike) -> "ConstraintSet":
        """A fresh unclosed copy with ``x`` additionally pinned to ``value``."""
        names, edges, exact = self.user_view()
        exact[self.resolve(x).name] = parse_rational(value)
        return ConstraintSet(names, edges, exact)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstraintSet):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.order_edges == other.order_edges
            and dict(self.exact_values) == dict(other.exact_values)
            and self.closed == other.closed
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.closed))

    def __repr__(self) -> str:
        tag = "closed" if self.closed else "open"
        return (
            f"ConstraintSet({tag}, {len(self.variables)} vars, "
            f"{len(self._base_edges)} base edges, {len(self.exact_values)} exact)"
        )


def _fresh_bound_names(taken: Iterable[str]) -> tuple[str, str]:
    taken = set(taken)
    bot, top = "⊥", "⊤"  # ⊥, ⊤
    while bot in taken:
        bot += "_"
    while top in taken:
        top += "_"
    return bot, top


def _strong_components(adj: Sequence[Sequence[int]]) -> Iterator[list[int]]:
    """Strongly connected components of the digraph ``i -> adj[i]``.

    Iterative Tarjan (1972), so deep chains cannot overflow the recursion
    limit.  Components are yielded in reverse topological order: every
    component comes after all the components it reaches.
    """
    n = len(adj)
    index = [-1] * n
    low = [0] * n  # n once the node's component is out, so min() skips it
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        while work:
            v, targets = work[-1]
            for w in targets:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                low[v] = min(low[v], low[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    comp: list[int] = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        low[comp[-1]] = n
                    yield comp


# A closed set's tie classes, numbered by smallest member (members ascending,
# an untied variable alone), each variable's class number, and each class's
# successor bitset over class numbers: the tie quotient's order.
_Ties = tuple[list[list[int]], list[int], list[int]]


def _reachability(n: int, edges: set[tuple[int, int]]) -> tuple[list[int], _Ties | None]:
    """Per-node successor bitsets for the transitive closure of ``edges``,
    and its tie classes, or None when every component is a single node.

    Strongly connected components (cycles arise from equal pinned values
    or contradictory input) arrive after everything they reach, so each
    one's bitset is the union over its outgoing edges, and the cost is
    linear in the number of edges rather than cubic in the number of
    variables.  Members of a nontrivial component reach every co-member,
    themselves included.  The components are the tie classes; the same
    union over their numbers gives the classes' bitsets.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
    comp_of = [-1] * n
    succ = [0] * n
    comps = list(_strong_components(adj))
    for number, comp in enumerate(comps):
        for m in comp:
            comp_of[m] = number
        bits = 0
        for m in comp:
            for w in adj[m]:
                if comp_of[w] != number:
                    bits |= succ[w] | 1 << w
        if len(comp) > 1:
            bits |= sum(1 << m for m in comp)
        for m in comp:
            succ[m] = bits
    if len(comps) == n:
        return succ, None
    number_of = {c: k for k, c in enumerate(dict.fromkeys(comp_of))}  # by smallest member
    of = [number_of[c] for c in comp_of]
    classes: list[list[int]] = [[] for _ in comps]
    for i, k in enumerate(of):
        classes[k].append(i)
    class_succ = [0] * len(comps)
    for comp in comps:
        k = of[comp[0]]
        for w in (w for m in comp for w in adj[m] if of[w] != k):
            class_succ[k] |= class_succ[of[w]] | 1 << of[w]
    return succ, (classes, of, class_succ)


def close_under_implication(cs: ConstraintSet) -> ConstraintSet:
    """Transitive closure with materialized bounds and exact-pair edges.

    Adds two reserved pinned variables 0 and 1 below/above everything,
    inserts the edge between every comparable pinned pair (both directions
    when the values are equal, which later collapses to a tie class), and
    stores full reachability.  The same strong-components pass finds the
    persistent-tie classes and their order, kept for the consistency check
    and the collapse (None when nothing ties).  Idempotent; never rejects
    an inconsistent set (consistency is a separate check).
    """
    if cs.closed:
        return cs
    n_user = len(cs.variables)
    bot_name, top_name = _fresh_bound_names(v.name for v in cs.variables)
    bot, top = n_user, n_user + 1
    variables = cs.variables + (VariableId(bot, bot_name), VariableId(top, top_name))
    exact = {**cs.exact_values, bot: Fraction(0), top: Fraction(1)}

    base: set[tuple[int, int]] = set(cs._base_edges)
    for i in range(n_user):
        base.add((bot, i))
        base.add((i, top))
    base.add((bot, top))
    # Chain the pinned variables in value order; transitivity implies the
    # rest.  Equal values get edges both ways — a persistent tie.
    pinned = sorted(exact.items(), key=lambda kv: (kv[1], kv[0]))
    for (ia, va), (ib, vb) in zip(pinned, pinned[1:]):
        base.add((ia, ib))
        if va == vb:
            base.add((ib, ia))

    succ, ties = _reachability(n_user + 2, base)

    return ConstraintSet._assemble(
        variables,
        tuple(sorted(base)),
        exact,
        closed=True,
        reserved=frozenset({bot, top}),
        succ=succ,
        ties=ties,
    )


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of the consistency check; failure carries a witness chain."""

    ok: bool
    witness: tuple[VariableId, ...] | None = None
    message: str = "consistent"

    def raise_if_contradiction(self) -> None:
        """Raise ``ContradictionError`` with the witness chain's names
        unless the set is consistent."""
        if not self.ok:
            raise ContradictionError(self.message, tuple(v.name for v in self.witness))


def check_consistency(cs: ConstraintSet) -> ConsistencyReport:
    """Decide whether the admissible polytope is non-empty.

    The polytope is empty exactly when some pinned variable reaches a
    strictly smaller pinned value through the closed order.  The pins are
    chained in value order, so the smaller pin reaches it back: the two
    share a tie class, and a tie-free closure is consistent.  The classes
    are the ones closing found.  The first failing pin i in (-value, name)
    order and the smallest-valued pin j of its class (later names first
    among equal values) name the contradiction; the witness is the
    shortest chain from i to j over the direct (pre-closure) edges.
    """
    closed = close_under_implication(cs)
    exact, variables = closed.exact_values, closed.variables
    # each tie class's pins as (-value, name, id); a class whose values differ fails
    tied = [c for c in closed._ties[0] if len(c) > 1] if closed.has_persistent_tie() else ()
    pins = [[(-exact[m], variables[m].name, m) for m in c if m in exact] for c in tied]
    failing = [(min(p), max(p)) for p in pins if len({value for value, _, _ in p}) > 1]
    if not failing:
        return ConsistencyReport(ok=True)
    (_, _, i), (_, _, j) = min(failing)
    chain = _witness_chain(closed, i, j)
    names = " <= ".join(v.name for v in chain)
    return ConsistencyReport(
        ok=False,
        witness=chain,
        message=(
            f"chain {names} forces {exact[i]} <= {exact[j]}, but "
            f"{variables[i].name} = {exact[i]} and {variables[j].name} = {exact[j]}"
        ),
    )


def _witness_chain(closed: ConstraintSet, start: int, goal: int) -> tuple[VariableId, ...]:
    adj: dict[int, list[int]] = {}
    for a, b in closed._base_edges:
        adj.setdefault(a, []).append(b)
    parent = {start: start}
    frontier = [start]
    while frontier and goal not in parent:  # breadth first: a shortest chain
        nxt: list[int] = []
        for u in frontier:
            for v in sorted(adj.get(u, ())):
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    return tuple(closed.variables[i] for i in reversed(path))


@dataclass(frozen=True)
class TieQuotient:
    """Result of collapsing persistent ties (mutually ordered variables)."""

    quotient: ConstraintSet
    class_of: Mapping[int, VariableId]
    representatives: Mapping[int, tuple[VariableId, ...]]

    def quotient_of(self, source: ConstraintSet, x: VarLike) -> VariableId:
        return self.class_of[source.resolve(x).id]


def collapse_ties(cs: ConstraintSet) -> TieQuotient:
    """Merge every persistent-tie class into a single variable.

    The quotient is closed, tie-free, and carries the class's unique exact
    value when one exists.  Interpolating a variable in the original set
    equals interpolating its class in the quotient (equal-value worlds
    differ on a measure-zero set only).  Inconsistent input is rejected
    with ``ContradictionError``.  The classes, and the quotient's order,
    are the ones closing found.
    """
    return Prepared(cs).ties


def _quotient(closed: ConstraintSet) -> TieQuotient:
    """The tie quotient of ``closed``, which the caller has checked."""
    if closed._ties is None:
        # Already tie-free (a quotient, or a part split from one): the
        # quotient is the set itself.  It is also consistent, since a
        # contradiction closes a cycle through the chain of pinned values.
        identity = {v.id: v for v in closed.variables}
        singletons = {v.id: (v,) for v in closed.variables}
        return TieQuotient(closed, MappingProxyType(identity), MappingProxyType(singletons))
    classes, of, class_succ = closed._ties
    variables = []
    exact: dict[int, Fraction] = {}
    reserved = set()
    for idx, members in enumerate(classes):
        user_names = [closed.variables[m].name for m in members if m not in closed.reserved]
        if not user_names:
            reserved.add(idx)
        name = min(user_names, default=closed.variables[members[0]].name)
        variables.append(VariableId(idx, name))
        values = {closed.exact_values[m] for m in members if m in closed.exact_values}
        if values:
            assert len(values) == 1, "tie class with two exact values is inconsistent"
            exact[idx] = values.pop()

    qbase = {(of[a], of[b]) for a, b in closed._base_edges if of[a] != of[b]}
    quotient = ConstraintSet._assemble(
        tuple(variables),
        tuple(qbase),
        exact,
        closed=True,
        reserved=frozenset(reserved),
        succ=class_succ,
    )
    class_of = {m: variables[idx] for m, idx in enumerate(of)}
    representatives = {
        idx: tuple(closed.variables[m] for m in members)
        for idx, members in enumerate(classes)
    }
    return TieQuotient(quotient, MappingProxyType(class_of), MappingProxyType(representatives))


@dataclass(frozen=True)
class HasseDiagram:
    """Covering relation of the closed, tie-free partial order."""

    nodes: tuple[VariableId, ...]
    cover_edges: frozenset[tuple[int, int]]

    def edges_by_name(self) -> set[tuple[str, str]]:
        by_id = {v.id: v.name for v in self.nodes}
        return {(by_id[a], by_id[b]) for a, b in self.cover_edges}


def _cover_edges(closed: ConstraintSet) -> frozenset[tuple[int, int]]:
    # Every cover x ⋖ y must appear among the base edges: if it were only
    # implied transitively, the implying chain would put an element strictly
    # between x and y.  Likewise anything strictly between x and y lies
    # above some base successor of x, so x's covers are its base successors
    # that none of those reaches.  Callers pass tie-free (collapsed) sets.
    succ = closed._succ
    above: dict[int, int] = {}
    for i, j in closed._base_edges:
        if i != j:
            above[i] = above.get(i, 0) | 1 << j
    covers = set()
    for i, direct in above.items():
        reached = 0
        for j in _bits(direct):
            reached |= succ[j]
        covers.update((i, j) for j in _bits(direct & ~reached))
    return frozenset(covers)


def hasse(cs: ConstraintSet, include_bounds: bool = False) -> HasseDiagram:
    """Cover pairs of the closed order; rejects persistent user ties.

    The transitive closure of the cover edges reproduces the full order.
    With ``include_bounds`` the reserved 0/1 bound variables appear too;
    by default they are hidden.
    """
    prep = Prepared(cs)
    prep.reject_user_ties()
    quotient = prep.ties.quotient
    if include_bounds:
        return HasseDiagram(quotient.variables, prep.covers)
    hidden = quotient.reserved
    nodes = tuple(v for v in quotient.variables if v.id not in hidden)
    kept = frozenset((a, b) for a, b in prep.covers if a not in hidden and b not in hidden)
    return HasseDiagram(nodes, kept)


@dataclass(frozen=True)
class UninfluenceDecomposition:
    """Partition of the unknowns into independent constraint sets.

    Two unknowns share a class when they are connected through cover edges
    that touch unknowns only; each part holds one class plus every pinned
    variable, so part volumes multiply to the whole volume and per-part
    interpolation agrees with whole-set interpolation.  Parts are closed and
    tie-free, so engines run on them without closing or collapsing again;
    ``skeletons`` holds each part's skeleton, in part order.
    """

    classes: tuple[tuple[VariableId, ...], ...]
    parts: tuple[ConstraintSet, ...]
    skeletons: tuple[PartSkeleton, ...] = field(repr=False)
    part_index: Mapping[str, int] = field(repr=False)


def decompose(cs: ConstraintSet) -> UninfluenceDecomposition:
    """Split along the covering relation restricted to unknowns."""
    prep = Prepared(cs)
    prep.reject_user_ties()
    return prep.decomposition


def _split(quotient: ConstraintSet, covers: Iterable[tuple[int, int]]) -> UninfluenceDecomposition:
    """The decomposition of ``quotient``, whose cover pairs are ``covers``."""
    unknown_ids = [v.id for v in quotient.variables if v.id not in quotient.exact_values]
    parent = {i: i for i in unknown_ids}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in covers:
        if a in parent and b in parent:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    groups: dict[int, list[int]] = {}
    for i in unknown_ids:
        groups.setdefault(find(i), []).append(i)
    ordered = sorted(groups.values(), key=lambda members: members[0])
    part_of = {i: no for no, members in enumerate(ordered) for i in members}
    pairs: list[list[tuple[int, int]]] = [[] for _ in ordered]
    for a, b in covers:  # one with an unknown end joins its class to a pin or the class
        if a in part_of or b in part_of:
            pairs[part_of[a] if a in part_of else part_of[b]].append((a, b))

    classes = tuple(tuple(quotient.variables[i] for i in members) for members in ordered)
    skeletons = tuple(
        _project(quotient, sorted(set(members).union(quotient.exact_values)), own)
        for members, own in zip(ordered, pairs)
    )
    part_index = {quotient.variables[i].name: no for i, no in part_of.items()}
    return UninfluenceDecomposition(
        classes,
        tuple(skel.part for skel in skeletons),
        skeletons,
        MappingProxyType(part_index),
    )


def _project(
    quotient: ConstraintSet, ids: list[int], covers: Iterable[tuple[int, int]]
) -> PartSkeleton:
    """The skeleton of the closed, tie-free restriction of ``quotient`` to
    ``ids`` (classes of unknowns plus every pin, bounds included), from the
    quotient's ``covers`` with an unknown end in those classes.

    Any order between members is witnessed by cover chains through the
    classes and the pins, so the quotient's closure is projected, never
    recomputed.  Its covers with an unknown end are the quotient's: a z
    strictly between x and y outside would be an unknown of another class,
    and the cover chain from it to the unknown end would pass a pin
    strictly between x and y.
    """
    if len(ids) == len(quotient.variables):
        return _skeleton(quotient, quotient, covers)
    index = {old: new for new, old in enumerate(ids)}
    mask = sum(1 << i for i in ids)
    succ = [sum(1 << index[j] for j in _bits(quotient._succ[i] & mask)) for i in ids]
    part = ConstraintSet._assemble(
        tuple(VariableId(new, quotient.variables[old].name) for new, old in enumerate(ids)),
        tuple(
            (index[a], index[b])
            for a, b in quotient._base_edges
            if a in index and b in index
        ),
        {index[i]: value for i, value in quotient.exact_values.items()},
        closed=True,
        reserved=frozenset(index[i] for i in quotient.reserved),
        succ=succ,
    )
    return _skeleton(part, part, [(index[a], index[b]) for a, b in covers])


class Prepared:
    """One request's pipeline, each stage run at most once.  The input is
    closed on construction; on first use come ``consistency`` (the report
    the caller gates on, and collapsing rejects a contradiction with),
    ``ties`` (the tie quotient), ``covers`` (its cover pairs, which the
    decomposition, ``hasse`` and the sampler's chords read) and
    ``decomposition`` (the parts and their skeletons, from ``covers``).
    A skeleton builds its part's lattice form once (``PartSkeleton.prep``)
    for the pre-count, ``lattice.answer``, top-k and exact draws alike, and
    beside it the part's tree once (``PartSkeleton.tree``), with its volume
    polynomials, for every tree-engine query on the part.
    The CLI builds one per request and hands it to every engine it calls
    (``tree.solve``, the sampler and top-k), which prepare a bare
    ``ConstraintSet`` once, on entry."""

    def __init__(self, cs: ConstraintSet):
        self.source = cs
        self.closed = close_under_implication(cs)

    @classmethod
    def of(cls, x: ConstraintSet | Prepared) -> Prepared:
        """``x`` itself when it is prepared, else its pipeline."""
        return x if isinstance(x, Prepared) else cls(x)

    @cached_property
    def consistency(self) -> ConsistencyReport:
        return check_consistency(self.closed)

    @cached_property
    def ties(self) -> TieQuotient:
        # a tie-free set is consistent and collapses to itself unchecked
        if self.closed.has_persistent_tie():
            self.consistency.raise_if_contradiction()
        return _quotient(self.closed)

    @cached_property
    def covers(self) -> frozenset[tuple[int, int]]:
        return _cover_edges(self.ties.quotient)

    @cached_property
    def decomposition(self) -> UninfluenceDecomposition:
        return _split(self.ties.quotient, self.covers)

    def reject_user_ties(self) -> None:
        """Reject tie classes that merge two or more user variables.

        Closing a set whose pinned values include 0 or 1 ties those
        variables with the reserved bounds; such single-user-variable
        classes are an implementation artifact and pass silently.  A class
        with two or more user variables is a real persistent tie.
        """
        for members in self.ties.representatives.values():
            user_members = [m for m in members if m.id not in self.closed.reserved]
            if len(user_members) > 1:
                names = ", ".join(sorted(m.name for m in user_members))
                raise PersistentTieError(
                    f"persistent tie among {{{names}}}; collapse_ties first"
                )

    def target(self, x: VarLike) -> VariableId:
        """The quotient class of a variable of the source set."""
        return self.ties.quotient_of(self.source, x)


def polytope_dimension(cs: ConstraintSet) -> int:
    """Number of genuinely free coordinates after collapsing ties."""
    return len(collapse_ties(cs).quotient.unknowns())  # rejects inconsistent input


@dataclass(frozen=True)
class PartSkeleton:
    """Cleaned Hasse structure of one decomposition part.

    Cover edges between two pinned variables are dropped (they constrain
    nothing once both endpoints are pinned and consistency holds) and
    pinned variables isolated by the drop are removed.  What remains is the
    structure the shape tags, the tree engine and the lattice operate on.
    The part's lattice form (``prep``) and its tree (``tree``) are each
    built from it at most once, on first use.
    """

    part: ConstraintSet
    quotient: ConstraintSet
    nodes: tuple[VariableId, ...]
    children: Mapping[int, tuple[int, ...]]
    parents: Mapping[int, tuple[int, ...]]
    shape: str

    @cached_property
    def prep(self):
        """The part's ``lattice._Prep``, built on first use from the edges
        and the pins' chain: every walk of the part's downsets reads it."""
        from .lattice import _prepare  # the lattice loads when a walk first needs it

        return _prepare(self, self.shape)

    @cached_property
    def tree(self):
        """The part's ``tree.ConstraintTree`` with its volume polynomials,
        built once for every tree query on the part; for a reverse tree,
        of its mirror image v -> 1 - v.  A general part, or a chain with a
        pin inside (never a decomposition part), raises ``ShapeError``."""
        from .tree import _build_tree  # the tree engine loads with its first tree

        if self.shape not in (SHAPE_TREE, SHAPE_REVERSE_TREE):
            exact_ids = set(self.quotient.exact_values)
            node_ids = [v.id for v in self.nodes]
            if violation := _tree_violation(node_ids, self.children, self.parents, exact_ids):
                raise ShapeError(f"not tree-shaped: {violation}")
        return _build_tree(self, mirrored=self.shape == SHAPE_REVERSE_TREE)


def part_skeleton(part: ConstraintSet) -> PartSkeleton:
    """Cleaned Hasse skeleton plus shape tag for one decomposition part,
    from the covers of its own closed, tie-free form."""
    quotient = collapse_ties(part).quotient
    return _skeleton(part, quotient, _cover_edges(quotient))


def _skeleton(
    part: ConstraintSet, quotient: ConstraintSet, covers: Iterable[tuple[int, int]]
) -> PartSkeleton:
    """The skeleton of ``part`` from the cover pairs of ``quotient``, its
    closed, tie-free form; pin-pin pairs are dropped here."""
    exact_ids = set(quotient.exact_values)
    kept = [(a, b) for a, b in covers if not (a in exact_ids and b in exact_ids)]
    touched = {a for a, _ in kept} | {b for _, b in kept}
    node_ids = sorted(v.id for v in quotient.variables if v.id not in exact_ids or v.id in touched)
    children: dict[int, list[int]] = {i: [] for i in node_ids}
    parents: dict[int, list[int]] = {i: [] for i in node_ids}
    for a, b in kept:
        children[a].append(b)
        parents[b].append(a)
    name_of = {v.id: v.name for v in quotient.variables}.get
    return PartSkeleton(
        part=part,
        quotient=quotient,
        nodes=tuple(quotient.variables[i] for i in node_ids),
        children=MappingProxyType({i: tuple(sorted(c, key=name_of)) for i, c in children.items()}),
        parents=MappingProxyType({i: tuple(sorted(p, key=name_of)) for i, p in parents.items()}),
        shape=_shape_of(node_ids, children, parents, exact_ids),
    )


def _tree_violation(
    node_ids: list[int],
    children: Mapping[int, Sequence[int]],
    parents: Mapping[int, Sequence[int]],
    exact_ids: set[int],
) -> str | None:
    roots = [i for i in node_ids if not parents[i]]
    if len(roots) != 1:
        return f"{len(roots)} minimal elements (need exactly one root)"
    root = roots[0]
    if root not in exact_ids:
        return "root is not pinned to an exact value"
    if len(children[root]) != 1:
        return f"root has {len(children[root])} children (need exactly one)"
    if any(len(parents[i]) != 1 for i in node_ids if i != root):
        return "a non-root node has more than one parent"
    leaves = [i for i in node_ids if not children[i]]
    if any(i not in exact_ids for i in leaves):
        return "a leaf is not pinned to an exact value"
    internal = [i for i in node_ids if children[i] and i != root]
    if any(i in exact_ids for i in internal):
        return "an internal node is pinned to an exact value"
    return None


def _shape_of(
    node_ids: list[int],
    children: Mapping[int, Sequence[int]],
    parents: Mapping[int, Sequence[int]],
    exact_ids: set[int],
) -> str:
    if all(len(children[i]) <= 1 and len(parents[i]) <= 1 for i in node_ids):
        return SHAPE_TOTAL_ORDER
    if _tree_violation(node_ids, children, parents, exact_ids) is None:
        return SHAPE_TREE
    if _tree_violation(node_ids, parents, children, exact_ids) is None:
        return SHAPE_REVERSE_TREE
    return SHAPE_GENERAL


def classify_shape(cs: ConstraintSet) -> list[str]:
    """Shape tag for each decomposition part, in decomposition order."""
    return [skel.shape for skel in decompose(cs).skeletons]


def flip_constraints(cs: ConstraintSet) -> ConstraintSet:
    """Mirror the set through v -> 1 - v.

    Order edges reverse and every pinned value alpha becomes 1 - alpha;
    expected values of the flipped set are 1 minus the originals.
    """
    names, edges, exact = cs.user_view()
    return ConstraintSet(
        names,
        [(b, a) for a, b in edges],
        {n: 1 - v for n, v in exact.items()},
    )
