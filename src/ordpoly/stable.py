"""Stable-and-balanced interpolation on tree-shaped constraint sets.

The uniform-distribution expectation is not stable: pinning a variable at
its own interpolated value can move the values of others.  This module
implements the alternative scheme that is stable by construction.  Each
unknown, visited top-down, receives

    v_x = min over pinned leaves z below x of  v_y + (v_z - v_y) / (d + 1)

where v_y is the already-assigned value of x's parent and d is the number
of edges from x to z.  A pinned leaf that is a direct child therefore
yields the midpoint (v_y + v_z) / 2, which is what makes the scheme
balanced; taking the minimum over whole leaf paths is what makes it
stable.  The scheme is defined on trees only — no analogue is known for
general constraint sets.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .errors import MalformedInputError
from .model import STABLE, Prepared, VariableId
from .tree import ConstraintTree, solve

__all__ = [
    "StableAssignment",
    "StabilityReport",
    "stable_interpolate",
    "check_stability",
]


@dataclass(frozen=True)
class StableAssignment:
    """Stable-scheme value for every node of a tree, pinned nodes included."""

    tree: ConstraintTree
    values: Mapping[VariableId, Fraction]

    def value_of(self, x) -> Fraction:
        return self.values[self.tree.node(x)]


@dataclass(frozen=True)
class StabilityReport:
    """Result of pinning one unknown at its stable value and re-solving.

    ``mismatches`` lists (variable name, value before, value after) for
    every unknown whose value moved; the scheme is stable, so a non-empty
    list indicates a defect.
    """

    variable: VariableId
    pinned_at: Fraction
    stable: bool
    mismatches: tuple[tuple[str, Fraction, Fraction], ...]


def _leaf_distances(t: ConstraintTree) -> dict[VariableId, list[tuple[Fraction, int]]]:
    """Per unknown: (pinned leaf value, edge count to that leaf) pairs."""
    dists: dict[VariableId, list[tuple[Fraction, int]]] = {}
    order = [t.root]
    for v in order:
        order.extend(t.children.get(v, ()))
    for v in reversed(order):
        if not t.is_unknown(v):
            continue
        pairs: list[tuple[Fraction, int]] = []
        for c in t.children.get(v, ()):
            if c in t.leaf_values:
                pairs.append((t.leaf_values[c], 1))
            else:
                pairs.extend((val, d + 1) for val, d in dists[c])
        dists[v] = pairs
    return dists


def stable_interpolate(t: ConstraintTree) -> StableAssignment:
    """Assign every unknown its stable-scheme value, top-down."""
    dists = _leaf_distances(t)
    values: dict[VariableId, Fraction] = {t.root: t.root_value}
    values.update(t.leaf_values)
    queue = [t.root]
    for v in queue:
        for c in t.children.get(v, ()):
            if t.is_unknown(c):
                v_y = values[v]
                values[c] = min(
                    v_y + Fraction(v_z - v_y, d + 1) for v_z, d in dists[c]
                )
            queue.append(c)
    return StableAssignment(t, MappingProxyType(values))


def check_stability(t: ConstraintTree, x) -> StabilityReport:
    """Pin ``x`` at its stable value, re-solve the other unknowns under
    the stable scheme (``tree.solve``, part by part), compare exactly."""
    xid = t.node(x)
    if not t.is_unknown(xid):
        raise MalformedInputError(
            f"{xid.name!r} is already pinned; stability is checked on unknowns"
        )
    before = stable_interpolate(t)
    pin = before.values[xid]
    pinned = t.source.with_exact(xid.name, pin)
    others = sorted((v for v in t.unknown_nodes() if v != xid), key=lambda v: v.name)
    after = solve(Prepared(pinned), STABLE, [v.name for v in others])
    mismatches = tuple(
        (v.name, before.values[v], after[v.name])
        for v in others
        if after[v.name] != before.values[v]
    )
    return StabilityReport(xid, pin, not mismatches, mismatches)
