"""Exact engine: linear extensions, their fragments and the public entry
points.

A linear extension is a total order of all variables (including the
materialized 0/1 bounds) consistent with the order constraints.  Cutting
an extension at its pinned variables yields fragments: maximal runs of
unknowns squeezed into one value interval [alpha, beta].  Within a
fragment of n unknowns the admissible region is a scaled simplex, so

* its volume is (beta - alpha)^n / n!,
* the rank-r unknown has expected value alpha + r/(n+1) * (beta - alpha),
* and the rank-r unknown's density is the order-statistic (Beta-shaped)
  density of rank r among n uniform samples, rescaled to [alpha, beta].

Whole-polytope answers are volume-weighted sums of fragment answers over
all extensions.  ``volume_exact``, ``interpolate_exact``,
``interpolate_all``, ``marginal_exact`` and ``expected_rank`` are each one
``tree.solve`` call with ``engine="exact"``, which pre-counts the
extensions against the budget, then answers part by part like ``auto``
(general parts sum over the lattice of downsets without enumerating).

The number of extensions can be astronomically large, so every entry
point takes a budget and aborts with ``BudgetExceededError`` (carrying a
proven lower bound) instead of hanging: ``lattice._count_extensions``
pre-counts prefixes level by level, which aborts in milliseconds even
when the true count is in the trillions.  The walk below serves only the
extension tables and ``count_extensions``; when pre-counting would need
too much memory, it counts what it produces against the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Iterator

from .errors import DEFAULT_BUDGET, BudgetExceededError, MalformedInputError
from .lattice import _count_extensions, _Prep, _prepare
from .model import ConstraintSet, Prepared, VariableId, _bits
from .poly import PiecewisePolynomial
from .tree import MARGINAL, VALUES, VOLUME, solve


# ---------------------------------------------------------------------------
# fragment arithmetic


def volume_frag(p: int, q: int, alpha: Fraction, beta: Fraction) -> Fraction:
    """Volume (beta-alpha)^n / n! of a fragment of n = q-p-1 unknowns."""
    if p >= q:
        raise ValueError(f"fragment endpoints out of order: p={p}, q={q}")
    if alpha > beta:
        raise ValueError(f"fragment values out of order: alpha={alpha}, beta={beta}")
    n = q - p - 1
    return (Fraction(beta) - Fraction(alpha)) ** n / factorial(n)


def expected_val_frag(
    p: int, q: int, k: int, alpha: Fraction, beta: Fraction
) -> Fraction:
    """Expected value of the unknown at position k inside a fragment.

    The fragment spans positions p..q with pinned values alpha, beta at the
    ends; the n = q-p-1 unknowns in between are uniform order statistics,
    so position k gets alpha + (k-p)/(n+1) * (beta-alpha).
    """
    if not p < k < q:
        raise ValueError(f"position must satisfy p < k < q, got p={p}, k={k}, q={q}")
    if alpha > beta:
        raise ValueError(f"fragment values out of order: alpha={alpha}, beta={beta}")
    n = q - p - 1
    return Fraction(alpha) + Fraction(k - p, n + 1) * (Fraction(beta) - Fraction(alpha))


# ---------------------------------------------------------------------------
# extension views


@dataclass(frozen=True)
class FragmentView:
    """One maximal run of unknowns between consecutive pinned variables."""

    p: int
    q: int
    alpha: Fraction
    beta: Fraction
    member_ranks: tuple[int, ...]

    def volume(self) -> Fraction:
        return volume_frag(self.p, self.q, self.alpha, self.beta)


@dataclass(frozen=True)
class LinearExtension:
    """A total order of the tie-collapsed variables, bounds included."""

    order: tuple[VariableId, ...]
    exact_positions: tuple[int, ...]
    exact_values: tuple[Fraction, ...] = field(repr=False)

    def fragments(self) -> tuple[FragmentView, ...]:
        out = []
        for a in range(len(self.exact_positions) - 1):
            p, q = self.exact_positions[a], self.exact_positions[a + 1]
            out.append(
                FragmentView(
                    p,
                    q,
                    self.exact_values[a],
                    self.exact_values[a + 1],
                    tuple(range(p + 1, q)),
                )
            )
        return tuple(out)

    def volume(self) -> Fraction:
        v = Fraction(1)
        for frag in self.fragments():
            v *= frag.volume()
        return v


# ---------------------------------------------------------------------------
# the enumeration walk


def _walk(prep: _Prep):
    """Yield every linear extension, depth-first, deterministically.

    Yields ``(order, volume)`` where ``order`` is the id sequence.  The
    yielded list is REUSED between iterations; consumers must copy what
    they keep.
    """
    n = len(prep.quotient.variables)
    children = [tuple(_bits(mask)) for mask in prep.child_bits]
    indeg = [mask.bit_count() for mask in prep.parents]
    exact_index = prep.exact_index
    widths = prep.widths
    m = len(widths)

    order: list[int] = []
    sizes = [0] * m
    vstack: list[Fraction] = [Fraction(1)]
    cur_stack: list[int] = [0]

    def place(v: int) -> list[int]:
        order.append(v)
        j = exact_index.get(v)
        if j is not None:
            cur_stack.append(j)
            vstack.append(vstack[-1])
        else:
            j = cur_stack[-1]
            sizes[j] += 1
            cur_stack.append(j)
            vstack.append(vstack[-1] * widths[j] / sizes[j])
        ready = []
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
        return ready

    def unplace(v: int) -> None:
        for c in children[v]:
            indeg[c] += 1
        j = cur_stack.pop()
        vstack.pop()
        if v not in exact_index:
            sizes[j] -= 1
        order.pop()

    frames: list[tuple[list[int], int]] = [
        (sorted(i for i in range(n) if indeg[i] == 0), 0)
    ]
    while frames:
        cands, i = frames[-1]
        if i >= len(cands):
            frames.pop()
            if order:
                unplace(order[-1])
            continue
        frames[-1] = (cands, i + 1)
        v = cands[i]
        ready = place(v)
        if len(order) == n:
            yield order, vstack[-1]
            unplace(v)
        else:
            frames.append((cands[:i] + cands[i + 1 :] + sorted(ready), 0))


# ---------------------------------------------------------------------------
# budget guard


def _extensions(cs: ConstraintSet, budget: int) -> tuple[_Prep, Iterator]:
    """The bitmask form of the tie quotient of ``cs`` (persistent user ties
    refused) and the walk behind the budget guard; the extension tables'
    way to ``_walk``.

    The pre-count runs on the call, not at the first ``next()``, so an
    over-budget set fails before anything is produced.  When pre-counting
    gives up, extension ``budget + 1`` raises instead.
    """
    prepared = Prepared(cs)
    prepared.reject_user_ties()
    prep = _prepare(prepared.ties.quotient)
    if _count_extensions(prep, budget) is not None:
        return prep, _walk(prep)
    return prep, _counted(_walk(prep), budget)


def _counted(walk: Iterator, budget: int) -> Iterator:
    for count, item in enumerate(walk, start=1):
        if count > budget:
            raise BudgetExceededError(budget, count)
        yield item


def count_extensions(cs: ConstraintSet, budget: int = DEFAULT_BUDGET) -> int:
    """Number of linear extensions, guarded by the budget."""
    prepared = Prepared(cs)
    prepared.reject_user_ties()
    prep = _prepare(prepared.ties.quotient)
    known = _count_extensions(prep, budget)
    if known is not None:
        return known
    return sum(1 for _ in _counted(_walk(prep), budget))


# ---------------------------------------------------------------------------
# public operations


def enumerate_extensions(
    cs: ConstraintSet, budget: int = DEFAULT_BUDGET
) -> Iterator[LinearExtension]:
    """Yield every linear extension of the tie-collapsed closure.

    Orders include the reserved bound variables at the two ends.  The
    guard runs before the first yield, so an over-budget set fails fast
    instead of streaming forever.
    """
    prep, walk = _extensions(cs, budget)

    def generate() -> Iterator[LinearExtension]:
        variables = prep.quotient.variables
        exact_ids = set(prep.exact_chain)
        for order, _vol in walk:
            positions = tuple(i for i, v in enumerate(order) if v in exact_ids)
            yield LinearExtension(
                order=tuple(variables[v] for v in order),
                exact_positions=positions,
                exact_values=tuple(
                    prep.quotient.exact_values[order[i]] for i in positions
                ),
            )

    return generate()


def extension_volumes(
    cs: ConstraintSet, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[tuple[str, ...], Fraction]]:
    """Debug table: (user-visible variable order, volume) per extension."""
    prep, walk = _extensions(cs, budget)
    hidden = prep.quotient.reserved
    variables = prep.quotient.variables
    return (
        (tuple(variables[v].name for v in order if v not in hidden), vol)
        for order, vol in walk
    )


def volume_exact(cs: ConstraintSet, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Volume of the admissible polytope in its free dimension."""
    return solve(Prepared(cs), VOLUME, budget=budget, engine="exact")


def interpolate_exact(cs: ConstraintSet, x, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Expected value of ``x`` under the uniform pdf on the polytope."""
    return solve(Prepared(cs), VALUES, [x], budget, "exact")[x]


def interpolate_all(cs: ConstraintSet, budget: int = DEFAULT_BUDGET) -> dict[str, Fraction]:
    """Expected value of every non-pinned input variable, one lattice pass."""
    return solve(Prepared(cs), VALUES, [v.name for v in cs.unknowns()], budget, "exact")


def marginal_exact(cs: ConstraintSet, x, budget: int = DEFAULT_BUDGET) -> PiecewisePolynomial:
    """Exact marginal density of ``x``: piecewise polynomial, mass 1.

    Per extension the fragment containing x contributes the rank-r
    order-statistic density among the fragment's n unknowns, rescaled to
    the fragment's interval; contributions are volume-weighted (summed
    over the lattice of downsets) and the total is normalized.  Pinned
    variables have no density and are rejected.
    """
    return solve(Prepared(cs), MARGINAL, [x], budget, "exact")


def expected_rank(cs: ConstraintSet, x, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Average 1-based rank of ``x`` over all linear extensions.

    Defined for sets whose only pinned values are the materialized
    bounds; the bounds do not count toward ranks.  Every extension of such
    a set has one fragment on [0, 1] and the same volume, so the average
    rank is (n + 1) * E[x] over the n unknowns.
    """
    prep = Prepared(cs)
    prep.reject_user_ties()
    quotient = prep.ties.quotient
    visible_pinned = [
        quotient.variables[i].name
        for i in quotient.exact_values
        if i not in quotient.reserved
    ]
    if visible_pinned:
        raise MalformedInputError(
            "expected_rank is defined for order-only constraint sets; "
            f"pinned variables present: {sorted(visible_pinned)}"
        )
    n = len(quotient.variables) - len(quotient.exact_values)
    return (n + 1) * solve(prep, VALUES, [x], budget, "exact")[x]
