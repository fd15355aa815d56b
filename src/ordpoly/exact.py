"""Exact engine: fragment formulas and the public entry points.

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
all extensions, which ``lattice`` sums over the downsets without listing
the extensions.  ``volume_exact``, ``interpolate_exact``,
``interpolate_all``, ``marginal_exact`` and ``expected_rank`` are each one
``tree.solve`` call with ``engine="exact"``, which pre-counts the
extensions against the budget, then answers part by part like ``auto``.

The number of extensions can be astronomically large, so every entry
point takes a budget and aborts with ``BudgetExceededError`` (carrying a
proven lower bound) instead of hanging: ``precount.count_extensions``
counts each decomposition part's prefixes level by level and merges the
parts' counts by multinomials over the pin intervals they share, which
aborts in milliseconds even when the true count is in the trillions, and
refuses with ``LimitExceededError`` a set whose pre-count needs too much
memory.
"""

from __future__ import annotations

from fractions import Fraction

from . import precount
from .errors import DEFAULT_BUDGET, MalformedInputError
from .model import ConstraintSet, Prepared
from .poly import PiecewisePolynomial
from .tree import MARGINAL, VALUES, VOLUME, solve


def count_extensions(cs: ConstraintSet, budget: int = DEFAULT_BUDGET) -> int:
    """Number of linear extensions of the tie quotient (persistent user
    ties refused), pre-counted under the budget."""
    prepared = Prepared(cs)
    prepared.reject_user_ties()
    return precount.count_extensions(prepared, budget)


def volume_exact(cs: ConstraintSet, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Volume of the admissible polytope in its free dimension."""
    return solve(Prepared(cs), VOLUME, budget=budget, engine="exact")


def interpolate_exact(cs: ConstraintSet, x, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Expected value of ``x`` under the uniform pdf on the polytope."""
    return solve(Prepared(cs), VALUES, [x], budget, "exact")[x]


def interpolate_all(cs: ConstraintSet, budget: int = DEFAULT_BUDGET) -> dict[str, Fraction]:
    """Expected value of every non-pinned input variable."""
    return solve(Prepared(cs), VALUES, [v.name for v in cs.unknowns()], budget, "exact")


def marginal_exact(cs: ConstraintSet, x, budget: int = DEFAULT_BUDGET) -> PiecewisePolynomial:
    """Exact marginal density of ``x``: piecewise polynomial, mass 1.

    Per extension the fragment containing x contributes the rank-r
    order-statistic density among the fragment's n unknowns, rescaled to
    the fragment's interval; contributions are volume-weighted and the
    total is normalized (``tree.solve_part`` sums them by the engine the
    part's shape allows).  Pinned variables have no density and are
    rejected.
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
