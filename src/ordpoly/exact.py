"""Exact engine: enumeration over linear extensions.

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
all extensions.  The number of extensions can be astronomically large, so
every enumerating entry point takes a budget and aborts with
``BudgetExceededError`` (carrying a proven lower bound) instead of
hanging.  Every fold reaches the walk through one guarded iterator,
``_extensions``: it pre-counts prefixes level by level before the first
extension is produced, which aborts in milliseconds even when the true
count is in the trillions, and when pre-counting would need too much
memory it counts the extensions as they are produced instead.  Each fold
tallies only what its query reads: volume tracks no unknown, one
expected value or marginal tracks one, ``interpolate_all`` tracks all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Iterable, Iterator

from .errors import BudgetExceededError, MalformedInputError
from .model import ConstraintSet, Prepared, VariableId, _cover_edges
from .poly import PiecewisePolynomial, Polynomial, order_statistic_density

DEFAULT_BUDGET = 10_000_000

# When the prefix-counting guard would need more than this many distinct
# prefixes per level it stops pre-counting and the enumeration itself
# counts against the budget instead.
_LEVEL_MASK_CAP = 2_000_000


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
# preparation


@dataclass
class _Prep:
    """Tie-collapsed closure plus the adjacency the enumerator walks."""

    quotient: ConstraintSet
    class_of: dict[int, VariableId]
    children: list[tuple[int, ...]]
    indeg: list[int]
    exact_chain: list[int]
    exact_index: dict[int, int]
    values: list[Fraction]
    widths: list[Fraction]
    unknown_ids: list[int]


def _prepare(cs: ConstraintSet, *, reject_user_ties: bool = False) -> _Prep:
    prep = Prepared(cs)
    if reject_user_ties:
        prep.reject_user_ties()
    quotient, class_of = prep.ties.quotient, dict(prep.ties.class_of)
    n = len(quotient.variables)
    children: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b in sorted(_cover_edges(quotient)):
        children[a].append(b)
        indeg[b] += 1
    chain = sorted(quotient.exact_values, key=lambda i: quotient.exact_values[i])
    values = [quotient.exact_values[i] for i in chain]
    widths = [values[j + 1] - values[j] for j in range(len(chain) - 1)]
    assert all(w > 0 for w in widths), "equal pinned values must have been collapsed"
    return _Prep(
        quotient=quotient,
        class_of=class_of,
        children=[tuple(c) for c in children],
        indeg=indeg,
        exact_chain=chain,
        exact_index={v: j for j, v in enumerate(chain)},
        values=values,
        widths=widths,
        unknown_ids=[v.id for v in quotient.variables if v.id not in quotient.exact_values],
    )


def _quotient_class(cs: ConstraintSet, prep: _Prep, x) -> VariableId:
    vid = cs.resolve(x)
    return prep.class_of[vid.id]


# ---------------------------------------------------------------------------
# the enumeration walk


def _walk(prep: _Prep):
    """Yield every linear extension, depth-first, deterministically.

    Yields ``(order, volume, assign, sizes)`` where ``order`` is the id
    sequence, ``assign`` maps each unknown id to (interval, rank within
    fragment) and ``sizes[j]`` is the fragment size in interval j.  The
    yielded structures are REUSED between iterations; consumers must copy
    anything they keep.
    """
    n = len(prep.quotient.variables)
    children = prep.children
    exact_index = prep.exact_index
    widths = prep.widths
    indeg = list(prep.indeg)
    m = len(widths)

    order: list[int] = []
    sizes = [0] * m
    assign: dict[int, tuple[int, int]] = {}
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
            assign[v] = (j, sizes[j])
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
        cur_stack.pop()
        vstack.pop()
        got = assign.pop(v, None)
        if got is not None:
            sizes[got[0]] -= 1
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
            yield order, vstack[-1], assign, sizes
            unplace(v)
        else:
            frames.append((cands[:i] + cands[i + 1 :] + sorted(ready), 0))


# ---------------------------------------------------------------------------
# budget guard


def _count_extensions(prep: _Prep, budget: int) -> int | None:
    """Exact extension count, or None when pre-counting would need too
    much memory.  Raises ``BudgetExceededError`` as soon as any level's
    prefix count (a lower bound on the total) exceeds the budget, the
    last level (the count itself) included."""
    n = len(prep.quotient.variables)
    parent_mask = [0] * n
    for a in range(n):
        for b in prep.children[a]:
            parent_mask[b] |= 1 << a
    full = (1 << n) - 1
    level: dict[int, int] = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for mask, ways in level.items():
            rem = full & ~mask
            while rem:
                low = rem & -rem
                rem ^= low
                v = low.bit_length() - 1
                if parent_mask[v] & mask == parent_mask[v]:
                    key = mask | low
                    if key in nxt:
                        nxt[key] += ways
                    else:
                        nxt[key] = ways
            if len(nxt) > _LEVEL_MASK_CAP:
                return None
        total = sum(nxt.values())
        if total > budget:
            raise BudgetExceededError(budget, total)
        level = nxt
    return sum(level.values())


def _extensions(prep: _Prep, budget: int) -> Iterator:
    """The walk behind the budget guard; the only way folds reach ``_walk``.

    The pre-count runs on the call, not at the first ``next()``, so an
    over-budget set fails before anything is produced.  When pre-counting
    gives up, extension ``budget + 1`` raises instead.
    """
    if _count_extensions(prep, budget) is not None:
        return _walk(prep)
    return _counted(_walk(prep), budget)


def _counted(walk: Iterator, budget: int) -> Iterator:
    for count, item in enumerate(walk, start=1):
        if count > budget:
            raise BudgetExceededError(budget, count)
        yield item


def count_extensions(cs: ConstraintSet, budget: int = DEFAULT_BUDGET) -> int:
    """Number of linear extensions, guarded by the budget."""
    prep = _prepare(cs, reject_user_ties=True)
    known = _count_extensions(prep, budget)
    if known is not None:
        return known
    return sum(1 for _ in _counted(_walk(prep), budget))


# ---------------------------------------------------------------------------
# aggregation


def _aggregate(
    prep: _Prep, budget: int, track: Iterable[int]
) -> tuple[Fraction, dict[int, dict[tuple[int, int, int], Fraction]]]:
    """Total volume, and for each tracked unknown id the summed volume per
    (interval, rank, fragment size) it takes."""
    total = Fraction(0)
    acc: dict[int, dict[tuple[int, int, int], Fraction]] = {u: {} for u in track}
    for _order, vol, assign, sizes in _extensions(prep, budget):
        total += vol
        for u, bucket in acc.items():
            j, r = assign[u]
            key = (j, r, sizes[j])
            if key in bucket:
                bucket[key] += vol
            else:
                bucket[key] = vol
    return total, acc


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
    prep = _prepare(cs, reject_user_ties=True)
    walk = _extensions(prep, budget)

    def generate() -> Iterator[LinearExtension]:
        variables = prep.quotient.variables
        exact_ids = set(prep.exact_chain)
        for order, _vol, _assign, _sizes in walk:
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
    prep = _prepare(cs, reject_user_ties=True)
    walk = _extensions(prep, budget)
    hidden = prep.quotient.reserved
    variables = prep.quotient.variables
    return (
        (tuple(variables[v].name for v in order if v not in hidden), vol)
        for order, vol, _assign, _sizes in walk
    )


def volume_exact(cs: ConstraintSet, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Volume of the admissible polytope in its free dimension."""
    prep = _prepare(cs, reject_user_ties=True)
    return _aggregate(prep, budget, ())[0]


def interpolate_exact(cs: ConstraintSet, x, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Expected value of ``x`` under the uniform pdf on the polytope."""
    prep = _prepare(cs)
    target = _quotient_class(cs, prep, x)
    pinned = prep.quotient.exact_values.get(target.id)
    if pinned is not None:
        return pinned
    volume, acc = _aggregate(prep, budget, [target.id])
    return _expectation(prep, volume, acc[target.id])


def interpolate_all(cs: ConstraintSet, budget: int = DEFAULT_BUDGET) -> dict[str, Fraction]:
    """Expected value of every non-pinned input variable, one enumeration."""
    prep = _prepare(cs)
    targets = [v for v in cs.variables if v.id not in cs.exact_values]
    if all(
        prep.class_of[v.id].id in prep.quotient.exact_values for v in targets
    ):
        return {
            v.name: prep.quotient.exact_values[prep.class_of[v.id].id]
            for v in targets
        }
    volume, acc = _aggregate(prep, budget, prep.unknown_ids)
    out: dict[str, Fraction] = {}
    for v in targets:
        cls = prep.class_of[v.id]
        pinned = prep.quotient.exact_values.get(cls.id)
        out[v.name] = (
            pinned if pinned is not None else _expectation(prep, volume, acc[cls.id])
        )
    return out


def _expectation(
    prep: _Prep, volume: Fraction, bucket: dict[tuple[int, int, int], Fraction]
) -> Fraction:
    num = Fraction(0)
    for (j, r, size), vol in bucket.items():
        num += vol * (prep.values[j] + Fraction(r, size + 1) * prep.widths[j])
    return num / volume


def marginal_exact(cs: ConstraintSet, x, budget: int = DEFAULT_BUDGET) -> PiecewisePolynomial:
    """Exact marginal density of ``x``: piecewise polynomial, mass 1.

    Per extension the fragment containing x contributes the rank-r
    order-statistic density among the fragment's n unknowns, rescaled to
    the fragment's interval; contributions are volume-weighted and the
    total is normalized.  Pinned variables have no density and are
    rejected.
    """
    prep = _prepare(cs)
    target = _quotient_class(cs, prep, x)
    if target.id in prep.quotient.exact_values:
        raise MalformedInputError(
            f"{prep.quotient.variables[target.id].name!r} is pinned to "
            f"{prep.quotient.exact_values[target.id]}; only unknowns have a density"
        )
    volume, acc = _aggregate(prep, budget, [target.id])
    per_interval: dict[int, Polynomial] = {}
    for (j, r, size), vol in acc[target.id].items():
        density = order_statistic_density(
            r, size, prep.values[j], prep.values[j + 1]
        )
        weighted = density * (vol / volume)
        if j in per_interval:
            per_interval[j] = per_interval[j] + weighted
        else:
            per_interval[j] = weighted
    breakpoints = tuple(prep.values)
    pieces = tuple(
        per_interval.get(j, Polynomial()) for j in range(len(prep.widths))
    )
    return PiecewisePolynomial(breakpoints, pieces).canonical()


def expected_rank(cs: ConstraintSet, x, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Average 1-based rank of ``x`` over all linear extensions.

    Defined for sets whose only pinned values are the materialized
    bounds; the bounds do not count toward ranks.  For such sets the
    expected value of any unknown equals expected_rank / (n + 1).
    """
    prep = _prepare(cs, reject_user_ties=True)
    visible_pinned = [
        prep.quotient.variables[i].name
        for i in prep.quotient.exact_values
        if i not in prep.quotient.reserved
    ]
    if visible_pinned:
        raise MalformedInputError(
            "expected_rank is defined for order-only constraint sets; "
            f"pinned variables present: {sorted(visible_pinned)}"
        )
    target = _quotient_class(cs, prep, x)
    count = rank_sum = 0
    for _order, _vol, assign, _sizes in _extensions(prep, budget):
        count += 1
        rank_sum += assign[target.id][1]
    return Fraction(rank_sum, count)
