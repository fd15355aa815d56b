"""Exact engine over the lattice of downsets.

A linear extension places the variables of a closed, tie-free set (a
decomposition part or a tie quotient) one at a time, so after t
placements the placed set is a downset D of size t.  An
extension's volume is the product over its fragments (see ``exact``) of
w_j^n / n!, and of its past the future needs only D and the size k of the
fragment still open.  Sums over all extensions therefore factor through
the states (D, k), whose number grows with the number of downsets, not
with the number of extensions (De Loof, De Meyer & De Baets 2006; Kangas
et al., IJCAI 2016).

* The forward table F(D, k) sums the closed fragments' weights over every
  prefix that reaches D with k unknowns in the open fragment.  Placing an
  unknown moves (D, k) to (D + u, k + 1); placing the next pin multiplies
  by w_j^k / k! and resets k.  The volume is F(full, 0).
* The backward table c_m(D) sums the later fragments' weights over every
  completion that puts m more unknowns into D's open fragment.  Placing
  an unknown moves c_m(D + u) to c_{m+1}(D); placing pin p adds D + p's
  whole completion weight, sum_m w^m / m! c_m(D + p), to c_0(D).  So the
  completions of (D, k) whose open fragment ends with n unknowns weigh
  B_n(D, k) = w^n / n! c_{n-k}(D), and each transition's F * B, the
  volume of the extensions through it, gives without enumerating each
  unknown's volume per (interval, rank, fragment size), hence its
  expected value and marginal, and the rank buckets of u/global top-k.
* A selected variable placed at D has |S \\ D| - 1 selected variables
  after it, which D fixes.  Carrying the selected variables placed once
  |S \\ D| <= K along with (D, k) gives the top-K sequence of every
  extension: reversed, the carried tail is its sequence.
* Walking the forward table back from (full, 0), each step choosing a
  predecessor state with probability F times the transition weight over
  F here, draws a linear extension with probability its volume over the
  total.  ``ExtensionDraw`` gives each state's predecessors as integer
  thresholds, which the sampler's exact path compiles, for the states its
  draws reach, into arrays that walk many points at once.  It counts the
  table's moves as each level is built and refuses a set at the first
  level that takes them past the sampler's cap.

Every walk carries with each downset D the variables that may join it,
those outside D whose parents are all in D.  Placing v drops v and adds
each child of v whose parents are then all placed (``_Prep.joinable``),
so a step never rereads the rest of D.  Parents are those of a part's
skeleton edges and its pins' chain (``_prepare``), which generate its
order; each part's ``_Prep`` is built once per request
(``model.PartSkeleton.prep``).

Weights are integers.  With L the common denominator of the interval
widths (w_j = c_j / L), N the number of unknowns and s the unknowns in
closed fragments, F is stored times L^s s! and c_m(D) times L^r r!,
where r = N - |D ∩ U| - m counts the unknowns (U) from the next pin on,
so B_n(D, k) carries L^(N-s) (N-s)!.  All stay integral (the factorials
combine into binomials), F * B at any state is the volume times
L^N N! / C(N, s), and one division at the end gives exact fractions.

The tables are built level by level under two guards: a level with more
distinct downsets than the budget raises ``BudgetExceededError`` (distinct
downsets of one size are prefixes of distinct extensions, so their number
is a proven lower bound on the extension count), and a level with more
than ``_LEVEL_MASK_CAP`` states raises ``LimitExceededError``.

``tree.solve_part`` reaches volumes, expected values and marginals of a
general part through ``answer``.  The ``--engine exact`` pre-count walks
each part's downsets in ``precount``, on the same ``_Prep`` and under the
same ``_LEVEL_MASK_CAP``; u/global top-k walk the parts that hold the
selection, and the sampler's exact draws each part's forward table.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Iterable, Iterator, Sequence

from .errors import DEFAULT_BUDGET, BudgetExceededError, LimitExceededError, _check_budget
from .model import MARGINAL, VOLUME, ConstraintSet, PartSkeleton, _bits
from .poly import PiecewisePolynomial, Polynomial, order_statistic_density

# The most states the lattice and the extension pre-count (``precount``)
# hold in one level, and fragment profiles the pre-count's merge holds.
_LEVEL_MASK_CAP = 2_000_000


def _where(quotient: ConstraintSet, unknown_ids: Sequence[int], shape: str | None = None) -> str:
    """A set as the guards' errors name it: shape (a part's), smallest
    unknown, unknown and pin counts."""
    names = [quotient.variables[u].name for u in unknown_ids]
    what = f"{shape} part" if shape else "set"
    if names:
        what += f" containing {min(names)!r}"
    pins = len(quotient.exact_values)
    return f"the {what} ({len(names)} unknowns, {pins} pinned incl. bounds)"


@dataclass
class _Prep:
    """A closed, tie-free set as bitmasks: a relation that generates its
    order (``parents``, ``child_bits``), its pins in value order and the
    integer scale of the gaps between them."""

    quotient: ConstraintSet
    shape: str | None  # a part's shape, which the guards' errors name
    size: int
    full: int
    parents: list[int]
    child_bits: list[int]
    roots: int
    exact_chain: list[int]
    exact_index: dict[int, int]
    pins: int
    values: list[Fraction]
    widths: list[Fraction]
    unknown_ids: list[int]
    unknowns: int
    scale: list[int]
    den: int
    rows: dict[tuple[int, int], list[int]] = field(default_factory=dict)

    def joinable(self, ready: int, v: int, placed: int) -> int:
        """The variables that may join the downset ``placed``, which
        placing ``v`` made from a downset that ``ready`` may join: those
        of ``ready`` but v, and each child of v whose parents are all
        placed.  The one step of every walk of the lattice."""
        parents = self.parents
        grown = ready ^ (1 << v)
        kids = self.child_bits[v]
        while kids:
            kid = kids & -kids
            kids ^= kid
            if not parents[kid.bit_length() - 1] & ~placed:
                grown |= kid
        return grown

    def factors(self, j: int, free: int) -> list[int]:
        """The factors w_j^k C(free, k), w_j^k / k! in the tables' scale, by
        which pin ``j`` closes an open fragment of k = 0..free unknowns, for
        ``free`` unknowns placed once it closes (forward) or from it on."""
        row = self.rows.get((j, free))
        if row is None:  # with free = 0, j may be one past the last pin
            w = self.scale[j - 1] if free else 1
            row = self.rows[j, free] = [w**k * comb(free, k) for k in range(free + 1)]
        return row

    def where(self) -> str:
        """The set as the guards' errors name it."""
        return _where(self.quotient, self.unknown_ids, self.shape)


def _prepare(skel: PartSkeleton, shape: str | None = None) -> _Prep:
    """The bitmask form of the closed, tie-free set of ``skel``, whose
    ``shape`` the guards' errors name (None: "set").  Its parents are
    those of the skeleton's edges and of the pins' chain in value order,
    which generate the order: under them, as under the covers, a variable
    joins a downset once its parents are in, and is maximal in a downset
    when none of its children is."""
    quotient = skel.quotient
    size = len(quotient.variables)
    parents = [0] * size
    child_bits = [0] * size
    chain = sorted(quotient.exact_values, key=lambda i: quotient.exact_values[i])
    pairs = [(a, b) for a, kids in skel.children.items() for b in kids]
    for a, b in pairs + list(zip(chain, chain[1:])):
        parents[b] |= 1 << a
        child_bits[a] |= 1 << b
    values = [quotient.exact_values[i] for i in chain]
    widths = [values[j + 1] - values[j] for j in range(len(chain) - 1)]
    assert all(w > 0 for w in widths), "equal pinned values must have been collapsed"
    unknown_ids = [v.id for v in quotient.variables if v.id not in quotient.exact_values]
    den = lcm(*(w.denominator for w in widths))
    return _Prep(
        quotient=quotient,
        shape=shape,
        size=size,
        full=(1 << size) - 1,
        parents=parents,
        child_bits=child_bits,
        roots=sum(1 << v for v in range(size) if not parents[v]),
        exact_chain=chain,
        exact_index={v: j for j, v in enumerate(chain)},
        pins=sum(1 << v for v in chain),
        values=values,
        widths=widths,
        unknown_ids=unknown_ids,
        unknowns=sum(1 << u for u in unknown_ids),
        scale=[w.numerator * (den // w.denominator) for w in widths],
        den=den ** len(unknown_ids) * factorial(len(unknown_ids)),
    )


def _levels(
    prep: _Prep, budget: int, selected: int = 0, top: int = 0
) -> Iterator[dict[int, tuple[int, dict[tuple[int, tuple[int, ...]], int]]]]:
    """The forward table, one level at a time: level t maps each downset D
    of size t to the variables that may join D and {(k, tail): scaled F}.
    ``tail`` lists, in placement order, the variables of the ``selected``
    mask placed while at most ``top`` selected variables were still
    unplaced; it is () without a selection."""
    _check_budget(budget)
    cap = _LEVEL_MASK_CAP
    pin_index, unknowns = prep.exact_index, prep.unknowns
    level: dict = {0: (prep.roots, {(0, ()): 1})}
    yield level
    for t in range(1, prep.size + 1):
        nxt: dict = {}
        states = 0
        for placed, (ready, row) in level.items():
            rest = ready
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                key = placed | low
                got = nxt.get(key)
                if got is None:
                    if len(nxt) >= budget:
                        raise BudgetExceededError(
                            budget, len(nxt) + 1, prep.where(), "the sampler"
                        )
                    got = nxt[key] = (prep.joinable(ready, v, key), {})
                out = got[1]
                j = pin_index.get(v)
                into = None if j is None else prep.factors(j, (placed & unknowns).bit_count())
                carry = low & selected and (selected & ~placed).bit_count() <= top
                for (k, tail), f in row.items():
                    if carry:
                        tail = (*tail, v)
                    if j is None:
                        state = (k + 1, tail)
                    else:
                        if k:
                            f *= into[k]
                        state = (0, tail)
                    if state in out:
                        out[state] += f
                    else:
                        out[state] = f
                        states += 1
            if states > cap:
                raise LimitExceededError(
                    f"the downset lattice of {prep.where()} has more than {cap} "
                    f"states at level {t} ({states} counted); use the sampler "
                    "for an estimate"
                )
        level = nxt
        yield level


def _backward(
    prep: _Prep,
    levels: list[dict],
    track: Iterable[int],
    selected: int,
) -> tuple[dict, dict]:
    """Walk ``levels`` back with the backward table, tallying F * B (times
    L^N N!) per transition: (interval, rank, final size) buckets for the
    unknowns in ``track``, and descending-rank buckets for the variables
    of the ``selected`` mask.  Only their moves visit the states (D, k)
    of a downset D, each B_n(D, k) read off D's row {m: c_m(D)}."""
    pin_index, unknowns, pins = prep.exact_index, prep.unknowns, prep.pins
    n = len(prep.unknown_ids)
    buckets: dict[int, dict] = {u: {} for u in track}
    ranks: dict[int, dict[int, int]] = {v: {} for v in _bits(selected)}
    here: dict = {prep.full: {0: 1}}
    for t in range(len(levels) - 2, -1, -1):
        after, here = here, {}
        for placed, (ready, row) in levels[t].items():
            in_placed = (placed & unknowns).bit_count()
            interval = (placed & pins).bit_count() - 1
            rank = (selected & ~placed).bit_count()
            back = here[placed] = {}
            for v in _bits(ready):
                nxt = after[placed | 1 << v]
                j = pin_index.get(v)
                if j is None:
                    for m, x in nxt.items():
                        back[m + 1] = back.get(m + 1, 0) + x
                else:  # D + v's whole completion weight
                    into = prep.factors(j + 1, n - in_placed)
                    nxt = {0: sum(into[m] * x for m, x in nxt.items())}
                    back[0] = back.get(0, 0) + nxt[0]
                if not (v in buckets or selected >> v & 1):
                    continue
                bucket, shift = buckets.get(v), j is None
                for (k, _), f in row.items():
                    weight = f * comb(n, in_placed - k)
                    sizes = prep.factors(interval + 1, n - in_placed + k)
                    through = 0
                    for m, x in nxt.items():
                        b = sizes[k + shift + m] * x
                        through += b
                        if bucket is not None:
                            key = (interval, k + 1, k + 1 + m)
                            bucket[key] = bucket.get(key, 0) + weight * b
                    if selected >> v & 1:
                        ranks[v][rank] = ranks[v].get(rank, 0) + weight * through
    assert here[0][0] == levels[-1][prep.full][1][(0, ())], "F and B disagree"
    return buckets, ranks


def _volume(prep: _Prep, final: dict) -> Fraction:
    """The volume from the last level, summed over any carried tails."""
    return Fraction(sum(final[prep.full][1].values()), prep.den)


def _last(levels: Iterator[dict]) -> dict:
    """Build every level, keeping only the last."""
    for level in levels:
        pass
    return level


def _expectation(
    prep: _Prep, total: int, bucket: dict[tuple[int, int, int], int]
) -> Fraction:
    """The expected value from one unknown's (interval, rank, fragment
    size) buckets, in the scale of the volume ``total``: per interval j,
    the sum a of the weights and the sum c of weight * rank / (size + 1),
    kept in integers times M = lcm(1..N+1), give alpha_j a + w_j c."""
    m = lcm(*range(1, len(prep.unknown_ids) + 2))
    sums: dict[int, tuple[int, int]] = {}
    for (j, r, size), x in bucket.items():
        a, c = sums.get(j, (0, 0))
        sums[j] = (a + x, c + x * r * (m // (size + 1)))
    num = Fraction(0)
    for j, (a, c) in sums.items():
        num += prep.values[j] * a + prep.widths[j] * Fraction(c, m)
    return num / total


def _density(
    prep: _Prep, total: int, bucket: dict[tuple[int, int, int], int]
) -> PiecewisePolynomial:
    """The marginal density from one unknown's (interval, rank, fragment
    size) buckets: each weighs its rank-r order-statistic density on the
    interval by its share of the volume ``total``."""
    values = prep.values
    per_interval: dict[int, Polynomial] = {}
    for (j, r, size), x in bucket.items():
        density = order_statistic_density(r, size, values[j], values[j + 1])
        per_interval[j] = per_interval.get(j, Polynomial()) + density * Fraction(x, total)
    pieces = tuple(per_interval.get(j, Polynomial()) for j in range(len(prep.widths)))
    return PiecewisePolynomial(tuple(values), pieces).canonical()


def answer(
    skel: PartSkeleton, query: str, names: Sequence[str] = (), budget: int = DEFAULT_BUDGET
):
    """``tree.solve_part``'s ``query`` on the part of ``skel``: the volume
    (VOLUME), ``{x: value}`` for the part's unknowns ``names`` (VALUES), or
    the density of ``names[0]`` (MARGINAL)."""
    prep = skel.prep
    if query == VOLUME:
        return _volume(prep, _last(_levels(prep, budget)))
    ids = {x: prep.quotient.resolve(x).id for x in names}
    levels = list(_levels(prep, budget))
    buckets, _ = _backward(prep, levels, ids.values(), 0)
    total = levels[-1][prep.full][1][(0, ())]
    if query == MARGINAL:
        return _density(prep, total, buckets[ids[names[0]]])
    return {x: _expectation(prep, total, buckets[i]) for x, i in ids.items()}


def rank_tally(
    prep: _Prep, selected: Iterable[int], budget: int
) -> tuple[Fraction, dict[int, dict[int, Fraction]]]:
    """The volume, and for each selected id the volume per descending rank
    (1 = highest among the selected) it takes."""
    levels = list(_levels(prep, budget))
    selected = list(selected)
    _, ranks = _backward(prep, levels, (), sum(1 << i for i in selected))
    return _volume(prep, levels[-1]), {
        i: {r: Fraction(x, prep.den) for r, x in ranks.get(i, {}).items()}
        for i in selected
    }


def sequence_tally(
    prep: _Prep, selected: Iterable[int], top: int, budget: int
) -> tuple[Fraction, dict[tuple[int, ...], Fraction]]:
    """The volume, and the volume of every descending sequence of the
    ``top`` highest selected ids."""
    final = _last(_levels(prep, budget, sum(1 << i for i in selected), top))
    return _volume(prep, final), {
        tuple(reversed(tail)): Fraction(x, prep.den)
        for (_, tail), x in final[prep.full][1].items()
    }


class ExtensionDraw:
    """Linear extensions of a set drawn with probability proportional to
    their volume, which is the law of the order of the variables of a
    uniform point of the polytope.

    A draw walks the forward table back from (full, 0).  Each step picks a
    predecessor state with probability F(pred) times the transition factor
    of ``_levels`` over F(here): 1 for placing an unknown, w_j^k / k!
    (``_Prep.factors``) for placing pin j.  ``ways`` gives a state's
    predecessors as integer thresholds over picks uniform in [0, 2^53): a
    caller draws by comparing picks with thresholds, and may compile the
    states its draws reach into arrays that walk many draws at once (the
    sampler does, in numpy).  The
    thresholds are computed from the integer weights, which outgrow the
    float range on large sets, and select exactly the predecessor that
    bisecting the cumulative weights would.
    """

    def __init__(self, prep: _Prep, cap: int):
        """Build the forward table, counting its moves (a state and a
        variable that may join its downset: one multiply-add of the build)
        level by level as ``_levels`` yields them.  Refuses the set
        (``LimitExceededError``) at the first level where the count passes
        ``cap``, before the next level is built."""
        self.prep = prep
        self.moves = 0
        self.levels = []
        for level in _levels(prep, DEFAULT_BUDGET):
            self.levels.append(level)
            self.moves += sum(len(row) * ready.bit_count() for ready, row in level.values())
            if self.moves > cap:
                raise LimitExceededError(
                    f"the forward table of {prep.where()} has more than {cap} moves"
                )

    def ways(
        self, t: int, placed: int, k: int
    ) -> tuple[list[int], list[tuple[int, int]], list[int], list[int]]:
        """The ways into the state (``placed``, ``k``) of level ``t``,
        ordered by variable, then by the predecessor's place in the forward
        table, as four lists: per way its threshold, the predecessor state,
        the variable placed and its pin index (-1: an unknown).

        A pick p, uniform in [0, 2^53), takes the way numbered
        #{i : threshold_i <= p}.  With cum_i the cumulative weights of the
        ways and threshold_i = ceil(cum_i 2^53 / total), that is
        bisect_right(cum, (total p) >> 53), so each way is taken with
        probability its weight over the total up to a rounding of 2^-53.
        The last threshold is 2^53, which no pick reaches."""
        prep = self.prep
        below = self.levels[t - 1]
        cum: list[int] = []
        preds: list[tuple[int, int]] = []
        variables: list[int] = []
        pins: list[int] = []
        total = 0
        rest = placed
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if prep.child_bits[v] & placed:  # not maximal: the rest is no downset
                continue
            before = placed ^ low
            row = below[before][1]
            j = prep.exact_index.get(v, -1)
            if j < 0:
                f = row.get((k - 1, ())) if k else None
                if f:
                    total += f
                    cum.append(total)
                    preds.append((before, k - 1))
                    variables.append(v)
                    pins.append(j)
            elif not k:
                into = prep.factors(j, (before & prep.unknowns).bit_count())
                for (open_, _), f in row.items():
                    if open_:
                        f *= into[open_]
                    total += f
                    cum.append(total)
                    preds.append((before, open_))
                    variables.append(v)
                    pins.append(j)
        return [((c << 53) + total - 1) // total for c in cum], preds, variables, pins
