"""Exact engine over the lattice of downsets.

A linear extension places the variables of the tie quotient one at a
time, so after t placements the placed set is a downset D of size t.  An
extension's volume is the product over its fragments of w_j^n / n!, and
of its past the future needs only D and the size k of the fragment still
open.  Sums over all extensions therefore factor through the states
(D, k), whose number grows with the number of downsets, not with the
number of extensions (De Loof, De Meyer & De Baets 2006; Kangas et al.,
IJCAI 2016).

* The forward table F(D, k) sums the closed fragments' weights over every
  prefix that reaches D with k unknowns in the open fragment.  Placing an
  unknown moves (D, k) to (D + u, k + 1); placing the next pin multiplies
  by w_j^k / k! and resets k.  The volume is F(full, 0).
* The backward table B(D, k) sums the weights of every completion, the
  open fragment's included, split by that fragment's final size n.  Each
  transition's F * B is the volume of the extensions through it, which
  gives the enumerator's tallies without enumerating: the
  (interval, rank, size) buckets of ``exact._aggregate`` and the rank
  buckets of u/global top-k.
* A selected variable placed at D has |S \\ D| - 1 selected variables
  after it, which D fixes.  Carrying the selected variables placed once
  |S \\ D| <= K along with (D, k) gives the top-K sequence of every
  extension: reversed, the carried tail is its sequence.

Weights are integers.  With L the common denominator of the interval
widths (w_j = c_j / L), N the number of unknowns and s the unknowns in
closed fragments, F is stored times L^s s! and B times L^(N-s) (N-s)!;
both stay integral (the factorials combine into binomials), F * B at any
state is the volume times L^N N! / C(N, s), and one division at the end
gives exact fractions.

The tables are built level by level under two guards: a level with more
distinct downsets than the budget raises ``BudgetExceededError`` (distinct
downsets of one size are prefixes of distinct extensions, so their number
is a proven lower bound on the extension count, and the lattice refuses
only what enumeration refuses too), and a level with more than
``exact._LEVEL_MASK_CAP`` states raises ``LimitExceededError``.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from typing import Iterable, Iterator

from . import exact
from .errors import BudgetExceededError, LimitExceededError, _check_budget
from .exact import _Prep


class _Lattice:
    """Bitmask form of a prepared set and the integer scale of its widths."""

    def __init__(self, prep: _Prep, shape: str | None):
        self.prep = prep
        self.shape = shape
        self.size = len(prep.quotient.variables)
        self.full = (1 << self.size) - 1
        self.pin_of = prep.exact_index
        self.pins = sum(1 << p for p in prep.exact_chain)
        self.unknowns = sum(1 << u for u in prep.unknown_ids)
        self.n_unknowns = len(prep.unknown_ids)
        den = lcm(*(w.denominator for w in prep.widths))
        self.scale = [w.numerator * (den // w.denominator) for w in prep.widths]
        self.den = den**self.n_unknowns * factorial(self.n_unknowns)

    def where(self) -> str:
        """The part (the whole set without a shape) as the guards' errors
        name it: shape, smallest unknown, unknown and pin counts."""
        names = [self.prep.quotient.variables[u].name for u in self.prep.unknown_ids]
        what = f"{self.shape} part" if self.shape else "set"
        if names:
            what += f" containing {min(names)!r}"
        pins = len(self.prep.exact_chain)
        return f"the {what} ({self.n_unknowns} unknowns, {pins} pinned incl. bounds)"


def _levels(
    lat: _Lattice, budget: int, selected: int = 0, top: int = 0
) -> Iterator[dict[int, dict[tuple[int, tuple[int, ...]], int]]]:
    """The forward table, one level at a time: level t maps each downset D
    of size t to {(k, tail): scaled F}.  ``tail`` lists, in placement
    order, the variables of the ``selected`` mask placed while at most
    ``top`` selected variables were still unplaced; it is () without a
    selection."""
    _check_budget(budget)
    cap = exact._LEVEL_MASK_CAP
    scale, pin_of, unknowns = lat.scale, lat.pin_of, lat.unknowns
    level: dict = {0: {(0, ()): 1}}
    yield level
    for t in range(1, lat.size + 1):
        nxt: dict = {}
        states = 0
        for placed, row in level.items():
            closing = (placed & unknowns).bit_count()
            for v, low in lat.prep.successors(placed):
                key = placed | low
                out = nxt.get(key)
                if out is None:
                    if len(nxt) >= budget:
                        raise BudgetExceededError(
                            budget, len(nxt) + 1, lat.where(), "the sampler"
                        )
                    out = nxt[key] = {}
                j = pin_of.get(v)
                carry = low & selected and (selected & ~placed).bit_count() <= top
                for (k, tail), f in row.items():
                    if carry:
                        tail = (*tail, v)
                    if j is None:
                        state = (k + 1, tail)
                    else:
                        if k:
                            f *= scale[j - 1] ** k * comb(closing, k)
                        state = (0, tail)
                    if state in out:
                        out[state] += f
                    else:
                        out[state] = f
                        states += 1
            if states > cap:
                raise LimitExceededError(
                    f"the downset lattice of {lat.where()} has more than {cap} "
                    f"states at level {t} ({states} counted); use the sampler "
                    "for an estimate"
                )
        level = nxt
        yield level


def _backward(
    lat: _Lattice,
    levels: list[dict],
    track: Iterable[int],
    selected: int,
) -> tuple[dict, dict]:
    """Walk ``levels`` back with the backward table, tallying F * B (times
    L^N N!) per transition: (interval, rank, final size) buckets for the
    unknowns in ``track``, and descending-rank buckets for the variables
    of the ``selected`` mask."""
    scale, pin_of = lat.scale, lat.pin_of
    unknowns, pins, n = lat.unknowns, lat.pins, lat.n_unknowns
    buckets: dict[int, dict] = {u: {} for u in track}
    ranks: dict[int, dict[int, int]] = {}
    # Per state (D, k): (total, {final size of the open fragment: part}).
    after: dict = {lat.full: {0: (1, {0: 1})}}
    for t in range(len(levels) - 2, -1, -1):
        here: dict = {}
        for placed, row in levels[t].items():
            in_placed = (placed & unknowns).bit_count()
            interval = (placed & pins).bit_count() - 1
            rank = (selected & ~placed).bit_count()
            moves = [(v, low, after[placed | low]) for v, low in lat.prep.successors(placed)]
            back: dict = {}
            for (k, _), f in row.items():
                closed = in_placed - k
                weight = f * comb(n, closed)
                total, split = 0, {}
                for v, low, nrow in moves:
                    j = pin_of.get(v)
                    if j is None:
                        through, parts = nrow[k + 1]
                        for size, b in parts.items():
                            split[size] = split.get(size, 0) + b
                        bucket = buckets.get(v)
                        if bucket is not None:
                            for size, b in parts.items():
                                key = (interval, k + 1, size)
                                bucket[key] = bucket.get(key, 0) + weight * b
                    else:
                        through = nrow[0][0]
                        if k:
                            through *= scale[j - 1] ** k * comb(n - closed, k)
                        split[k] = split.get(k, 0) + through
                    total += through
                    if low & selected:
                        by_rank = ranks.setdefault(v, {})
                        by_rank[rank] = by_rank.get(rank, 0) + weight * through
                back[k] = (total, split)
            here[placed] = back
        after = here
    assert after[0][0][0] == levels[-1][lat.full][(0, ())], "F and B disagree"
    return buckets, ranks


def _volume(lat: _Lattice, final: dict) -> Fraction:
    """The volume from the last level, summed over any carried tails."""
    return Fraction(sum(final[lat.full].values()), lat.den)


def _last(levels: Iterator[dict]) -> dict:
    """Build every level, keeping only the last."""
    for level in levels:
        pass
    return level


def aggregate(
    prep: _Prep, budget: int, track: Iterable[int], shape: str | None = None
) -> tuple[Fraction, dict[int, dict[tuple[int, int, int], Fraction]]]:
    """``exact._aggregate``'s tallies from the lattice: the volume, and for
    each tracked unknown id the volume per (interval, rank, fragment size)
    it takes.  ``shape`` names the part in a limit error."""
    lat = _Lattice(prep, shape)
    track = list(track)
    if not track:
        return _volume(lat, _last(_levels(lat, budget))), {}
    levels = list(_levels(lat, budget))
    buckets, _ = _backward(lat, levels, track, 0)
    return _volume(lat, levels[-1]), {
        u: {key: Fraction(x, lat.den) for key, x in bucket.items()}
        for u, bucket in buckets.items()
    }


def rank_tally(
    prep: _Prep, selected: Iterable[int], budget: int
) -> tuple[Fraction, dict[int, dict[int, Fraction]]]:
    """The volume, and for each selected id the volume per descending rank
    (1 = highest among the selected) it takes."""
    lat = _Lattice(prep, None)
    levels = list(_levels(lat, budget))
    selected = list(selected)
    _, ranks = _backward(lat, levels, (), sum(1 << i for i in selected))
    return _volume(lat, levels[-1]), {
        i: {r: Fraction(x, lat.den) for r, x in ranks.get(i, {}).items()}
        for i in selected
    }


def sequence_tally(
    prep: _Prep, selected: Iterable[int], top: int, budget: int
) -> tuple[Fraction, dict[tuple[int, ...], Fraction]]:
    """The volume, and the volume of every descending sequence of the
    ``top`` highest selected ids."""
    lat = _Lattice(prep, None)
    final = _last(_levels(lat, budget, sum(1 << i for i in selected), top))
    return _volume(lat, final), {
        tuple(reversed(tail)): Fraction(x, lat.den)
        for (_, tail), x in final[lat.full].items()
    }
