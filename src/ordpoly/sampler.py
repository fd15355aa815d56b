"""Uniform sampling of the admissible polytope and Monte-Carlo estimation.

For constraint sets whose exact answers are too costly, expected values
are estimated by averaging N = ceil(2 ln(2/delta) / epsilon^2) uniform
points, which by Hoeffding's inequality lands within epsilon of the true
expected value with probability at least 1 - delta when the points are
independent.

Ties collapse before sampling (tied variables share one coordinate),
pinned variables are constants, and the decomposition parts are
independent given the pins, so each part is drawn on its own.  When the
forward tables of all parts' downset lattices hold at most
``EXACT_MOVE_CAP`` moves together, draws are exact and independent: a
part draws a linear extension with probability its volume over the
total, walking its forward table back, then places each fragment's
unknowns at sorted uniforms on the fragment's pinned interval.  The walk
runs in numpy for a chunk of points at once: one comparison of picks with
integer thresholds per level, then one sort per row that orders every
fragment's uniforms.  A state's thresholds (``lattice.ExtensionDraw.ways``)
are compiled into the part's arrays when a draw first reaches it, from
the part's lattice form (``model.PartSkeleton.prep``).  The walk below
tests its chords on the request's covers (``model.Prepared.covers``).

Beyond the bound, points come from hit-and-run, which is almost uniform
and correlated, so the count above holds only up to the walk's mixing,
which burn-in and thinning control: from an interior point, each step
picks a random direction inside the unknown-coordinate subspace,
intersects the line with every order constraint and box bound to get the
feasible chord, and jumps to a uniform point on that chord.  The walk is
one numpy loop in 64-bit floats.

Both are deterministic per seed.  Independent chains run one after
another in one thread, chain c seeded seed + c, and their samples are
pooled into one mean.

Every entry point takes a ``ConstraintSet`` or the request's
``model.Prepared``; a set is prepared once, on entry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import LimitExceededError, MalformedInputError, SamplerError
from .lattice import ExtensionDraw
from .model import ConstraintSet, Prepared, VariableId, _bits

if TYPE_CHECKING:  # topk loads the tree engine, which sampling never runs
    from .topk import SelectionPredicate

__all__ = [
    "SamplerConfig",
    "SamplePoint",
    "PointSample",
    "EstimateResult",
    "TopKEstimate",
    "interior_point",
    "sample_points",
    "hit_and_run_sample",
    "estimate_expected_value",
    "estimate_topk",
]

POINT_TOLERANCE = 1e-12
CHORD_EPS = 1e-14
MAX_RETRIES = 100
# Chains run one after another and each pays its own burn-in, so the cap
# bounds the work one request can ask for.  It is fixed rather than taken
# from the machine because estimates depend on the chain count (chain c is
# seeded seed + c).
MAX_CHAINS = 64
# The most floats one chain's point buffer (count x dimension) may hold:
# 1 GiB of float64.
MAX_POINT_FLOATS = 2**27
_CHUNK_ROWS = 32768
_RETRY_ROW_PAD = 128
# The most moves (a state and a variable that may join its downset) the
# forward tables of the exact draw hold over all parts of one set.  On a
# 2-vCPU x86 host a move costs the build 0.5-2.2 us.  The build stops at
# the first level that takes its count past the bound, so a refused set
# pays at most one bound's worth (19-40 ms on 16-26 unknowns), and either
# stays under a 738-point walk at burn-in 4800 and thinning 6 (300-550 ms
# on 14-40 variables).
EXACT_MOVE_CAP = 100_000
# Exact draws generate their random numbers this many points at a time.
_EXACT_CHUNK_ROWS = 1024
# Exact draws pick an integer in [0, _PICK_END) at each level.
_PICK_END = 1 << 53
EXACT = "exact"
HIT_AND_RUN = "hit-and-run"


@dataclass(frozen=True)
class SamplerConfig:
    """Accuracy targets and walk parameters.

    ``burn_in`` and ``thinning`` default (when None) to 1000 * dimension
    and dimension, respectively, once the dimension is known.
    """

    epsilon: float = 0.05
    delta: float = 0.05
    burn_in: int | None = None
    thinning: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0 < self.epsilon < 1):
            raise MalformedInputError("epsilon must be strictly between 0 and 1")
        if not (0 < self.delta < 1):
            raise MalformedInputError("delta must be strictly between 0 and 1")
        if self.burn_in is not None and self.burn_in < 0:
            raise MalformedInputError("burn_in must be >= 0")
        if self.thinning is not None and self.thinning < 1:
            raise MalformedInputError("thinning must be >= 1")
        if self.seed < 0:  # numpy seeds from non-negative integers only
            raise MalformedInputError("seed must be >= 0")

    def sample_count(self) -> int:
        """N = ceil(2 ln(2/delta) / epsilon^2), the Hoeffding sample size."""
        try:
            return math.ceil(2 * math.log(2 / self.delta) / self.epsilon**2)
        except (ZeroDivisionError, OverflowError):  # epsilon**2 underflows
            raise LimitExceededError(
                f"epsilon {self.epsilon} asks for more samples than a float counts"
            ) from None

    def resolved(self, dimension: int) -> tuple[int, int]:
        burn_in = 1000 * dimension if self.burn_in is None else self.burn_in
        thinning = max(1, dimension) if self.thinning is None else self.thinning
        return burn_in, thinning


@dataclass(frozen=True)
class SamplePoint:
    """One feasible world: a float value per visible variable."""

    values: Mapping[VariableId, float]

    def value_of(self, name: str) -> float:
        for v, val in self.values.items():
            if v.name == name:
                return val
        raise MalformedInputError(f"unknown variable: {name!r}")

    def as_dict(self) -> dict[str, float]:
        return {v.name: val for v, val in self.values.items()}


@dataclass(frozen=True)
class PointSample:
    """Feasible points and the sampler that drew them: EXACT (independent
    and exactly uniform) or HIT_AND_RUN."""

    points: tuple[SamplePoint, ...]
    sampler: str


@dataclass(frozen=True)
class EstimateResult:
    """A Monte-Carlo estimate, the number of samples behind it and the
    sampler that drew them (EXACT when nothing was sampled)."""

    value: float
    samples: int
    sampler: str


@dataclass(frozen=True)
class TopKEstimate:
    """Sampled local top-k: (variable, estimate) entries, highest first,
    and the samples and sampler behind them."""

    entries: tuple[tuple[VariableId, float], ...]
    samples: int
    sampler: str


class _Walk:
    """Quotient geometry shared by every sampler entry point."""

    def __init__(self, cs: ConstraintSet | Prepared):
        prep = Prepared.of(cs)
        q = prep.ties.quotient
        self.prepared = prep
        self.closed = prep.closed
        self.quotient = q
        self.class_of = prep.ties.class_of
        self.visible = prep.closed.visible()
        self.unknown_ids = [v.id for v in q.variables if v.id not in q.exact_values]
        self.column = {qid: c for c, qid in enumerate(self.unknown_ids)}
        self.dimension = len(self.unknown_ids)
        values = q.exact_values
        succ = q._succ
        pred = q._preds()
        self.box_lo = np.empty(self.dimension)
        self.box_hi = np.empty(self.dimension)
        for c, qid in enumerate(self.unknown_ids):
            lows = [values[e] for e in _bits(pred[qid]) if e in values]
            highs = [values[e] for e in _bits(succ[qid]) if e in values]
            self.box_lo[c] = float(max(lows))
            self.box_hi[c] = float(min(highs))
        # the cover pairs between unknowns: every other pair is implied
        pairs = sorted(
            (self.column[a], self.column[b])
            for a, b in prep.covers
            if a in self.column and b in self.column
        )
        self.pair_a = np.array([a for a, _ in pairs], dtype=np.int64)
        self.pair_b = np.array([b for _, b in pairs], dtype=np.int64)

    @cached_property
    def exact_parts(self) -> list[_PartDraw] | None:
        """Every decomposition part's exact draw, in part order; None when
        their forward tables together hold more than ``EXACT_MOVE_CAP``
        moves."""
        d = self.prepared.decomposition
        column = {self.quotient.variables[qid].name: c for qid, c in self.column.items()}
        left = EXACT_MOVE_CAP
        draws = {}
        # largest first: a set beyond the bound is refused early
        for no in sorted(range(len(d.parts)), key=lambda no: -len(d.classes[no])):
            try:
                ext = ExtensionDraw(d.skeletons[no].prep, left)
            except LimitExceededError:
                return None
            left -= ext.moves
            draws[no] = _PartDraw(ext, column)
        return [draws[no] for no in range(len(d.parts))]

    @property
    def sampler(self) -> str:
        return HIT_AND_RUN if self.exact_parts is None else EXACT

    def interior(self) -> np.ndarray:
        """Strictly feasible start: topological midpoint assignment."""
        q = self.quotient
        values = q.exact_values
        succ = q._succ
        pred = q._preds()
        order = sorted(self.unknown_ids, key=lambda i: (pred[i].bit_count(), i))
        x = np.empty(self.dimension)
        assigned: dict[int, float] = {}

        def sweep() -> float:
            slack = math.inf
            for qid in order:
                lo = max(
                    (
                        assigned[e] if e in assigned else float(values[e])
                        for e in _bits(pred[qid])
                        if e in values or e in assigned
                    ),
                    default=0.0,
                )
                hi = min(
                    (
                        assigned[e] if e in assigned else float(values[e])
                        for e in _bits(succ[qid])
                        if e in values or e in assigned
                    ),
                    default=1.0,
                )
                assigned[qid] = (lo + hi) / 2
                slack = min(slack, hi - lo)
            return slack

        if sweep() < 1e-9:
            sweep()
        for c, qid in enumerate(self.unknown_ids):
            x[c] = assigned[qid]
        return x

    def point_from(self, coords: Sequence[float] | None) -> SamplePoint:
        """Expand quotient coordinates to every visible source variable
        (tied variables share their class's coordinate)."""
        q = self.quotient
        out: dict[VariableId, float] = {}
        for v in self.visible:
            cls = self.class_of[v.id]
            if cls.id in q.exact_values:
                out[v] = float(q.exact_values[cls.id])
            else:
                out[v] = float(coords[self.column[cls.id]])
        return SamplePoint(MappingProxyType(out))


def interior_point(cs: ConstraintSet | Prepared) -> SamplePoint:
    """A strictly feasible start point (the unique point when pinned flat)."""
    walk = _Walk(cs)
    if walk.dimension == 0:
        return walk.point_from(None)
    return walk.point_from(walk.interior())


class _PartDraw:
    """Exact draws of one decomposition part's unknowns, for all points of
    a chunk at once: a linear extension, walking the forward table back
    with the thresholds of ``ExtensionDraw.ways``, then each fragment's
    unknowns, in placement order, at the sorted values of as many uniforms
    on the fragment's interval.

    A state's ways are compiled when a draw first reaches it (``done``),
    into one padded row of ``table`` indexed by the state's number, states
    numbered as they are first seen, (full, 0) first.  Per way, the table
    holds four entries on its first axis: the threshold, the predecessor's
    number, the variable placed and its pin index (-1: an unknown).  The
    padding holds the threshold 2^53, which no pick reaches."""

    def __init__(self, ext: ExtensionDraw, column: dict[str, int]):
        prep = ext.prep
        names = prep.quotient.variables
        self.ext = ext
        self.size = prep.size
        self.unknowns = len(prep.unknown_ids)
        # the quotient column of each of the part's variables (-1: a pin)
        self.column = np.full(prep.size, -1, dtype=np.intp)
        for v in prep.unknown_ids:
            self.column[v] = column[names[v].name]
        self.lo = np.array([float(x) for x in prep.values])
        self.width = np.array([float(w) for w in prep.widths])
        self.states = [(prep.full, 0)]
        self.number = {(prep.full, 0): 0}
        # the most ways into a compiled state, per level
        self.wide = [0] * (prep.size + 1)
        self.done = np.zeros(1, dtype=bool)
        self.table = np.zeros((4, 1, 1), dtype=np.int64)
        self.table[0] = _PICK_END

    def _compile(self, t: int, numbers: list[int]) -> None:
        """Compile the rows of the states ``numbers`` of level ``t``."""
        states, number = self.states, self.number
        found = [self.ext.ways(t, *states[n]) for n in numbers]
        thr: list[int] = []
        nxt: list[int] = []
        var: list[int] = []
        pin: list[int] = []
        for thresholds, preds, variables, pins in found:
            for state in preds:
                m = number.get(state)
                if m is None:
                    m = number[state] = len(states)
                    states.append(state)
                nxt.append(m)
            thr += thresholds
            var += variables
            pin += pins
        wide = max(len(preds) for _, preds, _, _ in found)
        self.wide[t] = max(self.wide[t], wide)
        _, rows, width = self.table.shape
        if len(states) > rows or wide > width:
            width = max(wide, width)
            table = np.zeros((4, max(len(states), 2 * rows), width), dtype=np.int64)
            table[0] = _PICK_END
            table[:, :rows, : self.table.shape[2]] = self.table
            self.table = table
            self.done = np.concatenate([self.done, np.zeros(table.shape[1] - rows, dtype=bool)])
        at: list[int] = []
        for n, (_, preds, _, _) in zip(numbers, found):
            at += range(n * width, n * width + len(preds))
        self.table.reshape(4, -1)[:, at] = [thr, nxt, var, pin]
        self.done[numbers] = True

    def fill(self, rows: np.ndarray, rng: np.random.Generator) -> None:
        """Draw this part's columns of ``rows``."""
        count, n = rows.shape[0], self.unknowns
        picks = rng.integers(0, _PICK_END, size=(count, self.size), dtype=np.int64)
        unifs = rng.random((count, n))
        # the walk, from level size down to 1: the variable placed at each
        # level and its pin index
        var = np.empty((count, self.size), dtype=np.int64)
        pin = np.empty((count, self.size), dtype=np.int64)
        state = np.zeros(count, dtype=np.int64)
        for t in range(self.size, 0, -1):
            reached = self.done.take(state)
            if not reached.all():
                self._compile(t, sorted(set(state[~reached].tolist())))
            table = self.table
            at = state * table.shape[2]
            wide = self.wide[t]
            if wide > 1:
                # the first way whose threshold is above the pick
                above = table[0].take(state, axis=0)[:, :wide] > picks[:, t - 1, None]
                at += above.argmax(axis=1)
            var[:, t - 1] = table[2].take(at)
            pin[:, t - 1] = table[3].take(at)
            state = table[1].take(at)
        # in placement order, each unknown and the interval above the last
        # pin placed before it
        unknown = pin < 0
        interval = np.maximum.accumulate(pin, axis=1)[unknown].reshape(count, n)
        columns = self.column[var[unknown].reshape(count, n)]
        # a fragment takes the next uniforms of the row as the walk meets
        # it, from the top interval down, and gives them out in descending
        # order: sort each row by (interval from the top, descending uniform)
        rank = len(self.width) - 1 - interval[:, ::-1]
        order = np.lexsort((-unifs, rank), axis=1)
        x = np.take_along_axis(unifs, order, axis=1)[:, ::-1]
        rows[np.arange(count)[:, None], columns] = self.lo[interval] + x * self.width[interval]


def _point_walk(cs: ConstraintSet | Prepared, count: int) -> _Walk:
    """The walk for ``count`` points of ``cs``, refusing a negative count
    or a point buffer (count x dimension) beyond ``MAX_POINT_FLOATS``."""
    if count < 0:
        raise MalformedInputError("count must be >= 0")
    walk = _Walk(cs)
    _check_points(walk, count)
    return walk


def _check_points(walk: _Walk, count: int) -> None:
    # a point of a 0-dimensional set still takes room in the answer
    if count * max(walk.dimension, 1) > MAX_POINT_FLOATS:
        raise LimitExceededError(
            f"{count} points of dimension {walk.dimension} exceed the sampler's "
            f"buffer of {MAX_POINT_FLOATS} floats; ask for fewer points"
        )


def _draw(walk: _Walk, cfg: SamplerConfig, count: int, seed: int) -> np.ndarray:
    """``count`` uniform points as a (count, dimension) array: independent
    and exact when every part's forward table fits ``EXACT_MOVE_CAP``, else
    the thinned hit-and-run walk of ``_raw_samples``.  The caller has
    checked the buffer."""
    parts = walk.exact_parts
    if parts is None:
        return _raw_samples(walk, cfg, count, seed)
    rng = np.random.default_rng(seed)
    out = np.empty((count, walk.dimension))
    for start in range(0, count, _EXACT_CHUNK_ROWS):
        rows = out[start : start + _EXACT_CHUNK_ROWS]
        for part in parts:
            part.fill(rows, rng)
    return out


def _raw_samples(walk: _Walk, cfg: SamplerConfig, count: int, seed: int) -> np.ndarray:
    """``count`` thinned post-burn-in points as a (count, dimension) array.

    The walk consumes pregenerated random rows one at a time: a row is a
    direction plus one uniform.  A row whose feasible chord is shorter than
    ``CHORD_EPS`` is rejected (the row is consumed, the step does not
    advance); more than ``MAX_RETRIES`` consecutive rejections abort.  The
    caller has checked the buffer.
    """
    burn_in, thinning = cfg.resolved(walk.dimension)
    total_steps = burn_in + count * thinning
    rng = np.random.default_rng(seed)
    x = walk.interior()
    out = np.empty((count, walk.dimension))
    box_lo, box_hi = walk.box_lo, walk.box_hi
    pair_a, pair_b = walk.pair_a, walk.pair_b
    has_pairs = pair_a.shape[0] > 0
    step = kept = retries = 0
    # zero direction or pair-difference entries divide to inf/nan; the where=
    # masks below drop them
    with np.errstate(divide="ignore", invalid="ignore"):
        while step < total_steps:
            rows = min(_CHUNK_ROWS, (total_steps - step) + _RETRY_ROW_PAD)
            dirs = rng.standard_normal((rows, walk.dimension))
            unifs = rng.random(rows)
            for d, u in zip(dirs, unifs):
                if step == total_steps:
                    break
                moving = d != 0.0
                up = np.where(d > 0.0, box_hi - x, box_lo - x) / d
                down = np.where(d > 0.0, box_lo - x, box_hi - x) / d
                t_hi = np.min(up, initial=np.inf, where=moving)
                t_lo = np.max(down, initial=-np.inf, where=moving)
                if has_pairs:
                    g = d[pair_a] - d[pair_b]
                    q = (x[pair_b] - x[pair_a]) / g
                    t_hi = min(t_hi, np.min(q, initial=np.inf, where=g > 0.0))
                    t_lo = max(t_lo, np.max(q, initial=-np.inf, where=g < 0.0))
                if t_hi - t_lo < CHORD_EPS:
                    retries += 1
                    if retries > MAX_RETRIES:
                        raise SamplerError(
                            f"no feasible chord after {retries} direction retries "
                            f"(chord tolerance {CHORD_EPS})"
                        )
                    continue
                x += (t_lo + u * (t_hi - t_lo)) * d
                np.clip(x, box_lo, box_hi, out=x)
                retries = 0
                step += 1
                if step > burn_in and (step - burn_in) % thinning == 0:
                    out[kept] = x
                    kept += 1
    assert kept == count, "the walk must emit exactly the requested points"
    return out


def sample_points(cs: ConstraintSet | Prepared, cfg: SamplerConfig, count: int) -> PointSample:
    """``count`` uniform feasible points, drawn exactly and independently
    when every part's forward table fits ``EXACT_MOVE_CAP``, by hit-and-run
    (as ``hit_and_run_sample``) beyond it."""
    walk = _point_walk(cs, count)
    if walk.dimension == 0:
        return PointSample((walk.point_from(None),) * count, EXACT)
    rows = _draw(walk, cfg, count, cfg.seed)
    return PointSample(tuple(_checked_points(walk, rows)), walk.sampler)


def hit_and_run_sample(
    cs: ConstraintSet | Prepared, cfg: SamplerConfig, count: int
) -> Iterator[SamplePoint]:
    """Yield ``count`` almost-uniform feasible points of the hit-and-run
    walk."""
    walk = _point_walk(cs, count)
    if walk.dimension == 0:
        yield from (walk.point_from(None),) * count
        return
    yield from _checked_points(walk, _raw_samples(walk, cfg, count, cfg.seed))


def _checked_points(walk: _Walk, rows: np.ndarray) -> Iterator[SamplePoint]:
    check = _point_checker(walk.closed)
    for row in rows:
        point = walk.point_from(row)
        check(point)
        yield point


def _point_checker(closed: ConstraintSet):
    """Validator enforcing the emission tolerance on every constraint (the
    closed set's direct edges: the input's pairs plus the pinned chain)."""
    names = {v.id: v.name for v in closed.visible()}
    edges = sorted(
        (names[a], names[b]) for a, b in closed._base_edges if a in names and b in names
    )
    exact = {names[i]: value for i, value in closed.exact_values.items() if i in names}

    def check(point: SamplePoint) -> None:
        vals = point.as_dict()
        for name, val in vals.items():
            if not (-POINT_TOLERANCE <= val <= 1 + POINT_TOLERANCE):
                raise SamplerError(f"sample left the unit box at {name}")
        for a, b in edges:
            if vals[a] > vals[b] + POINT_TOLERANCE:
                raise SamplerError(f"sample violates {a} <= {b}")
        for name, pin in exact.items():
            if abs(vals[name] - float(pin)) > POINT_TOLERANCE:
                raise SamplerError(f"sample moved the pinned variable {name}")

    return check


def _chain_means(
    walk: _Walk, cfg: SamplerConfig, total: int, chains: int
) -> tuple[np.ndarray, int]:
    """Column means over ``total`` samples split across chains."""
    if not 1 <= chains <= MAX_CHAINS:
        raise MalformedInputError(
            f"chains must be between 1 and {MAX_CHAINS}, got {chains}"
        )
    chains = min(chains, total)
    counts = [total // chains + (1 if c < total % chains else 0) for c in range(chains)]
    _check_points(walk, counts[0])

    sums = np.zeros(walk.dimension)
    for c, n in enumerate(counts):
        sums += _draw(walk, cfg, n, cfg.seed + c).sum(axis=0)
    return sums / total, total


def _estimate_values(
    cs: ConstraintSet | Prepared, xs: Iterable, cfg: SamplerConfig, chains: int
) -> dict:
    """Estimates of several variables from one shared stream, so every one
    carries the same samples and sampler.  A variable whose tie class is
    pinned is that constant; when all are, nothing is sampled."""
    walk = _Walk(cs)
    pinned = walk.quotient.exact_values
    classes = {x: walk.prepared.target(x) for x in xs}
    if all(c.id in pinned for c in classes.values()):
        return {x: EstimateResult(float(pinned[c.id]), 0, EXACT) for x, c in classes.items()}
    means, used = _chain_means(walk, cfg, cfg.sample_count(), chains)
    return {
        x: EstimateResult(
            float(pinned[c.id] if c.id in pinned else means[walk.column[c.id]]),
            used,
            walk.sampler,
        )
        for x, c in classes.items()
    }


def estimate_expected_value(
    cs: ConstraintSet | Prepared, x, cfg: SamplerConfig | None = None, chains: int = 1
) -> EstimateResult:
    """Monte-Carlo estimate of E[x] from N Hoeffding-sized samples."""
    return _estimate_values(cs, [x], cfg or SamplerConfig(), chains)[x]


def estimate_topk(
    cs: ConstraintSet | Prepared,
    selection: SelectionPredicate | Iterable[str],
    k: int,
    cfg: SamplerConfig | None = None,
    chains: int = 1,
) -> TopKEstimate:
    """Sampled analogue of local top-k: one shared stream estimates all
    selected unknowns, exact values join as constants, sort, truncate.
    The selection and ``k`` are checked as ``topk.local_topk`` checks them."""
    from .topk import _require_k, _selection_vars

    _require_k(k)
    prep, chosen = _selection_vars(cs, selection)
    est = _estimate_values(prep, chosen, cfg or SamplerConfig(), chains)
    ranked = sorted(chosen, key=lambda v: (-est[v].value, v.name))
    first = est[chosen[0]]
    return TopKEstimate(
        tuple((v, est[v].value) for v in ranked[:k]), first.samples, first.sampler
    )
