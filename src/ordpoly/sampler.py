"""Hit-and-run sampling and Monte-Carlo estimation.

For constraint sets whose linear-extension count defeats the exact
engine, expected values are estimated by sampling the admissible
polytope almost uniformly: from an interior point, each step picks a
random direction inside the unknown-coordinate subspace, intersects the
line with every order constraint and box bound to get the feasible
chord, and jumps to a uniform point on that chord.  Averaging
N = ceil(2 ln(2/delta) / epsilon^2) (near-)independent samples gives an
estimate within epsilon of the true expected value with probability at
least 1 - delta — up to the walk's mixing quality, which burn-in and
thinning control.

Ties collapse before sampling (tied variables share one coordinate) and
pinned variables are constants, so the walk runs in the genuinely free
dimensions only.  The walk is one numpy loop in one thread, in 64-bit
floats; sampled streams are deterministic per seed.  Independent chains
run one after another, chain c seeded seed + c, and their samples are
pooled into one mean.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import LimitExceededError, MalformedInputError, SamplerError
from .model import ConstraintSet, Prepared, VariableId, _bits

if TYPE_CHECKING:  # topk loads the tree engine, which sampling never runs
    from .topk import SelectionPredicate

__all__ = [
    "SamplerConfig",
    "SamplePoint",
    "EstimateResult",
    "interior_point",
    "hit_and_run_sample",
    "estimate_expected_value",
    "estimate_topk",
    "rejection_sample_mean",
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
class EstimateResult:
    """A Monte-Carlo estimate and the number of samples behind it."""

    value: float
    samples: int


class _Walk:
    """Quotient geometry shared by every sampler entry point."""

    def __init__(self, cs: ConstraintSet):
        prep = Prepared(cs)
        q = prep.ties.quotient
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
        pairs = sorted(
            (self.column[a], self.column[b])
            for a, b in q._base_edges
            if a in self.column and b in self.column and not _implied(q, a, b)
        )
        self.pair_a = np.array([a for a, _ in pairs], dtype=np.int64)
        self.pair_b = np.array([b for _, b in pairs], dtype=np.int64)

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


def _implied(q: ConstraintSet, a: int, b: int) -> bool:
    """True when base edge a<=b is implied by a longer path, so the chord
    computation can skip it.  Only cover edges are kept."""
    return bool(q._succ[a] & q._preds()[b])


def interior_point(cs: ConstraintSet) -> SamplePoint:
    """A strictly feasible start point (the unique point when pinned flat)."""
    walk = _Walk(cs)
    if walk.dimension == 0:
        return walk.point_from(None)
    return walk.point_from(walk.interior())


def _raw_samples(walk: _Walk, cfg: SamplerConfig, count: int, seed: int) -> np.ndarray:
    """``count`` thinned post-burn-in points as a (count, dimension) array.

    The walk consumes pregenerated random rows one at a time: a row is a
    direction plus one uniform.  A row whose feasible chord is shorter than
    ``CHORD_EPS`` is rejected (the row is consumed, the step does not
    advance); more than ``MAX_RETRIES`` consecutive rejections abort.
    """
    if count * walk.dimension > MAX_POINT_FLOATS:
        raise LimitExceededError(
            f"{count} points of dimension {walk.dimension} exceed the sampler's "
            f"buffer of {MAX_POINT_FLOATS} floats; ask for fewer points"
        )
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


def hit_and_run_sample(
    cs: ConstraintSet, cfg: SamplerConfig, count: int
) -> Iterator[SamplePoint]:
    """Yield ``count`` almost-uniform feasible points."""
    if count < 0:
        raise MalformedInputError("count must be >= 0")
    walk = _Walk(cs)
    if walk.dimension == 0:
        unique = walk.point_from(None)
        for _ in range(count):
            yield unique
        return
    check = _point_checker(walk.closed)
    coords = _raw_samples(walk, cfg, count, cfg.seed)
    for row in coords:
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

    sums = np.zeros(walk.dimension)
    for c, n in enumerate(counts):
        sums += _raw_samples(walk, cfg, n, cfg.seed + c).sum(axis=0)
    return sums / total, total


def _estimate_values(
    cs: ConstraintSet, xs: Iterable, cfg: SamplerConfig, chains: int
) -> tuple[dict, int]:
    """Estimates of several variables from one shared stream, plus the
    number of samples drawn.  A variable whose tie class is pinned is that
    constant; when all are, nothing is sampled."""
    walk = _Walk(cs)
    pinned = walk.quotient.exact_values
    classes = {x: walk.class_of[cs.resolve(x).id] for x in xs}
    values = {x: float(pinned[c.id]) for x, c in classes.items() if c.id in pinned}
    if len(values) == len(classes):
        return values, 0
    means, used = _chain_means(walk, cfg, cfg.sample_count(), chains)
    for x, c in classes.items():
        if c.id not in pinned:
            values[x] = float(means[walk.column[c.id]])
    return values, used


def estimate_expected_value(
    cs: ConstraintSet, x, cfg: SamplerConfig | None = None, chains: int = 1
) -> EstimateResult:
    """Monte-Carlo estimate of E[x] from N Hoeffding-sized samples."""
    values, used = _estimate_values(cs, [x], cfg or SamplerConfig(), chains)
    return EstimateResult(values[x], used)


def estimate_topk(
    cs: ConstraintSet,
    selection: SelectionPredicate | Iterable[str],
    k: int,
    cfg: SamplerConfig | None = None,
    chains: int = 1,
) -> list[tuple[VariableId, float]]:
    """Sampled analogue of local top-k: one shared stream estimates all
    selected unknowns, exact values join as constants, sort, truncate."""
    if k < 1:
        raise MalformedInputError(f"k must be a positive integer, got {k!r}")
    from .topk import SelectionPredicate

    if isinstance(selection, SelectionPredicate):
        names = [v.name for v in selection.selected]
    else:
        names = list(selection)
    if not names:
        return []
    chosen = sorted((cs.resolve(n) for n in names), key=lambda v: v.name)
    values, _ = _estimate_values(cs, chosen, cfg or SamplerConfig(), chains)
    ranked = sorted(chosen, key=lambda v: (-values[v], v.name))
    return [(v, values[v]) for v in ranked[:k]]


def rejection_sample_mean(
    cs: ConstraintSet,
    x,
    accepted: int,
    seed: int = 0,
    max_proposals: int | None = None,
) -> tuple[float, float, float]:
    """Naive oracle: draw uniform cube points until ``accepted`` of them
    satisfy the constraints, then average ``x`` over the accepted points.

    Returns (mean, acceptance rate, standard error of the mean).  Only
    usable when the polytope is a decent fraction of the cube;
    ``max_proposals`` (default ``4096 * accepted``) caps the work, and a
    too-thin polytope raises ``SamplerError`` instead of spinning.
    """
    if accepted <= 0:
        raise MalformedInputError("accepted sample count must be positive")
    walk = _Walk(cs)
    vid = cs.resolve(x)
    cls = walk.class_of[vid.id]
    if cls.id in walk.quotient.exact_values:
        return float(walk.quotient.exact_values[cls.id]), 1.0, 0.0
    col = walk.column[cls.id]
    rng = np.random.default_rng(seed)
    d = walk.dimension
    cap = 4096 * accepted if max_proposals is None else max_proposals
    got = 0
    total_drawn = 0
    acc_sum = 0.0
    acc_sq = 0.0
    batch = 65536
    while got < accepted:
        take = min(batch, cap - total_drawn)
        if take <= 0:
            raise SamplerError(
                f"rejection sampler found {got} feasible points in "
                f"{total_drawn} proposals; the polytope is too thin"
            )
        pts = rng.random((take, d))
        ok = np.ones(take, dtype=bool)
        ok &= np.all(pts >= walk.box_lo, axis=1) & np.all(pts <= walk.box_hi, axis=1)
        if walk.pair_a.shape[0]:
            ok &= np.all(pts[:, walk.pair_a] <= pts[:, walk.pair_b], axis=1)
        vals = pts[ok, col]
        got += vals.size
        acc_sum += float(vals.sum())
        acc_sq += float(np.square(vals).sum())
        total_drawn += take
    mean = acc_sum / got
    variance = max(acc_sq / got - mean * mean, 0.0) * got / (got - 1) if got > 1 else 0.0
    return mean, got / total_drawn, math.sqrt(variance / got)
