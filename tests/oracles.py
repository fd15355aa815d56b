"""Independent reference computations the suite checks the library against.

Everything here is deliberately naive and shares no code with the
package: candidate orders are filtered one permutation at a time,
volumes come from summing closed-form products over explicit gap
assignments, feasibility goes through scipy's LP solver, and means come
from plain rejection sampling in the unit cube.  Slow, small, and
obviously correct — which is the point.  A downset's joinable variables
follow their definition, over cover pairs found by brute force.  The
exceptions are at the end, where the package's own tables are read: the
exact-draw reference walks its forward tables back one point at a time
with Python integers (the reference for the sampler's batched walk), the
whole-set top-k walks the whole tie quotient's lattice, and the split
backward pass keeps the backward table per state and final fragment size
(the reference for the lattice's one row per downset).
"""
from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.optimize import linprog

Order = Sequence[tuple[str, str]]
Exact = dict[str, Fraction]


# ---------------------------------------------------------------------------
# feasibility by linear programming


def lp_feasible(names: Sequence[str], order: Order, exact: Exact) -> bool:
    """Whether the admissible region is nonempty, decided by an LP solve."""
    idx = {n: i for i, n in enumerate(names)}
    n = len(names)
    a_ub: list[list[float]] = []
    for a, b in order:
        row = [0.0] * n
        row[idx[a]], row[idx[b]] = 1.0, -1.0
        a_ub.append(row)
    a_eq: list[list[float]] = []
    b_eq: list[float] = []
    for name, val in exact.items():
        row = [0.0] * n
        row[idx[name]] = 1.0
        a_eq.append(row)
        b_eq.append(float(val))
    res = linprog(
        c=[0.0] * n,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=[0.0] * len(a_ub) if a_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=b_eq if a_eq else None,
        bounds=[(0.0, 1.0)] * n,
        method="highs",
    )
    return res.status == 0


# ---------------------------------------------------------------------------
# exact volume and means by brute enumeration
#
# A world is classified by (a) the ascending order of its unknown values
# and (b) which gap between consecutive pinned values each unknown falls
# into.  Within one class the unknowns of a gap (width w, m of them) are
# ordered uniform points, so the class volume is the product of w^m/m!
# and the expected value of the unknown ranked r among those m is
# lo + (hi-lo) * r/(m+1).  Summing classes is exponential but exact.
# With its pins placed by value, a class is one linear extension.


def _admissible_unknown_orders(
    names: Sequence[str], order: Order, exact: Exact
) -> Iterator[tuple[str, ...]]:
    unknowns = [n for n in names if n not in exact]
    pairs = [(a, b) for a, b in order if a not in exact and b not in exact]
    for perm in itertools.permutations(unknowns):
        pos = {n: i for i, n in enumerate(perm)}
        if all(pos[a] <= pos[b] for a, b in pairs):
            yield perm


def _direct_bounds(
    names: Sequence[str], order: Order, exact: Exact
) -> tuple[dict[str, Fraction], dict[str, Fraction]]:
    lo = {n: Fraction(0) for n in names if n not in exact}
    hi = {n: Fraction(1) for n in names if n not in exact}
    for a, b in order:
        if a in exact and b not in exact:
            lo[b] = max(lo[b], exact[a])
        elif b in exact and a not in exact:
            hi[a] = min(hi[a], exact[b])
    return lo, hi


def _gaps(exact: Exact) -> list[tuple[Fraction, Fraction]]:
    cuts = sorted({Fraction(0), Fraction(1), *exact.values()})
    return list(zip(cuts, cuts[1:]))


def _monotone_assignments(
    perm: Sequence[str],
    gaps: Sequence[tuple[Fraction, Fraction]],
    lo: dict[str, Fraction],
    hi: dict[str, Fraction],
) -> Iterator[tuple[int, ...]]:
    """Gap index per unknown, nondecreasing along the ascending order."""

    def rec(i: int, g_min: int) -> Iterator[tuple[int, ...]]:
        if i == len(perm):
            yield ()
            return
        u = perm[i]
        for g in range(g_min, len(gaps)):
            a, b = gaps[g]
            if a < lo[u] or b > hi[u]:
                continue
            for rest in rec(i + 1, g):
                yield (g, *rest)

    yield from rec(0, 0)


def _pin_pin_consistent(names: Sequence[str], order: Order, exact: Exact) -> bool:
    pairs = [(a, b) for a, b in order if a in exact and b in exact]
    # one round of direct checks plus transitive chains through pins only
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(exact)
    g.add_edges_from(pairs)
    for a in exact:
        for b in nx.descendants(g, a):
            if exact[a] > exact[b]:
                return False
    return True


# An unknown's place in a class: its gap (lo, hi), its rank in the gap
# (1 = lowest) and the number of unknowns in the gap.
Place = tuple[tuple[Fraction, Fraction], int, int]


def brute_worlds(
    names: Sequence[str], order: Order, exact: Exact
) -> Iterator[tuple[tuple[str, ...], Fraction, dict[str, Place]]]:
    """Every class of worlds: its names in ascending value, pins included
    (equal pins by name), its volume, and each unknown's gap, rank in the
    gap and the gap's number of unknowns.  Nothing for an inconsistent set."""
    if not _pin_pin_consistent(names, order, exact):
        return
    gaps = _gaps(exact)
    lo, hi = _direct_bounds(names, order, exact)
    pins = {p: (v, 0, p) for p, v in exact.items()}
    for perm in _admissible_unknown_orders(names, order, exact):
        for assign in _monotone_assignments(perm, gaps, lo, hi):
            counts = Counter(assign)
            vol = Fraction(1)
            for g, m in counts.items():
                width = gaps[g][1] - gaps[g][0]
                vol *= width**m / math.factorial(m)
            rank_in_gap: Counter[int] = Counter()
            places: dict[str, Place] = {}
            keys = dict(pins)
            for i, (u, g) in enumerate(zip(perm, assign)):
                rank_in_gap[g] += 1
                places[u] = (gaps[g], rank_in_gap[g], counts[g])
                keys[u] = (gaps[g][0], 1, i)
            yield tuple(sorted(keys, key=keys.get)), vol, places


def brute_volume_and_means(
    names: Sequence[str], order: Order, exact: Exact
) -> tuple[Fraction, dict[str, Fraction]]:
    """Exact volume and per-unknown expected values by full enumeration."""
    total = Fraction(0)
    weighted = {u: Fraction(0) for u in names if u not in exact}
    for _, vol, places in brute_worlds(names, order, exact):
        total += vol
        for u, ((a, b), rank, size) in places.items():
            weighted[u] += vol * (a + (b - a) * Fraction(rank, size + 1))
    if not total:
        return Fraction(0), {}
    return total, {u: w / total for u, w in weighted.items()}


def brute_volume(names: Sequence[str], order: Order, exact: Exact) -> Fraction:
    return brute_volume_and_means(names, order, exact)[0]


def brute_mean(
    names: Sequence[str], order: Order, exact: Exact, var: str
) -> Fraction:
    if var in exact:
        return exact[var]
    return brute_volume_and_means(names, order, exact)[1][var]


def brute_expected_rank(
    names: Sequence[str], order: Order, var: str
) -> Fraction:
    """Average 1-based rank over all admissible orders (pure-order sets)."""
    perms = list(_admissible_unknown_orders(names, order, {}))
    return Fraction(sum(p.index(var) + 1 for p in perms), len(perms))


def count_orders(names: Sequence[str], order: Order) -> int:
    return sum(1 for _ in _admissible_unknown_orders(names, order, {}))


# ---------------------------------------------------------------------------
# rejection sampling in the unit cube


def rejection_mean(
    names: Sequence[str],
    order: Order,
    exact: Exact,
    var: str,
    accepted_target: int,
    seed: int,
    batch: int = 200_000,
    max_proposals: int = 200_000_000,
) -> tuple[float, float]:
    """Mean of ``var`` over accepted cube points, with its standard error."""
    unknowns = [n for n in names if n not in exact]
    col = {n: i for i, n in enumerate(unknowns)}
    rng = np.random.default_rng(seed)
    kept: list[np.ndarray] = []
    got = 0
    proposed = 0
    while got < accepted_target:
        if proposed >= max_proposals:
            raise RuntimeError("acceptance rate too low for the proposal cap")
        pts = rng.random((batch, len(unknowns)))
        proposed += batch
        mask = np.ones(batch, dtype=bool)
        for a, b in order:
            va = pts[:, col[a]] if a in col else float(exact[a])
            vb = pts[:, col[b]] if b in col else float(exact[b])
            mask &= va <= vb
        sel = pts[mask, col[var]]
        kept.append(sel)
        got += sel.size
    vals = np.concatenate(kept)[:accepted_target]
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size))


# ---------------------------------------------------------------------------
# Beta order-statistic density, expanded to exact coefficients


def _poly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def beta_rescaled_coeffs(
    i: int, n: int, a: Fraction, b: Fraction
) -> list[Fraction]:
    """Ascending coefficients of the rank-i-of-n density mapped to [a, b].

    The i-th smallest of n uniform points on [a, b] has density
    C (t-a)^(i-1) (b-t)^(n-i) with C = n! / ((i-1)! (n-i)! (b-a)^n).
    """
    width = b - a
    c = Fraction(
        math.factorial(n), math.factorial(i - 1) * math.factorial(n - i)
    ) / width**n
    rising = [
        Fraction(math.comb(i - 1, j)) * (-a) ** (i - 1 - j) for j in range(i)
    ]
    falling = [
        Fraction(math.comb(n - i, j)) * b ** (n - i - j) * (-1) ** j
        for j in range(n - i + 1)
    ]
    return [c * coef for coef in _poly_mul(rising, falling)]


# ---------------------------------------------------------------------------
# subtree volume polynomials of a tree, bottom up


def tree_volume_polys(order: Order, exact: Exact) -> dict[str, list[Fraction]]:
    """Ascending coefficients of V_x(v') for every unknown x of a
    tree-shaped document whose edges point from the pinned root up to the
    pinned leaves: V_x(v') is the integral from v' to m_x (the smallest
    pinned leaf above x) of the product of V_c over x's unknown children."""
    children: dict[str, list[str]] = {}
    for a, b in order:
        children.setdefault(a, []).append(b)
    polys: dict[str, list[Fraction]] = {}

    def cap(x: str) -> Fraction:
        return exact[x] if x in exact else min(cap(c) for c in children[x])

    def volume(x: str) -> list[Fraction]:
        prod = [Fraction(1)]
        for c in children[x]:
            if c not in exact:
                prod = _poly_mul(prod, volume(c))
        anti = [Fraction(0)] + [a / (i + 1) for i, a in enumerate(prod)]
        top = sum(a * cap(x) ** i for i, a in enumerate(anti))
        polys[x] = [top] + [-a for a in anti[1:]]
        return polys[x]

    for a, b in order:
        if a in exact and b not in exact:
            volume(b)
    return polys


# ---------------------------------------------------------------------------
# tie-free rewriting (for checking the tie-collapse quotient)


def merge_ties(
    names: Sequence[str], order: Order, exact: Exact
) -> tuple[list[str], list[tuple[str, str]], Exact, dict[str, str]]:
    """Rewrite a constraint set with cyclic order constraints tie-free.

    Every strongly connected component of the order digraph is replaced
    by its lexicographically smallest member; a component containing a
    pinned variable pins its representative (ambiguity between distinct
    pinned values means the input was inconsistent — not handled here).
    Returns the rewritten document plus the member -> representative map.
    """
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(names)
    g.add_edges_from(order)
    rep: dict[str, str] = {}
    new_exact: Exact = {}
    for comp in nx.strongly_connected_components(g):
        r = min(comp)
        for m in comp:
            rep[m] = r
        pinned = {exact[m] for m in comp if m in exact}
        if len(pinned) > 1:
            raise ValueError("contradictory pins inside a tie class")
        if pinned:
            new_exact[r] = next(iter(pinned))
    new_names = sorted({rep[n] for n in names})
    new_order = sorted(
        {(rep[a], rep[b]) for a, b in order if rep[a] != rep[b]}
    )
    return new_names, new_order, new_exact, rep


# ---------------------------------------------------------------------------
# the step of the downset lattice, by its definition


def covers(closed) -> set[tuple[int, int]]:
    """The cover pairs (a, b) of a closed, tie-free set: a below b with no
    third variable strictly between them."""
    ids = range(len(closed.variables))
    below = {(a, b) for a in ids for b in ids if a != b and closed.reaches(a, b)}
    return {
        (a, b) for a, b in below if not any((a, c) in below and (c, b) in below for c in ids)
    }


def joinable(cover_pairs: set[tuple[int, int]], size: int, placed: int) -> int:
    """The variables that may join the downset ``placed`` of a set of
    ``size`` variables with these cover pairs, as a mask: v may join when
    v is outside it and every cover parent of v is in it."""
    return sum(
        1 << v
        for v in range(size)
        if not placed >> v & 1
        and all(placed >> a & 1 for a, b in cover_pairs if b == v)
    )


def count_extensions(closed) -> int:
    """The linear extensions of a closed, tie-free set: the ways to grow
    the empty downset to the full one, one joinable variable at a time."""
    pairs, size = covers(closed), len(closed.variables)
    full = (1 << size) - 1
    ways = {full: 1}

    def completions(placed: int) -> int:
        if placed not in ways:
            ready = joinable(pairs, size, placed)
            ways[placed] = sum(completions(placed | 1 << v) for v in range(size) if ready >> v & 1)
        return ways[placed]

    return completions(0)


# ---------------------------------------------------------------------------
# exact draws one point at a time (for checking the sampler's batched walk)


def _ways_in(ext, t: int, placed: int, k: int) -> tuple[list[int], list[tuple]]:
    """Cumulative weights and (state, variable, pin index or None) of each
    way into the state (``placed``, ``k``) of level ``t`` of ``ext``'s
    forward table."""
    prep = ext.prep
    below = ext.levels[t - 1]
    cum: list[int] = []
    ways: list[tuple] = []
    for v in range(prep.size):
        low = 1 << v
        if not placed & low or prep.child_bits[v] & placed:
            continue  # v is not a maximal variable of the downset
        before = placed ^ low
        _, row = below[before]
        j = prep.exact_index.get(v)
        if j is None:
            f = row.get((k - 1, ())) if k else None
            if f:
                cum.append((cum[-1] if cum else 0) + f)
                ways.append(((before, k - 1), v, None))
        elif not k:
            closing = (before & prep.unknowns).bit_count()
            for (open_, _), f in row.items():
                if open_:
                    f *= prep.scale[j - 1] ** open_ * math.comb(closing, open_)
                cum.append((cum[-1] if cum else 0) + f)
                ways.append(((before, open_), v, j))
    return cum, ways


def _fragments(ext, picks: Sequence[int]) -> list[tuple[int, list[int]]]:
    """The extension that ``picks`` (one integer in [0, 2^53) per level)
    choose by bisecting each state's cumulative weights, as (interval j,
    the unknowns placed between pins j and j + 1, bottom up) for every
    nonempty fragment, from the top down."""
    out: list[tuple[int, list[int]]] = []
    frag: list[int] = []
    state = (ext.prep.full, 0)
    for t in range(ext.prep.size, 0, -1):
        cum, ways = _ways_in(ext, t, *state)
        state, v, j = ways[bisect.bisect_right(cum, (cum[-1] * picks[t - 1]) >> 53)]
        if j is None:
            frag.append(v)
        elif frag:
            out.append((j, frag[::-1]))
            frag = []
    return out


def per_point_draw(walk, count: int, seed: int, chunk_rows: int) -> np.ndarray:
    """The sampler's exact draws of ``walk`` (whose parts all draw
    exactly), one point at a time in Python integers, from forward tables
    of its own.  Per chunk of ``chunk_rows`` points and part, the random
    numbers are the sampler's: one pick in [0, 2^53) per level, then one
    uniform per unknown.  Each fragment, from the top down, takes the
    row's next uniforms and places its unknowns, bottom up, at their
    sorted values on its interval."""
    from ordpoly.lattice import ExtensionDraw, _prepare
    from ordpoly.sampler import EXACT_MOVE_CAP

    column = {walk.quotient.variables[q].name: c for q, c in walk.column.items()}
    exts = [
        ExtensionDraw(_prepare(skel), EXACT_MOVE_CAP)
        for skel in walk.prepared.decomposition.skeletons
    ]
    rng = np.random.default_rng(seed)
    out = np.empty((count, walk.dimension))
    for start in range(0, count, chunk_rows):
        rows = out[start : start + chunk_rows]
        for ext in exts:
            prep = ext.prep
            picks = rng.integers(0, 1 << 53, size=(len(rows), prep.size), dtype=np.int64)
            unifs = rng.random((len(rows), len(prep.unknown_ids)))
            for row, pick, u in zip(rows, picks.tolist(), unifs.tolist()):
                at = 0
                for j, frag in _fragments(ext, pick):
                    lo, width = float(prep.values[j]), float(prep.widths[j])
                    for v, x in zip(frag, sorted(u[at : at + len(frag)])):
                        row[column[prep.quotient.variables[v].name]] = lo + x * width
                    at += len(frag)
    return out


# ---------------------------------------------------------------------------
# u/global top-k over the whole tie quotient (for checking the walk of the
# parts that hold the selection)


def whole_set_topk(cs, names: Sequence[str], k: int):
    """u and global top-k of the selection ``names`` (sorted) from the
    package's lattice of the whole tie quotient, every part included: the
    probability of every descending sequence of the ``min(k, len(names))``
    highest, by name, and each name's probability of ranking among them."""
    from ordpoly.lattice import _prepare, rank_tally, sequence_tally
    from ordpoly.model import Prepared, part_skeleton

    prepared = Prepared(cs)
    quotient = prepared.ties.quotient
    prep = _prepare(part_skeleton(quotient))
    ids = [prepared.target(n).id for n in names]
    top = min(k, len(names))
    volume, sequences = sequence_tally(prep, ids, top, 10**12)
    u = {
        tuple(quotient.variables[i].name for i in seq): vol / volume
        for seq, vol in sequences.items()
    }
    volume, ranks = rank_tally(prep, ids, 10**12)
    in_top = {
        n: sum((x for r, x in ranks[i].items() if r <= top), Fraction(0)) / volume
        for n, i in zip(names, ids)
    }
    return u, in_top


# ---------------------------------------------------------------------------
# the lattice's backward pass split by final fragment size (for checking
# the package's one-entry-per-downset pass)


def split_backward(prep, levels: list[dict], track: Iterable[int], selected: int):
    """The lattice's tallies from a backward table kept per state (D, k)
    as a total and a split by the open fragment's final size n: per
    tracked unknown, {(interval, rank, n): F * B}, and per selected
    variable, {descending rank: F * B}, both times L^N N!."""
    pin_index, unknowns, pins = prep.exact_index, prep.unknowns, prep.pins
    n = len(prep.unknown_ids)
    buckets: dict[int, dict] = {u: {} for u in track}
    ranks: dict[int, dict[int, int]] = {}
    # Per state (D, k): (total, {final size of the open fragment: part}).
    after: dict = {prep.full: {0: (1, {0: 1})}}
    for t in range(len(levels) - 2, -1, -1):
        here: dict = {}
        for placed, (ready, row) in levels[t].items():
            in_placed = (placed & unknowns).bit_count()
            interval = (placed & pins).bit_count() - 1
            rank = (selected & ~placed).bit_count()
            moves = [(v, 1 << v, after[placed | 1 << v]) for v in range(prep.size) if ready >> v & 1]
            back: dict = {}
            for (k, _), f in row.items():
                closed = in_placed - k
                weight = f * math.comb(n, closed)
                total, split = 0, {}
                for v, low, nrow in moves:
                    j = pin_index.get(v)
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
                            through *= prep.scale[j - 1] ** k * math.comb(n - closed, k)
                        split[k] = split.get(k, 0) + through
                    total += through
                    if low & selected:
                        by_rank = ranks.setdefault(v, {})
                        by_rank[rank] = by_rank.get(rank, 0) + weight * through
                back[k] = (total, split)
            here[placed] = back
        after = here
    assert after[0][0][0] == levels[-1][prep.full][1][(0, ())], "F and B disagree"
    return buckets, ranks
