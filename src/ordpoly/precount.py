"""The ``--engine exact`` pre-count: linear extensions, part by part.

Given the pins, the decomposition's parts are independent: in a whole
linear extension the pins sit in value order, and within a pin interval
the unknowns of different parts interleave freely.  So each part counts
its extensions per fragment profile, the number of its unknowns in each
pin interval that unknowns of another part may also reach, and two parts'
tables merge as

    #(a + b) = A(a) B(b) prod_j C(a_j + b_j, a_j).

A part counts by walking its downsets level by level, as ``lattice`` does
(on the part's ``_Prep``, which the request's later walks of the part
read again, and under its ``_LEVEL_MASK_CAP``), each state keyed by
its downset and its profile so far.  A set of one part tracks no
interval, so its count is the plain prefix count per downset.  The
per-profile table is the integer form of the part's volume as a
polynomial G_p(w) in the interval widths: c_p(n) = prod_j n_j! [w^n] G_p.

Every partial count is a proven lower bound on the whole count, so the
budget refuses early: a part's prefixes per level times the counts of
the parts walked before, and a merged count, also while merging, times
the counts of the parts still to merge.  ``tree.solve`` runs
``count_extensions`` first under ``--engine exact``, and
``exact.count_extensions`` is the same call; this module loads only
there.
"""
from __future__ import annotations

from math import factorial

from . import lattice
from .errors import BudgetExceededError, LimitExceededError, _check_budget
from .model import Prepared


def _reach(prep: lattice._Prep) -> list[int]:
    """How many of the set's unknowns may lie in each pin interval: an
    unknown above pins 0..a and below pins b.. may lie in intervals a..b-1."""
    succ, chain = prep.quotient._succ, prep.exact_chain
    counts = [0] * len(prep.widths)
    for u in prep.unknown_ids:
        below = sum(succ[p] >> u & 1 for p in chain)
        for j in range(below - 1, len(chain) - (succ[u] & prep.pins).bit_count()):
            counts[j] += 1
    return counts


def _profile_counts(
    prep: lattice._Prep, budget: int, steps: list[int], factor: int
) -> dict[int, int]:
    """One part's linear extensions, counted level by level per fragment
    profile: the number of its unknowns in each tracked pin interval.

    A state packs a downset and the profile so far into one key, the
    profile above the downset's bits; ``steps[c]`` is what placing a
    variable adds to it while c pins are placed, so every placement in a
    tracked interval counts there, the pin that closes it included.
    Returns {key above the downset: count}.  ``factor`` is the product of
    the counts of the parts walked before: times this part's prefixes per
    level, it is a proven lower bound on the whole count, which raises
    ``BudgetExceededError`` once over the budget.  A level of more than
    ``lattice._LEVEL_MASK_CAP`` states raises ``LimitExceededError``."""
    # one int per state: its prefix count above the variables that may
    # join its downset, so adding counts keeps the mask; ``joinable`` may
    # read a whole key, as no parents mask reaches the profile's bits
    shift, full, pins = prep.size, prep.full, prep.pins
    cap = lattice._LEVEL_MASK_CAP
    tracked = any(steps)  # when nothing is, the walk skips the step per state
    level: dict[int, int] = {0: 1 << shift | prep.roots}
    for _ in range(prep.size):
        nxt: dict[int, int] = {}
        total = 0
        for key, packed in level.items():
            ready = packed & full
            ways = packed ^ ready
            total += (ways >> shift) * ready.bit_count()
            base = key + steps[(key & pins).bit_count()] if tracked else key
            rest = ready
            while rest:
                low = rest & -rest
                rest ^= low
                new = base | low
                if new in nxt:
                    nxt[new] += ways
                else:
                    nxt[new] = ways | prep.joinable(ready, low.bit_length() - 1, new)
            if len(nxt) > cap:
                if len(nxt) * factor > budget:
                    raise BudgetExceededError(budget, len(nxt) * factor, prep.where())
                raise LimitExceededError(
                    f"pre-counting the linear extensions of {prep.where()} needs "
                    f"more than {cap} prefixes in one level; use --engine auto, "
                    "which answers part by part, or the sampler for an estimate"
                )
        if total * factor > budget:
            raise BudgetExceededError(budget, total * factor, prep.where())
        level = nxt
    return {key >> shift: packed >> shift for key, packed in level.items()}


def count_extensions(prepared: Prepared, budget: int) -> int:
    """Exact linear-extension count of ``prepared``'s tie quotient, part
    by part.  Each part's walk (``_profile_counts``) raises its budget and
    limit errors naming the part; ``_merge`` combines the parts' tables
    where two of them share an interval."""
    _check_budget(budget)
    preps = [skel.prep for skel in prepared.decomposition.skeletons]
    shared: dict[int, int] = {}  # interval -> the unknowns that may lie there
    if len(preps) > 1:
        for j, lies in enumerate(zip(*(_reach(prep) for prep in preps))):
            if sum(1 for n in lies if n) > 1:
                shared[j] = sum(lies)
    width = (max(shared.values(), default=0) + 1).bit_length()
    tables = []
    factor = 1
    for prep in preps:
        steps = [0] * (len(prep.exact_chain) + 1)
        for i, j in enumerate(shared):
            steps[j + 1] = 1 << (i * width + prep.size)
        counts = _profile_counts(prep, budget, steps, factor)
        tables.append(counts)
        factor *= sum(counts.values())
    if shared:
        return _merge(prepared, tables, list(shared.values()), width, factor, budget)
    if factor > budget:  # no part: the pins alone have one extension
        raise BudgetExceededError(budget, factor, _whole(prepared))
    return factor  # no interval holds unknowns of two parts


def _whole(prepared: Prepared) -> str:
    """The whole set as the errors name it."""
    quotient = prepared.ties.quotient
    return lattice._where(quotient, [v.id for v in quotient.unknowns()])


def _merge(
    prepared: Prepared,
    tables: list[dict[int, int]],
    most: list[int],
    width: int,
    rest: int,
    budget: int,
) -> int:
    """The whole count from the parts' ``_profile_counts`` tables, with
    ``most[i]`` the unknowns of all parts that may lie in tracked interval
    i (slot i of a profile, ``width`` bits wide, also counts the pin that
    closes it) and ``rest`` the product of the tables' counts.

    The merge works on c(n) prod_i F_i! / n_i!, F_i = most[i], so that
    combining two tables is one product per pair of profiles.  A merged
    count, also while merging, times the counts of the parts still to
    merge is a lower bound: over the budget it names the set, as does a
    merged table of more than ``lattice._LEVEL_MASK_CAP`` profiles."""
    cap = lattice._LEVEL_MASK_CAP
    offsets = [i * width for i in range(len(most))]
    closes = sum(1 << off for off in offsets)
    slot = (1 << width) - 1
    fact = [factorial(n) for n in range(max(most) + 1)]

    def weight(profile: int) -> int:  # prod_i n_i!
        w = 1
        for off in offsets:
            w *= fact[profile >> off & slot]
        return w

    scale = 1
    for n in most:
        scale *= fact[n]
    merged = {0: scale}
    for table in tables:
        rest //= sum(table.values())  # the counts of the parts still to merge
        scaled = {}
        for b, n in table.items():
            b -= closes
            scaled[b] = n * scale // weight(b)
        out: dict[int, int] = {}
        since = 0
        for a, x in merged.items():
            for b, y in scaled.items():
                key = a + b
                if key in out:
                    out[key] += x * y
                else:
                    out[key] = x * y
            if len(out) > cap:
                raise LimitExceededError(
                    f"pre-counting the linear extensions of {_whole(prepared)} "
                    f"needs more than {cap} fragment profiles to combine its "
                    "parts; use --engine auto, which answers part by part, or "
                    "the sampler for an estimate"
                )
            since += len(scaled)
            if since > 4 * len(out):  # the check costs a pass over out
                since = 0
                lower = sum(u * weight(n) for n, u in out.items()) // scale**2 * rest
                if lower > budget:
                    raise BudgetExceededError(budget, lower, _whole(prepared))
        merged = {n: u // scale for n, u in out.items()}
        count = sum(t * weight(n) for n, t in merged.items()) // scale
        if count * rest > budget:
            raise BudgetExceededError(budget, count * rest, _whole(prepared))
    return count
