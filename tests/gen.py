"""Random instance generators for the property and acceptance suites.

Each generator returns a plain document ``(names, order, exact)`` so the
same instance can be fed to the library and to the independent oracles.
All generators produce consistent instances by construction: pinned
values are assigned increasing along a topological order, so no order
constraint ever runs against the pins.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from ordpoly import ConstraintSet

Doc = tuple[list[str], list[tuple[str, str]], dict[str, Fraction]]

_DENOMINATORS = (60, 97, 120, 210)


def to_cs(doc: Doc) -> ConstraintSet:
    names, order, exact = doc
    return ConstraintSet(names, order, exact)


def distinct_fractions(
    rng: random.Random,
    count: int,
    lo: Fraction = Fraction(0),
    hi: Fraction = Fraction(1),
) -> list[Fraction]:
    """``count`` distinct fractions strictly between ``lo`` and ``hi``."""
    den = rng.choice(_DENOMINATORS)
    while True:
        first = int(lo * den) + 1
        last = -int(-hi * den) - 1  # ceil(hi*den) - 1
        if last - first + 1 >= count or lo >= hi:
            break
        # Too few numerators: refine the grid without another draw, so a
        # denominator that already fits gives the same fractions as before.
        den *= 2
    nums = rng.sample(range(first, last + 1), count)
    return sorted(Fraction(n, den) for n in nums)


def _random_dag_edges(
    rng: random.Random, names: Sequence[str], p: float
) -> list[tuple[str, str]]:
    """Random DAG: coin-flip edges oriented along a shuffled order."""
    topo = list(names)
    rng.shuffle(topo)
    return [
        (topo[i], topo[j])
        for i in range(len(topo))
        for j in range(i + 1, len(topo))
        if rng.random() < p
    ]


def pure_order_doc(rng: random.Random, n: int, p: float = 0.35) -> Doc:
    names = [f"u{i}" for i in range(n)]
    return names, _random_dag_edges(rng, names, p), {}


def mixed_doc(
    rng: random.Random, n_unknown: int, n_pin: int, p: float = 0.35
) -> Doc:
    """Random DAG over unknowns and pins; pin values increase along the
    DAG's topological order, which keeps every instance consistent."""
    names = [f"u{i}" for i in range(n_unknown)] + [f"p{i}" for i in range(n_pin)]
    topo = list(names)
    rng.shuffle(topo)
    edges = [
        (topo[i], topo[j])
        for i in range(len(topo))
        for j in range(i + 1, len(topo))
        if rng.random() < p
    ]
    pin_order = [n for n in topo if n.startswith("p")]
    values = distinct_fractions(rng, len(pin_order))
    exact = dict(zip(pin_order, values))
    return names, edges, exact


def tree_doc(rng: random.Random, n_unknown: int, extra_leaf_p: float = 0.25) -> Doc:
    """Tree-shaped set: pinned root with a single child, random unknown
    tree below it, a pinned leaf under every childless unknown (and
    occasionally under internal ones), distinct leaf values above the
    root value."""
    unknowns = [f"u{i}" for i in range(n_unknown)]
    edges = [("r", "u0")]
    children: dict[str, list[str]] = {u: [] for u in unknowns}
    for i in range(1, n_unknown):
        parent = unknowns[rng.randrange(i)]
        children[parent].append(unknowns[i])
        edges.append((parent, unknowns[i]))
    leaf_hosts = [u for u in unknowns if not children[u]]
    for u in unknowns:
        if children[u] and rng.random() < extra_leaf_p:
            leaf_hosts.append(u)
    values = distinct_fractions(rng, len(leaf_hosts) + 1)
    root_value = Fraction(0) if rng.random() < 0.2 else values[0]
    exact: dict[str, Fraction] = {"r": root_value}
    for k, host in enumerate(leaf_hosts):
        leaf = f"l{k}"
        edges.append((host, leaf))
        exact[leaf] = values[k + 1]
    names = ["r", *unknowns, *sorted(exact.keys() - {"r"})]
    return names, edges, exact


# Pin families for the tree engine's integer coordinates: one shared prime
# grid and 3-digit decimals give a shared denominator (997 and 1000), while
# coprime small primes and dyadic values with one leaf at 1/997 give none.
PIN_FAMILIES = ("grid", "decimal", "coprime", "dyadic")
_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def family_tree_doc(rng: random.Random, n_unknown: int, family: str) -> Doc:
    """``tree_doc``'s shape with distinct pins from ``family`` (see
    PIN_FAMILIES): "grid" k/997; "decimal" k/1000, one of them at exactly
    that denominator; "coprime" k/p over primes p >= 5 above a root at 1/3;
    "dyadic" k/2^j (j <= 9) and one leaf at 1/997 above a root at 1/1024.  A
    grid or decimal root is at 0 in about half the trees, and about a third
    of the trees have a leaf at 1.  Leaf values increase with their hosts'
    index, so no leaf is implied by another and every pin stays in the
    tree's skeleton."""
    names, edges, exact = tree_doc(rng, n_unknown, extra_leaf_p=0.4)
    host = {leaf: u for u, leaf in edges if leaf in exact}
    leaves = sorted(host, key=lambda leaf: int(host[leaf][1:]))
    root = {"coprime": Fraction(1, 3), "dyadic": Fraction(1, 1024)}.get(family)

    def draw(k: int) -> Fraction:
        if family == "grid":
            return Fraction(rng.randint(1, 996), 997)
        if family == "decimal":
            return Fraction(rng.randint(1, 999), 1000)
        if family == "coprime":
            p = _PRIMES[k % len(_PRIMES)]
            return Fraction(rng.randint(p // 3 + 1, p - 1), p)
        j = rng.randint(1, 9)
        return Fraction(2 * rng.randrange(2 ** (j - 1)) + 1, 2**j)

    pins = {
        "decimal": {Fraction(rng.choice([k for k in range(1000) if k % 2 and k % 5]), 1000)},
        "dyadic": {Fraction(1, 997)},
    }.get(family, set())
    if len(pins) < len(leaves) and rng.random() < 0.3:
        pins.add(Fraction(1))
    tries = 0
    while len(pins) < len(leaves):
        pins.add(draw(tries))
        tries += 1
    exact.update(zip(leaves, sorted(pins)))
    if root is None:
        below = draw(0)
        root = below if rng.random() < 0.5 and below < min(pins) else Fraction(0)
    exact["r"] = root
    return names, edges, exact


def forest_doc(rng: random.Random) -> Doc:
    """Two or three independent ``tree_doc`` trees of 1-4 unknowns, the
    names of tree t prefixed with "t<t>": a set of several parts."""
    names: list[str] = []
    edges: list[tuple[str, str]] = []
    exact: dict[str, Fraction] = {}
    for t in range(rng.randint(2, 3)):
        tn, te, tx = tree_doc(rng, rng.randint(1, 4))
        names += [f"t{t}{n}" for n in tn]
        edges += [(f"t{t}{a}", f"t{t}{b}") for a, b in te]
        exact.update((f"t{t}{n}", v) for n, v in tx.items())
    return names, edges, exact


def fence_doc(rng: random.Random, count: int, size: int) -> Doc:
    """``count`` independent zigzag fences of ``size`` unknowns, fence f
    between its own two pins drawn from (f/10, (6 + f)/10), so the pins'
    intervals overlap."""
    names: list[str] = []
    edges: list[tuple[str, str]] = []
    exact: dict[str, Fraction] = {}
    for f in range(count):
        lo, hi = distinct_fractions(rng, 2, Fraction(f, 10), Fraction(6 + f, 10))
        fence = [f"f{f}_{i}" for i in range(size)]
        names += fence + [f"f{f}_lo", f"f{f}_hi"]
        exact.update({f"f{f}_lo": lo, f"f{f}_hi": hi})
        for low, high in zip(fence[0::2], fence[1::2]):
            edges += [(f"f{f}_lo", low), (low, high), (high, f"f{f}_hi")]
        edges += list(zip(fence[2::2], fence[1::2]))
        if size % 2:
            edges += [(f"f{f}_lo", fence[-1]), (fence[-1], f"f{f}_hi")]
    return names, edges, exact


def chain_doc(rng: random.Random, n: int) -> Doc:
    """Pinned-endpoint chain: one fragment of n unknowns on [alpha, beta]."""
    alpha, beta = distinct_fractions(rng, 2)
    if rng.random() < 0.25:
        alpha = Fraction(0)
    if rng.random() < 0.25:
        beta = Fraction(1)
    names = ["plo", *[f"u{i}" for i in range(n)], "phi"]
    edges = list(zip(names, names[1:]))
    return names, edges, {"plo": alpha, "phi": beta}


def separator_doc(rng: random.Random, max_block: int = 3) -> Doc:
    """Two blocks of unknowns joined only through one pinned separator."""
    na = rng.randint(1, max_block)
    nb = rng.randint(1, max_block)
    a_names = [f"a{i}" for i in range(na)]
    b_names = [f"b{i}" for i in range(nb)]
    edges = _random_dag_edges(rng, a_names, 0.4) + _random_dag_edges(
        rng, b_names, 0.4
    )
    (sep_value,) = distinct_fractions(rng, 1, Fraction(1, 4), Fraction(3, 4))
    for x in rng.sample(a_names, rng.randint(1, na)):
        edges.append((x, "s"))
    for y in rng.sample(b_names, rng.randint(1, nb)):
        edges.append(("s", y))
    return a_names + b_names + ["s"], edges, {"s": sep_value}


def tied_doc(rng: random.Random, n: int, n_ties: int, p: float = 0.3) -> Doc:
    """Random order set with ``n_ties`` injected two-way (tied) pairs."""
    names, edges, exact = pure_order_doc(rng, n, p)
    pool = list(names)
    rng.shuffle(pool)
    for _ in range(n_ties):
        if len(pool) < 2:
            break
        a, b = pool.pop(), pool.pop()
        edges.extend([(a, b), (b, a)])
    return names, edges, exact


def single_unknown_tree_doc(rng: random.Random) -> Doc:
    """One unknown between a pinned root and 1-4 pinned leaves."""
    k = rng.randint(1, 4)
    values = distinct_fractions(rng, k + 1)
    root_value = Fraction(0) if rng.random() < 0.2 else values[0]
    names = ["r", "x", *[f"l{i}" for i in range(k)]]
    edges = [("r", "x")] + [("x", f"l{i}") for i in range(k)]
    exact = {"r": root_value}
    for i in range(k):
        exact[f"l{i}"] = values[i + 1]
    return names, edges, exact
