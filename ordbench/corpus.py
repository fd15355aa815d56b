"""Seeded corpus generation for the ordpoly benchmark.

Every workload's corpus is the union of sub-corpora, one per generation
seed.  A sub-corpus is a list of documents (plain JSON constraint
documents, or raw text for the malformed-input request) and a list of
requests over them.  ``freeze.py`` generates the sub-corpora with the
seed code, runs every request once and stores documents, requests and
goldens in ``data/<workload>.json``; ``run.py`` only reads that file.

Generators use only ``random.Random(seed)``, so the same generation seed
gives the same documents.  The DAG and sampler generators reject
candidates through ``ordpoly`` (shape and extension count), which is why
freezing needs the library while runs do not regenerate anything.
"""
from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("cli-mix", "engines")

# Generation seeds frozen per workload.  Each seed adds one sub-corpus with
# the same composition; ``run.py --profile --gen-seed N`` prints the size
# profile of any other seed.  Pools are small so that one pass takes about
# ten seconds and a run holds several passes (see run.Workload.end_to_end).
GEN_SEEDS = {
    "cli-mix": (1,),
    "engines": (1, 2),
}

# Every request runs single-threaded; --chains exists only on these.
_CHAIN_COMMANDS = {"interpolate", "topk", "sample"}

# Sampler settings shared by every sampled request: accuracy targets
# epsilon = 0.1, delta = 0.05 (N = 738 samples), and walk parameters fixed
# so every sampled request runs about the same number of kernel steps:
# 4800 + 738 * 6 = 9228 for estimates, 4800 + 40 * 111 = 9240 for points.
EPSILON = 0.1
DELTA = 0.05
BURN_IN = 4800
THINNING = 6
SAMPLE_COUNT = 40
SAMPLE_THINNING = 111

# dag-exact keeps extension counts in a narrow window so every request
# folds a similar number of linear extensions.
DAG_EXTENSIONS = (5000, 6500)


def _frac(x: Fraction) -> str:
    return str(Fraction(x))


def _document(names, order, exact) -> dict:
    return {
        "variables": list(names),
        "order": [[a, b] for a, b in order],
        "exact": {k: _frac(v) for k, v in sorted(exact.items())},
    }


def _distinct_values(rng: random.Random, count: int, den: int = 997) -> list[Fraction]:
    """``count`` distinct fractions strictly inside (0, 1), sorted."""
    return sorted(Fraction(n, den) for n in rng.sample(range(1, den), count))


def diamond() -> dict:
    """The README example: x below y and yp, both below z, yp = 1/2."""
    return _document(
        ["x", "y", "yp", "z"],
        [("x", "y"), ("x", "yp"), ("y", "z"), ("yp", "z")],
        {"yp": Fraction(1, 2)},
    )


def tree(rng: random.Random, n_unknown: int, extra_leaf_p: float = 0.25) -> dict:
    """Tree-shaped document: pinned root r with one child u0, a random
    recursive tree of unknowns above it, a pinned leaf above every
    childless unknown (and sometimes above internal ones)."""
    unknowns = [f"u{i}" for i in range(n_unknown)]
    order = [("r", "u0")]
    children: dict[str, list[str]] = {u: [] for u in unknowns}
    for i in range(1, n_unknown):
        parent = unknowns[rng.randrange(i)]
        children[parent].append(unknowns[i])
        order.append((parent, unknowns[i]))
    hosts = [u for u in unknowns if not children[u]]
    hosts += [u for u in unknowns if children[u] and rng.random() < extra_leaf_p]
    values = _distinct_values(rng, len(hosts) + 1)
    exact = {"r": Fraction(0) if rng.random() < 0.2 else values[0]}
    leaves = []
    for k, host in enumerate(hosts):
        leaf = f"l{k}"
        leaves.append(leaf)
        order.append((host, leaf))
        exact[leaf] = values[k + 1]
    return _document(["r", *unknowns, *leaves], order, exact)


def mirror(doc: dict) -> dict:
    """The reverse-tree copy: every edge reversed, every pin v -> 1 - v."""
    return {
        "variables": list(doc["variables"]),
        "order": [[b, a] for a, b in doc["order"]],
        "exact": {k: _frac(1 - Fraction(v)) for k, v in sorted(doc["exact"].items())},
    }


def forest(rng: random.Random, sizes: tuple[int, int]) -> dict:
    """Two independent trees sharing the pinned root: a two-part set."""
    a, b = tree(rng, sizes[0]), tree(rng, sizes[1])
    rename = lambda doc, tag: {n: (n if n == "r" else f"{tag}{n}") for n in doc["variables"]}
    ra, rb = rename(a, "a"), rename(b, "b")
    names = [ra[n] for n in a["variables"]] + [rb[n] for n in b["variables"] if n != "r"]
    order = [(ra[x], ra[y]) for x, y in a["order"]] + [(rb[x], rb[y]) for x, y in b["order"]]
    exact = {ra[k]: Fraction(v) for k, v in a["exact"].items()}
    exact["r"] = Fraction(0)  # below every leaf of both trees
    exact.update({rb[k]: Fraction(v) for k, v in b["exact"].items() if k != "r"})
    return _document(names, order, exact)


def contradiction() -> dict:
    """a <= b <= c with a pinned above c: exit 1 everywhere but check."""
    return _document(
        ["a", "b", "c"],
        [("a", "b"), ("b", "c")],
        {"a": Fraction(4, 5), "c": Fraction(1, 5)},
    )


MALFORMED = '{"variables": ["a", "b"], "order": [["a", "b"]'


def _random_dag(rng, names, p):
    topo = list(names)
    rng.shuffle(topo)
    order = [
        (topo[i], topo[j])
        for i in range(len(topo))
        for j in range(i + 1, len(topo))
        if rng.random() < p
    ]
    return topo, order


def dag(rng: random.Random, n_unknown: int, n_pin: int, p: float) -> dict:
    """Random DAG over unknowns and pins; pin values increase along the
    DAG's topological order, so every document is consistent."""
    names = [f"u{i}" for i in range(n_unknown)] + [f"p{i}" for i in range(n_pin)]
    topo, order = _random_dag(rng, names, p)
    pins = [n for n in topo if n.startswith("p")]
    exact = dict(zip(pins, _distinct_values(rng, n_pin)))
    return _document(names, order, exact)


def _cs(doc: dict):
    from ordpoly import ConstraintSet

    return ConstraintSet(doc["variables"], [tuple(e) for e in doc["order"]], doc["exact"])


def _general_single_part(doc: dict) -> bool:
    from ordpoly import SHAPE_GENERAL, decompose, part_skeleton

    parts = decompose(_cs(doc)).parts
    return len(parts) == 1 and part_skeleton(parts[0]).shape == SHAPE_GENERAL


def exact_dag(rng: random.Random, lo: int, hi: int, unknowns=(8, 10), pins=(1, 3)) -> dict:
    """Single-part general DAG whose extension count lies in [lo, hi]."""
    from ordpoly import BudgetExceededError, count_extensions

    while True:
        doc = dag(rng, rng.randint(*unknowns), rng.randint(*pins), rng.uniform(0.2, 0.45))
        if not _general_single_part(doc):
            continue
        try:
            if count_extensions(_cs(doc), budget=hi) >= lo:
                return doc
        except BudgetExceededError:
            continue


def small_dag(rng: random.Random) -> dict:
    """General DAG with fewer than 500 extensions, for CLI requests."""
    return exact_dag(rng, 20, 499, unknowns=(4, 6), pins=(1, 2))


def sampler_instance(rng: random.Random, blocks: int = 6, size: int = 8) -> dict:
    """``blocks`` connected general-shaped blocks of ``size`` unknowns each,
    every unknown between the pins lo = 1/10 and hi = 9/10, so the set
    decomposes into exactly ``blocks`` general parts."""
    names = ["lo", "hi"]
    order = []
    exact = {"lo": Fraction(1, 10), "hi": Fraction(9, 10)}
    for b in range(blocks):
        block = [f"b{b}x{i}" for i in range(size)]
        bounds = [*(("lo", v) for v in block), *((v, "hi") for v in block)]
        while True:
            _, edges = _random_dag(rng, block, 0.35)
            if _general_single_part(_document(["lo", "hi", *block], edges + bounds, exact)):
                break
        names += block
        order += edges + bounds
    return _document(names, order, exact)


# ---------------------------------------------------------------------------
# requests
#
# A request is {"id", "doc", "argv", "stdin", "check"}.  ``argv`` holds the
# literal "@DOC", replaced by the document's path (or "-" when ``stdin`` is
# true).  ``check`` says how the answer is judged: "golden" compares the
# frozen response, "estimate"/"topk-estimate" compare sampled values with
# the frozen exact values, "points" checks feasibility of sampled points.


def _req(rid, doc, command, *opts, stdin=False, check="golden"):
    argv = [command, "@DOC", *opts, "--threads", "1"]
    if command in _CHAIN_COMMANDS:
        argv += ["--chains", "1"]
    return {"id": rid, "doc": doc, "argv": argv, "stdin": stdin, "check": check}


def _unknown(doc: dict, rng: random.Random) -> str:
    return rng.choice([v for v in doc["variables"] if v not in doc["exact"]])


def _selection(doc: dict, rng: random.Random, m: int) -> str:
    names = sorted(v for v in doc["variables"] if v not in doc["exact"])
    return ",".join(sorted(rng.sample(names, min(m, len(names)))))


def _cli_mix(rng, tag):
    docs = {
        f"{tag}diamond": diamond(),
        f"{tag}tree": tree(rng, rng.randint(6, 8)),
        f"{tag}dag": small_dag(rng),
        f"{tag}forest": forest(rng, (3, 4)),
        f"{tag}bad": contradiction(),
        f"{tag}malformed": MALFORMED,
    }
    d, t, g, f = (f"{tag}{k}" for k in ("diamond", "tree", "dag", "forest"))
    sel = _selection(docs[g], rng, 3)
    reqs = [
        _req("check", d, "check"),
        _req("close", g, "close"),
        _req("decompose", f, "decompose"),
        _req("dim", t, "dim", stdin=True),
        _req("volume", f, "volume"),
        _req("volume-tree", t, "volume", stdin=True),
        _req("interpolate", d, "interpolate"),
        _req("interpolate-dag", g, "interpolate", stdin=True),
        _req("interpolate-stable", t, "interpolate", "--scheme", "stable"),
        _req("marginal", t, "marginal", "--var", _unknown(docs[t], rng)),
        _req("marginal-dag", g, "marginal", "--var", _unknown(docs[g], rng)),
        _req("topk-u", g, "topk", "--semantics", "u", "--k", "2", "--select", sel),
        _req("topk-global", g, "topk", "--semantics", "global", "--k", "2", "--select", sel),
        _req("topk-local", f, "topk", "--semantics", "local", "--k", "2",
             "--select", _selection(docs[f], rng, 4)),
        _req("sample", d, "sample", "--count", "5", "--seed", "@SEED", check="points"),
        _req("check-contradiction", f"{tag}bad", "check"),
        _req("volume-contradiction", f"{tag}bad", "volume"),
        _req("budget", g, "volume", "--engine", "exact", "--max-extensions", "10"),
        _req("malformed", f"{tag}malformed", "interpolate", stdin=True),
    ]
    return docs, reqs


def _tree_queries(rng, tag):
    interp, topk = tree(rng, 12), tree(rng, 13)
    marg = tree(rng, rng.randint(20, 24))
    small, large = tree(rng, rng.randint(55, 60)), tree(rng, rng.randint(180, 190))
    topk_sel, marg_var = _selection(topk, rng, 4), _unknown(marg, rng)
    medium = tree(rng, rng.randint(90, 95))
    docs = {}
    reqs = []
    for side, fn in (("", lambda x: x), ("m", mirror)):
        k = lambda name: f"{tag}{name}{side}"
        docs.update({k("interp"): fn(interp), k("topk"): fn(topk), k("marg"): fn(marg),
                     k("vsmall"): fn(small), k("vmedium"): fn(medium), k("vlarge"): fn(large)})
        reqs += [
            _req(f"interpolate{side}", k("interp"), "interpolate", "--engine", "auto"),
            _req(f"stable{side}", k("marg"), "interpolate", "--scheme", "stable"),
            _req(f"topk-local{side}", k("topk"), "topk", "--semantics", "local", "--k", "2",
                 "--select", topk_sel),
            _req(f"marginal{side}", k("marg"), "marginal", "--engine", "auto",
                 "--var", marg_var),
            _req(f"volume-small{side}", k("vsmall"), "volume", "--engine", "auto"),
            _req(f"volume-medium{side}", k("vmedium"), "volume", "--engine", "auto"),
            _req(f"volume-large{side}", k("vlarge"), "volume", "--engine", "auto"),
        ]
    return docs, reqs


def _dag_exact(rng, tag):
    doc = exact_dag(rng, *DAG_EXTENSIONS)
    g = f"{tag}dag"
    sel = _selection(doc, rng, 4)
    reqs = [
        _req("volume", g, "volume", "--engine", "auto"),
        _req("interpolate", g, "interpolate", "--engine", "auto"),
        _req("marginal", g, "marginal", "--engine", "auto", "--var", _unknown(doc, rng)),
        _req("topk-u", g, "topk", "--semantics", "u", "--k", "2", "--select", sel),
        _req("topk-global", g, "topk", "--semantics", "global", "--k", "2", "--select", sel),
        _req("topk-local", g, "topk", "--semantics", "local", "--k", "2", "--select", sel),
    ]
    return {g: doc}, reqs


def _sampler(rng, tag):
    doc = sampler_instance(rng)
    s = f"{tag}inst"
    walk = ("--epsilon", str(EPSILON), "--delta", str(DELTA), "--burn-in", str(BURN_IN),
            "--seed", "@SEED", "--thinning")
    est = (*walk, str(THINNING))
    reqs = [
        _req("interpolate", s, "interpolate", "--engine", "sample", *est, check="estimate"),
        _req("interpolate-var", s, "interpolate", "--engine", "sample", "--var",
             _unknown(doc, rng), *est, check="estimate"),
        _req("topk-local", s, "topk", "--engine", "sample", "--semantics", "local",
             "--k", "3", "--select", _selection(doc, rng, 8), *est, check="topk-estimate"),
        _req("sample", s, "sample", "--count", str(SAMPLE_COUNT), *walk,
             str(SAMPLE_THINNING), check="points"),
        _req("volume", s, "volume", "--engine", "auto"),
        # The exact engine's budget guard refuses the 48-dimensional marginal
        # after ~0.15 s of counting (at the default budget it takes ~1 s).
        _req("marginal-guard", s, "marginal", "--engine", "exact", "--var",
             _unknown(doc, rng), "--max-extensions", "1000000"),
    ]
    return {s: doc}, reqs


# ``engines`` is the union of three request sets, each drawn from its own
# stream: large and mirrored trees (tree engine and model stages), general
# DAGs (exact enumeration) and a 48-dimensional instance (sampler).
_GENERATORS = {
    "cli-mix": {"cli-mix": _cli_mix},
    "engines": {"tree-queries": _tree_queries, "dag-exact": _dag_exact, "sampler": _sampler},
}


def generate(workload: str, gen_seed: int) -> tuple[dict, list[dict]]:
    """Documents and requests of one sub-corpus; keys and ids carry the
    seed and, in ``engines``, the request set."""
    docs, reqs = {}, []
    for name, gen in _GENERATORS[workload].items():
        tag = f"s{gen_seed}." if name == workload else f"s{gen_seed}.{name}."
        d, r = gen(random.Random(f"{name}/{gen_seed}"), tag)
        for req in r:
            req["id"] = tag + req["id"]
            req["type"] = req["argv"][0]
        docs.update(d)
        reqs += r
    return docs, reqs
