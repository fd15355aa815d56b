"""Acceptance gate: seventeen end-to-end criteria, one test each.

Every test prints exactly one line ``[criterion NN] PASS/FAIL — detail``
(replayed in the terminal summary section by conftest) and enforces the
criterion's wall-clock budget.  Expected values are frozen exact
rationals derived independently of the library (closed-form geometry,
brute-force enumeration oracles, classical order-statistic densities).
"""
from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import gen
import oracles
from conftest import record_acceptance
from test_cli import run_cli
from test_tree import lattice_answers

from ordpoly import (
    SHAPE_GENERAL,
    BudgetExceededError,
    ConstraintSet,
    PiecewisePolynomial,
    Polynomial,
    SamplerConfig,
    as_tree,
    check_containment,
    check_stability,
    count_extensions,
    decompose,
    estimate_expected_value,
    global_topk,
    interpolate_all,
    interpolate_decomposed,
    interpolate_exact,
    interpolate_tree,
    local_topk,
    marginal_exact,
    marginal_tree,
    part_skeleton,
    pw_expectation,
    stable_interpolate,
    u_sequence_probabilities,
    u_topk,
    volume_exact,
    volume_tree,
)

F = Fraction


def criterion(cid: str, fn, budget_s: float | None = None) -> None:
    """Run one criterion body, record its PASS/FAIL line, enforce its budget."""
    t0 = time.perf_counter()
    try:
        detail = fn()
        elapsed = time.perf_counter() - t0
        if budget_s is not None:
            assert elapsed < budget_s, (
                f"took {elapsed:.2f}s, over the {budget_s:g}s budget"
            )
    except BaseException as exc:
        elapsed = time.perf_counter() - t0
        record_acceptance(f"[criterion {cid}] FAIL in {elapsed:.2f}s — {exc}")
        raise
    budget_note = f", budget {budget_s:g}s" if budget_s is not None else ""
    record_acceptance(
        f"[criterion {cid}] PASS in {elapsed:.2f}s{budget_note} — {detail}"
    )


# ---------------------------------------------------------------------------
# shared instances


def diamond(gamma: Fraction) -> gen.Doc:
    """x below two parallel middles below z; one middle pinned at gamma."""
    return (
        ["x", "y", "yp", "z"],
        [("x", "y"), ("x", "yp"), ("y", "z"), ("yp", "z"), ("x", "z")],
        {"yp": gamma},
    )


def lemma_tree(extra: dict | None = None) -> ConstraintSet:
    exact = {"x_r": F(0), "x_c": F(1, 2), "x_e": F(1)}
    exact.update(extra or {})
    return ConstraintSet(
        ["x_r", "x_a", "x_b", "x_c", "x_d", "x_e"],
        [("x_r", "x_a"), ("x_a", "x_b"), ("x_b", "x_c"), ("x_a", "x_d"), ("x_d", "x_e")],
        exact,
    )


def u_lemma() -> ConstraintSet:
    return ConstraintSet(
        ["x_l", "x_h", "x_fp", "x_fm"],
        [("x_l", "x_h")],
        {"x_fp": F(7, 10), "x_fm": F(69, 100)},
    )


# ---------------------------------------------------------------------------
# criteria


def test_c01_pinned_middle_diamond():
    def body():
        for gamma, expected in ((F(1, 2), F(1, 2)), (F(1, 4), F(5, 12))):
            cs = gen.to_cs(diamond(gamma))
            assert interpolate_exact(cs, "y") == expected
            # Two admissible ascending orders; the one placing y below the
            # pin has volume g^2(1-g)/2, the other g(1-g)^2/2.
            vols = {
                names.index("y") < names.index("yp"): vol
                for names, vol, _ in oracles.brute_worlds(*diamond(gamma))
            }
            assert vols[True] == gamma**2 * (1 - gamma) / 2
            assert vols[False] == gamma * (1 - gamma) ** 2 / 2
            assert volume_exact(cs) == vols[True] + vols[False]
            doc = {
                "variables": ["x", "y", "yp", "z"],
                "order": [["x", "y"], ["x", "yp"], ["y", "z"], ["yp", "z"], ["x", "z"]],
                "exact": {"yp": str(gamma)},
            }
            code, out, _ = run_cli(
                ["interpolate", "-", "--var", "y"], stdin_text=json.dumps(doc)
            )
            assert code == 0
            assert json.loads(out)["results"]["values"]["y"]["exact"] == str(expected)
        return "E[y]=1/2 and 5/12 at pins 1/2 and 1/4; both extension volumes exact; CLI agrees"

    criterion("01", body, budget_s=1.0)


def test_c02_tree_engine_values_and_pin_update():
    def body():
        cs = lemma_tree()
        assert interpolate_decomposed(cs, "x_a") == F(3, 20)
        assert interpolate_decomposed(cs, "x_b") == F(13, 40)
        assert interpolate_exact(cs, "x_a") == F(3, 20)
        pinned = lemma_tree({"x_b": F(13, 40)})
        assert interpolate_decomposed(pinned, "x_a") == F(611, 4020)
        assert interpolate_exact(pinned, "x_a") == F(611, 4020)
        return "x_a=3/20, x_b=13/40; after pinning x_b at 13/40, x_a=611/4020"

    criterion("02", body, budget_s=1.0)


def test_c03_u_topk_probabilities_and_containment():
    def body():
        cs = u_lemma()
        sel = ["x_l", "x_h", "x_fp", "x_fm"]
        p1 = u_sequence_probabilities(cs, sel, 1)
        assert p1[("x_fp",)] == F(49, 100)
        assert p1[("x_h",)] == F(51, 100)
        p2 = u_sequence_probabilities(cs, sel, 2)
        assert p2[("x_fp", "x_fm")] == F(4761, 10000)
        assert p2[("x_h", "x_fp")] == F(42, 100)
        assert p2[("x_h", "x_l")] == F(9, 100)
        assert p2[("x_fp", "x_h")] == F(139, 10000)
        assert sum(p2.values()) == 1
        assert u_topk(cs, sel, 1).names() == ("x_h",)
        assert u_topk(cs, sel, 2).names() == ("x_fp", "x_fm")
        report = check_containment(cs, sel, "u")
        assert not report.holds and report.violated_at == 1
        assert report.shorter == ("x_h",) and report.longer[:1] != report.shorter
        return (
            "sequence probabilities 49/100, 51/100 (k=1) and 4761/10000, 42/100, "
            "9/100, 139/10000 (k=2); answers (x_h) then (x_fp, x_fm); "
            "containment breaks at k=1"
        )

    criterion("03", body, budget_s=1.0)


def test_c04_global_topk_inclusion_probabilities():
    def body():
        cs = ConstraintSet(
            ["x_l", "x_h", "x_f", "x_s"],
            [("x_l", "x_h")],
            {"x_l": F(45, 100), "x_f": F(73, 100)},
        )
        sel = ["x_h", "x_f", "x_s"]
        assert global_topk(cs, sel, 1).names() == ("x_h",)
        top2 = global_topk(cs, sel, 2)
        assert top2.names()[0] == "x_f"
        probs = {v.name: p for v, p in top2.entries}
        p_f, p_h = probs["x_f"], probs["x_h"]
        assert isinstance(p_f, Fraction) and isinstance(p_h, Fraction)
        # closed-form checks: fail-top-2 events are rectangles/triangles
        assert p_f == F(4771, 5500)
        assert p_h == F(1088, 1375)
        assert p_f > p_h
        return (
            "top-1 is (x_h) yet top-2 starts with x_f: inclusion probabilities "
            "4771/5500 > 4352/5500 exactly"
        )

    criterion("04", body, budget_s=1.0)


def test_c05_local_vs_u_disagreement_and_marginal():
    def body():
        cs = ConstraintSet(["xp", "x", "y"], [("xp", "x")], {"y": F(7, 10)})
        assert local_topk(cs, ["x", "y"], 1).names() == ("y",)
        assert u_topk(cs, ["x", "y"], 1).names() == ("x",)
        pw = marginal_exact(cs, "x").canonical()
        expected = PiecewisePolynomial(
            (F(0), F(1)), (Polynomial.of([F(0), F(2)]),)
        ).canonical()
        assert pw == expected
        return "local top-1 is y (7/10 > 2/3), U top-1 is x; density of x is exactly 2t"

    criterion("05", body, budget_s=1.0)


def test_c06_cross_engine_on_random_trees():
    def body():
        rng = random.Random(6)
        trees = 0
        for _ in range(200):
            cs = gen.to_cs(gen.tree_doc(rng, rng.randint(1, 8)))
            t = as_tree(cs)
            unknowns = t.unknown_nodes()
            probe = rng.choice(unknowns)
            volume, whole, marginals = lattice_answers(cs, [probe.name])
            assert volume_tree(t) == volume
            for u in unknowns:
                assert interpolate_tree(t, u) == whole[u.name]
            assert marginal_tree(t, probe).canonical() == marginals[probe.name]
            trees += 1
        return (
            f"{trees} random trees: volumes, all expected values, and one marginal "
            "each agree exactly with the downset lattice"
        )

    criterion("06", body, budget_s=60.0)


def test_c07_rank_to_value_law():
    def body():
        rng = random.Random(7)
        checked = 0
        for _ in range(100):
            doc = gen.pure_order_doc(rng, rng.randint(1, 7))
            cs = gen.to_cs(doc)
            n = len(doc[0])
            for u in doc[0]:
                rank = oracles.brute_expected_rank(*doc[:2], u)
                assert interpolate_exact(cs, u) == rank / (n + 1)
                checked += 1
        return (
            f"E[x] = (rank averaged over admissible orders)/(n+1) exactly for "
            f"{checked} unknowns over 100 pure-order sets"
        )

    criterion("07", body, budget_s=60.0)


def test_c08_separator_product_law():
    def body():
        rng = random.Random(8)
        parts_seen = 0
        for _ in range(100):
            cs = gen.to_cs(gen.separator_doc(rng))
            d = decompose(cs)
            assert len(d.parts) >= 2
            assert volume_exact(cs) == math.prod(
                volume_exact(part) for part in d.parts
            )
            whole = interpolate_all(cs)
            for class_vars, part in zip(d.classes, d.parts):
                for v in class_vars:
                    assert interpolate_exact(part, v.name) == whole[v.name]
                parts_seen += 1
        return f"100 separated sets ({parts_seen} parts): volumes multiply, per-part values match whole-set values"

    criterion("08", body, budget_s=60.0)


def test_c09_tie_collapse_equivalence():
    def body():
        rng = random.Random(9)
        checked = 0
        for _ in range(100):
            doc = gen.tied_doc(rng, rng.randint(2, 6), rng.randint(1, 2))
            names, order, exact = doc
            cs = gen.to_cs(doc)
            tnames, torder, texact, rep = oracles.merge_ties(names, order, exact)
            _, means = oracles.brute_volume_and_means(tnames, torder, texact)
            for u in names:
                if u in exact:
                    continue
                r = rep[u]
                expected = texact[r] if r in texact else means[r]
                assert interpolate_exact(cs, u) == expected
                checked += 1
        return f"quotient interpolation equals brute force on the tie-free rewriting for {checked} variables"

    criterion("09", body, budget_s=30.0)


def test_c10_chain_order_statistic_marginals():
    def body():
        rng = random.Random(10)
        checked = 0
        for n in range(1, 7):
            for _ in range(4):
                doc = gen.chain_doc(rng, n)
                cs = gen.to_cs(doc)
                a, b = sorted(doc[2].values())
                for i in range(1, n + 1):
                    pw = marginal_exact(cs, f"u{i - 1}").canonical()
                    density = Polynomial.of(oracles.beta_rescaled_coeffs(i, n, a, b))
                    assert pw == PiecewisePolynomial((a, b), (density,)).canonical()
                    checked += 1
        return f"{checked} chain marginals equal the classical rank density rescaled to the pinned interval"

    criterion("10", body, budget_s=10.0)


def test_c11_sampler_accuracy_and_determinism():
    def body():
        rng = random.Random(11)
        hits = 0
        worst = 0.0
        last = None
        for i in range(20):
            doc = gen.mixed_doc(rng, rng.randint(1, 6), rng.randint(0, 2))
            cs = gen.to_cs(doc)
            target = rng.choice([n for n in doc[0] if n not in doc[2]])
            cfg = SamplerConfig(epsilon=0.05, delta=0.05, seed=100 + i)
            est = estimate_expected_value(cs, target, cfg)
            err = abs(est.value - float(interpolate_exact(cs, target)))
            worst = max(worst, err)
            if err <= 0.05:
                hits += 1
            last = (cs, target, cfg, est.value)
        assert hits >= 18, f"only {hits}/20 within 0.05"
        cs, target, cfg, value = last
        rerun = estimate_expected_value(cs, target, cfg)
        assert rerun.value == value  # bit-identical per seed
        return f"{hits}/20 estimates within 0.05 (worst error {worst:.4f}); reruns are bit-identical per seed"

    criterion("11", body, budget_s=300.0)


def test_c12_rejection_sampling_cross_check():
    def body():
        rng = random.Random(29)
        worst_z = 0.0
        for i in range(20):
            doc = gen.mixed_doc(rng, rng.randint(2, 5), rng.randint(0, 1), p=0.3)
            cs = gen.to_cs(doc)
            target = rng.choice([n for n in doc[0] if n not in doc[2]])
            mean, se = oracles.rejection_mean(*doc, target, 100_000, seed=200 + i)
            assert se > 0
            gap = abs(mean - float(interpolate_exact(cs, target)))
            assert gap <= 4 * se, f"instance {i}: gap {gap:.5f} > 4·{se:.5f}"
            worst_z = max(worst_z, gap / se)
        return f"20 DAGs, 100000 accepted points each: worst deviation {worst_z:.2f} standard errors (limit 4)"

    criterion("12", body, budget_s=300.0)


def test_c13_scale_and_budget_guard():
    def body():
        # A branchy random tree: root, unknowns with random parents, one
        # pinned leaf under every childless unknown, padded with extra
        # pinned leaves to exactly 1000 nodes.
        rng = random.Random(13)
        n = 600
        children: dict[int, list[int]] = {i: [] for i in range(n)}
        for i in range(1, n):
            children[rng.randrange(i)].append(i)
        order = [("r", "u0")] + [
            (f"u{p}", f"u{c}") for p, cs_ in children.items() for c in cs_
        ]
        hosts = [i for i in range(n) if not children[i]]
        extra = 1000 - (1 + n + len(hosts))
        assert extra >= 0
        hosts += [rng.randrange(n) for _ in range(extra)]
        names = ["r"] + [f"u{i}" for i in range(n)]
        exact: dict[str, Fraction] = {"r": F(0)}
        for k, host in enumerate(hosts):
            leaf = f"l{k}"
            names.append(leaf)
            order.append((f"u{host}", leaf))
            exact[leaf] = F(1000 + 2 * k + 1, 4000)
        assert len(names) == 1000
        cs = ConstraintSet(names, order, exact)
        t0 = time.perf_counter()
        vol = volume_tree(as_tree(cs))
        dt = time.perf_counter() - t0
        assert vol > 0
        assert dt < 10.0, f"1000-node volume took {dt:.2f}s"

        # Budget guard through a real subprocess: a 15-element antichain
        # wants 15! extensions, far over the default budget.
        doc = {"variables": [f"a{i}" for i in range(15)]}
        proc = subprocess.run(
            [sys.executable, "-m", "ordpoly", "volume", "-", "--engine", "exact"],
            input=json.dumps(doc),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2, f"exit {proc.returncode}: {proc.stderr}"
        payload = json.loads(proc.stderr)
        assert payload["error"] == "budget"
        assert payload["lower_bound"] > payload["budget"] > 0
        return (
            f"1000-node tree volume in {dt:.2f}s (limit 10s); 15-antichain exits 2 "
            f"with lower bound {payload['lower_bound']} over budget {payload['budget']}"
        )

    criterion("13", body)


def test_c14_stable_scheme():
    def body():
        sa = stable_interpolate(as_tree(lemma_tree()))
        assert sa.value_of("x_a") == F(1, 6)
        assert sa.value_of("x_b") == F(1, 3)
        assert sa.value_of("x_d") == F(7, 12)

        rng = random.Random(14)
        for _ in range(50):
            doc = gen.single_unknown_tree_doc(rng)
            _, _, exact = doc
            t = as_tree(gen.to_cs(doc))
            lower = exact["r"]
            upper = min(v for name, v in exact.items() if name != "r")
            assert stable_interpolate(t).value_of("x") == (lower + upper) / 2

        trees = 0
        pins_checked = 0
        while trees < 100:
            doc = gen.tree_doc(rng, rng.randint(1, 4))
            if len(doc[0]) > 10:
                continue
            t = as_tree(gen.to_cs(doc))
            for u in t.unknown_nodes():
                report = check_stability(t, u)
                assert report.stable, report.mismatches
                pins_checked += 1
            trees += 1
        return (
            "lemma-tree values 1/6, 1/3, 7/12; 50 balanced base cases exact; "
            f"re-pinning any of {pins_checked} unknowns over 100 trees moves nothing"
        )

    criterion("14", body, budget_s=60.0)


def test_c15_tree_engine_scale():
    def body():
        rng = random.Random(15)
        t = as_tree(gen.to_cs(gen.tree_doc(rng, 150)))
        unknowns = t.unknown_nodes()
        values = {u: interpolate_tree(t, u) for u in unknowns}
        for u, value in values.items():
            assert t.root_value < value < t.min_leaf_below[u], (u.name, value)
        probes = rng.sample(unknowns, 5)
        for u in probes:
            assert pw_expectation(marginal_tree(t, u)) == values[u]
        return (
            f"{len(t.variables)}-node tree: all {len(unknowns)} expected values inside "
            "(root value, m_u); 5 marginals have exactly those means"
        )

    criterion("15", body, budget_s=30.0)


def test_c16_lattice_beyond_enumeration():
    def body():
        # K_{7,7}: every x_i <= every y_j, 7!·7! = 25,401,600 extensions of
        # volume 1/14! each; the x's hold ranks 1..7 of 14 uniformly.
        xs = [f"x{i}" for i in range(7)]
        ys = [f"y{j}" for j in range(7)]
        doc = {"variables": xs + ys, "order": [[x, y] for x in xs for y in ys]}
        text = json.dumps(doc)
        code, out, err = run_cli(["volume", "-"], text)
        assert code == 0, err
        volume = F(json.loads(out)["results"]["volume"]["exact"])
        assert volume == F(math.factorial(7) ** 2, math.factorial(14))
        code, out, err = run_cli(["interpolate", "-"], text)
        assert code == 0, err
        values = {n: F(v["exact"]) for n, v in json.loads(out)["results"]["values"].items()}
        assert values == {**dict.fromkeys(xs, F(4, 15)), **dict.fromkeys(ys, F(11, 15))}
        code, out, err = run_cli(["marginal", "-", "--var", "x0"], text)
        assert code == 0, err
        coeffs = [F(0)] * 14
        for r in range(1, 8):
            for i, c in enumerate(oracles.beta_rescaled_coeffs(r, 14, F(0), F(1))):
                coeffs[i] += c / 7
        want = PiecewisePolynomial((F(0), F(1)), (Polynomial.of(coeffs),)).canonical()
        got = json.loads(out)["results"]["marginal"]
        assert got["breakpoints"] == [str(b) for b in want.breakpoints]
        assert got["pieces"] == [[str(c) for c in p.coeffs] for p in want.pieces]
        code, _, err = run_cli(["volume", "-", "--engine", "exact"], text)
        assert code == 2 and json.loads(err)["error"] == "budget"

        # The 12-antichain: 12! extensions, every order equally likely.
        names = [f"a{i:02d}" for i in range(12)]
        anti = ConstraintSet(names, [], {})
        for k in range(1, 13):
            top = global_topk(anti, names, k)
            assert top.names() == tuple(names[:k])
            assert all(p == F(k, 12) for _, p in top.entries)
        for k in range(1, 4):
            probs = u_sequence_probabilities(anti, names, k)
            each = F(math.factorial(12 - k), math.factorial(12))
            assert len(probs) == math.factorial(12) // math.factorial(12 - k)
            assert set(probs.values()) == {each}
            top = u_topk(anti, names, k)
            assert top.names() == tuple(names[:k]) and top.entries[0][1] == each
        return (
            "K_{7,7} (25401600 extensions): volume 7!7!/14!, E = 4/15 and 11/15, "
            "x0's marginal the mean of ranks 1..7 of 14, --engine exact exits 2; "
            "12-antichain: global k/12 at every k, u (12-k)!/12! for k <= 3"
        )

    criterion("16", body, budget_s=10.0)


def blocks_doc(rng: random.Random, blocks: int = 6, size: int = 8) -> dict:
    """``blocks`` connected general-shaped blocks of ``size`` unknowns, each
    a random DAG redrawn until it is one general part, every unknown
    between the pins lo = 1/10 and hi = 9/10: one interval that every
    part shares."""
    names, order = ["lo", "hi"], []
    exact = {"lo": F(1, 10), "hi": F(9, 10)}
    for b in range(blocks):
        block = [f"b{b}x{i}" for i in range(size)]
        bounds = [("lo", v) for v in block] + [(v, "hi") for v in block]
        while True:
            topo = rng.sample(block, size)
            edges = [
                (topo[i], topo[j])
                for i in range(size)
                for j in range(i + 1, size)
                if rng.random() < 0.35
            ]
            block_cs = ConstraintSet(["lo", "hi", *block], edges + bounds, exact)
            parts = decompose(block_cs).parts
            if len(parts) == 1 and part_skeleton(parts[0]).shape == SHAPE_GENERAL:
                break
        names += block
        order += edges + bounds
    return {
        "variables": names,
        "order": [list(pair) for pair in order],
        "exact": {"lo": "1/10", "hi": "9/10"},
    }


def test_c17_exact_pre_count_part_by_part():
    def body():
        # The 20-antichain has 20 singleton parts in one shared interval:
        # their counts merge to 20! exactly.
        anti = ConstraintSet([f"a{i:02d}" for i in range(20)], [], {})
        assert count_extensions(anti, math.factorial(20)) == math.factorial(20)
        try:
            count_extensions(anti, math.factorial(20) - 1)
        except BudgetExceededError as exc:
            assert exc.lower_bound == math.factorial(20)
        else:
            raise AssertionError("a budget of 20! - 1 answered")
        # Six independent 8-unknown general blocks between two pins: far
        # over a budget of a million, refused from the parts' own counts.
        doc = blocks_doc(random.Random(17))
        code, out, err = run_cli(
            ["marginal", "-", "--engine", "exact", "--var", "b0x0",
             "--max-extensions", "1000000"],
            json.dumps(doc),
        )
        assert code == 2 and out == "", err
        payload = json.loads(err)
        assert payload["error"] == "budget"
        assert payload["lower_bound"] > payload["budget"] == 1_000_000
        return (
            "20-antichain counts 20! exactly; six 8-unknown blocks exit 2 under "
            f"--engine exact with lower bound {payload['lower_bound']} over budget "
            f"{payload['budget']}"
        )

    criterion("17", body, budget_s=2.0)
