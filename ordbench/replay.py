"""Traced, stage-by-stage replay of benchmark requests.

For every request the traced run first times the untraced CLI call, then
replays the same work through the library's public functions, one span
per stage: load -> close -> consistency -> collapse -> decompose ->
skeleton -> engine.  Rendering and dispatch are not replayed; they are
left in ``cli.overhead_ms``, the CLI call's time minus the staged sum
(for cli-mix also minus interpreter start and imports).  Where a public
function redoes an earlier stage internally (``decompose`` collapses ties
again, ``tree_from_part`` rebuilds the skeleton, the exact folds run their
own budget guard), that work lands in the later stage, so the overhead
can be small or negative.

Spans carry name, start, end, parent and request id; they are kept in
memory and written as JSON lines when the run ends.
"""
from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from run import percentile, request_options, subprocess_median_s

from ordpoly import (
    SHAPE_GENERAL,
    SHAPE_REVERSE_TREE,
    SHAPE_TREE,
    BudgetExceededError,
    ConstraintSet,
    OrdpolyError,
    SamplerConfig,
    ShapeError,
    check_consistency,
    close_under_implication,
    collapse_ties,
    count_extensions,
    decompose,
    estimate_topk,
    fileio,
    flip_constraints,
    global_topk,
    hit_and_run_sample,
    interior_point,
    interpolate_all,
    interpolate_decomposed,
    interpolate_tree,
    local_topk,
    marginal_exact,
    marginal_tree,
    part_skeleton,
    polytope_dimension,
    stable_interpolate,
    tree_from_part,
    u_topk,
    volume_exact,
    volume_tree,
)

STAGE_METRICS = (
    "fileio.load", "model.close", "model.consistency", "model.collapse",
    "model.decompose", "model.skeleton",
    "tree.build", "tree.volume", "tree.interpolate", "tree.marginal", "tree.stable",
    "exact.count", "exact.volume", "exact.interpolate", "exact.marginal",
    "topk.local", "topk.u", "topk.global",
    "sampler.setup", "sampler.estimate",
)
COUNT_METRICS = (
    "model.parts", "model.nodes", "tree.nodes", "exact.extensions",
    "sampler.steps", "sampler.samples",
)
_FOLDS = ("exact.volume", "exact.interpolate", "exact.marginal")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.request = 0

    def record(self, name: str, start: float, end: float, parent: int | None) -> int:
        self.spans.append((name, start, end, parent, self.request))
        return len(self.spans) - 1

    def self_times(self, first: int) -> dict[str, float]:
        """Self seconds per span name, for spans recorded since ``first``."""
        covered: dict[int, float] = {}
        for name, start, end, parent, _ in self.spans[first:]:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans[first:], first):
            out[name] = out.get(name, 0.0) + (end - start) - covered.get(i, 0.0)
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, rid) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": rid}) + "\n")


class _Stop(Exception):
    """The replayed request ends here (an error the CLI would report)."""


class Replayer:
    def __init__(self, workload):
        self.workload = workload
        self.tracer = Tracer()
        self.stage_s = dict.fromkeys(STAGE_METRICS, 0.0)
        self.counts_by_request: dict[str, dict[str, int]] = {}
        self.fold_extensions = 0
        self.steps_run = 0
        self.overhead_s: list[float] = []
        self.traced_s: list[float] = []
        self.untraced_s: list[float] = []
        self._dimension: dict[str, int] = {}
        # Interpreter start and library import, each in a fresh process.
        self.start_s = subprocess_median_s("pass", 5)
        self.import_s = subprocess_median_s("import ordpoly, ordpoly.cli", 5) - self.start_s

    # -- spans ----------------------------------------------------------

    def _stage(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except OrdpolyError as err:
            if isinstance(err, ShapeError) and name == "tree.build":
                raise
            raise _Stop(name) from err
        finally:
            self.tracer.record(name, start, time.perf_counter(), self._root)

    # -- replay ---------------------------------------------------------

    def replay(self, req: dict, argv: list[str], path: Path, called: tuple[float, float]) -> None:
        """Replay ``req`` after its untraced CLI call, which ran over the
        perf_counter interval ``called``."""
        tr = self.tracer
        tr.request += 1
        first = len(tr.spans)
        request_s = called[1] - called[0]
        tr.record("request", *called, None)
        counts: dict[str, int] = dict.fromkeys(COUNT_METRICS, 0)
        start = time.perf_counter()
        self._root = tr.record("replay", start, start, None)
        try:
            self._replay(req, argv, path, counts)
        except _Stop:
            pass
        end = time.perf_counter()
        tr.spans[self._root] = ("replay", start, end, None, tr.request)
        staged = tr.self_times(first)
        for s in STAGE_METRICS:
            self.stage_s[s] += staged.get(s, 0.0)
        startup = self.start_s + self.import_s if self.workload.subprocess else 0.0
        self.overhead_s.append(request_s - startup - sum(staged.get(s, 0.0) for s in STAGE_METRICS))
        self.traced_s.append(end - start + startup)
        self.untraced_s.append(request_s)
        self.counts_by_request[req["id"]] = counts
        if any(staged.get(f) for f in _FOLDS):
            self.fold_extensions += counts["exact.extensions"]
        self.steps_run += counts["sampler.steps"]

    def _replay(self, req, argv, path, counts) -> None:
        command, opts = argv[0], request_options(argv)
        stage = self._stage
        if req["stdin"]:
            cs = stage("fileio.load", fileio.loads, path.read_text(encoding="utf-8"))
        else:
            cs = stage("fileio.load", fileio.load, path)
        closed = stage("model.close", close_under_implication, cs)
        report = stage("model.consistency", check_consistency, closed)
        if command in ("check", "close") or not report.ok:
            return
        budget = int(opts.get("max-extensions", 10_000_000))
        engine = opts.get("engine", "auto")
        if engine == "sample" or command == "sample":
            return self._sampled(req, cs, command, opts, counts)
        if command == "topk":
            fn = {"local": local_topk, "u": u_topk, "global": global_topk}[opts["semantics"]]
            stage(f"topk.{opts['semantics']}", fn, cs, opts["select"].split(","),
                  int(opts["k"]), budget=budget)
            return
        if engine == "exact":
            counts["exact.extensions"] = stage("exact.count", count_extensions, cs, budget)
            if command == "volume":
                stage("exact.volume", volume_exact, cs, budget=budget)
            elif command == "marginal":
                stage("exact.marginal", marginal_exact, cs, opts["var"], budget=budget)
            else:
                stage("exact.interpolate", interpolate_all, cs, budget=budget)
            return
        stage("model.collapse", collapse_ties, closed)
        if command == "dim":
            return
        d = stage("model.decompose", decompose, cs)
        skeletons = stage("model.skeleton", lambda: [part_skeleton(p) for p in d.parts])
        counts["model.parts"] = len(d.parts)
        counts["model.nodes"] = sum(len(s.nodes) for s in skeletons)
        if command == "decompose":
            stage("model.collapse", polytope_dimension, cs)
            return
        if command == "volume":
            wanted = {i: [] for i in range(len(d.parts))}
        else:
            names = [opts["var"]] if "var" in opts else [v.name for v in cs.unknowns()]
            wanted = {}
            for n in names:
                if n in d.part_index:  # pinned and tied-away names have no part
                    wanted.setdefault(d.part_index[n], []).append(n)
        for i, names in sorted(wanted.items()):
            self._part(cs, d.parts[i], skeletons[i], names, command, opts, budget, counts)

    def _part(self, cs, part, skel, names, command, opts, budget, counts) -> None:
        stage = self._stage
        stable = opts.get("scheme") == "stable"
        treeish = skel.shape in (SHAPE_TREE, SHAPE_REVERSE_TREE)
        if treeish or (skel.shape != SHAPE_GENERAL and (stable or command == "marginal")):
            flipped = skel.shape == SHAPE_REVERSE_TREE
            try:
                t = stage("tree.build", lambda: tree_from_part(flip_constraints(part) if flipped else part))
            except ShapeError:
                t = None  # a total order with interior pins; closed form below
            if t is not None:
                counts["tree.nodes"] += len(t.variables)
                if stable:
                    stage("tree.stable", stable_interpolate, t)
                elif command == "volume":
                    stage("tree.volume", volume_tree, t)
                elif command == "marginal":
                    stage("tree.marginal", marginal_tree, t, names[0])
                else:
                    stage("tree.interpolate", lambda: [interpolate_tree(t, n) for n in names])
                return
        if command == "interpolate" and skel.shape != SHAPE_GENERAL:
            stage("tree.interpolate", lambda: [interpolate_decomposed(part, n) for n in names])
            return
        if command == "marginal":
            # The CLI falls back to the exact engine on the whole set.
            counts["exact.extensions"] += stage("exact.count", count_extensions, cs, budget)
            stage("exact.marginal", marginal_exact, cs, names[0], budget=budget)
            return
        counts["exact.extensions"] += stage("exact.count", count_extensions, part, budget)
        if command == "volume":
            stage("exact.volume", volume_exact, part, budget=budget)
        else:
            stage("exact.interpolate", interpolate_all, part, budget=budget)

    def _sampled(self, req, cs: ConstraintSet, command, opts, counts) -> None:
        stage = self._stage
        cfg = SamplerConfig(
            epsilon=float(opts.get("epsilon", 0.05)),
            delta=float(opts.get("delta", 0.05)),
            burn_in=int(opts["burn-in"]) if "burn-in" in opts else None,
            thinning=int(opts["thinning"]) if "thinning" in opts else None,
            seed=int(opts.get("seed", 0)),
        )
        if req["doc"] not in self._dimension:
            self._dimension[req["doc"]] = polytope_dimension(cs)
        burn_in, thinning = cfg.resolved(self._dimension[req["doc"]])
        stage("sampler.setup", interior_point, cs)
        if command == "sample":
            samples = int(opts.get("count", 10))
            stage("sampler.estimate", lambda: list(hit_and_run_sample(cs, cfg, samples)))
        else:
            samples = cfg.sample_count()
            if command == "topk":
                names, k = opts["select"].split(","), int(opts["k"])
            else:
                names = [opts["var"]] if "var" in opts else [v.name for v in cs.unknowns()]
                k = len(names)
            stage("sampler.estimate", estimate_topk, cs, names, k, cfg, 1)
        counts["sampler.samples"] = samples
        counts["sampler.steps"] = burn_in + samples * thinning

    # -- metrics --------------------------------------------------------

    def per_layer(self) -> dict:
        n = len(self.untraced_s)
        ms = lambda s: s * 1000
        out = {
            "cli.start_ms": (ms(self.start_s), "ms"),
            "cli.import_ms": (ms(self.import_s), "ms"),
        }
        for s in STAGE_METRICS:
            out[f"{s}_ms"] = (ms(self.stage_s[s]) / n, "ms")
        out["cli.overhead_ms"] = (ms(statistics.fmean(self.overhead_s)), "ms")
        totals = dict.fromkeys(COUNT_METRICS, 0)
        for counts in self.counts_by_request.values():
            for k, v in counts.items():
                totals[k] += v
        for k in COUNT_METRICS:
            out[k] = (totals[k], "count")
        fold_s = sum(self.stage_s[f] for f in _FOLDS)
        out["exact.extensions_per_s"] = (self.fold_extensions / fold_s if fold_s else 0.0, "1/s")
        est_s = self.stage_s["sampler.estimate"]
        out["sampler.us_per_step"] = (est_s * 1e6 / self.steps_run if self.steps_run else 0.0, "us")
        wl = self.workload
        out["sampler.max_abs_err"] = (wl.max_abs_err, "abs")
        out["failed_ratio"] = (wl.failed_ratio(), "ratio")
        traced = percentile([ms(s) for s in self.traced_s], 50)
        untraced = percentile([ms(s) for s in self.untraced_s], 50)
        out["trace.req_p50_ms"] = (traced, "ms")
        out["trace.overhead_pct"] = ((traced / untraced - 1) * 100, "%")
        parts = [f"{s}_ms" for s in STAGE_METRICS] + ["cli.overhead_ms"]
        if wl.subprocess:
            parts += ["cli.start_ms", "cli.import_ms"]
        accounted = sum(out[k][0] for k in parts)
        print(f"accounting: stage self times + cli.overhead_ms"
              f"{' + start + import' if wl.subprocess else ''} = {accounted:.3f} ms per request; "
              f"mean untraced request = {ms(statistics.fmean(self.untraced_s)):.3f} ms; "
              f"{n} requests")
        return out


def size_lines(pool: dict) -> list[str]:
    """One line per parseable document: unknowns, parts with their shapes,
    extension counts of non-tree parts, tree nodes, sampler dimension and
    the kernel steps of the sampled requests on it."""
    steps: dict[str, set[int]] = {}
    for r in pool["requests"]:
        opts = request_options(r["argv"])
        if "burn-in" in opts:
            cfg = SamplerConfig(float(opts["epsilon"]), float(opts["delta"]))
            n = int(opts["count"]) if r["type"] == "sample" else cfg.sample_count()
            steps.setdefault(r["doc"], set()).add(int(opts["burn-in"]) + n * int(opts["thinning"]))
    lines = []
    for key, doc in pool["docs"].items():
        if isinstance(doc, str):
            lines.append(f"size {key}: malformed text ({len(doc)} bytes)")
            continue
        cs = ConstraintSet(doc["variables"], [tuple(e) for e in doc["order"]], doc["exact"])
        if not check_consistency(cs).ok:
            lines.append(f"size {key}: contradictory, {len(doc['variables'])} variables")
            continue
        parts = decompose(cs).parts
        shapes, extensions, tree_nodes = [], [], 0
        for p in parts:
            skel = part_skeleton(p)
            shapes.append(skel.shape)
            if skel.shape in (SHAPE_TREE, SHAPE_REVERSE_TREE):
                tree_nodes += len(skel.nodes)
            else:
                try:
                    extensions.append(count_extensions(p))
                except BudgetExceededError as err:
                    extensions.append(f">{err.lower_bound}")
        line = (f"size {key}: unknowns={len(cs.unknowns())} parts={len(parts)} "
                f"shapes={','.join(sorted(set(shapes)))} extensions={extensions or '-'} "
                f"tree_nodes={tree_nodes}")
        if key in steps:
            line += f" dimension={polytope_dimension(cs)} steps={sorted(steps[key])}"
        lines.append(line)
    return lines
