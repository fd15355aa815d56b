"""Generate the frozen request pools and record their goldens.

    python3 ordbench/freeze.py [--workload NAME]

Run from the root of a checkout whose answers are trusted: the goldens
written to ``ordbench/data/<workload>.json`` define what every later run
counts as correct.  For each workload the pool is the union of the
sub-corpora of ``corpus.GEN_SEEDS``.  Exact requests record the exit code,
the error kind and a hash of the response without
``diagnostics.elapsed_ms``; sampled requests record the exact expected
values of their document (from ``interpolate --engine auto``), which the
estimates must match within epsilon.
"""
from __future__ import annotations

import argparse
import json
import sys

import corpus
import run


def freeze(workload: str) -> dict:
    pool = {"workload": workload, "gen_seeds": list(corpus.GEN_SEEDS[workload]),
            "docs": {}, "requests": [], "goldens": {}, "exact_values": {}}
    for gen_seed in corpus.GEN_SEEDS[workload]:
        docs, reqs = corpus.generate(workload, gen_seed)
        pool["docs"].update(docs)
        pool["requests"] += reqs
    paths = run.materialize(pool, run.WORK / "freeze" / workload)
    execute = run.run_subprocess if workload == "cli-mix" else run.run_in_process
    for req in pool["requests"]:
        path = paths[req["doc"]]
        stdin = path.read_text(encoding="utf-8") if req["stdin"] else None
        code, out, err, _ = execute(run.request_argv(req, path, 0), stdin)
        if req["check"] == "golden":
            pool["goldens"][req["id"]] = run.response_golden(code, out, err)
            continue
        if code != 0:
            raise SystemExit(f"{req['id']}: sampled request failed with exit {code}: {err}")
        opts = run.request_options(req["argv"])
        golden = {"exit": 0}
        if req["check"] == "points":
            golden["count"] = int(opts["count"])
        elif req["check"] == "topk-estimate":
            golden["k"] = int(opts["k"])
            golden["select"] = opts["select"].split(",")
        else:
            response = json.loads(out)
            golden["variables"] = sorted(response["results"]["values"])
            golden["samples"] = response["diagnostics"]["samples"]
        pool["goldens"][req["id"]] = golden
        if req["doc"] not in pool["exact_values"]:
            code, out, err, _ = run.run_in_process(
                ["interpolate", str(path), "--engine", "auto", "--threads", "1"], None)
            values = json.loads(out)["results"]["values"]
            pool["exact_values"][req["doc"]] = {k: v["exact"] for k, v in values.items()}
    for req in pool["requests"]:  # the frozen answers must pass their own check
        path = paths[req["doc"]]
        stdin = path.read_text(encoding="utf-8") if req["stdin"] else None
        code, out, err, _ = execute(run.request_argv(req, path, 0), stdin)
        if not run.judge(req, pool, code, out, err)[0]:
            raise SystemExit(f"{req['id']}: frozen answer fails its own check")
    return pool


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=corpus.WORKLOADS)
    args = ap.parse_args()
    run.import_library()
    run.DATA.mkdir(exist_ok=True)
    for workload in [args.workload] if args.workload else corpus.WORKLOADS:
        pool = freeze(workload)
        with open(run.DATA / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(pool, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"{workload}: {len(pool['docs'])} documents, {len(pool['requests'])} requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
