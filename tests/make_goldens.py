"""The golden differential corpus: requests and what ``cli.run`` answered.

    PYTHONPATH=src python tests/make_goldens.py     # rewrite tests/goldens.json

The corpus draws its requests from three sources:

* documents from fixed ``tests/gen`` seeds, each asked every command under
  every engine, the stable scheme, local/u/global top-k, budget guards and
  sampled requests;
* every request of the benchmark's frozen pools (``ordbench/data``), whose
  documents are copied into the golden file so that a later re-freeze of
  the pools leaves the corpus as it is; a request with a seed is asked
  once per seed of ``POOL_SEEDS``;
* hostile inputs: contradictions, ties, bad numbers, bad encodings, deep
  nesting, unwritable outputs, out-of-range flags and sizes.

For each request the file stores the exit code and the SHA-256 of stdout
and of stderr, with ``elapsed_ms`` and the temporary directory masked.
``test_goldens.py`` replays the corpus in process and requires every
answer byte for byte; rewriting the file prints the ids whose answer
changed, which a change lists with its reason.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
POOLS = HERE.parent / "ordbench" / "data"
POOL_SEEDS = (3, 11)
GEN_DOCS = 70
SAMPLED = ["--epsilon", "0.3"]

_ELAPSED = re.compile(r'"elapsed_ms": [-+0-9.eE]+')


# ---------------------------------------------------------------------------
# documents


def _doc_json(doc) -> dict:
    names, order, exact = doc
    return {
        "variables": list(names),
        "order": [list(pair) for pair in order],
        "exact": {n: str(v) for n, v in exact.items()},
    }


def gen_docs() -> dict[str, dict]:
    """``GEN_DOCS`` small documents of every generator, seed by seed."""
    import gen

    makers = [
        lambda r: gen.mixed_doc(r, r.randint(1, 6), r.randint(0, 3), r.choice([0.1, 0.3, 0.6])),
        lambda r: gen.tree_doc(r, r.randint(2, 8)),
        lambda r: gen.chain_doc(r, r.randint(1, 5)),
        lambda r: gen.separator_doc(r, 3),
        lambda r: gen.tied_doc(r, r.randint(3, 6), r.randint(1, 2)),
        lambda r: gen.pure_order_doc(r, r.randint(2, 6)),
        gen.single_unknown_tree_doc,
        gen.forest_doc,
    ]
    docs = {}
    for seed in range(GEN_DOCS):
        rng = random.Random(1000 + seed)
        docs[f"gen{seed}"] = _doc_json(makers[seed % len(makers)](rng))
    return docs


def gen_requests(key: str, doc: dict, seed: int) -> list[dict]:
    """Every command on one generated document."""
    unknowns = sorted(set(doc["variables"]) - set(doc["exact"]))
    var = unknowns[0] if unknowns else doc["variables"][0]
    chosen = ",".join(sorted(doc["variables"])[:4])
    argvs = [["check"], ["close"], ["decompose"], ["dim"]]
    for engine in ("auto", "exact", "tree"):
        argvs += [
            ["volume", "--engine", engine],
            ["interpolate", "--engine", engine],
            ["marginal", "--engine", engine, "--var", var],
        ]
    argvs += [
        ["interpolate", "--scheme", "stable"],
        ["volume", "--engine", "exact", "--max-extensions", "3"],
        ["volume", "--max-extensions", "1"],
        ["interpolate", "--engine", "sample", "--seed", str(seed), *SAMPLED],
        ["sample", "--count", "3", "--seed", str(seed)],
        ["topk", "--engine", "sample", "--semantics", "local", "--k", "2",
         "--select", chosen, "--seed", str(seed), *SAMPLED],
    ]
    for semantics in ("local", "u", "global"):
        argvs.append(["topk", "--semantics", semantics, "--k", "2", "--select", chosen])
    argvs.append(["topk", "--semantics", "u", "--k", "2", "--select", chosen,
                  "--max-extensions", "2"])
    return [
        {"id": f"{key}:{i}", "doc": key, "argv": [argv[0], "@DOC", *argv[1:]], "stdin": False}
        for i, argv in enumerate(argvs)
    ]


def pool_corpus() -> tuple[dict[str, dict], list[dict]]:
    """The frozen pools' documents and requests, seeds substituted."""
    docs: dict[str, dict] = {}
    requests: list[dict] = []
    for path in sorted(POOLS.glob("*.json")):
        pool = json.loads(path.read_text(encoding="utf-8"))
        workload = path.stem
        for key, doc in pool["docs"].items():
            docs[f"{workload}:{key}"] = doc if isinstance(doc, dict) else {"text": doc}
        for req in pool["requests"]:
            seeds = POOL_SEEDS if "@SEED" in req["argv"] else (None,)
            for seed in seeds:
                argv = [str(seed) if a == "@SEED" else a for a in req["argv"]]
                rid = f"{workload}:{req['id']}" + ("" if seed is None else f"@{seed}")
                requests.append(
                    {"id": rid, "doc": f"{workload}:{req['doc']}", "argv": argv,
                     "stdin": req["stdin"]}
                )
    return docs, requests


def hostile_corpus() -> tuple[dict[str, dict], list[dict]]:
    """Inputs that must take their contract exit code, and their requests."""
    chain = {"variables": ["xp", "x"], "order": [["xp", "x"]], "exact": {}}
    latin1 = b'{"variables": ["a\xff"]}'
    docs = {
        "h:chain": chain,
        "h:contradiction": {"variables": ["a", "b"], "order": [["a", "b"]],
                            "exact": {"a": "7/10", "b": "3/10"}},
        "h:tied": {"variables": ["a", "b", "u"], "order": [["a", "b"], ["b", "a"], ["a", "u"]]},
        "h:antichain15": {"variables": [f"u{i}" for i in range(15)]},
        "h:diamond": {"variables": ["x", "y", "yp", "z"],
                      "order": [["x", "y"], ["x", "yp"], ["y", "z"], ["yp", "z"], ["x", "z"]],
                      "exact": {"yp": "1/2"}},
        "h:pinned-chain": {"variables": ["r", "a", "b"], "order": [["r", "a"], ["a", "b"]],
                           "exact": {"r": "0", "b": "1/2"}},
        "h:pinned": {"variables": ["a"], "exact": {"a": "1/2"}},
        "h:tiny": {"variables": ["a", "b"], "order": [["a", "b"]], "exact": {"a": "1e-5000"}},
        "h:long-pin": {"variables": ["a"], "exact": {"a": "0." + "1" * 5000}},
        "h:huge-pin": {"variables": ["a"], "exact": {"a": "1e999999"}},
        "h:bad-value": {"variables": ["a"], "exact": {"a": "one half"}},
        "h:dup": {"variables": ["a", "a"]},
        "h:unknown-edge": {"variables": ["a"], "order": [["a", "b"]]},
        "h:broken": {"text": '{"variables": ["a", '},
        "h:deep": {"text": '{"variables": ' + "[" * 5000 + "]" * 5000 + "}"},
        "h:huge-int": {"text": '{"variables": ["a"], "exact": {"a": ' + "1" * 5000 + "}}"},
        "h:utf16": {"hex": (b"\xff\xfe" + '{"variables": ["a"]}'.encode("utf-16-le")).hex()},
        "h:latin1": {"hex": latin1.hex()},
    }
    argvs: list[tuple[str | None, list[str], bool]] = [
        ("h:contradiction", ["interpolate", "@DOC"], False),
        ("h:contradiction", ["check", "@DOC"], False),
        ("h:contradiction", ["volume", "@DOC", "--engine", "exact"], False),
        ("h:tied", ["volume", "@DOC", "--engine", "exact"], False),
        ("h:tied", ["decompose", "@DOC"], False),
        ("h:tied", ["interpolate", "@DOC"], False),
        ("h:tied", ["topk", "@DOC", "--semantics", "u", "--k", "1", "--select", "a,u"], False),
        ("h:antichain15", ["volume", "@DOC", "--engine", "exact"], False),
        ("h:antichain15", ["topk", "@DOC", "--semantics", "global", "--k", "2",
                           "--select", "u0,u1,u2", "--max-extensions", "100"], False),
        ("h:broken", ["interpolate", "@DOC"], False),
        ("h:bad-value", ["interpolate", "@DOC"], False),
        ("h:dup", ["check", "@DOC"], False),
        ("h:unknown-edge", ["check", "@DOC"], False),
        (None, ["interpolate", "@TMP/nope.json"], False),
        ("h:chain", ["interpolate", "@DOC", "--var", "nosuch"], False),
        ("h:chain", ["topk", "@DOC", "--k", "1", "--select", "x"], False),
        (None, ["frobnicate", "x.json"], False),
        ("h:chain", ["volume", "@DOC", "--output", "@TMP/no/such/out.json"], False),
        ("h:chain", ["volume", "@DOC", "--output", "@TMP"], False),
        ("h:deep", ["volume", "@DOC"], False),
        ("h:huge-int", ["volume", "@DOC"], False),
        ("h:huge-pin", ["volume", "@DOC"], False),
        ("h:utf16", ["volume", "@DOC"], False),
        ("h:latin1", ["volume", "@DOC"], False),
        ("h:latin1", ["volume", "-"], True),
        ("h:latin1", ["close", "-"], True),
        ("h:tiny", ["volume", "@DOC"], False),
        ("h:tiny", ["interpolate", "@DOC"], False),
        ("h:tiny", ["close", "@DOC"], False),
        ("h:long-pin", ["volume", "@DOC"], False),
        ("h:pinned", ["sample", "@DOC", "--count", str(10**20)], False),
        ("h:chain", ["sample", "@DOC", "--count", str(10**20)], False),
        ("h:chain", ["sample", "@DOC", "--count", "-1"], False),
        ("h:chain", ["interpolate", "@DOC", "--engine", "sample", "--epsilon", "1e-9"], False),
        ("h:chain", ["interpolate", "@DOC", "--engine", "sample", "--epsilon", "1e-200"], False),
        ("h:chain", ["interpolate", "@DOC", "--engine", "sample", "--epsilon", "2"], False),
        ("h:chain", ["topk", "@DOC", "--semantics", "u", "--k", "0", "--select", "x"], False),
        ("h:chain", ["topk", "@DOC", "--engine", "sample", "--semantics", "u", "--k", "1",
                     "--select", "x"], False),
    ]
    for chains in ("65", "3000", "0", "-2"):
        argvs.append(("h:chain", ["interpolate", "@DOC", "--engine", "sample",
                                  "--chains", chains], False))
    for argv in (
        ["sample", "@DOC", "--count", "3"],
        ["interpolate", "@DOC", "--engine", "sample"],
        ["interpolate", "@DOC", "--engine", "sample", "--chains", "3"],
        ["topk", "@DOC", "--engine", "sample", "--k", "1", "--select", "x,xp"],
    ):
        argvs.append(("h:chain", [*argv, "--seed", "-1"], False))
    for argv in (
        ["volume", "@DOC", "--engine", "exact"],
        ["volume", "@DOC"],
        ["topk", "@DOC", "--semantics", "u", "--k", "1", "--select", "y,yp"],
    ):
        argvs.append(("h:diamond", [*argv, "--max-extensions", "-1"], False))
    for key, var in (("h:pinned-chain", "a"), ("h:diamond", "x")):
        for argv in (
            ["volume"],
            ["interpolate"],
            ["marginal", "--var", var],
            ["topk", "--semantics", "local", "--k", "1", "--select", var],
        ):
            argvs.append((key, [argv[0], "@DOC", *argv[1:], "--max-extensions", "-1"], False))
    requests = [
        {"id": f"hostile:{i}", "doc": key, "argv": argv, "stdin": stdin}
        for i, (key, argv, stdin) in enumerate(argvs)
    ]
    return docs, requests


def corpus() -> tuple[dict[str, dict], list[dict]]:
    """Every document and request of the corpus."""
    docs, requests = pool_corpus()
    for seed, (key, doc) in enumerate(gen_docs().items()):
        docs[key] = doc
        requests += gen_requests(key, doc, seed)
    hostile_docs, hostile_requests = hostile_corpus()
    docs.update(hostile_docs)
    return docs, requests + hostile_requests


# ---------------------------------------------------------------------------
# asking and replaying


def _doc_bytes(doc: dict) -> bytes:
    if "hex" in doc:
        return bytes.fromhex(doc["hex"])
    if "text" in doc:
        return doc["text"].encode("utf-8")
    return json.dumps(doc).encode("utf-8")


def _digest(text: str, tmp: str) -> str:
    masked = _ELAPSED.sub('"elapsed_ms": 0', text).replace(tmp, "@TMP")
    return hashlib.sha256(masked.encode("utf-8", "surrogateescape")).hexdigest()


def ask(req: dict, docs: dict[str, dict], tmp: str) -> dict:
    """Run one request through ``cli.run`` in process, stdin (when the
    request reads it) holding the document's bytes as the interpreter
    would open them; returns its exit code and masked output hashes."""
    from ordpoly import cli

    data = _doc_bytes(docs[req["doc"]]) if req["doc"] else b""
    path = Path(tmp) / "doc.json"
    path.write_bytes(data)
    doc = "-" if req["stdin"] else str(path)
    argv = [doc if a == "@DOC" else a.replace("@TMP", tmp) for a in req["argv"]]
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = stdin
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    finally:
        sys.stdin = saved
    return {"exit": code, "stdout": _digest(out.getvalue(), tmp),
            "stderr": _digest(err.getvalue(), tmp)}


def load() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def replay(goldens: dict, stop_at_first: bool = False) -> list[str]:
    """The ids of the requests whose answer differs from the golden file."""
    docs = goldens["docs"]
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        for req in goldens["requests"]:
            got = ask(req, docs, tmp)
            if got != {k: req[k] for k in got}:
                differ.append(req["id"])
                if stop_at_first:
                    break
    return differ


def _write(docs: dict, requests: list[dict]) -> None:
    """One document and one request per line, so a change's diff names
    exactly the answers it moved."""
    lines = ['{"docs": {']
    lines += [
        f"  {json.dumps(k)}: {json.dumps(v, ensure_ascii=False)}," for k, v in docs.items()
    ]
    lines[-1] = lines[-1].rstrip(",")
    lines.append('}, "requests": [')
    lines += [f"  {json.dumps(r, ensure_ascii=False)}," for r in requests]
    lines[-1] = lines[-1].rstrip(",")
    lines.append("]}")
    GOLDENS.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> None:
    sys.path.insert(0, str(HERE))
    docs, requests = corpus()
    old = {r["id"]: r for r in load()["requests"]} if GOLDENS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        for req in requests:
            req.update(ask(req, docs, tmp))
    _write(docs, requests)
    changed = [r["id"] for r in requests if r["id"] in old and old[r["id"]] != r]
    added = sum(1 for r in requests if r["id"] not in old)
    print(f"{len(requests)} requests written; {added} new; {len(changed)} changed")
    for rid in changed:
        print("changed:", rid)


if __name__ == "__main__":
    main()
