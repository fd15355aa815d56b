"""ordpoly benchmark: golden-checked workloads and a traced run.

    python3 ordbench/run.py --workload cli-mix --seed 1 --seconds 50 --trace 0
    python3 ordbench/run.py --smoke            # every workload once, tiny corpus
    python3 ordbench/run.py --profile --workload engines --gen-seed 9

Run from the root of a checkout; the library is imported from ``src``.
Each workload is a closed loop with one client: the next request is sent
when the previous one has returned.  Requests come from the frozen pool in
``data/<workload>.json`` (see corpus.py and freeze.py); ``--seed`` shuffles
the pool into passes and seeds the sampled requests.  The loop runs one
whole pass and then stops at the first request due after ``--seconds``.
Timings are taken per request (its median over the run) before they are
combined, so a last pass cut short leaves the measured mix unchanged, and
the count metrics cover the whole pool exactly.
Every answer is checked against the frozen goldens after it is timed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` every request is also replayed stage by stage through
the library's public functions (replay.py) and the last line reports the
per-layer metrics.  Earlier lines are a human-readable report: the
environment, the tail percentile used, size lines and every metric with
its unit.  Results (and, traced, the spans) are also written under
``.ordbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".ordbench"
DATA = HERE / "data"

sys.path.insert(0, str(HERE))
import corpus  # noqa: E402

SETUP_REPEATS = 5
POINT_TOLERANCE = 1e-9
REQUEST_TIMEOUT_S = 150
# Which commands' throughput is reported as <command>_req_per_s.
RATE_COMMANDS = ("volume", "interpolate", "marginal", "topk")


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ORDPOLY_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def import_library():
    """Import ordpoly from the checkout's ``src``, never from elsewhere."""
    if not (SRC / "ordpoly" / "__init__.py").is_file():
        raise SystemExit(f"ordbench: no ordpoly package under {SRC}; run from a checkout root")
    os.environ.pop("ORDPOLY_THREADS", None)
    sys.path.insert(0, str(SRC))
    import ordpoly
    import ordpoly.cli

    if Path(ordpoly.__file__).resolve().parent != (SRC / "ordpoly").resolve():
        raise SystemExit(f"ordbench: imported ordpoly from {ordpoly.__file__}, not {SRC}")
    return ordpoly


def environment() -> dict:
    import networkx
    import numpy
    from ordpoly._kernels import numba_available

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "numba": numba_available(),
        "ORDPOLY_NO_NUMBA": os.environ.get("ORDPOLY_NO_NUMBA", ""),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# the frozen pool


def load_pool(workload: str) -> dict:
    with open(DATA / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def materialize(pool: dict, workdir: Path) -> dict[str, Path]:
    """Write every document to ``workdir``; returns doc key -> path."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, doc in pool["docs"].items():
        path = workdir / f"{key}.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        paths[key] = path
    return paths


def request_options(argv: list[str]) -> dict[str, str]:
    """``--name value`` pairs of a request's argv, keyed by name."""
    return {argv[i][2:]: argv[i + 1] for i in range(2, len(argv) - 1) if argv[i].startswith("--")}


def request_argv(req: dict, path: Path, seed: int) -> list[str]:
    doc = "-" if req["stdin"] else str(path)
    return [doc if a == "@DOC" else str(seed) if a == "@SEED" else a for a in req["argv"]]


# ---------------------------------------------------------------------------
# executing one request


def run_in_process(argv: list[str], stdin_text: str | None):
    from ordpoly.cli import run

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        elapsed = time.perf_counter() - start
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue(), elapsed


def run_subprocess(argv: list[str], stdin_text: str | None):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ordpoly", *argv],
        input=stdin_text if stdin_text is not None else "",
        capture_output=True,
        text=True,
        env=_child_env(),
        cwd=ROOT,
        timeout=REQUEST_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    return proc.returncode, proc.stdout, proc.stderr, elapsed


def subprocess_median_s(code: str, repeats: int) -> float:
    """Median wall time of ``python -c code``.  Output is piped so the wait
    ends on end-of-file; a bare wait with a timeout polls in 50 ms steps."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                       capture_output=True, check=True, timeout=REQUEST_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# goldens


def response_golden(code: int, stdout: str, stderr: str) -> dict:
    """What a golden records: exit code, error kind, and the response JSON
    (hashed) without diagnostics.elapsed_ms."""
    golden = {"exit": code, "error": None, "sha256": None, "diagnostics": None}
    if stdout.strip():
        response = json.loads(stdout)
        diagnostics = {k: v for k, v in response.get("diagnostics", {}).items() if k != "elapsed_ms"}
        body = {"command": response["command"], "results": response["results"]}
        text = json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        golden["sha256"] = hashlib.sha256(text.encode()).hexdigest()
        golden["diagnostics"] = diagnostics
    if stderr.strip():
        golden["error"] = json.loads(stderr.strip().splitlines()[-1]).get("error")
    return golden


def _golden_ok(got: dict, want: dict) -> bool:
    if (got["exit"], got["error"], got["sha256"]) != (want["exit"], want["error"], want["sha256"]):
        return False
    # Diagnostics keys added after the freeze are not compared.
    return all((got["diagnostics"] or {}).get(k) == v for k, v in (want["diagnostics"] or {}).items())


def _points_ok(response: dict, doc: dict, count: int) -> bool:
    points = response["results"]["points"]
    pins = {k: float(Fraction(v)) for k, v in doc["exact"].items()}
    if len(points) != count:
        return False
    for p in points:
        if set(p) != set(doc["variables"]):
            return False
        if any(not -POINT_TOLERANCE <= x <= 1 + POINT_TOLERANCE for x in p.values()):
            return False
        if any(p[a] > p[b] + POINT_TOLERANCE for a, b in doc["order"]):
            return False
        if any(abs(p[k] - v) > POINT_TOLERANCE for k, v in pins.items()):
            return False
    return True


def judge(req: dict, pool: dict, code: int, stdout: str, stderr: str) -> tuple[bool, bool, float | None]:
    """(answer is correct, sampled answer misses epsilon, largest sampled
    error or None).

    A sampled answer with the right shape is correct; whether its values
    lie within epsilon of the frozen exact values is reported separately
    as a miss, because the seed sampler does not deliver its stated
    accuracy on correlated draws and every run would otherwise fail.
    """
    want = pool["goldens"][req["id"]]
    kind = req["check"]
    try:
        if kind == "golden":
            return _golden_ok(response_golden(code, stdout, stderr), want), False, None
        if code != want["exit"] or code != 0:
            return False, False, None
        response = json.loads(stdout)
        if kind == "points":
            return _points_ok(response, pool["docs"][req["doc"]], want["count"]), False, None
        exact = {k: float(Fraction(v)) for k, v in pool["exact_values"][req["doc"]].items()}
        eps = corpus.EPSILON
        if kind == "estimate":
            values = {k: float(v["approx"]) for k, v in response["results"]["values"].items()}
            ok = set(values) == set(want["variables"])
            ok = ok and response["diagnostics"].get("samples") == want["samples"]
            err = max(abs(v - exact[k]) for k, v in values.items())
            return ok, err > eps, err
        if kind == "topk-estimate":
            entries = [(e["variable"], float(e["value"]["approx"])) for e in response["results"]["entries"]]
            selected = want["select"]
            ok = (
                len(entries) == want["k"]
                and all(n in selected for n, _ in entries)
                and all(entries[i][1] >= entries[i + 1][1] for i in range(len(entries) - 1))
            )
            err = max(abs(v - exact[k]) for k, v in entries)
            kth = sorted((exact[n] for n in selected), reverse=True)[want["k"] - 1]
            miss = err > eps or any(exact[n] < kth - 2 * eps for n, _ in entries)
            return ok, miss, err
    except (ValueError, KeyError, TypeError):
        return False, False, None
    raise ValueError(f"unknown check kind {kind!r}")


# ---------------------------------------------------------------------------
# statistics


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1]


def smoothed_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: a mean of the order statistics
    weighted by the Beta((n+1)/2, (n+1)/2) distribution.  Unlike the middle
    order statistic it does not jump when the middle of a request mix falls
    in a gap between request sizes."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    t = np.linspace(0.0, 1.0, 100_001)[1:-1]
    log_pdf = ((n + 1) / 2 - 1) * (np.log(t) + np.log1p(-t))
    cdf = np.cumsum(np.exp(log_pdf - log_pdf.max()))
    cdf = np.concatenate(([0.0], cdf / cdf[-1]))
    edges = np.interp(np.arange(n + 1) / n, np.concatenate(([0.0], t)), cdf)
    return float(np.diff(edges) @ x)


def tail_percentile(n: int) -> int:
    """Highest integer percentile (at most 99) with at least ten samples
    beyond it; 50 when there are too few samples for any."""
    for q in range(99, 49, -1):
        if n - (-(-q * n // 100)) >= 10:
            return q
    return 50


# ---------------------------------------------------------------------------
# the closed loop


class Workload:
    def __init__(self, name: str, seed: int, smoke: bool = False):
        self.name = name
        self.seed = seed
        self.subprocess = name == "cli-mix"
        self.execute = run_subprocess if self.subprocess else run_in_process
        self.rng = random.Random(f"{name}/{seed}")
        self.setup_s = self._setup()
        requests = self.pool["requests"]
        if smoke:
            first = f"s{self.pool['gen_seeds'][0]}."
            requests = [r for r in requests if r["id"].startswith(first)]
        self.requests = requests
        self.samples: list[tuple[str, str, float]] = []  # (request id, command, seconds)
        self.passes = 0
        self.attempted = self.failed = 0
        self.estimates = self.misses = 0
        self.max_abs_err = 0.0
        self.replayer = None

    def _setup(self) -> float:
        """Median over repeats of: load pool and goldens, write documents,
        and import the library in a fresh interpreter.  The first repeat
        also compiles bytecode, which later runs find cached."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.pool = load_pool(self.name)
            self.paths = materialize(self.pool, WORK / "docs" / self.name)
            load_s = time.perf_counter() - start
            times.append(load_s + subprocess_median_s("import ordpoly, ordpoly.cli", 1))
        return statistics.median(times)

    def _stdin(self, req: dict) -> str | None:
        return self.paths[req["doc"]].read_text(encoding="utf-8") if req["stdin"] else None

    def one(self, req: dict) -> None:
        argv = request_argv(req, self.paths[req["doc"]], self.rng.randrange(2**31))
        called = time.perf_counter()
        code, out, err, elapsed = self.execute(argv, self._stdin(req))
        returned = time.perf_counter()
        self.attempted += 1
        self.samples.append((req["id"], req["type"], elapsed))
        ok, miss, abs_err = judge(req, self.pool, code, out, err)
        if not ok:
            self.failed += 1
            print(f"FAILED {req['id']}: exit {code} {err.strip()[:200]}", file=sys.stderr)
        if abs_err is not None:
            self.estimates += 1
            self.misses += miss
            self.max_abs_err = max(self.max_abs_err, abs_err)
        if self.replayer is not None:
            self.replayer.replay(req, argv, self.paths[req["doc"]], (called, returned))

    def loop(self, seconds: float) -> None:
        """Shuffled passes over the pool until ``seconds`` have passed,
        the first of them whole, so that every request runs at least once;
        ``passes`` counts the whole ones."""
        deadline = time.perf_counter() + seconds
        while True:
            for req in self.rng.sample(self.requests, len(self.requests)):
                if self.passes and time.perf_counter() >= deadline:
                    return
                self.one(req)
            self.passes += 1

    # -- metrics --------------------------------------------------------

    def failed_ratio(self) -> float:
        """Wrong answers, wrong exit codes, exceptions and sampled
        estimates outside epsilon, over requests attempted."""
        return (self.failed + self.misses) / max(1, self.attempted)

    def end_to_end(self) -> tuple[dict, dict]:
        """The median (smoothed, see smoothed_median) and the throughputs
        use each request's median over the run's passes.  On a shared host
        the processor's speed switches between a fast and a slow state many
        times a minute.  A request's median time follows the share of time
        spent in each state, which changes little from run to run; its
        fastest pass depends on whether one pass happened to fall in a fast
        spell.  The tail is taken over every request of the run, at the
        highest percentile with at least ten requests beyond it."""
        by_request: dict[str, tuple[str, list[float]]] = {}
        for rid, cmd, s in self.samples:
            by_request.setdefault(rid, (cmd, []))[1].append(s)
        typical = {rid: (cmd, statistics.median(times)) for rid, (cmd, times) in by_request.items()}
        typical_ms = [s * 1000 for _, s in typical.values()]
        lat_ms = [s * 1000 for _, _, s in self.samples]
        q = tail_percentile(len(lat_ms))
        metrics = {
            "setup_s": (self.setup_s, "s"),
            "req_p50_ms": (smoothed_median(typical_ms), "ms"),
            "req_tail_ms": (percentile(lat_ms, q), "ms"),
            "req_per_s": (len(typical_ms) / sum(typical_ms) * 1000, "1/s"),
        }
        for cmd in RATE_COMMANDS:
            times = [s for c, s in typical.values() if c == cmd]
            metrics[f"{cmd}_req_per_s"] = (len(times) / sum(times), "1/s")
        who = resource.RUSAGE_CHILDREN if self.subprocess else resource.RUSAGE_SELF
        metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024, "MB")
        notes = {"requests": len(lat_ms), "passes": self.passes, "tail_percentile": q,
                 "failed": self.failed, "estimates": self.estimates, "misses": self.misses,
                 "failed_ratio": self.failed_ratio(),
                 "median_ms": {rid: s * 1000 for rid, (_, s) in sorted(typical.items())}}
        return metrics, notes


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_workload(args) -> int:
    import_library()
    env = environment()
    wl = Workload(args.workload, args.seed)
    print(f"env {json.dumps(env, sort_keys=True)}")
    if args.trace:
        import replay

        wl.replayer = replay.Replayer(wl)
        for line in replay.size_lines(wl.pool):
            print(line)
    wl.loop(args.seconds)
    metrics, notes = wl.end_to_end()
    if args.trace:
        metrics = wl.replayer.per_layer()
    print(f"workload {wl.name} seed {wl.seed} trace {int(args.trace)}: "
          f"{notes['requests']} requests, {notes['passes']} whole passes, "
          f"tail = p{notes['tail_percentile']}, "
          f"{notes['failed']} failed, {notes['misses']} of {notes['estimates']} sampled "
          f"answers outside epsilon, failed_ratio {notes['failed_ratio']:.4f}")
    for k, (v, unit) in metrics.items():
        print(f"  {k:28s} {v:14.6g} {unit}")
    WORK.mkdir(exist_ok=True)
    stem = WORK / f"result-{wl.name}-seed{wl.seed}-trace{int(args.trace)}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "notes": notes,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
                  fh, indent=2)
    if args.trace:
        wl.replayer.tracer.write(Path(f"{stem}.spans.jsonl"))
    print(_result_line(wl.failed == 0, wl.attempted, wl.failed, metrics))
    return 0


def run_smoke(args) -> int:
    """Each workload once over its first sub-corpus, traced, goldens checked."""
    import_library()
    import replay

    attempted = failed = 0
    for name in [args.workload] if args.workload else corpus.WORKLOADS:
        wl = Workload(name, args.seed, smoke=True)
        wl.replayer = replay.Replayer(wl)
        wl.loop(0)
        wl.replayer.per_layer()
        print(f"smoke {name}: {wl.attempted} requests, {wl.failed} failed")
        attempted += wl.attempted
        failed += wl.failed
    metrics = {"smoke_failed": (failed, "count")}
    print(_result_line(failed == 0, attempted, failed, metrics))
    return 0 if failed == 0 else 1


def run_profile(args) -> int:
    """Size lines of one freshly generated sub-corpus (no goldens needed),
    to compare the size profile of generation seeds."""
    import_library()
    import replay

    docs, reqs = corpus.generate(args.workload, args.gen_seed)
    for line in replay.size_lines({"docs": docs, "requests": reqs}):
        print(line)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="every workload once on a tiny corpus")
    ap.add_argument("--profile", action="store_true", help="size lines of --gen-seed's sub-corpus")
    ap.add_argument("--gen-seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.smoke:
        return run_smoke(args)
    if args.workload is None:
        ap.error("--workload is required")
    if args.profile:
        return run_profile(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
