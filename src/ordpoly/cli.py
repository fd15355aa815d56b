"""Command-line front end.

One request per invocation: load a constraint file (JSON; see fileio),
run one command, print a JSON response to stdout (or --output).  Errors
are machine-readable JSON on stderr with exit codes 1 (contradiction),
2 (budget/limit), 3 (malformed input); 0 is success.  `check` prints its
report on stdout and exits 1 when the set is contradictory — finding a
contradiction is that command's job, not a failure of it.

Variables forced equal by the constraints (persistent ties) are one rule
across engines: per-variable value queries (interpolate, marginal, local
top-k, sample) answer on the tie quotient, where tied variables share
their class's value; queries about the polytope or the order (volume,
u/global top-k, decompose) refuse them with exit 3.

Values are reported as {"exact": "p/q", "approx": "..."} — the exact
string appears whenever an exact engine ran; the approx rendering (12
significant digits, round-half-even) is always present.  Variables are
ordered by name so output is byte-stable for golden files.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Sequence

from . import fileio
from .errors import (
    BudgetExceededError,
    ContradictionError,
    LimitExceededError,
    MalformedInputError,
    OrdpolyError,
    PersistentTieError,
    SamplerError,
    ShapeError,
)
from .exact import (
    DEFAULT_BUDGET,
    interpolate_all,
    interpolate_exact,
    marginal_exact,
    volume_exact,
)
from .model import ConstraintSet, Prepared, check_consistency, polytope_dimension
from .poly import PiecewisePolynomial
from .sampler import SamplerConfig, estimate_topk, hit_and_run_sample
from .sampler import _estimate_values  # shared stream for sampled interpolate
from .topk import (
    SEMANTICS_GLOBAL,
    SEMANTICS_LOCAL,
    SEMANTICS_U,
    global_topk,
    local_topk,
    select,
    u_topk,
)
from .tree import (
    STABLE,
    VALUES,
    VOLUME,
    as_tree,
    part_marginal,
    part_values,
    solve_part,
    tree_marginal,
    tree_values,
    volume_tree,
)

__all__ = ["main", "run"]


# ---------------------------------------------------------------------------
# rendering


def _approx_str(value) -> str:
    """12 significant digits, round-half-even, as a string."""
    with localcontext() as ctx:
        ctx.prec = 12
        ctx.rounding = ROUND_HALF_EVEN
        if isinstance(value, Fraction):
            d = Decimal(value.numerator) / Decimal(value.denominator)
        else:
            d = +Decimal(repr(float(value)))
    return str(d)


def _value_json(value) -> dict:
    if isinstance(value, Fraction):
        return {"exact": str(value), "approx": _approx_str(value)}
    return {"approx": _approx_str(value)}


def _marginal_json(pw: PiecewisePolynomial) -> dict:
    return {
        "breakpoints": [str(b) for b in pw.breakpoints],
        "pieces": [[str(c) for c in piece.coeffs] for piece in pw.pieces],
        "mass": _value_json(pw.mass()),
    }


# ---------------------------------------------------------------------------
# commands


def _cmd_check(prep: Prepared, args) -> tuple[dict, int]:
    report = check_consistency(prep.closed)
    if report.ok:
        return {"consistent": True}, 0
    return (
        {
            "consistent": False,
            "message": report.message,
            "witness": [v.name for v in report.witness],
        },
        1,
    )


def _cmd_close(prep: Prepared, args) -> tuple[dict, int]:
    # run() has already rejected contradictory input.
    return {"constraints": json.loads(fileio.dumps(prep.closed))}, 0


def _cmd_decompose(prep: Prepared, args) -> tuple[dict, int]:
    prep.reject_user_ties()
    d = prep.decomposition
    parts = []
    for class_vars, skel in zip(d.classes, d.skeletons):
        unknown_names = sorted(v.name for v in class_vars)
        pinned_names = sorted(
            v.name
            for v in skel.nodes
            if v.id not in skel.quotient.reserved and v.name not in unknown_names
        )
        parts.append(
            {
                "unknowns": unknown_names,
                "pinned": pinned_names,
                "shape": skel.shape,
            }
        )
    parts.sort(key=lambda p: p["unknowns"])
    return {"parts": parts, "dimension": polytope_dimension(prep.ties.quotient)}, 0


def _cmd_dim(prep: Prepared, args) -> tuple[dict, int]:
    return {"dimension": polytope_dimension(prep.ties.quotient)}, 0


def _cmd_volume(prep: Prepared, args) -> tuple[dict, int]:
    if args.engine == "exact":
        vol = volume_exact(prep.closed, budget=args.max_extensions)
    elif args.engine == "tree":
        vol = volume_tree(as_tree(prep.closed))
    else:  # auto
        prep.reject_user_ties()
        vol = Fraction(1)
        for skel in prep.decomposition.skeletons:
            vol *= solve_part(skel, VOLUME, budget=args.max_extensions)
    return {"volume": _value_json(vol)}, 0


def _cmd_interpolate(prep: Prepared, args) -> tuple[dict, int]:
    cs = prep.source
    if args.var is not None:
        names = [cs.resolve(args.var).name]
    else:
        names = sorted(v.name for v in cs.unknowns())
    diagnostics: dict = {}
    if args.scheme == "stable" or args.engine == "auto":
        query = STABLE if args.scheme == "stable" else VALUES
        values = part_values(prep, names, query, args.max_extensions)
    elif args.engine == "sample":
        values, diagnostics["samples"] = _estimate_values(
            prep.closed, names, _sampler_config(args), args.chains
        )
    elif args.engine == "exact":
        if len(names) == 1:
            values = {
                names[0]: interpolate_exact(prep.closed, names[0], budget=args.max_extensions)
            }
        else:  # every unknown
            values = interpolate_all(prep.closed, budget=args.max_extensions)
    else:  # tree
        values = tree_values(prep, names)
    return (
        {"values": {n: _value_json(values[n]) for n in sorted(values)}},
        0,
        diagnostics,
    )


def _cmd_marginal(prep: Prepared, args) -> tuple[dict, int]:
    if args.var is None:
        raise MalformedInputError("marginal requires --var")
    name = prep.source.resolve(args.var).name
    if args.engine == "exact":
        pw = marginal_exact(prep.closed, name, budget=args.max_extensions)
    elif args.engine == "tree":
        pw = tree_marginal(prep, name)
    else:  # auto
        pw = part_marginal(prep, name, args.max_extensions)
    return {"variable": name, "marginal": _marginal_json(pw)}, 0


def _cmd_topk(prep: Prepared, args) -> tuple[dict, int]:
    if args.select is None:
        raise MalformedInputError("topk requires --select a,b,c")
    if args.k is None:
        raise MalformedInputError("topk requires --k")
    names = [s.strip() for s in args.select.split(",") if s.strip()]
    sel = select(prep.source, names)
    if args.engine == "sample":
        if args.semantics != SEMANTICS_LOCAL:
            raise MalformedInputError(
                "sampled top-k supports the local semantics only"
            )
        ranked = estimate_topk(prep.closed, sel, args.k, _sampler_config(args), args.chains)
    else:
        fn = {
            SEMANTICS_LOCAL: local_topk,
            SEMANTICS_U: u_topk,
            SEMANTICS_GLOBAL: global_topk,
        }.get(args.semantics)
        if fn is None:
            raise MalformedInputError(
                f"semantics must be local|u|global, not {args.semantics!r}"
            )
        ranked = fn(prep.closed, sel, args.k, budget=args.max_extensions).entries
    entries = [{"variable": v.name, "value": _value_json(val)} for v, val in ranked]
    return {
        "semantics": args.semantics,
        "k": args.k,
        "variables": [e["variable"] for e in entries],
        "entries": entries,
    }, 0


def _cmd_sample(prep: Prepared, args) -> tuple[dict, int]:
    cfg = _sampler_config(args)
    points = [
        {n: float(v) for n, v in sorted(p.as_dict().items())}
        for p in hit_and_run_sample(prep.closed, cfg, args.count)
    ]
    return {"count": len(points), "points": points}, 0


_COMMANDS = {
    "check": _cmd_check,
    "close": _cmd_close,
    "decompose": _cmd_decompose,
    "dim": _cmd_dim,
    "volume": _cmd_volume,
    "interpolate": _cmd_interpolate,
    "marginal": _cmd_marginal,
    "topk": _cmd_topk,
    "sample": _cmd_sample,
}


# ---------------------------------------------------------------------------
# plumbing


def _sampler_config(args) -> SamplerConfig:
    return SamplerConfig(
        epsilon=args.epsilon,
        delta=args.delta,
        burn_in=args.burn_in,
        thinning=args.thinning,
        seed=args.seed,
    )


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 (malformed input), not argparse's default 2,
    which is reserved for budget/limit failures."""

    def error(self, message: str):
        print(
            json.dumps({"error": "malformed", "message": message}, ensure_ascii=False),
            file=sys.stderr,
        )
        raise SystemExit(3)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="ordpoly",
        description="Interpolation, volumes, marginals, and top-k over "
        "order/exact-value constraint sets (file format: JSON with "
        "variables/order/exact).",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("check", "consistency check with witness chain"),
        ("close", "output the closure as a constraint document"),
        ("decompose", "independent components and their shapes"),
        ("dim", "dimension of the admissible polytope"),
        ("volume", "polytope volume"),
        ("interpolate", "expected values (or stable-scheme values)"),
        ("marginal", "piecewise-polynomial marginal density of one variable"),
        ("topk", "top-k under local, u, or global semantics"),
        ("sample", "almost-uniform feasible points"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("input", help="constraint file path, or - for stdin")
        p.add_argument("--output", help="write the JSON response here instead of stdout")
        p.add_argument(
            "--max-extensions",
            type=int,
            default=DEFAULT_BUDGET,
            help="linear-extension budget for the exact engine",
        )
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="accepted for compatibility; has no effect",
        )
        if name in ("volume", "interpolate", "marginal", "topk"):
            engines = {
                "volume": ("auto", "exact", "tree"),
                "interpolate": ("auto", "exact", "tree", "sample"),
                "marginal": ("auto", "exact", "tree"),
                "topk": ("exact", "sample"),
            }[name]
            p.add_argument(
                "--engine",
                choices=engines,
                default=engines[0],
                help="engine choice (auto prefers tree-shaped parts)",
            )
        if name in ("interpolate", "marginal"):
            p.add_argument("--var", help="variable name (interpolate default: all unknowns)")
        if name == "interpolate":
            p.add_argument(
                "--scheme",
                choices=("uniform", "stable"),
                default="uniform",
                help="uniform-expectation or stable-balanced values",
            )
        if name == "topk":
            p.add_argument("--semantics", required=True, help="local | u | global")
            p.add_argument("--k", type=int, required=True)
            p.add_argument("--select", required=True, help="comma-separated variable names")
        if name == "sample":
            p.add_argument("--count", type=int, default=10, help="points to emit")
        if name in ("interpolate", "topk", "sample"):
            p.add_argument("--epsilon", type=float, default=0.05)
            p.add_argument("--delta", type=float, default=0.05)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--burn-in", type=int, default=None, dest="burn_in")
            p.add_argument("--thinning", type=int, default=None)
            p.add_argument(
                "--chains",
                type=int,
                default=1,
                help="independent chains run one after another, seeded "
                "seed ... seed+N-1 (at most 64; sample accepts and ignores it)",
            )
    return ap


def _load(path: str) -> ConstraintSet:
    if path == "-":
        return fileio.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return fileio.load(fh)


def _error_json(kind: str, err: Exception, **extra) -> str:
    payload = {"error": kind, "message": str(err), **extra}
    return json.dumps(payload, ensure_ascii=False)


def run(argv: Sequence[str]) -> int:
    """Parse argv, execute, print; returns the exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # usage error (3) or --help (0)
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        prep = Prepared(_load(args.input))
        if args.command != "check":
            # Gate every command on consistency up front so shortcuts that
            # read pinned values directly cannot answer for an empty polytope.
            # `check` is exempt: reporting inconsistency is its result.
            report = check_consistency(prep.closed)
            if not report.ok:
                raise ContradictionError(
                    report.message, tuple(v.name for v in report.witness)
                )
        outcome = _COMMANDS[args.command](prep, args)
        if len(outcome) == 3:
            results, code, diagnostics = outcome
        else:
            results, code = outcome
            diagnostics = {}
    except ContradictionError as err:
        print(_error_json("contradiction", err, witness=list(err.witness)), file=sys.stderr)
        return 1
    except BudgetExceededError as err:
        print(
            _error_json("budget", err, budget=err.budget, lower_bound=err.lower_bound),
            file=sys.stderr,
        )
        return 2
    except (ShapeError, LimitExceededError, SamplerError) as err:
        print(_error_json("limit", err), file=sys.stderr)
        return 2
    except PersistentTieError as err:
        print(_error_json("persistent-tie", err), file=sys.stderr)
        return 3
    except (MalformedInputError, OSError, json.JSONDecodeError) as err:
        print(_error_json("malformed", err), file=sys.stderr)
        return 3
    except OrdpolyError as err:  # safety net: library error without a mapping
        print(_error_json("error", err), file=sys.stderr)
        return 3
    elapsed_ms = round((time.perf_counter() - started) * 1000, 3)
    diagnostics.setdefault("engine", getattr(args, "engine", None) or args.command)
    if getattr(args, "scheme", None) == "stable":
        diagnostics["engine"] = "stable"
    diagnostics["elapsed_ms"] = elapsed_ms
    response = {"command": args.command, "results": results, "diagnostics": diagnostics}
    text = json.dumps(response, indent=2, ensure_ascii=False)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # Reader gone: stdout to devnull, so the exit-time flush cannot raise.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
