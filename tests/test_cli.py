"""End-to-end tests for the command-line front end.

Every test drives ``cli.run`` in process, capturing stdout/stderr, so the
assertions cover exactly what a shell user sees: the JSON response shape,
the exit code, and the error channel.
"""
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ordpoly
from ordpoly import cli, fileio, model, sampler


def run_cli(argv, stdin_text=None):
    """Invoke the CLI in process; return (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    try:
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


DIAMOND_HALF = {
    "variables": ["x", "y", "yp", "z"],
    "order": [["x", "y"], ["x", "yp"], ["y", "z"], ["yp", "z"], ["x", "z"]],
    "exact": {"yp": "1/2"},
}

# x_l <= x_h with two pinned bystanders very close together.
ULEMMA = {
    "variables": ["x_l", "x_h", "x_fp", "x_fm"],
    "order": [["x_l", "x_h"]],
    "exact": {"x_fp": "0.7", "x_fm": "0.69"},
}

LEMMA_TREE = {
    "variables": ["x_r", "x_a", "x_b", "x_c", "x_d", "x_e"],
    "order": [
        ["x_r", "x_a"],
        ["x_a", "x_b"],
        ["x_b", "x_c"],
        ["x_a", "x_d"],
        ["x_d", "x_e"],
    ],
    "exact": {"x_r": "0", "x_c": "1/2", "x_e": "1"},
}

TWO_CHAIN = {
    "variables": ["xp", "x"],
    "order": [["xp", "x"]],
    "exact": {},
}

CONTRADICTION = {
    "variables": ["a", "b"],
    "order": [["a", "b"]],
    "exact": {"a": "7/10", "b": "3/10"},
}

ANTICHAIN_15 = {
    "variables": [f"u{i}" for i in range(15)],
    "order": [],
    "exact": {},
}

TIED = {
    "variables": ["a", "b"],
    "order": [["a", "b"], ["b", "a"]],
    "exact": {},
}

SEPARATED = {
    "variables": ["a0", "a1", "s", "b0"],
    "order": [["a0", "a1"], ["a1", "s"], ["s", "b0"]],
    "exact": {"s": "1/2"},
}


# ---------------------------------------------------------------------------
# success paths


class TestInterpolate:
    def test_diamond_expected_value_is_exact_half(self, tmp_path):
        path = write_doc(tmp_path, "diamond.json", DIAMOND_HALF)
        code, out, err = run_cli(["interpolate", path, "--var", "y"])
        assert code == 0 and err == ""
        resp = json.loads(out)
        assert resp["command"] == "interpolate"
        assert resp["results"]["values"]["y"]["exact"] == "1/2"
        assert resp["results"]["values"]["y"]["approx"] == "0.5"

    def test_response_formatting_is_stable(self, tmp_path):
        """stdout is exactly the canonical two-space-indented JSON + newline."""
        path = write_doc(tmp_path, "diamond.json", DIAMOND_HALF)
        code, out, _ = run_cli(["interpolate", path, "--var", "y"])
        assert code == 0
        resp = json.loads(out)
        assert out == json.dumps(resp, indent=2, ensure_ascii=False) + "\n"

    def test_all_unknowns_sorted_by_name(self, tmp_path):
        path = write_doc(tmp_path, "diamond.json", DIAMOND_HALF)
        code, out, _ = run_cli(["interpolate", path])
        assert code == 0
        values = json.loads(out)["results"]["values"]
        assert list(values) == sorted(values)
        assert set(values) == {"x", "y", "z"}

    def test_engines_agree_on_tree_instance(self, tmp_path):
        path = write_doc(tmp_path, "lemma.json", LEMMA_TREE)
        _, out_exact, _ = run_cli(["interpolate", path, "--engine", "exact"])
        _, out_tree, _ = run_cli(["interpolate", path, "--engine", "tree"])
        _, out_auto, _ = run_cli(["interpolate", path, "--engine", "auto"])
        ve = json.loads(out_exact)["results"]["values"]
        vt = json.loads(out_tree)["results"]["values"]
        va = json.loads(out_auto)["results"]["values"]
        assert ve == vt == va
        assert ve["x_a"]["exact"] == "3/20"
        assert ve["x_b"]["exact"] == "13/40"
        assert ve["x_d"]["exact"] == "23/40"

    def test_stable_scheme_on_lemma_tree(self, tmp_path):
        path = write_doc(tmp_path, "lemma.json", LEMMA_TREE)
        code, out, _ = run_cli(["interpolate", path, "--scheme", "stable"])
        assert code == 0
        resp = json.loads(out)
        values = resp["results"]["values"]
        assert values["x_a"]["exact"] == "1/6"
        assert values["x_b"]["exact"] == "1/3"
        assert values["x_d"]["exact"] == "7/12"
        assert resp["diagnostics"]["engine"] == "stable"

    def test_stable_scheme_error_names_the_requested_variable(self, tmp_path):
        # u4 and u3 are tied; the class is represented by u3 in the quotient
        doc = {
            "variables": ["u0", "u1", "u2", "u3", "u4"],
            "order": [["u2", "u0"], ["u1", "u0"], ["u0", "u4"], ["u4", "u3"], ["u3", "u4"]],
        }
        path = write_doc(tmp_path, "general.json", doc)
        code, out, err = run_cli(["interpolate", path, "--scheme", "stable", "--var", "u4"])
        assert code == 2 and out == ""
        message = json.loads(err)["message"]
        assert "'u4'" in message and "'u3'" not in message

    def test_sampled_engine_reports_sample_count(self, tmp_path):
        path = write_doc(tmp_path, "chain.json", TWO_CHAIN)
        code, out, _ = run_cli(
            ["interpolate", path, "--engine", "sample", "--var", "x", "--seed", "7"]
        )
        assert code == 0
        resp = json.loads(out)
        val = resp["results"]["values"]["x"]
        assert "exact" not in val  # sampled estimates are floating point
        assert abs(float(val["approx"]) - 2 / 3) < 0.05
        assert resp["diagnostics"]["samples"] >= 2952

    def test_sampled_engine_is_deterministic_per_seed(self, tmp_path):
        path = write_doc(tmp_path, "chain.json", TWO_CHAIN)
        _, out1, _ = run_cli(["interpolate", path, "--engine", "sample", "--seed", "3"])
        _, out2, _ = run_cli(["interpolate", path, "--engine", "sample", "--seed", "3"])
        assert json.loads(out1)["results"] == json.loads(out2)["results"]

    def test_stdin_input(self, tmp_path):
        code, out, _ = run_cli(
            ["interpolate", "-", "--var", "y"], stdin_text=json.dumps(DIAMOND_HALF)
        )
        assert code == 0
        assert json.loads(out)["results"]["values"]["y"]["exact"] == "1/2"

    def test_output_flag_writes_file(self, tmp_path):
        path = write_doc(tmp_path, "diamond.json", DIAMOND_HALF)
        target = tmp_path / "resp.json"
        code, out, _ = run_cli(
            ["interpolate", path, "--var", "y", "--output", str(target)]
        )
        assert code == 0
        assert out == ""
        resp = json.loads(target.read_text(encoding="utf-8"))
        assert resp["results"]["values"]["y"]["exact"] == "1/2"

    def test_diagnostics_include_engine_and_elapsed(self, tmp_path):
        path = write_doc(tmp_path, "diamond.json", DIAMOND_HALF)
        _, out, _ = run_cli(["interpolate", path, "--var", "y"])
        diag = json.loads(out)["diagnostics"]
        assert diag["engine"] == "auto"
        assert isinstance(diag["elapsed_ms"], (int, float)) and diag["elapsed_ms"] >= 0


class TestVolume:
    def test_diamond_volume(self, tmp_path):
        path = write_doc(tmp_path, "diamond.json", DIAMOND_HALF)
        code, out, _ = run_cli(["volume", path, "--engine", "exact"])
        assert code == 0
        # gamma = 1/2: g^2(1-g)/2 + g(1-g)^2/2 = 1/16 + 1/16 = 1/8
        assert json.loads(out)["results"]["volume"]["exact"] == "1/8"

    def test_tree_and_exact_engines_agree(self, tmp_path):
        path = write_doc(tmp_path, "lemma.json", LEMMA_TREE)
        _, out_exact, _ = run_cli(["volume", path, "--engine", "exact"])
        _, out_tree, _ = run_cli(["volume", path, "--engine", "tree"])
        ve = json.loads(out_exact)["results"]["volume"]
        vt = json.loads(out_tree)["results"]["volume"]
        assert ve == vt
        assert ve["exact"] == "5/48"

    def test_tree_engine_rejects_general_shape(self, tmp_path):
        path = write_doc(tmp_path, "diamond.json", DIAMOND_HALF)
        code, out, err = run_cli(["volume", path, "--engine", "tree"])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "limit"


class TestMarginal:
    def test_two_chain_top_density_is_2t(self, tmp_path):
        path = write_doc(tmp_path, "chain.json", TWO_CHAIN)
        code, out, _ = run_cli(["marginal", path, "--var", "x", "--engine", "exact"])
        assert code == 0
        marg = json.loads(out)["results"]["marginal"]
        assert marg["breakpoints"] == ["0", "1"]
        assert marg["pieces"] == [["0", "2"]]
        assert marg["mass"]["exact"] == "1"

    def test_engines_agree(self, tmp_path):
        path = write_doc(tmp_path, "lemma.json", LEMMA_TREE)
        _, out_exact, _ = run_cli(["marginal", path, "--var", "x_a", "--engine", "exact"])
        _, out_tree, _ = run_cli(["marginal", path, "--var", "x_a", "--engine", "tree"])
        assert (
            json.loads(out_exact)["results"]["marginal"]
            == json.loads(out_tree)["results"]["marginal"]
        )

    def test_requires_var(self, tmp_path):
        path = write_doc(tmp_path, "chain.json", TWO_CHAIN)
        code, _, err = run_cli(["marginal", path])
        assert code == 3
        assert json.loads(err)["error"] == "malformed"

    def test_auto_solves_only_the_variables_part(self, tmp_path):
        # Two K2,2 blocks between the same pins: 4 extensions each, 1120
        # for the whole set, so only a per-part solve fits a budget of 100.
        def blocks(*tags):
            names = ["lo", "hi"]
            order = []
            for b in tags:
                low, high = [f"{b}1", f"{b}2"], [f"{b}3", f"{b}4"]
                names += low + high
                order += [["lo", x] for x in low] + [[y, "hi"] for y in high]
                order += [[x, y] for x in low for y in high]
            return {"variables": names, "order": order, "exact": {"lo": "1/10", "hi": "9/10"}}

        both = write_doc(tmp_path, "both.json", blocks("a", "b"))
        one = write_doc(tmp_path, "one.json", blocks("a"))
        budget = ["--var", "a1", "--max-extensions", "100"]
        code, out, err = run_cli(["marginal", both, *budget])
        assert code == 0, err
        _, ref, _ = run_cli(["marginal", one, *budget, "--engine", "exact"])
        assert json.loads(out)["results"] == json.loads(ref)["results"]
        code, _, err = run_cli(["marginal", both, *budget, "--engine", "exact"])
        assert code == 2 and json.loads(err)["lower_bound"] > 100
        code, _, err = run_cli(["marginal", both, *budget, "--engine", "tree"])
        assert code == 2 and json.loads(err)["error"] == "limit"


class TestTopk:
    def test_u_semantics_top1(self, tmp_path):
        path = write_doc(tmp_path, "ulemma.json", ULEMMA)
        code, out, _ = run_cli(
            ["topk", path, "--semantics", "u", "--k", "1",
             "--select", "x_l,x_h,x_fp,x_fm"]
        )
        assert code == 0
        resp = json.loads(out)
        assert resp["results"]["semantics"] == "u"
        assert resp["results"]["variables"] == ["x_h"]

    def test_u_semantics_top2(self, tmp_path):
        path = write_doc(tmp_path, "ulemma.json", ULEMMA)
        code, out, _ = run_cli(
            ["topk", path, "--semantics", "u", "--k", "2",
             "--select", "x_l,x_h,x_fp,x_fm"]
        )
        assert code == 0
        assert json.loads(out)["results"]["variables"] == ["x_fp", "x_fm"]

    def test_local_semantics_ranks_by_expected_value(self, tmp_path):
        path = write_doc(tmp_path, "lemma.json", LEMMA_TREE)
        code, out, _ = run_cli(
            ["topk", path, "--semantics", "local", "--k", "2",
             "--select", "x_a,x_b,x_d"]
        )
        assert code == 0
        resp = json.loads(out)["results"]
        assert resp["variables"] == ["x_d", "x_b"]
        assert resp["entries"][0]["value"]["exact"] == "23/40"

    def test_sampled_topk_local_only(self, tmp_path):
        path = write_doc(tmp_path, "lemma.json", LEMMA_TREE)
        code, _, err = run_cli(
            ["topk", path, "--semantics", "u", "--k", "1",
             "--select", "x_a,x_b", "--engine", "sample"]
        )
        assert code == 3
        assert json.loads(err)["error"] == "malformed"

    def test_bad_semantics_rejected(self, tmp_path):
        path = write_doc(tmp_path, "lemma.json", LEMMA_TREE)
        code, _, err = run_cli(
            ["topk", path, "--semantics", "bogus", "--k", "1", "--select", "x_a"]
        )
        assert code == 3
        assert json.loads(err)["error"] == "malformed"


class TestSample:
    def test_points_are_feasible_and_sorted(self, tmp_path):
        path = write_doc(tmp_path, "lemma.json", LEMMA_TREE)
        code, out, _ = run_cli(["sample", path, "--count", "5", "--seed", "11"])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["count"] == 5 and len(results["points"]) == 5
        for pt in results["points"]:
            assert list(pt) == sorted(pt)
            assert pt["x_r"] == 0.0 and pt["x_c"] == 0.5 and pt["x_e"] == 1.0
            assert 0.0 <= pt["x_a"] <= pt["x_b"] <= pt["x_c"]
            assert pt["x_a"] <= pt["x_d"] <= pt["x_e"]


class TestStructureCommands:
    def test_check_consistent(self, tmp_path):
        path = write_doc(tmp_path, "lemma.json", LEMMA_TREE)
        code, out, err = run_cli(["check", path])
        assert code == 0 and err == ""
        assert json.loads(out)["results"] == {"consistent": True}

    def test_check_contradiction_reports_witness_on_stdout(self, tmp_path):
        path = write_doc(tmp_path, "bad.json", CONTRADICTION)
        code, out, err = run_cli(["check", path])
        assert code == 1
        assert err == ""  # finding a contradiction is check's job, not an error
        results = json.loads(out)["results"]
        assert results["consistent"] is False
        assert results["witness"] == ["a", "b"]
        assert results["message"]

    def test_dim(self, tmp_path):
        path = write_doc(tmp_path, "diamond.json", DIAMOND_HALF)
        code, out, _ = run_cli(["dim", path])
        assert code == 0
        assert json.loads(out)["results"]["dimension"] == 3

    def test_decompose(self, tmp_path):
        path = write_doc(tmp_path, "sep.json", SEPARATED)
        code, out, _ = run_cli(["decompose", path])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["dimension"] == 3
        parts = results["parts"]
        assert [p["unknowns"] for p in parts] == [["a0", "a1"], ["b0"]]
        for p in parts:
            assert "s" in p["pinned"]
            assert p["shape"]

    def test_close_round_trip(self, tmp_path):
        path = write_doc(tmp_path, "diamond.json", DIAMOND_HALF)
        code, out, _ = run_cli(["close", path])
        assert code == 0
        doc = json.loads(out)["results"]["constraints"]
        assert set(doc) == {"variables", "order", "exact"}
        # Closing the closure changes nothing: feed the output back in.
        code2, out2, _ = run_cli(["close", "-"], stdin_text=json.dumps(doc))
        assert code2 == 0
        assert json.loads(out2)["results"]["constraints"] == doc
        # The closure parses into the same set the library builds directly.
        reparsed = fileio.loads(json.dumps(doc))
        assert fileio.dumps(reparsed) == fileio.dumps(
            fileio.loads(json.dumps(doc))
        )

    def test_close_on_contradiction_exits_1(self, tmp_path):
        path = write_doc(tmp_path, "bad.json", CONTRADICTION)
        code, out, err = run_cli(["close", path])
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "contradiction"
        assert payload["witness"] == ["a", "b"]


# ---------------------------------------------------------------------------
# failure paths and exit codes


class TestExitCodes:
    def test_contradiction_is_exit_1(self, tmp_path):
        path = write_doc(tmp_path, "bad.json", CONTRADICTION)
        code, out, err = run_cli(["interpolate", path])
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "contradiction"
        assert payload["witness"] == ["a", "b"]
        assert payload["message"]

    def test_budget_is_exit_2_with_bound(self, tmp_path):
        path = write_doc(tmp_path, "anti.json", ANTICHAIN_15)
        code, out, err = run_cli(["volume", path, "--engine", "exact"])
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "budget"
        assert payload["lower_bound"] > payload["budget"] > 0

    def test_persistent_tie_is_exit_3(self, tmp_path):
        path = write_doc(tmp_path, "tied.json", TIED)
        code, _, err = run_cli(["volume", path, "--engine", "exact"])
        assert code == 3
        assert json.loads(err)["error"] == "persistent-tie"

    def test_invalid_json_is_exit_3(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"variables": ["a", ', encoding="utf-8")
        code, out, err = run_cli(["interpolate", str(path)])
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "malformed"

    def test_unparseable_value_is_exit_3(self, tmp_path):
        path = write_doc(
            tmp_path,
            "badval.json",
            {"variables": ["a"], "order": [], "exact": {"a": "one half"}},
        )
        code, _, err = run_cli(["interpolate", path])
        assert code == 3
        assert json.loads(err)["error"] == "malformed"

    def test_missing_file_is_exit_3(self, tmp_path):
        code, _, err = run_cli(["interpolate", str(tmp_path / "nope.json")])
        assert code == 3
        assert json.loads(err)["error"] == "malformed"

    def test_unknown_variable_is_exit_3(self, tmp_path):
        path = write_doc(tmp_path, "chain.json", TWO_CHAIN)
        code, _, err = run_cli(["interpolate", path, "--var", "nosuch"])
        assert code == 3
        assert json.loads(err)["error"] == "malformed"

    def test_error_payload_is_single_json_line(self, tmp_path):
        path = write_doc(tmp_path, "bad.json", CONTRADICTION)
        _, _, err = run_cli(["interpolate", path])
        lines = err.strip().splitlines()
        assert len(lines) == 1
        json.loads(lines[0])

    def test_usage_error_is_exit_3_not_argparse_2(self, tmp_path):
        # exit 2 is reserved for budget/limit failures; a missing required
        # option is malformed input
        path = write_doc(tmp_path, "lemma.json", LEMMA_TREE)
        code, out, err = run_cli(["topk", path, "--k", "1", "--select", "x_a"])
        assert code == 3
        assert out == ""
        assert json.loads(err.strip())["error"] == "malformed"

    def test_unknown_command_is_exit_3(self):
        code, _, err = run_cli(["frobnicate", "x.json"])
        assert code == 3
        assert json.loads(err.strip())["error"] == "malformed"

    def test_help_exits_zero(self):
        code, _, _ = run_cli(["--help"])
        assert code == 0

    def test_chain_count_above_cap_is_exit_3(self, tmp_path):
        path = write_doc(tmp_path, "chain.json", TWO_CHAIN)
        for chains in (sampler.MAX_CHAINS + 1, 3000):
            code, out, err = run_cli(
                ["interpolate", path, "--engine", "sample", "--chains", str(chains)]
            )
            assert code == 3 and out == ""
            assert json.loads(err)["error"] == "malformed"


# a and b are forced equal; u sits above them.
TIED_WITH_UNKNOWN = {
    "variables": ["a", "b", "u"],
    "order": [["a", "b"], ["b", "a"], ["a", "u"]],
    "exact": {},
}


class TestPersistentTies:
    """Per-variable value queries answer on the tie quotient, where tied
    variables share their class's value; queries about the polytope or the
    order refuse persistent ties."""

    def test_value_queries_answer_on_the_quotient(self, tmp_path):
        path = write_doc(tmp_path, "tied.json", TIED_WITH_UNKNOWN)
        code, out, err = run_cli(["interpolate", path, "--engine", "exact"])
        assert code == 0, err
        exact = json.loads(out)["results"]["values"]
        assert exact["a"] == exact["b"] == {"exact": "1/3", "approx": "0.333333333333"}
        code, out, err = run_cli(["interpolate", path])
        assert code == 0, err
        assert json.loads(out)["results"]["values"] == exact
        code, out, err = run_cli(["interpolate", path, "--scheme", "stable"])
        assert code == 0, err
        stable = json.loads(out)["results"]["values"]
        assert stable["a"] == stable["b"]
        code, out, err = run_cli(
            ["topk", path, "--semantics", "local", "--k", "3", "--select", "a,b,u"]
        )
        assert code == 0, err
        entries = json.loads(out)["results"]["entries"]
        assert [e["variable"] for e in entries] == ["u", "a", "b"]
        assert {e["variable"]: e["value"] for e in entries} == exact

    @pytest.mark.parametrize(
        "argv",
        [["volume"], ["topk", "--semantics", "u", "--k", "1", "--select", "a,u"]],
        ids=["volume", "u-topk"],
    )
    def test_order_queries_refuse(self, tmp_path, argv):
        path = write_doc(tmp_path, "tied.json", TIED_WITH_UNKNOWN)
        code, out, err = run_cli([argv[0], path, *argv[1:]])
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "persistent-tie"


# Two sources below two sinks: a general part.
K22 = {
    "variables": ["a", "b", "c", "d"],
    "order": [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]],
    "exact": {},
}


class TestThreadsFlag:
    """--threads is accepted for compatibility and changes nothing."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["volume"],
            ["volume", "--engine", "exact"],
            ["interpolate"],
            ["interpolate", "--engine", "exact"],
            ["marginal", "--var", "c"],
            ["topk", "--semantics", "u", "--k", "2", "--select", "a,b,c"],
            ["topk", "--semantics", "global", "--k", "2", "--select", "a,b,c,d"],
        ],
        ids=lambda argv: "-".join(argv[:3]),
    )
    def test_thread_count_does_not_change_output(self, tmp_path, argv):
        path = write_doc(tmp_path, "k22.json", K22)
        outputs = []
        for threads in ("1", "4"):
            code, out, err = run_cli([argv[0], path, *argv[1:], "--threads", threads])
            assert code == 0, err
            outputs.append([line for line in out.splitlines() if '"elapsed_ms"' not in line])
        assert outputs[0] == outputs[1]

    def test_non_integer_is_exit_3(self, tmp_path):
        path = write_doc(tmp_path, "k22.json", K22)
        code, out, err = run_cli(["volume", path, "--threads", "abc"])
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "malformed"


# A tree part (a, b, c) and a reverse-tree part (x, y, z) sharing the pins.
TREE_AND_MIRROR = {
    "variables": ["lo", "a", "b", "c", "h1", "h2", "lo2", "lo3", "x", "y", "z", "top"],
    "order": [
        ["lo", "a"], ["a", "b"], ["a", "c"], ["b", "h1"], ["c", "h2"],
        ["lo2", "x"], ["lo3", "y"], ["x", "z"], ["y", "z"], ["z", "top"],
    ],
    "exact": {"lo": "1/10", "h1": "7/10", "h2": "4/5", "lo2": "1/5", "lo3": "3/10", "top": "9/10"},
}


class TestPipelineRunsOnce:
    """A request closes and tie-collapses its input once: at most two
    closure passes, the input's and its tie quotient's."""

    @pytest.mark.parametrize(
        "doc, engine, var",
        [(TREE_AND_MIRROR, "auto", "z"), (DIAMOND_HALF, "auto", "y"), (DIAMOND_HALF, "exact", "y")],
        ids=["tree-and-mirror", "general-dag", "exact-engine"],
    )
    @pytest.mark.parametrize("command", ["volume", "interpolate", "marginal"])
    def test_at_most_two_closure_passes(self, tmp_path, monkeypatch, doc, engine, var, command):
        passes = []
        reachability = model._reachability

        def counted(*args):
            passes.append(args)
            return reachability(*args)

        monkeypatch.setattr(model, "_reachability", counted)
        path = write_doc(tmp_path, "doc.json", doc)
        argv = [command, path, "--engine", engine]
        if command == "marginal":
            argv += ["--var", var]
        code, _, err = run_cli(argv)
        assert code == 0, err
        assert len(passes) <= 2


def test_closed_stdout_is_not_an_error(tmp_path):
    # `ordpoly close big.json | head -1`: the reader is gone before the
    # response (larger than a pipe buffer) is written.
    n = 80
    doc = {"variables": [f"u{i}" for i in range(n)], "order": [[f"u{i}", f"u{i + 1}"] for i in range(n - 1)]}
    path = write_doc(tmp_path, "chain.json", doc)
    _, out, _ = run_cli(["close", path])
    assert len(out) > 64 * 1024
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ordpoly", "close", path],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            cwd=Path(ordpoly.__file__).parents[1],
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0


def test_library_import_leaves_networkx_unloaded():
    # networkx is a test-only dependency (the oracles use it); the sampler
    # needs neither a compiled kernel nor a thread pool
    probe = (
        "import sys, ordpoly, ordpoly.cli; "
        "print([m for m in ('networkx', 'numba', 'concurrent.futures') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        cwd=Path(ordpoly.__file__).parents[1],
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
