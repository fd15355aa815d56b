"""End-to-end tests for the command-line front end.

Every test drives ``cli.run`` in process, capturing stdout/stderr, so the
assertions cover exactly what a shell user sees: the JSON response shape,
the exit code, and the error channel.
"""
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gen
import ordpoly
from ordpoly import cli, fileio, lattice, model, sampler


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

# One unknown between two pins.
PINNED_CHAIN = {
    "variables": ["r", "a", "b"],
    "order": [["r", "a"], ["a", "b"]],
    "exact": {"r": "0", "b": "1/2"},
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
        argv = ["interpolate", path, "--engine", "sample", "--seed", "3", "--chains", "3"]
        _, out3, _ = run_cli(argv)
        _, out4, _ = run_cli(argv)
        assert json.loads(out3)["results"] == json.loads(out4)["results"]

    def test_sampled_responses_name_their_sampler(self, tmp_path):
        # the lemma tree's lattice is small: exact draws; 16 unknowns below
        # one are at least 2^16 downsets, beyond the bound: hit-and-run
        star = {
            "variables": [f"s{i}" for i in range(16)] + ["top"],
            "order": [[f"s{i}", "top"] for i in range(16)],
            "exact": {},
        }
        fast = ["--epsilon", "0.5", "--burn-in", "50", "--thinning", "1"]
        for doc, drawn_by in ((LEMMA_TREE, "exact"), (star, "hit-and-run")):
            path = write_doc(tmp_path, "doc.json", doc)
            selection = ",".join(v for v in doc["variables"] if v not in doc["exact"])
            for argv in (
                ["interpolate", path, "--engine", "sample"],
                ["topk", path, "--engine", "sample", "--semantics", "local",
                 "--k", "2", "--select", selection],
                ["sample", path, "--count", "3"],
            ):
                code, out, err = run_cli(argv + fast)
                assert code == 0, err
                assert json.loads(out)["diagnostics"]["sampler"] == drawn_by, argv

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

    def test_one_parser_serves_every_request(self, tmp_path):
        cli._build_parser.cache_clear()
        path = write_doc(tmp_path, "chain.json", TWO_CHAIN)
        for argv in (["volume", path], ["interpolate", path], ["--help"], ["dim", path]):
            assert run_cli(argv)[0] == 0, argv
        code, out, err = run_cli(["topk", path, "--k", "1", "--select", "x"])
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "malformed"
        assert run_cli(["volume", path])[0] == 0
        assert cli._build_parser.cache_info().misses == 1

    def test_unwritable_output_is_exit_3(self, tmp_path):
        path = write_doc(tmp_path, "chain.json", TWO_CHAIN)
        for target in (tmp_path / "no" / "such" / "out.json", tmp_path):
            code, out, err = run_cli(["volume", path, "--output", str(target)])
            assert code == 3 and out == "", target
            payload = json.loads(err)
            assert payload["error"] == "malformed", target
            assert str(target) in payload["message"], target
        # a text stdin (no bytes beneath) can hold a name that is not UTF-8
        out_path = str(tmp_path / "out.json")
        code, out, err = run_cli(
            ["close", "-", "--output", out_path], stdin_text='{"variables": ["a\udcff"]}'
        )
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "malformed"

    def test_chain_count_above_cap_is_exit_3(self, tmp_path):
        path = write_doc(tmp_path, "chain.json", TWO_CHAIN)
        for chains in (sampler.MAX_CHAINS + 1, 3000):
            code, out, err = run_cli(
                ["interpolate", path, "--engine", "sample", "--chains", str(chains)]
            )
            assert code == 3 and out == ""
            assert json.loads(err)["error"] == "malformed"

    def test_chain_count_below_one_is_exit_3(self, tmp_path):
        path = write_doc(tmp_path, "chain.json", TWO_CHAIN)
        for chains in (0, -2):
            code, out, err = run_cli(
                ["interpolate", path, "--engine", "sample", "--chains", str(chains)]
            )
            assert code == 3 and out == ""
            assert json.loads(err)["error"] == "malformed"

    def test_negative_seed_is_exit_3(self, tmp_path):
        path = write_doc(tmp_path, "chain.json", TWO_CHAIN)
        for argv in (
            ["sample", path, "--count", "3"],
            ["interpolate", path, "--engine", "sample"],
            ["interpolate", path, "--engine", "sample", "--chains", "3"],
            ["topk", path, "--engine", "sample", "--k", "1", "--select", "x,xp"],
        ):
            code, out, err = run_cli([*argv, "--seed", "-1"])
            assert code == 3 and out == "", argv
            assert json.loads(err)["error"] == "malformed", argv

    def test_negative_budget_is_exit_3(self, tmp_path):
        path = write_doc(tmp_path, "diamond.json", DIAMOND_HALF)
        for argv in (
            ["volume", path, "--engine", "exact"],
            ["volume", path],
            ["topk", path, "--semantics", "u", "--k", "1", "--select", "y,yp"],
        ):
            code, out, err = run_cli([*argv, "--max-extensions", "-1"])
            assert code == 3 and out == "", argv
            assert json.loads(err)["error"] == "malformed", argv

    @pytest.mark.parametrize(
        "doc, var", [(PINNED_CHAIN, "a"), (LEMMA_TREE, "x_a")], ids=["pinned-chain", "tree"]
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["volume"],
            ["interpolate"],
            ["marginal", "--var", "@VAR"],
            ["topk", "--semantics", "local", "--k", "1", "--select", "@VAR"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_budget_is_exit_3_on_any_shape(self, tmp_path, doc, var, argv):
        # closed forms and tree parts never consult the budget
        path = write_doc(tmp_path, "doc.json", doc)
        argv = [var if a == "@VAR" else a for a in argv]
        code, out, err = run_cli([argv[0], path, *argv[1:], "--max-extensions", "-1"])
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "malformed"


    def test_exact_rationals_of_any_size_render(self, tmp_path):
        # answers past Python's 4300-digit int -> str cap render in full,
        # while the document itself is still parsed under the cap
        cap = sys.get_int_max_str_digits()
        doc = {"variables": ["a", "b"], "order": [["a", "b"]], "exact": {"a": "1e-5000"}}
        path = write_doc(tmp_path, "tiny.json", doc)
        expected = {
            "volume": ("9" * 5000 + "/1" + "0" * 5000, lambda r: r["volume"]["exact"]),
            "interpolate": (
                "1" + "0" * 4999 + "1/2" + "0" * 5000,
                lambda r: r["values"]["b"]["exact"],
            ),
            "close": ("1/1" + "0" * 5000, lambda r: r["constraints"]["exact"]["a"]),
        }
        for command, (text, read) in expected.items():
            code, out, err = run_cli([command, path])
            assert (code, err) == (0, ""), command
            assert read(json.loads(out)["results"]) == text, command
            assert sys.get_int_max_str_digits() == cap, command
        long_pin = write_doc(
            tmp_path, "long.json", {"variables": ["a"], "exact": {"a": "0." + "1" * 5000}}
        )
        code, _, err = run_cli(["volume", long_pin])
        assert code == 3 and json.loads(err)["error"] == "malformed"

    def test_hostile_documents_are_exit_3(self, tmp_path, monkeypatch):
        deep = tmp_path / "deep.json"
        deep.write_text('{"variables": ' + "[" * 200_000 + "]" * 200_000 + "}", encoding="utf-8")
        huge_int = tmp_path / "int.json"
        huge_int.write_text(
            '{"variables": ["a"], "exact": {"a": ' + "1" * 5000 + "}}", encoding="utf-8"
        )
        huge_pin = write_doc(tmp_path, "pin.json", {"variables": ["a"], "exact": {"a": "1e999999"}})
        not_utf8 = tmp_path / "utf16.json"
        not_utf8.write_bytes(b"\xff\xfe" + '{"variables": ["a"]}'.encode("utf-16-le"))
        latin1 = b'{"variables": ["a\xff"]}'
        (tmp_path / "latin1.json").write_bytes(latin1)
        # stdin as the interpreter opens it under a C locale, decoding with
        # surrogateescape: the bytes beneath are read as a file's are
        stdin = io.TextIOWrapper(io.BytesIO(latin1), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr(sys, "stdin", stdin)
        for path in (str(deep), str(huge_int), huge_pin, str(not_utf8), "-",
                     str(tmp_path / "latin1.json")):
            code, out, err = run_cli(["volume", path])
            assert code == 3 and out == "", path
            assert json.loads(err)["error"] == "malformed", path
        message = json.loads(run_cli(["volume", huge_pin])[2])["message"]
        assert message == "exact value out of [0, 1]: a = '1e999999'"

    def test_hostile_sampler_sizes_are_exit_2(self, tmp_path):
        path = write_doc(tmp_path, "chain.json", TWO_CHAIN)
        for argv, named in (
            (
                ["interpolate", "--engine", "sample", "--epsilon", "1e-9"],
                "7377758908227871744 points of dimension 2",
            ),
            (["sample", "--count", str(10**20)], f"{10**20} points of dimension 2"),
            (["interpolate", "--engine", "sample", "--epsilon", "1e-200"], "epsilon 1e-200"),
        ):
            code, out, err = run_cli([argv[0], path, *argv[1:]])
            assert code == 2 and out == "", argv
            payload = json.loads(err)
            assert payload["error"] == "limit", argv
            assert named in payload["message"], argv
        pinned = write_doc(tmp_path, "pinned.json", {"variables": ["a"], "exact": {"a": "1/2"}})
        code, out, err = run_cli(["sample", pinned, "--count", str(10**20)])
        assert code == 2 and out == ""
        assert f"{10**20} points of dimension 0" in json.loads(err)["message"]


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


# r is pinned at 0, so closing ties it to the lower bound.
PINNED_AT_ZERO = {
    "variables": ["r", "a", "b", "c"],
    "order": [["r", "a"], ["a", "b"], ["r", "c"]],
    "exact": {"r": "0", "b": "1/2"},
}

SAMPLED = ["--engine", "sample", "--epsilon", "0.3"]

# A general part {x, y, z} around the pin yp, and the free unknown w.
GENERAL_AND_FREE = {
    "variables": ["x", "y", "yp", "z", "w"],
    "order": [["x", "y"], ["x", "yp"], ["y", "z"], ["yp", "z"]],
    "exact": {"yp": "1/2"},
}


class TestPipelineRunsOnce:
    """A request closes and tie-collapses its input once: one closure
    pass, which also finds the tie quotient's order, and one ``Prepared``
    that every engine reads.  It finds the quotient's covers once and
    builds each part's lattice form at most once."""

    @pytest.mark.parametrize(
        "doc, engine, var",
        [
            (TREE_AND_MIRROR, "auto", "z"),
            (DIAMOND_HALF, "auto", "y"),
            (DIAMOND_HALF, "exact", "y"),
            (PINNED_AT_ZERO, "auto", "a"),
        ],
        ids=["tree-and-mirror", "general-dag", "exact-engine", "pinned-at-zero"],
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
        assert len(passes) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["check"],
            ["close"],
            ["decompose"],
            ["dim"],
            ["volume"],
            ["interpolate"],
            ["interpolate", *SAMPLED],
            ["interpolate", "--scheme", "stable"],
            ["marginal", "--var", "a"],
            *(["topk", "--semantics", s, "--k", "2", "--select", "a,c"] for s in ("local", "u", "global")),
            ["topk", "--semantics", "local", "--k", "2", "--select", "a,c", *SAMPLED],
            ["sample", "--count", "3"],
        ],
        ids=lambda argv: "-".join(a.lstrip("-") for a in argv if a not in ("--k", "2", "--select", "a,c")),
    )
    def test_one_pipeline_per_request(self, tmp_path, monkeypatch, argv):
        built = []
        init = model.Prepared.__init__

        def counted(prep, cs):
            built.append(cs)
            init(prep, cs)

        monkeypatch.setattr(model.Prepared, "__init__", counted)
        path = write_doc(tmp_path, "doc.json", PINNED_AT_ZERO)
        code, _, err = run_cli([argv[0], path, *argv[1:]])
        assert code == 0, err
        assert len(built) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["check"],
            ["close"],
            ["decompose"],
            ["dim"],
            *(["volume", "--engine", e] for e in ("auto", "exact")),
            *(["interpolate", "--engine", e] for e in ("auto", "exact")),
            ["interpolate", *SAMPLED],
            *(["marginal", "--var", "y", "--engine", e] for e in ("auto", "exact")),
            *(["topk", "--semantics", s, "--k", "2", "--select", "y,z,w"] for s in ("local", "u", "global")),
            ["topk", "--semantics", "local", "--k", "2", "--select", "y,z,w", *SAMPLED],
            ["sample", "--count", "3"],
        ],
        ids=lambda argv: "-".join(a.lstrip("-") for a in argv if a not in ("--k", "2", "--select", "y,z,w", "--var", "y")),
    )
    def test_covers_once_and_each_part_prepared_once(self, tmp_path, monkeypatch, argv):
        covers, prepared = [], []
        cover_edges, prepare = model._cover_edges, lattice._prepare
        monkeypatch.setattr(model, "_cover_edges", lambda q: covers.append(q) or cover_edges(q))
        monkeypatch.setattr(lattice, "_prepare", lambda *a: prepared.append(a[0]) or prepare(*a))
        path = write_doc(tmp_path, "doc.json", GENERAL_AND_FREE)
        code, _, err = run_cli([argv[0], path, *argv[1:]])
        assert code == 0, err
        # check, close and dim never need the covers
        assert len(covers) == (argv[0] not in ("check", "close", "dim"))
        # two parts, neither prepared twice
        assert len(prepared) <= 2
        assert len({id(skel) for skel in prepared}) == len(prepared)


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
    # needs neither a compiled kernel nor a thread pool; the package and the
    # CLI load an engine (and numpy with the sampler) when a command first
    # needs it
    probe = (
        "import sys, ordpoly, ordpoly.cli; "
        "print([m for m in ('networkx', 'numba', 'concurrent.futures', 'numpy', "
        "'ordpoly.lattice', 'ordpoly.sampler', 'ordpoly.topk', 'ordpoly.stable') "
        "if m in sys.modules])"
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


@pytest.mark.parametrize(
    "argv, loads_numpy, unloaded",
    [
        (["volume"], False, ["ordpoly.exact", "ordpoly.lattice"]),
        (["sample", "--count", "2"], True, ["ordpoly.topk", "ordpoly.tree", "ordpoly.exact"]),
    ],
    ids=["volume", "sample"],
)
def test_only_sampling_loads_numpy(tmp_path, argv, loads_numpy, unloaded):
    # and sampling loads no exact engine
    path = write_doc(tmp_path, "lemma.json", LEMMA_TREE)
    probe = (
        "import sys; from ordpoly import cli; "
        "code = cli.run(sys.argv[1:]); "
        f"print(code, 'numpy' in sys.modules, [m for m in {unloaded!r} if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, argv[0], path, *argv[1:]],
        capture_output=True,
        text=True,
        cwd=Path(ordpoly.__file__).parents[1],
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == f"0 {loads_numpy} []"


# ---------------------------------------------------------------------------
# one per-part dispatch: --engine tree answers like auto, or refuses a
# general part


def _cli_doc(doc) -> dict:
    names, order, exact = doc
    return {
        "variables": list(names),
        "order": [list(edge) for edge in order],
        "exact": {name: str(value) for name, value in exact.items()},
    }


def _mirrored(doc: dict) -> dict:
    return {
        "variables": doc["variables"],
        "order": [[b, a] for a, b in doc["order"]],
        "exact": {n: str(1 - Fraction(v)) for n, v in doc["exact"].items()},
    }


def _dispatch_docs() -> dict:
    docs = {
        # two tree parts (a, b) and (x, y) and a chain part (c) under one root
        "forest": {
            "variables": ["r", "a", "b", "la", "lb", "c", "lc", "x", "y", "lx", "ly"],
            "order": [
                ["r", "a"], ["a", "la"], ["a", "b"], ["b", "lb"], ["r", "c"], ["c", "lc"],
                ["r", "x"], ["x", "lx"], ["x", "y"], ["y", "ly"],
            ],
            "exact": {"r": "1/10", "la": "1/2", "lb": "3/5", "lc": "9/10",
                      "lx": "7/10", "ly": "4/5"},
        },
        "tree-and-mirror": TREE_AND_MIRROR,
        "reverse-tree": _mirrored(LEMMA_TREE),
        "chain": {
            "variables": ["lo", "a", "b", "hi"],
            "order": [["lo", "a"], ["a", "b"], ["b", "hi"]],
            "exact": {"lo": "1/10", "hi": "9/10"},
        },
        "separated": SEPARATED,
        "fully-pinned": {
            "variables": ["a", "b", "c"],
            "order": [["a", "b"], ["b", "c"]],
            "exact": {"a": "0", "b": "1/2", "c": "1"},
        },
        "diamond": DIAMOND_HALF,
    }
    for seed in range(3):
        tree = _cli_doc(gen.tree_doc(random.Random(seed), 3 + seed, extra_leaf_p=0.5))
        docs[f"tree-{seed}"] = tree
        docs[f"tree-{seed}-mirrored"] = _mirrored(tree)
    for seed in range(4):
        sep = _cli_doc(gen.separator_doc(random.Random(seed)))
        docs[f"separator-{seed}"] = sep
        docs[f"separator-{seed}-mirrored"] = _mirrored(sep)
    return docs


_DISPATCH_DOCS = _dispatch_docs()


class TestTreeEngineDispatch:
    """`--engine tree` answers part by part like `auto`, equal to `exact`,
    and refuses a general part (exit 2 `limit`) naming the variable asked."""

    @staticmethod
    def _general_unknowns(doc: dict) -> set:
        d = model.decompose(fileio.loads(json.dumps(doc)))
        return {
            name
            for name, part_no in d.part_index.items()
            if d.skeletons[part_no].shape == model.SHAPE_GENERAL
        }

    @staticmethod
    def _answers(argv):
        answers = {}
        for engine in ("auto", "tree", "exact"):
            code, out, err = run_cli([*argv, "--engine", engine])
            answers[engine] = (code, json.loads(out)["results"] if code == 0 else json.loads(err))
        return answers

    @pytest.mark.parametrize("name", sorted(_DISPATCH_DOCS))
    def test_tree_matches_auto_and_exact_or_refuses(self, tmp_path, name):
        doc = _DISPATCH_DOCS[name]
        path = write_doc(tmp_path, "doc.json", doc)
        general = self._general_unknowns(doc)
        unknowns = sorted(set(doc["variables"]) - set(doc["exact"]))
        queries = [["volume", path]]
        queries += [["interpolate", path, "--var", x] for x in doc["variables"]]
        queries += [["marginal", path, "--var", x] for x in unknowns]
        for argv in queries:
            answers = self._answers(argv)
            assert answers["auto"][0] == 0 and answers["auto"] == answers["exact"], argv
            asked = general if argv[0] == "volume" else general & set(argv[-1:])
            if not asked:
                assert answers["tree"] == answers["auto"], argv
                continue
            code, payload = answers["tree"]
            assert code == 2 and payload["error"] == "limit", argv
            named = payload["message"].split("'")[1]
            assert named in asked, (argv, payload["message"])

    def test_tree_refusal_names_the_requested_variable_not_its_class(self, tmp_path):
        # u4 and u3 are tied; the class is represented by u3 in the quotient
        doc = {
            "variables": ["u0", "u1", "u2", "u3", "u4"],
            "order": [["u2", "u0"], ["u1", "u0"], ["u0", "u4"], ["u4", "u3"], ["u3", "u4"]],
        }
        path = write_doc(tmp_path, "general.json", doc)
        for command in ("interpolate", "marginal"):
            code, out, err = run_cli([command, path, "--engine", "tree", "--var", "u4"])
            assert code == 2 and out == ""
            message = json.loads(err)["message"]
            assert "'u4'" in message and "'u3'" not in message

    @pytest.mark.parametrize("engine", ["auto", "tree"])
    def test_total_order_volume_needs_no_budget(self, tmp_path, engine):
        # one linear extension: (9/10 - 1/10)^2 / 2!
        path = write_doc(tmp_path, "chain.json", _DISPATCH_DOCS["chain"])
        code, out, err = run_cli(
            ["volume", path, "--engine", engine, "--max-extensions", "0"]
        )
        assert code == 0, err
        assert json.loads(out)["results"]["volume"]["exact"] == "8/25"

    def test_pinned_variable_gets_one_refusal_under_every_engine(self, tmp_path):
        # a is tied to the pinned p: both are pinned, each by its own name
        tied_pin = {
            "variables": ["a", "p", "u"],
            "order": [["a", "p"], ["p", "a"], ["u", "p"]],
            "exact": {"p": "1/2"},
        }
        cases = [(name, doc, doc["exact"]) for name, doc in sorted(_DISPATCH_DOCS.items())]
        cases.append(("tied-pin", tied_pin, {"a": "1/2", "p": "1/2"}))
        for name, doc, pins in cases:
            path = write_doc(tmp_path, "doc.json", doc)
            for x, value in pins.items():
                answers = self._answers(["marginal", path, "--var", x])
                code, payload = answers["exact"]
                assert code == 3 and payload["error"] == "malformed", (name, x)
                assert payload["message"].startswith(
                    f"{x!r} is pinned to {Fraction(value)};"
                ), (name, x, payload["message"])
                assert answers["auto"] == answers["tree"] == answers["exact"], (name, x)

    def test_tied_variable_gets_its_class_answer_under_every_engine(self, tmp_path):
        # a2 is tied to a; the quotient is a tree
        doc = {
            "variables": ["r", "a", "a2", "b", "la", "lb"],
            "order": [["r", "a"], ["a", "a2"], ["a2", "a"], ["a", "la"], ["a", "b"], ["b", "lb"]],
            "exact": {"r": "1/10", "la": "1/2", "lb": "3/5"},
        }
        path = write_doc(tmp_path, "tied.json", doc)
        for argv in (
            ["interpolate", path, "--var", "a2"],
            ["marginal", path, "--var", "a2"],
            ["interpolate", path],
        ):
            answers = self._answers(argv)
            assert answers["auto"][0] == 0, (argv, answers["auto"])
            assert answers["auto"] == answers["tree"] == answers["exact"], argv
        values = answers["auto"][1]["values"]  # the last request: every unknown
        assert values["a2"] == values["a"]

    @pytest.mark.parametrize(
        "engine, remedy",
        [
            ("auto", "; use the sampler for an estimate"),
            (
                "exact",
                "; use --engine auto, which answers part by part, or the "
                "sampler for an estimate",
            ),
        ],
        ids=["auto", "exact"],
    )
    def test_budget_hint_names_only_remedies_that_apply(self, tmp_path, engine, remedy):
        # a general part and two totally ordered ones: the lattice's guard
        # fires under auto, the extension pre-count's under exact
        doc = _cli_doc(gen.mixed_doc(random.Random(0), 5, 2))
        assert self._general_unknowns(doc)
        path = write_doc(tmp_path, "mixed.json", doc)
        code, out, err = run_cli(
            ["volume", path, "--engine", engine, "--max-extensions", "0"]
        )
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "budget" and payload["budget"] == 0
        assert payload["lower_bound"] >= 1
        assert payload["message"].endswith(remedy), payload["message"]
        assert "tree engine" not in payload["message"]

    def test_lattice_budget_error_names_the_part(self, tmp_path):
        path = write_doc(tmp_path, "k22.json", K22)
        code, out, err = run_cli(["volume", path, "--max-extensions", "1"])
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "budget"
        assert (payload["budget"], payload["lower_bound"]) == (1, 2)
        assert "general part containing 'a' (4 unknowns, 2 pinned" in payload["message"]


def _loaded_after(argv, modules):
    """Exit code of one CLI run in a fresh process, and which of ``modules``
    it loaded."""
    probe = (
        "import sys; from ordpoly import cli; "
        "code = cli.run(sys.argv[1:]); "
        f"print(code, [m for m in {modules!r} if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True,
        text=True,
        cwd=Path(ordpoly.__file__).parents[1],
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_lattice_answers_leave_the_enumerator_unloaded(tmp_path):
    # --engine exact and a general part under auto answer from the lattice;
    # the exact module holds only the library's wrappers, and only
    # --engine exact loads the pre-count
    path = write_doc(tmp_path, "k22.json", K22)
    modules = ["ordpoly.exact", "ordpoly.lattice", "ordpoly.precount"]
    for argv, loaded in (
        (["volume", path, "--engine", "exact"], "['ordpoly.lattice', 'ordpoly.precount']"),
        (["volume", path], "['ordpoly.lattice']"),
    ):
        assert _loaded_after(argv, modules) == f"0 {loaded}", argv


def test_engine_free_commands_leave_engines_unloaded(tmp_path):
    # check, close, dim, decompose and a contradiction exit run no engine;
    # on a tree, value queries run the tree engine alone
    path = write_doc(tmp_path, "lemma.json", LEMMA_TREE)
    bad = write_doc(tmp_path, "bad.json", CONTRADICTION)
    engines = ["ordpoly.exact", "ordpoly.tree"]
    for argv in (["check", path], ["close", path], ["dim", path], ["decompose", path]):
        assert _loaded_after(argv, engines) == "0 []", argv
    assert _loaded_after(["volume", bad], engines) == "1 []"
    general = ["ordpoly.exact", "ordpoly.lattice"]
    for argv in (
        ["volume", path],
        ["marginal", path, "--var", "x_b"],
        ["interpolate", path, "--scheme", "stable"],
        ["topk", path, "--semantics", "local", "--k", "1", "--select", "x_b,x_d"],
    ):
        assert _loaded_after(argv, general) == "0 []", argv
    # sampled and u top-k never reach the tree engine
    topk = ["topk", path, "--k", "1", "--select", "x_b,x_d", "--semantics"]
    for argv in ([*topk, "local", "--engine", "sample"], [*topk, "u"]):
        assert _loaded_after(argv, ["ordpoly.tree"]) == "0 []", argv
