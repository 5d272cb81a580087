import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from boolps.bcn import parse_bcn_text
from boolps.bn import BooleanMode, parse_bn_text
from boolps.boolp import parse_system_text
import boolps
from boolps.cli import main
from boolps.formula import MAX_NESTING
from boolps.translate import bcn_to_composite, bn_to_boolp, parse_reactions_text, rs_to_boolp

MODELS = Path(__file__).resolve().parent.parent / "models"
# `compose` under every mode and regime, and `translate bcn --mode asyn`, on
# models/ex32.bcn: stdout as the composite gave it when it was assembled as
# the union of an update system and a separate controller system.
COMPOSITE_GOLDENS = json.loads(
    (Path(__file__).resolve().parent / "composite_goldens.json").read_text()
)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# One per command, with a cap it exceeds.  The first three exited 0 with
# the flag and 4 with the environment variable: the powerset mode and the
# random suites read only the latter.
CAP_CASES = {
    "pi-trace": ("0", ("pi", "trace", MODELS / "ex41.pi", "--mode", "async",
                       "--init", "{a, b}", "--steps", "2")),
    "bn-sim": ("1", ("check", "bn-sim", "--random", "3")),
    "lemma-product": ("1", ("check", "lemma-product", "--random", "3")),
    "pi-transitions": ("1", ("pi", "transitions", MODELS / "ex41.pi", "--mode", "async")),
    "bn-transitions": ("1", ("bn", "transitions", MODELS / "ex31.bn")),
    "bn-attractors": ("1", ("bn", "attractors", MODELS / "ex31.bn", "--mode", "asyn")),
    "cofase-direct": ("3", ("cofase", "solve", MODELS / "ex32.cofase", "--engine", "direct")),
    "cofase-composite": ("5", ("cofase", "solve", MODELS / "ex32.cofase",
                               "--engine", "composite")),
}


def assert_cap_flag_and_env_agree(capsys, monkeypatch, cap, argv):
    """`--cap-vars cap` and BOOLPS_CAP_VARS=cap give the same exit code, 4,
    and the same stdout."""
    with monkeypatch.context() as patch:
        patch.delenv("BOOLPS_CAP_VARS", raising=False)
        flag = run(capsys, *argv, "--cap-vars", cap)[:2]
        patch.setenv("BOOLPS_CAP_VARS", cap)
        assert run(capsys, *argv)[:2] == flag
    assert flag[0] == 4


class TestBnCommands:
    def test_transitions_text(self, capsys):
        code, out, _ = run(capsys, "bn", "transitions", MODELS / "ex31.bn", "--mode", "syn")
        assert code == 0
        assert out.splitlines() == [
            "00 --{x, y}--> 00",
            "01 --{x, y}--> 10",
            "10 --{x, y}--> 01",
            "11 --{x, y}--> 00",
        ]

    def test_transitions_dot(self, capsys):
        code, out, _ = run(
            capsys, "bn", "transitions", MODELS / "ex31.bn", "--mode", "syn",
            "--format", "dot",
        )
        assert code == 0
        assert out.startswith("digraph")
        assert '"01" -> "10"' in out
        assert '"11" -> "00"' in out  # from the formulas
        assert '"11" -> "11"' not in out

    def test_transitions_json(self, capsys):
        code, out, _ = run(
            capsys, "bn", "transitions", MODELS / "ex31.bn", "--mode", "asyn",
            "--format", "json",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert {"src", "mode_elem", "dst"} == set(rows[0])
        assert {(r["src"], r["dst"]) for r in rows if r["src"] == "01"} == {
            ("01", "11"), ("01", "00"),
        }

    def test_trace(self, capsys):
        code, out, _ = run(
            capsys, "bn", "trace", MODELS / "ex31.bn", "--init", "01", "--steps", "3"
        )
        assert code == 0
        assert out.strip() == "01 -> 10 -> 01 -> 10"

    def test_attractors(self, capsys):
        code, out, _ = run(capsys, "bn", "attractors", MODELS / "ex31.bn", "--mode", "syn")
        assert code == 0
        assert out.splitlines() == ["{00}", "{01, 10}"]

    def test_attractors_json(self, capsys):
        code, out, _ = run(
            capsys, "bn", "attractors", MODELS / "ex31.bn", "--mode", "asyn", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == [["00"]]


SORTED_IDS_PI = """alphabet a, b, c
r2: {a} -> {b} | 1
r3: {b} -> {c} | !c
r10: {} -> {a} | !a
"""

# `pi trace` on SORTED_IDS_PI, whose rule ids sort differently from their
# declaration order; recorded before the rule-mask kernel.
PI_TRACE_GOLDEN = {
    'maxpar': [
        '{b} -> {a, c} -> {b, c}',
    ],
    'seq': [
        '{b} -> {a, b} -> {a, b}',
        '{b} -> {a, b} -> {a, c}',
        '{b} -> {a, b} -> {b}',
        '{b} -> {b} -> {a, b}',
        '{b} -> {b} -> {b}',
        '{b} -> {b} -> {c}',
        '{b} -> {c} -> {a, c}',
        '{b} -> {c} -> {c}',
    ],
    'async': [
        '{b} -> {a, b} -> {a, b}',
        '{b} -> {a, b} -> {a, c}',
        '{b} -> {a, b} -> {b, c}',
        '{b} -> {a, b} -> {b}',
        '{b} -> {a, c} -> {a, c}',
        '{b} -> {a, c} -> {b, c}',
        '{b} -> {b} -> {a, b}',
        '{b} -> {b} -> {a, c}',
        '{b} -> {b} -> {b}',
        '{b} -> {b} -> {c}',
        '{b} -> {c} -> {a, c}',
        '{b} -> {c} -> {c}',
    ],
}


class TestPiCommands:
    def test_trace_golden(self, capsys):
        code, out, _ = run(
            capsys, "pi", "trace", MODELS / "ex41.pi", "--mode", "maxpar",
            "--init", "{a,b}", "--steps", "2",
        )
        assert code == 0
        assert out.strip() == "{a, b} -> {a} -> {} [halting]"

    @pytest.mark.parametrize("mode", sorted(PI_TRACE_GOLDEN))
    def test_trace_order_golden(self, capsys, tmp_path, mode):
        model = tmp_path / "sorted.pi"
        model.write_text(SORTED_IDS_PI)
        code, out, _ = run(
            capsys, "pi", "trace", model, "--mode", mode, "--init", "{b}", "--steps", "2"
        )
        assert code == 0
        assert out.splitlines() == PI_TRACE_GOLDEN[mode]

    def test_transitions(self, capsys):
        code, out, _ = run(
            capsys, "pi", "transitions", MODELS / "ex41.pi", "--mode", "maxpar"
        )
        assert code == 0
        assert out.splitlines() == [
            "{a} --{r2}--> {}",
            "{a, b} --{r1}--> {a}",
        ]

    def test_digit_init_accepted(self, capsys):
        code, out, _ = run(
            capsys, "pi", "trace", MODELS / "ex41.pi", "--mode", "maxpar",
            "--init", "11", "--steps", "2",
        )
        assert code == 0
        assert out.strip() == "{a, b} -> {a} -> {} [halting]"

    def test_embedded_mode_reads_the_models_advise_lines(self, capsys, tmp_path):
        model = tmp_path / "advised.pi"
        model.write_text((MODELS / "ex41.pi").read_text() + "advise {r1}\nadvise {r2}\n")
        code, out, _ = run(capsys, "pi", "transitions", model, "--mode", "embedded")
        assert code == 0
        assert out.splitlines() == [
            "{} --{}--> {}",
            "{b} --{}--> {b}",
            "{a} --{r2}--> {}",
            "{a} --{}--> {a}",
            "{a, b} --{r1}--> {a}",
            "{a, b} --{}--> {a, b}",
        ]

    def test_embedded_mode_without_a_quasimode_is_two(self, capsys):
        code, out, err = run(capsys, "pi", "transitions", MODELS / "ex41.pi")
        assert code == 2 and out == ""
        assert "model file declares no quasimode" in err

    def test_quasimode_file(self, capsys, tmp_path):
        quasimode = tmp_path / "q.pi"
        quasimode.write_text("alphabet a, b\nr1: {a, b} -> {a} | 1\nadvise {r1}\n")
        code, out, _ = run(capsys, "pi", "transitions", MODELS / "ex41.pi", "--mode", quasimode)
        assert code == 0
        assert out.splitlines() == [
            "{} --{}--> {}",
            "{b} --{}--> {b}",
            "{a} --{}--> {a}",
            "{a, b} --{r1}--> {a}",
        ]

    def test_quasimode_file_without_a_quasimode_is_two(self, capsys, tmp_path):
        quasimode = tmp_path / "q.pi"
        quasimode.write_text("alphabet a, b\nr1: {a, b} -> {a} | 1\n")
        code, out, err = run(capsys, "pi", "transitions", MODELS / "ex41.pi", "--mode", quasimode)
        assert code == 2 and out == ""
        assert f"quasimode file {quasimode} declares no quasimode" in err

    @pytest.mark.parametrize("command", ["transitions", "trace"])
    @pytest.mark.parametrize(
        "lines, unknown",
        [("advise {r9}", "['r9']"), ("advise {r1, r9}\nadvise {r8}", "['r8', 'r9']"),
         ("quasimode async", "['r8', 'r9']")],
        ids=["explicit", "two-elements", "named-async"],
    )
    def test_quasimode_file_advising_rules_the_model_lacks_is_two(
        self, capsys, tmp_path, command, lines, unknown
    ):
        quasimode = tmp_path / "q.pi"
        rules = "r1: {a, b} -> {a} | 1\nr9: {a} -> {} | 1\nr8: {b} -> {} | 1"
        quasimode.write_text(f"alphabet a, b\n{rules}\n{lines}\n")
        extra = ["--init", "{a, b}"] if command == "trace" else []
        code, out, err = run(
            capsys, "pi", command, MODELS / "ex41.pi", "--mode", quasimode, *extra
        )
        assert code == 2 and out == ""
        assert f"quasimode file {quasimode} advises rules the model lacks: {unknown}" in err


class TestTranslateAndCompose:
    def test_translate_bn_round_trips(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "translate", "bn", MODELS / "ex31.bn", "--mode", "syn"
        )
        assert code == 0
        system, quasimode = parse_system_text(out)
        network = parse_bn_text((MODELS / "ex31.bn").read_text())
        assert system == bn_to_boolp(network)
        assert set(quasimode.elements()) == {
            frozenset({"set_x", "clr_x", "set_y", "clr_y"})
        }

    @pytest.mark.parametrize("kind, model", [("bn", "ex31.bn"), ("bcn", "ex32.bcn")])
    def test_translate_refuses_a_mode_without_groups(self, capsys, tmp_path, kind, model):
        # no `advise` line would read back as no quasimode at all
        mode_file = tmp_path / "none.mode"
        mode_file.write_text("# no group line\n")
        target = tmp_path / "out.pi"
        code, out, err = run(
            capsys, "translate", kind, MODELS / model, "--mode", mode_file, "--out", target
        )
        assert (code, out) == (2, "")
        assert "advised quasimode without elements" in err
        assert not target.exists()
        # the empty group is an element: it round-trips
        mode_file.write_text("group {}\n")
        code, out, _ = run(capsys, "translate", kind, MODELS / model, "--mode", mode_file)
        assert code == 0
        assert list(parse_system_text(out)[1].elements()) == [frozenset()]

    def test_translate_rs_round_trips(self, capsys):
        code, out, _ = run(capsys, "translate", "rs", MODELS / "rs_example.rs")
        assert code == 0
        system, quasimode = parse_system_text(out)
        rs = parse_reactions_text((MODELS / "rs_example.rs").read_text())
        expected = rs_to_boolp(rs).system
        assert system == expected
        assert quasimode.name == "maxpar"

    def test_translate_bcn(self, capsys):
        code, out, _ = run(capsys, "translate", "bcn", MODELS / "ex32.bcn")
        assert code == 0
        system, _ = parse_system_text(out)
        assert set(system.table.names) == {"x", "y", "u_x0", "u_x1", "u_y0", "u_y1"}
        assert {r.id for r in system.rules} == {"set_x", "clr_x", "set_y", "clr_y"}

    def test_compose_round_trips(self, capsys):
        # a dump's alphabet and rule lines are the composite system as .pi text
        bcn = parse_bcn_text((MODELS / "ex32.bcn").read_text())
        dump_only = ("controls ", "regime ", "mode ", "group ")
        for regime in ("free", "tcs", "acs"):
            code, out, _ = run(
                capsys, "compose", MODELS / "ex32.bcn", "--mode", "asyn", "--regime", regime
            )
            assert code == 0
            assert f"regime {regime}\n" in out
            pi_lines = [line for line in out.splitlines() if not line.startswith(dump_only)]
            system, quasimode = parse_system_text("\n".join(pi_lines) + "\n")
            assert quasimode is None
            composite = bcn_to_composite(bcn, BooleanMode.asyn(bcn.x_table), regime)
            assert system == composite.system

    def test_compose_mode_file_groups_in_canonical_order(self, capsys, tmp_path):
        mode_file = tmp_path / "custom.mode"
        mode_file.write_text("group {x, y}\ngroup {x}\ngroup {}\ngroup {y}\n")
        code, out, _ = run(capsys, "compose", MODELS / "ex32.bcn", "--mode", mode_file)
        assert code == 0
        # canonical order is digit order over (x, y): 00, 01, 10, 11
        assert [line for line in out.splitlines() if line.startswith(("group", "mode"))] == [
            "group {}", "group {y}", "group {x}", "group {x, y}",
        ]

    @pytest.mark.parametrize("command", sorted(COMPOSITE_GOLDENS))
    def test_composite_dump_golden(self, capsys, command):
        argv = [str(MODELS / a[len("models/"):]) if a.startswith("models/") else a
                for a in command.split()]
        assert main(argv) == 0
        assert capsys.readouterr().out == COMPOSITE_GOLDENS[command]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "dump.pi"
        code, out, _ = run(
            capsys, "translate", "bn", MODELS / "ex31.bn", "--out", target
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("alphabet x, y")


class TestCofaseCommands:
    def test_solve_golden(self, capsys):
        code, out, _ = run(
            capsys, "cofase", "solve", MODELS / "ex32.cofase", "--max-phases", "3"
        )
        assert code == 0
        assert "solvable in 1 phase(s)" in out

    def test_solve_json_and_verify(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "cofase", "solve", MODELS / "ex32.cofase", "--max-phases", "3",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["solvable"] and doc["phases"] <= 3
        solution_file = tmp_path / "solution.json"
        solution_file.write_text(out)
        code, out, _ = run(
            capsys, "cofase", "verify", MODELS / "ex32.cofase",
            "--solution", solution_file,
        )
        assert code == 0
        assert "verified" in out

    def test_verify_rejects_tampered_witness(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "cofase", "solve", MODELS / "ex32.cofase", "--format", "json"
        )
        doc = json.loads(out)
        doc["witnesses"][0]["states"][-1] = "00"  # no longer a target
        solution_file = tmp_path / "solution.json"
        solution_file.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "cofase", "verify", MODELS / "ex32.cofase",
            "--solution", solution_file,
        )
        assert code == 1

    @pytest.mark.parametrize(
        "witnesses, problems",
        [
            ([], ["start 01: no witness"]),
            (
                [{"start": "11", "controls": [[]], "states": ["11"], "boundaries": []}],
                ["start 01: no witness", "start 11: not a start of the instance"],
            ),
        ],
        ids=["no-witness", "foreign-start"],
    )
    def test_verify_rejects_solution_for_other_starts(self, capsys, tmp_path, witnesses,
                                                     problems):
        # models/ex32.cofase has the single start 01
        solution_file = tmp_path / "solution.json"
        solution_file.write_text(json.dumps({"solvable": True, "witnesses": witnesses}))
        code, out, _ = run(
            capsys, "cofase", "verify", MODELS / "ex32.cofase", "--solution", solution_file
        )
        assert code == 1
        assert out.splitlines() == problems

    def test_verify_rejects_two_witnesses_for_one_start(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "cofase", "solve", MODELS / "ex32.cofase", "--policy", "per-start",
            "--format", "json",
        )
        doc = json.loads(out)
        doc["witnesses"] *= 2
        solution_file = tmp_path / "solution.json"
        solution_file.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "cofase", "verify", MODELS / "ex32.cofase", "--solution", solution_file
        )
        assert code == 1
        assert out.splitlines() == ["start 01: more than one witness"]

    def test_verify_rejects_uniform_solution_with_two_sequences(self, capsys, tmp_path):
        # the per-start solution gives 00 and 01 different sequences
        instance = tmp_path / "two.cofase"
        instance.write_text(
            "var x, y\nfreeze x\nfreeze y\nx' = !x & y\ny' = x & !y\n"
            "start {00, 01}\ntarget {10}\nmode syn\n"
        )
        code, out, _ = run(
            capsys, "cofase", "solve", instance, "--policy", "per-start", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert [w["controls"] for w in doc["witnesses"]] == [[["u_x1"]], [[]]]
        solution_file = tmp_path / "solution.json"
        solution_file.write_text(out)
        code, out, _ = run(capsys, "cofase", "verify", instance, "--solution", solution_file)
        assert code == 0
        doc["policy"] = "uniform"
        solution_file.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "cofase", "verify", instance, "--solution", solution_file)
        assert code == 1
        assert out.splitlines() == [
            "start 01: uniform solution, but the control sequence differs from that "
            "of start 00"
        ]

    def test_composite_engine(self, capsys):
        code, out, _ = run(
            capsys, "cofase", "solve", MODELS / "ex32.cofase",
            "--engine", "composite", "--max-steps", "40", "--max-phases", "3",
        )
        assert code == 0
        assert "solvable in 1 phase(s)" in out

    def test_unsolvable_exits_one(self, capsys, tmp_path):
        instance = tmp_path / "stuck.cofase"
        instance.write_text(
            "var x, y\nx' = !x & y\ny' = x & !y\n"
            "start {01}\ntarget {11}\nmode syn\n"
        )
        code, out, _ = run(capsys, "cofase", "solve", instance, "--max-phases", "4")
        assert code == 1
        assert "no solution" in out

    @pytest.mark.parametrize(
        "phases, reason", [("1", "phase bound 1 reached"), ("2", "exhausted")]
    )
    def test_unsolvable_text_says_why_the_search_stopped(self, capsys, tmp_path, phases,
                                                         reason):
        # the one control's reach set is a new node after one phase and its
        # own image after two, so only the second search closes every node
        instance = tmp_path / "stuck.cofase"
        instance.write_text(
            "var x, y\nx' = !x & y\ny' = x & !y\n"
            "start {01}\ntarget {11}\nmode syn\n"
        )
        code, out, _ = run(capsys, "cofase", "solve", instance, "--max-phases", phases)
        assert (code, out) == (1, f"no solution within bounds ({reason})\n")

    @pytest.mark.parametrize(
        "extra, reason",
        [(["--max-phases", "1"], "no sequence for start {y}; phase bound 1 reached"),
         (["--max-phases", "2"], "no sequence for start {y}; exhausted"),
         (["--engine", "composite", "--max-steps", "4", "--max-phases", "2"],
          "no composite run for start {y}")],
        ids=["direct-bound", "direct-exhausted", "composite"],
    )
    def test_per_start_failure_names_the_start_and_the_cause(self, capsys, tmp_path, extra,
                                                             reason):
        instance = tmp_path / "stuck.cofase"
        instance.write_text(
            "var x, y\nx' = !x & y\ny' = x & !y\n"
            "start {01}\ntarget {11}\nmode syn\n"
        )
        code, out, _ = run(capsys, "cofase", "solve", instance, "--policy", "per-start", *extra)
        assert (code, out) == (1, f"no solution within bounds ({reason})\n")

    @pytest.mark.parametrize(
        "brace_list, side_by_side, digits",
        [("{{x}, {y}}", "{x}, {y}", ["01", "10"]),
         ("{{x, y}, {y}}", "{x, y}, {y},", ["01", "11"])],
        ids=["singletons", "pair-trailing-comma"],
    )
    def test_set_states_side_by_side_read_like_a_brace_list(self, capsys, tmp_path,
                                                            brace_list, side_by_side, digits):
        network = (MODELS / "ex32.cofase").read_text().split("start")[0]
        outputs = []
        for starts in (brace_list, side_by_side):
            instance = tmp_path / "sets.cofase"
            instance.write_text(f"{network}start {starts}\ntarget {{x, y}}\nmode syn\n")
            code, out, err = run(capsys, "cofase", "solve", instance, "--format", "json")
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert [w["start"] for w in json.loads(outputs[1])["witnesses"]] == digits

    def test_unclosed_set_state_in_a_list_is_three(self, capsys, tmp_path):
        network = (MODELS / "ex32.cofase").read_text().split("start")[0]
        instance = tmp_path / "unclosed.cofase"
        instance.write_text(f"{network}start {{x}}, {{y\ntarget {{x, y}}\nmode syn\n")
        code, out, err = run(capsys, "cofase", "solve", instance)
        assert code == 3 and out == ""
        assert f"parse error: {instance}" in err


class TestCheckCommands:
    def test_bn_sim_file(self, capsys):
        code, out, _ = run(capsys, "check", "bn-sim", MODELS / "ex31.bn", "--mode", "asyn")
        assert code == 0 and out.startswith("pass")

    def test_bn_sim_random(self, capsys):
        code, out, _ = run(capsys, "check", "bn-sim", "--random", "4", "--seed", "9")
        assert code == 0
        assert "12/12" in out

    def test_bcn_sim_file(self, capsys):
        code, out, _ = run(capsys, "check", "bcn-sim", MODELS / "ex32.bcn", "--mode", "syn")
        assert code == 0

    def test_lemma_random(self, capsys):
        code, out, _ = run(capsys, "check", "lemma-product", "--random", "5", "--seed", "3")
        assert code == 0

    @pytest.mark.parametrize("check", ["bn-sim", "bcn-sim", "lemma-product", "rs-embed"])
    def test_negative_random_count_is_two(self, capsys, check):
        code, out, err = run(capsys, "check", check, "--random", "-5")
        assert code == 2 and out == ""
        assert "case count must be non-negative" in err

    @pytest.mark.parametrize("check", ["bn-sim", "bcn-sim", "lemma-product", "rs-embed"])
    def test_zero_random_count_runs_no_case(self, capsys, check):
        code, out, _ = run(capsys, "check", check, "--random", "0")
        assert code == 0
        assert "0/0 cases pass" in out

    def test_lemma_without_random_runs_hundred(self, capsys):
        code, out, _ = run(capsys, "check", "lemma-product")
        assert code == 0
        assert "100/100 cases pass" in out

    def test_rs_embed_file_json(self, capsys):
        code, out, _ = run(
            capsys, "check", "rs-embed", MODELS / "rs_example.rs", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["passed"] is True


DELETED = object()  # a change that removes the field


class TestExitCodes:
    def test_parse_error_is_three(self, capsys, tmp_path):
        bad = tmp_path / "bad.bn"
        bad.write_text("var x\nx' = x &\n")
        code, _, err = run(capsys, "bn", "transitions", bad)
        assert code == 3
        assert "parse error" in err

    @pytest.mark.parametrize(
        "command, suffix, text",
        [
            ("bn transitions", ".bn", "var x, y\nx' = y\nx' = !y\ny' = x\n"),
            ("bn transitions", ".bn", "var x\nvar y\nx' = y\ny' = x\ny' = !x\n"),
            ("cofase solve", ".cofase",
             "var x\nfreeze x\nx' = x\nstart {0}\ntarget {1}\nstart {1}\n"),
        ],
        ids=["bn-update", "bn-update-after-two-var-lines", "cofase-start"],
    )
    def test_duplicate_declaration_is_three(self, capsys, tmp_path, command, suffix, text):
        model = tmp_path / f"dup{suffix}"
        model.write_text(text)
        code, out, err = run(capsys, *command.split(), model)
        assert code == 3 and out == ""
        assert "duplicate" in err

    @pytest.mark.parametrize("opener, closer", [("!", ""), ("(", ")")], ids=["not", "paren"])
    @pytest.mark.parametrize(
        "command, suffix, block",
        [
            ("bn transitions", ".bn", "var x\nx' = {}\n"),
            ("translate bn --mode syn", ".bn", "var x\nx' = {}\n"),
            ("cofase solve", ".cofase", "var x\nfreeze x\nx' = {}\nstart {{0}}\ntarget {{1}}\n"),
        ],
        ids=["bn-transitions", "translate-bn", "cofase-solve"],
    )
    def test_formula_nesting_limit(self, capsys, tmp_path, command, suffix, block,
                                   opener, closer):
        model = tmp_path / f"deep{suffix}"
        for levels, expected in ((MAX_NESTING, 0), (MAX_NESTING + 1, 3)):
            model.write_text(block.format(opener * levels + "x" + closer * levels))
            code, _, err = run(capsys, *command.split(), model)
            assert code == expected, err

    @pytest.mark.parametrize(
        "command, header, engine, engine_lines",
        [
            ("translate bn", "var x\n", "bn transitions", ""),
            ("translate bcn", "var x\nfreeze x\n", "cofase solve --engine composite",
             "start {0}\ntarget {1}\n"),
        ],
        ids=["translate-bn", "translate-bcn"],
    )
    def test_translated_guard_past_nesting_limit_is_three(self, capsys, tmp_path, command,
                                                          header, engine, engine_lines):
        # 100 levels: readable, but the erase guard !(...) would be 102 deep
        update = "!x"
        for _ in range(33):
            update = f"x & (x | !({update}))"
        model = tmp_path / "deep.model"
        model.write_text(f"{header}x' = {update}\n")
        engine_input = tmp_path / "deep.engine"
        engine_input.write_text(model.read_text() + engine_lines)
        code, _, err = run(capsys, *engine.split(), engine_input)
        assert code == 0, err
        code, out, err = run(capsys, *command.split(), model)
        assert code == 3 and out == ""
        assert "rule clr_x:" in err and f"deeper than {MAX_NESTING}" in err

    @pytest.mark.parametrize(
        "command, suffix, text, message",
        [
            ("pi transitions", ".pi", "alphabet a\nr1: {a} -> {}\nquasimode maxpar\nadvise {r1}\n",
             "line 3: both a named quasimode and advise lines given"),
            ("pi transitions", ".pi", "alphabet a\nr1: {a} -> {}\nquasimode wild\n",
             "line 3: unknown quasimode name 'wild' (expected maxpar, seq or async)"),
            ("pi transitions", ".pi", "alphabet a\nr1: {a} -> {}\nr1: {} -> {a}\n",
             "line 3: duplicate rule id 'r1' on lines 2 and 3"),
            ("pi transitions", ".pi", "alphabet a\nr1: {a} -> {}\nadvise r1\n",
             "line 3: advise needs a rule set literal, got 'r1'"),
            ("translate rs", ".rs",
             "species a\nx: reactants {a} inhibitors {} products {}\n"
             "x: reactants {} inhibitors {a} products {a}\n",
             "line 3: duplicate reaction id 'x' on lines 2 and 3"),
        ],
        ids=["quasimode-and-advise", "unknown-quasimode", "duplicate-rule-id",
             "advise-without-braces", "duplicate-reaction-id"],
    )
    def test_model_error_names_its_line(self, capsys, tmp_path, command, suffix, text, message):
        model = tmp_path / f"bad{suffix}"
        model.write_text(text)
        code, out, err = run(capsys, *command.split(), model)
        assert (code, out, err) == (3, "", f"parse error: {model}:{message}\n")

    def test_init_digits_of_another_width_are_three(self, capsys):
        code, out, err = run(capsys, "bn", "trace", MODELS / "ex31.bn", "--init", "010")
        assert (code, out) == (3, "")
        assert err == "parse error: digit state '010' does not match table of 2 variables\n"

    def test_witness_not_an_object_is_three(self, capsys, tmp_path):
        solution = tmp_path / "solution.json"
        solution.write_text('{"solvable": true, "witnesses": [["01", "11"]]}')
        code, out, err = run(
            capsys, "cofase", "verify", MODELS / "ex32.cofase", "--solution", solution
        )
        assert (code, out) == (3, "")
        assert err == f"parse error: {solution}: witness 0 is not a JSON object\n"

    @pytest.mark.parametrize("check", ["bn-sim", "rs-embed"])
    def test_check_without_model_or_random_is_two(self, capsys, check):
        assert run(capsys, "check", check) == (2, "", "error: pass a model file or --random N\n")

    def test_usage_error_is_two(self, capsys):
        code, _, err = run(
            capsys, "bn", "transitions", MODELS / "ex31.bn", "--mode", "sideways"
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("bound", [("--max-steps", "-1"), ("--max-phases", "0")])
    def test_composite_bounds_below_range_are_two(self, capsys, bound):
        code, out, err = run(
            capsys, "cofase", "solve", MODELS / "ex32.cofase", "--engine", "composite", *bound
        )
        assert code == 2 and out == ""
        assert f"{bound[0][2:].replace('-', '_')} must be at least" in err

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_out_to_unwritable_place_is_two(self, capsys, tmp_path, where):
        out_path = tmp_path / "missing" / "dump.pi" if where == "missing-directory" else tmp_path
        code, out, err = run(
            capsys, "translate", "bn", MODELS / "ex31.bn", "--out", out_path
        )
        assert code == 2 and out == ""
        assert f"cannot write {out_path}" in err

    @pytest.mark.parametrize(
        "command, model, init, counts",
        [
            # exited 0, printing the bare start
            ("bn", "ex31.bn", "00", ["--steps", "-1"]),
            # exited 2 already (`evolve` checked it)
            ("pi", "ex41.pi", "{}", ["--steps", "-1"]),
            # exited 4: "trajectory breadth exceeded cap -1"
            ("bn", "ex31.bn", "00", ["--steps", "2", "--max-breadth", "-1"]),
            # exited 4: "evolution breadth exceeded cap -1"
            ("pi", "ex41.pi", "{}", ["--steps", "2", "--max-breadth", "-1"]),
        ],
        ids=["bn-steps", "pi-steps", "bn-breadth", "pi-breadth"],
    )
    def test_negative_trace_count_is_two(self, capsys, command, model, init, counts):
        code, out, err = run(capsys, command, "trace", MODELS / model, "--init", init, *counts)
        assert code == 2 and out == ""
        assert "must be non-negative" in err

    def test_zero_breadth_cap_still_exceeded(self, capsys):
        code, _, err = run(
            capsys, "bn", "trace", MODELS / "ex31.bn", "--init", "00", "--steps", "2",
            "--max-breadth", "0",
        )
        assert code == 4
        assert "breadth exceeded cap 0" in err

    def test_zero_breadth_cap_counts_a_stopped_run(self, capsys, tmp_path):
        # a mode without groups stops the run at its start; both traces count
        # stopped runs against the cap, so that one run exceeds a zero cap
        mode = tmp_path / "none.mode"
        mode.write_text("# no group lines\n")
        args = ["bn", "trace", MODELS / "ex31.bn", "--mode", mode, "--init", "00"]
        assert run(capsys, *args)[:2] == (0, "00\n")
        code, _, err = run(capsys, *args, "--max-breadth", "0")
        assert code == 4
        assert err == "capacity exceeded: trajectory breadth exceeded cap 0\n"
        code, _, err = run(
            capsys, "pi", "trace", MODELS / "ex41.pi", "--init", "{}", "--max-breadth", "0"
        )
        assert code == 4
        assert err == "capacity exceeded: evolution breadth exceeded cap 0\n"

    def test_model_not_utf8_is_three(self, capsys, tmp_path):
        model = tmp_path / "latin1.bn"
        model.write_bytes("var x\n# caf\u00e9\nx' = x\n".encode("latin-1"))
        code, out, err = run(capsys, "bn", "transitions", model)
        assert code == 3 and out == ""
        assert f"parse error: {model}: not UTF-8 text" in err

    @pytest.mark.parametrize(
        "document",
        [
            "witnesses: none",
            "[1, 2]",
            '{"solvable": true}',
            '{"solvable": true, "witnesses": [{"start": "00", "states": ["00"],'
            ' "boundaries": []}]}',
            '{"solvable": true, "witnesses": [{"start": "00", "controls": "u_x0",'
            ' "states": ["00"], "boundaries": []}]}',
        ],
        ids=["not-json", "list", "no-witnesses", "witness-without-controls",
             "controls-not-a-list"],
    )
    def test_malformed_solution_is_three(self, capsys, tmp_path, document):
        solution = tmp_path / "solution.json"
        solution.write_text(document)
        code, out, err = run(
            capsys, "cofase", "verify", MODELS / "ex32.cofase", "--solution", solution
        )
        assert code == 3 and out == ""
        assert f"parse error: {solution}" in err

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"states": ["01", "1"]}, "witness 0: digit state '1' does not match"),
            ({"controls": [["u_z1"]]}, "witness 0: unknown variable 'u_z1'"),
            ({"states": []}, "witness 0: a trajectory needs at least one state"),
            ({"policy": "banana"}, "policy must be uniform or per-start, not 'banana'"),
            ({"solvable": "no"}, '`solvable` must be true or false, not "no"'),
            ({"solvable": DELETED}, "solution document has no `solvable` field"),
            ({"controls": []}, "witness 0: empty control sequence"),
            ({"boundaries": [1]}, "witness 0: 1 phases need 0 boundaries, got 1"),
            (
                {"controls": [["u_y1"], ["u_y1"]], "boundaries": [-1]},
                "witness 0: boundaries (-1,) do not partition the witness",
            ),
        ],
        ids=["short-state", "unknown-control", "no-states", "unknown-policy",
             "solvable-not-a-boolean", "no-solvable", "no-controls", "boundary-count",
             "negative-boundary"],
    )
    def test_malformed_witness_is_three(self, capsys, tmp_path, changes, message):
        # each is a change to the valid solution of models/ex32.cofase
        doc = {"solvable": True, "policy": "uniform", "phases": 1, "witnesses": [
            {"start": "01", "controls": [["u_y1"]], "states": ["01", "11"], "boundaries": []}
        ]}
        for field, value in changes.items():
            fields = doc if field in ("policy", "solvable") else doc["witnesses"][0]
            if value is DELETED:
                del fields[field]
            else:
                fields[field] = value
        solution = tmp_path / "solution.json"
        solution.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "cofase", "verify", MODELS / "ex32.cofase", "--solution", solution
        )
        assert code == 3 and out == ""
        assert f"parse error: {solution}" in err and message in err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize(
        "start, target", [(",", "{11}"), ("{01}", ",")], ids=["empty-start", "empty-target"]
    )
    def test_empty_start_or_target_is_three(self, capsys, tmp_path, command, start, target):
        model = tmp_path / "empty.cofase"
        network = (MODELS / "ex32.cofase").read_text().split("start")[0]
        model.write_text(f"{network}start {start}\ntarget {target}\n")
        solution = tmp_path / "solution.json"
        solution.write_text('{"solvable": false}')
        extra = ["--solution", solution] if command == "verify" else []
        code, out, err = run(capsys, "cofase", command, model, *extra)
        assert code == 3 and out == ""
        assert f"parse error: {model}" in err
        assert "need at least one start and one target state" in err

    def test_missing_file_is_two(self, capsys):
        code, _, _ = run(capsys, "bn", "transitions", "nope.bn")
        assert code == 2

    def test_capacity_is_four(self, capsys):
        code, _, err = run(
            capsys, "bn", "transitions", MODELS / "ex31.bn", "--cap-vars", "1"
        )
        assert code == 4
        assert "capacity" in err

    def test_pi_transitions_capacity_is_four(self, capsys):
        code, out, err = run(
            capsys, "pi", "transitions", MODELS / "ex41.pi", "--mode", "maxpar",
            "--cap-vars", "1",
        )
        assert code == 4 and out == ""
        assert "capacity" in err and "capped at 1" in err

    def test_dead_reaction_is_three_and_names_no_option(self, capsys, tmp_path):
        # the message once told the reader to pass allow_degenerate, which
        # no reader of a .rs file can do
        model = tmp_path / "dead.rs"
        model.write_text("species a\nr1: reactants {a} inhibitors {a} products {a}\n")
        code, out, err = run(capsys, "check", "rs-embed", model)
        assert code == 3 and out == ""
        assert "reaction r1 lists a species as both reactant and inhibitor" in err
        assert "can never fire" in err
        assert "allow_degenerate" not in err

    def test_env_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv("BOOLPS_CAP_VARS", "1")
        code, _, _ = run(capsys, "bn", "transitions", MODELS / "ex31.bn")
        assert code == 4
        monkeypatch.setenv("BOOLPS_CAP_VARS", "10")
        code, _, _ = run(capsys, "bn", "transitions", MODELS / "ex31.bn")
        assert code == 0

    def test_negative_cap_flag_is_two(self, capsys):
        # exited 4: "enumeration capped at -1"
        code, out, err = run(
            capsys, "bn", "transitions", MODELS / "ex31.bn", "--cap-vars", "-1"
        )
        assert code == 2 and out == ""
        assert "the variable cap must be non-negative, not -1" in err
        code, _, err = run(capsys, "bn", "transitions", MODELS / "ex31.bn", "--cap-vars", "0")
        assert code == 4 and "capped at 0" in err
        # commands that enumerate nothing exited 0: no code read the flag
        for argv in (("bn", "trace", MODELS / "ex31.bn", "--init", "00"),
                     ("translate", "bn", MODELS / "ex31.bn")):
            code, out, err = run(capsys, *argv, "--cap-vars", "-1")
            assert code == 2 and out == ""
            assert "the variable cap must be non-negative, not -1" in err

    @pytest.mark.parametrize("cap, argv", CAP_CASES.values(), ids=CAP_CASES)
    def test_cap_flag_and_env_agree(self, capsys, monkeypatch, cap, argv):
        assert_cap_flag_and_env_agree(capsys, monkeypatch, cap, argv)

    def test_negative_env_cap_is_two(self, capsys, monkeypatch):
        monkeypatch.setenv("BOOLPS_CAP_VARS", "-1")
        code, out, err = run(capsys, "bn", "transitions", MODELS / "ex31.bn")
        assert code == 2 and out == ""
        assert "BOOLPS_CAP_VARS must be non-negative, not -1" in err
        monkeypatch.setenv("BOOLPS_CAP_VARS", "0")
        code, _, err = run(capsys, "bn", "transitions", MODELS / "ex31.bn")
        assert code == 4 and "capped at 0" in err

    def test_malformed_env_cap_is_two(self, capsys, monkeypatch):
        monkeypatch.setenv("BOOLPS_CAP_VARS", "abc")
        code, out, err = run(capsys, "bn", "transitions", MODELS / "ex31.bn")
        assert code == 2 and out == ""
        assert "BOOLPS_CAP_VARS must be an integer" in err


# The sixteen commands of the README's "Command line" section with the exact
# stdout and exit code each gives on models/.  `cofase verify` reads the
# solution that the `cofase solve --format json` line before it writes.
README_COMMANDS = [
    (
        'bn transitions models/ex31.bn --mode syn --format dot',
        0,
        (
            'digraph transitions {\n'
            '  "00";\n'
            '  "01";\n'
            '  "10";\n'
            '  "11";\n'
            '  "00" -> "00" [label="{x, y}"];\n'
            '  "01" -> "10" [label="{x, y}"];\n'
            '  "10" -> "01" [label="{x, y}"];\n'
            '  "11" -> "00" [label="{x, y}"];\n'
            '}\n'
        ),
    ),
    (
        'bn trace models/ex31.bn --init 01 --steps 4',
        0,
        '01 -> 10 -> 01 -> 10 -> 01\n',
    ),
    (
        'bn attractors models/ex31.bn --mode asyn',
        0,
        '{00}\n',
    ),
    (
        'pi trace models/ex41.pi --mode maxpar --init "{a,b}" --steps 2',
        0,
        '{a, b} -> {a} -> {} [halting]\n',
    ),
    (
        'pi transitions models/ex41.pi --mode maxpar --format json',
        0,
        (
            '{"src": "{a}", "rules": "{r2}", "dst": "{}"}\n'
            '{"src": "{a, b}", "rules": "{r1}", "dst": "{a}"}\n'
        ),
    ),
    (
        'translate bn models/ex31.bn --mode syn',
        0,
        (
            'alphabet x, y\n'
            'set_x: {} -> {x} | !x & y\n'
            'clr_x: {x} -> {} | !(!x & y)\n'
            'set_y: {} -> {y} | x & !y\n'
            'clr_y: {y} -> {} | !(x & !y)\n'
            'advise {clr_x, clr_y, set_x, set_y}\n'
        ),
    ),
    (
        'translate bcn models/ex32.bcn',
        0,
        (
            'alphabet x, y, u_x0, u_x1, u_y0, u_y1\n'
            'set_x: {} -> {x} | !x & y & !u_x0 | u_x1\n'
            'clr_x: {x} -> {} | !(!x & y & !u_x0 | u_x1)\n'
            'set_y: {} -> {y} | x & !y & !u_y0 | u_y1\n'
            'clr_y: {y} -> {} | !(x & !y & !u_y0 | u_y1)\n'
            'advise {clr_x, clr_y, set_x, set_y}\n'
        ),
    ),
    (
        'translate rs models/rs_example.rs',
        0,
        (
            'alphabet a, b, c\n'
            'a1: {} -> {b} | a & !c\n'
            'a2: {} -> {a, c} | b\n'
            'deg_a: {a} -> {} | 1\n'
            'deg_b: {b} -> {} | 1\n'
            'deg_c: {c} -> {} | 1\n'
            'quasimode maxpar\n'
        ),
    ),
    (
        'compose models/ex32.bcn --mode syn --regime free',
        0,
        (
            'alphabet x, y, u_x0, u_x1, u_y0, u_y1\n'
            'controls u_x0, u_x1, u_y0, u_y1\n'
            'regime free\n'
            'mode syn\n'
            'set_x: {} -> {x} | !x & y & !u_x0 | u_x1\n'
            'clr_x: {x} -> {} | !(!x & y & !u_x0 | u_x1)\n'
            'set_y: {} -> {y} | x & !y & !u_y0 | u_y1\n'
            'clr_y: {y} -> {} | !(x & !y & !u_y0 | u_y1)\n'
            'u_clr_u_x0: {u_x0} -> {} | 1\n'
            'u_set_u_x0: {} -> {u_x0} | 1\n'
            'u_clr_u_x1: {u_x1} -> {} | 1\n'
            'u_set_u_x1: {} -> {u_x1} | 1\n'
            'u_clr_u_y0: {u_y0} -> {} | 1\n'
            'u_set_u_y0: {} -> {u_y0} | 1\n'
            'u_clr_u_y1: {u_y1} -> {} | 1\n'
            'u_set_u_y1: {} -> {u_y1} | 1\n'
        ),
    ),
    (
        'cofase solve models/ex32.cofase --max-phases 3 --format json',
        0,
        (
            '{\n'
            '  "solvable": true,\n'
            '  "policy": "uniform",\n'
            '  "phases": 1,\n'
            '  "witnesses": [\n'
            '    {\n'
            '      "start": "01",\n'
            '      "controls": [\n'
            '        [\n'
            '          "u_y1"\n'
            '        ]\n'
            '      ],\n'
            '      "states": [\n'
            '        "01",\n'
            '        "11"\n'
            '      ],\n'
            '      "boundaries": []\n'
            '    }\n'
            '  ]\n'
            '}\n'
        ),
    ),
    (
        'cofase solve models/ex32.cofase --engine composite --max-steps 40',
        0,
        (
            'solvable in 1 phase(s) [per-start]\n'
            '  start 01: controls {u_y1}\n'
            '    witness 01 -> 11\n'
            '    boundaries []\n'
        ),
    ),
    (
        'cofase verify models/ex32.cofase --solution solution.json',
        0,
        'ok: 1 witness(es) verified\n',
    ),
    (
        'check bn-sim --random 100 --seed 2024',
        0,
        'network-embedding suite: 300/300 cases pass [pass]\n',
    ),
    (
        'check bcn-sim models/ex32.bcn --mode syn',
        0,
        'pass: labelled transition relations coincide\n',
    ),
    (
        'check lemma-product --random 100',
        0,
        'mode-product suite: 100/100 cases pass [pass]\n',
    ),
    (
        'check rs-embed models/rs_example.rs',
        0,
        'pass: embedded step equals the result function\n',
    ),
]


@pytest.mark.parametrize(
    "command, code, stdout", README_COMMANDS, ids=[c[0] for c in README_COMMANDS]
)
def test_readme_command_golden(capsys, tmp_path, monkeypatch, command, code, stdout):
    monkeypatch.chdir(tmp_path)

    def argv(line):
        return [str(MODELS / a[len("models/"):]) if a.startswith("models/") else a
                for a in shlex.split(line)]

    if command.startswith("cofase verify"):
        solve = next(c for c, _, _ in README_COMMANDS if "--format json" in c
                     and c.startswith("cofase solve"))
        assert main(argv(solve)) == 0
        (tmp_path / "solution.json").write_text(capsys.readouterr().out)
    assert main(argv(command)) == code
    assert capsys.readouterr().out == stdout


# --- streamed relation output ----------------------------------------------------


def _ring_network(tmp_path, n):
    """An n-variable .bn file where each variable copies the next one's negation."""
    names = [f"x{i}" for i in range(n)]
    model = tmp_path / f"ring{n}.bn"
    model.write_text(
        "var " + ", ".join(names) + "\n"
        + "".join(f"{a}' = !{b} | {a} & {c}\n"
                  for a, b, c in zip(names, names[1:] + names[:1], names[2:] + names[:2]))
    )
    return model


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
@pytest.mark.parametrize(
    "command", [("bn", "ring", "asyn"), ("bn", "ring", "syn"), ("pi", "ex41.pi", "seq")],
    ids=["bn-asyn", "bn-syn", "pi-seq"],
)
def test_relation_out_file_has_the_stdout_bytes(capsys, tmp_path, command, fmt):
    kind, model, mode = command
    model = _ring_network(tmp_path, 6) if model == "ring" else MODELS / model
    argv = [kind, "transitions", model, "--mode", mode, "--format", fmt]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out.strip()
    target = tmp_path / "relation.out"
    assert run(capsys, *argv, "--out", target) == (0, "", "")
    assert target.read_bytes() == out.encode()


def test_capacity_error_leaves_no_out_file(capsys, tmp_path):
    target = tmp_path / "relation.out"
    code, out, err = run(capsys, "bn", "transitions", _ring_network(tmp_path, 6),
                         "--mode", "asyn", "--cap-vars", "5", "--out", target)
    assert (code, out) == (4, "") and "capacity exceeded" in err
    assert not target.exists()


def test_closed_stdout_ends_quietly_with_zero(tmp_path):
    # about 1.5 MB of text: far more than a pipe holds, so the writer is
    # still writing when the reader goes away
    argv = ["bn", "transitions", str(_ring_network(tmp_path, 12)), "--mode", "asyn"]
    src = str(Path(boolps.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from boolps.cli import main; sys.exit(main())",
         *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert first == b"000000000000 --{x0}--> 100000000000\n"
    assert err == b""
