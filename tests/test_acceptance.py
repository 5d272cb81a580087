"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured time and asserting the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from boolps.bcn import freeze_extend
from boolps.bn import BooleanMode, BooleanNetwork, Trajectory, bn_transitions
from boolps.boolp import maximally_parallel_mode, evolve, parse_system_text
from boolps.cli import main as cli_main
from boolps.cofase import (
    NoSolutionWithinBound,
    check_solution,
    solve_cofase,
    solve_cofase_via_composite,
    verify_control_sequence,
)
from boolps.equivalence import (
    run_bcn_simulation_suite,
    run_bn_simulation_suite,
    run_product_lemma_suite,
    run_rs_embedding_suite,
)
from boolps.formula import StateSet, VarTable, parse_formula
from boolps.generators import random_cofase_instance, random_psystem, random_table
from boolps.boolp import apply_rule_set

MODELS = Path(__file__).resolve().parent.parent / "models"


@contextmanager
def criterion(number, budget_seconds, title):
    started = time.monotonic()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.monotonic() - started
        status = "FAIL" if failed else "pass"
        print(f"criterion {number:2d} [{status}] {elapsed:7.2f}s (< {budget_seconds}s): {title}")
        if not failed:
            assert elapsed < budget_seconds, (
                f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
            )


@pytest.fixture(scope="module")
def toggle():
    t = VarTable.of("x", "y")
    return BooleanNetwork(t, (parse_formula("!x & y", t), parse_formula("x & !y", t)))


def test_criterion_1_toggle_network_golden(toggle, tmp_path):
    with criterion(1, 1.0, "two-variable network: exact syn/asyn transition relations"):
        t = toggle.table
        d = lambda s: StateSet.from_digits(t, s)
        syn = bn_transitions(toggle, BooleanMode.syn(t))
        syn_pairs = {(a.digits(), b.digits()) for a, _m, b in syn.edges}
        assert ("01", "10") in syn_pairs
        assert ("10", "01") in syn_pairs
        assert ("00", "00") in syn_pairs
        # the published state graph shows 11 as a fixed point, but the update
        # formulas give f_x(1,1) = f_y(1,1) = 0; the formulas win:
        assert ("11", "00") in syn_pairs
        assert ("11", "11") not in syn_pairs
        assert len(syn_pairs) == 4

        asyn = bn_transitions(toggle, BooleanMode.asyn(t))
        succ = lambda s: {b.digits() for _m, b in asyn.successors(d(s))}
        assert succ("01") == {"11", "00"}
        assert succ("10") == {"11", "00"}
        assert succ("11") == {"01", "10"}  # from the formulas, not the figure

        # end to end through the CLI parser and DOT export
        out = tmp_path / "syn.dot"
        assert cli_main(
            ["bn", "transitions", str(MODELS / "ex31.bn"), "--mode", "syn",
             "--format", "dot", "--out", str(out)]
        ) == 0
        dot = out.read_text()
        assert '"11" -> "00"' in dot and '"11" -> "11"' not in dot


def test_criterion_2_cascade_golden(tmp_path):
    with criterion(2, 1.0, "two-rule cascade: unique maximally parallel evolution"):
        system, _ = parse_system_text((MODELS / "ex41.pi").read_text())
        view = maximally_parallel_mode(system)
        start = StateSet.of(system.table, ["a", "b"])
        runs = evolve(view, start, 2)
        assert len(runs) == 1
        only = runs[0]
        assert [s.set_text() for s in only.states] == ["{a, b}", "{a}", "{}"]
        assert only.halting
        assert system.is_halting(StateSet.empty(system.table))

        out = tmp_path / "trace.txt"
        assert cli_main(
            ["pi", "trace", str(MODELS / "ex41.pi"), "--mode", "maxpar",
             "--init", "{a,b}", "--steps", "2", "--out", str(out)]
        ) == 0
        assert out.read_text().strip() == "{a, b} -> {a} -> {} [halting]"


def test_criterion_3_sequential_control_golden(toggle, tmp_path):
    with criterion(3, 1.0, "three-phase control walk verifies; solver finds <= 3 phases"):
        bcn = freeze_extend(toggle)
        t = toggle.table
        d = lambda s: StateSet.from_digits(t, s)
        tau = Trajectory(tuple(d(s) for s in ("01", "10", "01", "00", "00", "01", "11")))
        sequence = (
            StateSet.of(bcn.u_table, []),
            StateSet.of(bcn.u_table, ["u_x0"]),
            StateSet.of(bcn.u_table, ["u_y1"]),
        )
        mode = BooleanMode.syn(t)
        assert verify_control_sequence(bcn, sequence, mode, tau, (2, 4))

        from boolps.cofase import CoFaSeInstance

        instance = CoFaSeInstance.of(bcn, [d("01")], [d("11")], mode)
        solution = solve_cofase(instance, max_phases=3)
        assert solution and solution.phases <= 3
        assert check_solution(instance, solution) == []

        out = tmp_path / "solution.json"
        assert cli_main(
            ["cofase", "solve", str(MODELS / "ex32.cofase"), "--max-phases", "3",
             "--format", "json", "--out", str(out)]
        ) == 0
        assert json.loads(out.read_text())["phases"] <= 3


def test_criterion_4_network_embedding_suite():
    with criterion(4, 60.0, "100 random networks x 3 modes: exact labelled simulation"):
        suite = run_bn_simulation_suite(count=100, seed=2024)
        assert suite.total == 300
        assert suite, suite.summary()


def test_criterion_5_mode_product_suite():
    with criterion(5, 30.0, "100 random system pairs: derived product = product of derived"):
        suite = run_product_lemma_suite(count=100, seed=2026)
        assert suite.total == 100
        assert suite, suite.summary()


def test_criterion_6_controlled_embedding_suite():
    with criterion(6, 120.0, "50 random freeze-controlled networks x syn/asyn: exact"):
        suite = run_bcn_simulation_suite(count=50, seed=2025)
        assert suite.total == 100
        assert suite, suite.summary()


def test_criterion_7_reaction_embedding_suite():
    with criterion(7, 30.0, "100 random reaction systems: step = result function"):
        suite = run_rs_embedding_suite(count=100, seed=2027)
        assert suite.total == 100
        assert suite, suite.summary()


def test_criterion_8_cross_engine_agreement():
    with criterion(8, 120.0, "30 random instances: both solver engines agree"):
        rng = random.Random(4040)
        for index in range(30):
            instance = random_cofase_instance(rng, max_vars=3)
            direct = solve_cofase(instance, max_phases=4)
            steps = 4 * (1 << len(instance.bcn.x_table)) + 4
            via = solve_cofase_via_composite(instance, max_steps=steps, max_phases=4)
            assert bool(direct) == bool(via), f"instance {index}: solvability differs"
            if direct:
                assert direct.phases == via.phases, f"instance {index}: phase counts differ"
                for solution in (direct, via):
                    assert check_solution(instance, solution) == [], f"instance {index}"


def test_criterion_9_maxpar_determinism_and_no_competition():
    with criterion(9, 30.0, "100 random systems: maxpar determinism, order-free application"):
        rng = random.Random(909)
        for _ in range(100):
            table = random_table(rng, rng.randint(2, 5))
            system = random_psystem(rng, table, max_rules=4)
            view = maximally_parallel_mode(system)
            for state in table.subsets():
                fired = view.at(state)
                if system.is_halting(state):
                    assert fired == frozenset()
                    continue
                assert len(fired) == 1
                rules = [system.rule(r) for r in next(iter(fired))]
                base = apply_rule_set(state, rules)
                rng.shuffle(rules)
                assert apply_rule_set(state, rules) == base
                assert apply_rule_set(state, rules + rules) == base


def test_criterion_10_bounded_search_reports_bounds(toggle):
    with criterion(10, 5.0, "hardness not reproduced: bounds are reported outcomes"):
        # an instance with no controls and an unreachable target: the bounded
        # search returns an explicit negative outcome instead of failing
        from boolps.bcn import BooleanControlNetwork
        from boolps.cofase import CoFaSeInstance

        t = toggle.table
        bcn = BooleanControlNetwork(t, VarTable(()), t, toggle.updates)
        instance = CoFaSeInstance.of(
            bcn,
            [StateSet.from_digits(t, "01")],
            [StateSet.from_digits(t, "11")],
            BooleanMode.syn(t),
        )
        outcome = solve_cofase(instance, max_phases=4)
        assert isinstance(outcome, NoSolutionWithinBound)
        assert outcome.phase_bound == 4 and outcome.explored > 0
        via = solve_cofase_via_composite(instance, max_steps=16, max_phases=4)
        assert isinstance(via, NoSolutionWithinBound)
        assert via.step_bound == 16
