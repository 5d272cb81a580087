"""Planted faults: each test patches one function of `boolps` in process,
runs the one check that should catch the fault, at a size where it does,
and requires that check to fail.  The patch is undone before the test
ends, and the same check then passes again.  A later change that weakens
one of these checks fails here."""

import dataclasses
import functools
import inspect
import json
import os
import random
import textwrap

import pytest
import test_acceptance
import test_boolp
import test_cofase
import test_equivalence
from test_bn import assert_component_flags
from test_cli import CAP_CASES, MODELS, assert_cap_flag_and_env_agree, run
from test_direct_goldens import GOLDENS, _instances, _solve_record
from test_cofase import frozen, toggle  # noqa: F401  (fixtures)
from test_cofase import (
    PROBLEM_CASES,
    TABLE_FAULT_INSTANCE,
    assert_classes_match,
    assert_problem_lines,
    assert_same_as_eager,
    chained_overlap_network,
    golden_instance,
    plant_table_fault,
    wide_instance,
)
from test_relation import assert_rows_are_canonical

import boolps.bcn
import boolps.bn
from boolps import boolp, cofase, equivalence, limits
from boolps.bcn import parse_bcn_text
from boolps.bn import BooleanMode, parse_bn_text
from boolps.boolp import BooleanPSystem
from boolps.cofase import parse_instance_text
from boolps.errors import UsageError, ValidationError
from boolps.formula import VarTable, fold_truth_table, truth_columns, truth_patterns
from boolps.generators import random_cofase_instance


def test_a_class_key_reading_only_update_0_fails_the_eager_comparison(frozen, monkeypatch):
    # controls that pin y differ only in update 1, so merging them loses
    # the control the golden instance needs
    classes = boolps.bcn.control_classes

    def first_update_only(bcn):
        merged = {}
        for control, tables in classes(bcn).items():
            merged.setdefault(tables[0], (control, tables))
        return dict(merged.values())

    instance = golden_instance(frozen)
    with monkeypatch.context() as patch:
        patch.setattr(cofase, "control_classes", first_update_only)
        with pytest.raises(AssertionError):
            assert_same_as_eager(instance, 1)
    assert_same_as_eager(instance, 1)


def test_a_fold_at_the_combined_width_fails_the_class_match(monkeypatch):
    # the width of `full` taken from the 2 + 1 patterns, as
    # `fold_truth_table` would over the combined table: `!x` sets bits
    # above the 2**2 states
    fold = boolps.bcn._table_node

    def combined_width(node, patterns, full):
        return fold(node, patterns, (1 << (1 << len(patterns))) - 1)

    bcn = parse_bcn_text("var x, y\ncontrol a\nx' = !x | a\ny' = x & !a\n")
    with monkeypatch.context() as patch:
        patch.setattr(boolps.bcn, "_table_node", combined_width)
        with pytest.raises(AssertionError):
            assert_classes_match(bcn)
    assert_classes_match(bcn)


def test_a_group_per_update_fails_the_class_match(monkeypatch):
    # updates that share an input only through a third update must be
    # one group; apart, their product pairs tables no one control selects
    def one_per_update(masks):
        return [(mask, [update]) for update, mask in enumerate(masks)]

    bcn = chained_overlap_network()
    with monkeypatch.context() as patch:
        patch.setattr(boolps.bcn, "_input_groups", one_per_update)
        with pytest.raises(AssertionError):
            assert_classes_match(bcn)
    assert_classes_match(bcn)


def test_a_cap_that_ignores_the_scope_fails_the_flag_env_parity(capsys, monkeypatch):
    # `--cap-vars` reaches the code through `capped`; a `var_cap` that reads
    # only the environment lets `pi trace` enumerate past the flag's cap
    def env_only():
        return int(os.environ.get(limits.ENV_VAR_CAP, limits.DEFAULT_VAR_CAP))

    cap, argv = CAP_CASES["pi-trace"]
    with monkeypatch.context() as patch:
        # the bindings `check_enumerable` and `PowersetQuasimode.resolve` read
        patch.setattr(limits, "var_cap", env_only)
        patch.setattr(boolp, "var_cap", env_only)
        with pytest.raises(AssertionError):
            assert_cap_flag_and_env_agree(capsys, monkeypatch, cap, argv)
    assert_cap_flag_and_env_agree(capsys, monkeypatch, cap, argv)


# x and z each change where they are equal, y never: from 000 the group
# {x, y} leads to 100 alone, without any control
OVERLAP_INSTANCE = (
    "var x, y, z\nfreeze x\nfreeze z\nx' = !z\ny' = y\nz' = !x\n"
    "start 000\ntarget 100\nmode syn\n"
)


def assert_direct_golden(key):
    """The direct engine's record for `key` of tests/direct_goldens.json."""
    name, policy, min_steps = key.split("/")
    instance, max_phases = next((instance, phases) for label, instance, phases in _instances()
                                if label == name)
    record = _solve_record(instance, max_phases, policy, int(min_steps))
    assert json.dumps(record) == json.dumps(json.loads(GOLDENS.read_text())[key])


def acceptance_instance(index):
    """The instance drawn `index`-th from the generator of acceptance criterion 8."""
    rng = random.Random(4040)
    for _ in range(index):
        random_cofase_instance(rng, max_vars=3)
    return random_cofase_instance(rng, max_vars=3)


def test_an_image_of_the_lowest_state_only_fails_the_eager_comparison(monkeypatch):
    image = cofase._Phase.image

    def lowest_only(phase, states):
        return image(phase, states & -states)

    instance = acceptance_instance(0)
    with monkeypatch.context() as patch:
        patch.setattr(cofase._Phase, "image", lowest_only)
        with pytest.raises(AssertionError):
            assert_same_as_eager(instance, 4)
    assert_same_as_eager(instance, 4)


def test_a_phase_that_reaches_everything_raises_instead_of_a_witness(monkeypatch):
    # `eager_solve` builds its witnesses with the engine's `_build_solution`,
    # so the eager comparison shares this fault; the witness's `bn_step`
    # search finds no run to the endpoint the fault picked
    instance = acceptance_instance(3)
    with monkeypatch.context() as patch:
        patch.setattr(cofase._Phase, "reaches", lambda phase, source, target: True)
        with pytest.raises(ValidationError, match="no path inside a phase"):
            assert_same_as_eager(instance, 4)
    assert_same_as_eager(instance, 4)


def test_a_phase_that_reaches_nothing_raises_a_validation_error(monkeypatch):
    # the image still hits the target, so the backward walk finds no start
    # of the phase that reaches it; both engines share `_build_solution`
    instance = parse_instance_text((MODELS / "ex32.cofase").read_text())
    with monkeypatch.context() as patch:
        patch.setattr(cofase._Phase, "reaches", lambda phase, source, target: False)
        with pytest.raises(ValidationError, match="reachability bookkeeping broken"):
            cofase.solve_cofase(instance, max_phases=1)
        with pytest.raises(ValidationError, match="reachability bookkeeping broken"):
            assert_same_as_eager(instance, 1)
    assert_same_as_eager(instance, 1)


def test_an_image_masked_to_64_bits_fails_the_eager_comparison(monkeypatch):
    # 128 states: the states above bit 63 drop out of every image, which
    # two phases already show
    image = cofase._Phase.image

    def one_word(phase, states):
        return image(phase, states) & (1 << 64) - 1

    instance = wide_instance(3, 7)
    with monkeypatch.context() as patch:
        patch.setattr(cofase._Phase, "image", one_word)
        with pytest.raises(AssertionError):
            assert_same_as_eager(instance, 2)
    assert_same_as_eager(instance, 2)


def test_a_checker_without_the_target_test_fails_the_problem_lines(monkeypatch):
    check = cofase.check_solution

    def every_state_a_target(instance, solution):
        targets = frozenset(instance.bcn.x_table.subsets())
        return check(dataclasses.replace(instance, targets=targets), solution)

    case = PROBLEM_CASES["ends-outside-targets"]
    with monkeypatch.context() as patch:
        patch.setattr(cofase, "check_solution", every_state_a_target)
        with pytest.raises(AssertionError):
            assert_problem_lines(*case)
    assert_problem_lines(*case)


# `_dot`'s path for sides over disjoint rules, which the composite's factors
# and the lemma suite's systems (ids prefixed a and b) always are
DISJOINT_DOT = "[move | move2 for move in first for move2 in second]"


def _dot_dropping_the_second_erase():
    # a move's erase bits are the lower half of the bits below its mask
    second = "move2 >> shift // 2 << shift // 2"
    return _mutant(boolp, "_dot", DISJOINT_DOT, DISJOINT_DOT.replace("move2 for", second + " for"))


def _dot_keeping_the_first_mask():
    second = "move2 & (1 << shift) - 1"
    return _mutant(boolp, "_dot", DISJOINT_DOT, DISJOINT_DOT.replace("move2 for", second + " for"))


def test_a_product_dropping_erase_bits_fails_the_controlled_check(capsys, monkeypatch):
    # the controller's erase rules are the second factor of the composite's
    # product: control symbols are never erased, so {u_x0} keeps u_x0
    argv = ("check", "bcn-sim", MODELS / "ex32.bcn", "--mode", "syn")
    with monkeypatch.context() as patch:
        patch.setattr(boolp, "_dot", _dot_dropping_the_second_erase())
        code, out, _ = run(capsys, *argv)
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "FAIL: composed embedding and controlled dynamics disagree"
        assert lines[1].startswith("at {u_x0}: expected {")
        assert "{u_clr_u_x0} -> {}" in lines[1]
        assert " but got {" in lines[1] and lines[1].endswith("{u_clr_u_x0} -> {u_x0}")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False
        counterexample = doc["counterexample"]
        assert counterexample["state"] == "{u_x0}"
        assert "{u_clr_u_x0} -> {}" in counterexample["expected"]
        assert "{u_clr_u_x0} -> {u_x0}" in counterexample["actual"]
    assert run(capsys, *argv)[0] == 0


LEMMA_DETAIL = "derived product mode differs from product of derived modes"


def test_a_product_keeping_the_first_mask_fails_the_lemma_suite(capsys, monkeypatch):
    argv = ("check", "lemma-product", "--random", "20")
    with monkeypatch.context() as patch:
        patch.setattr(boolp, "_dot", _dot_keeping_the_first_mask())
        code, out, _ = run(capsys, *argv)
        assert code == 1
        summary, *cases = out.splitlines()
        assert summary.startswith("mode-product suite: ") and summary.endswith(" [FAIL]")
        failed = 20 - int(summary.split(": ")[1].split("/")[0])
        assert failed > 0
        assert len(cases) == 2 * failed
        assert cases[0].startswith("  case ")
        assert cases[0].endswith(": " + LEMMA_DETAIL)
        assert cases[1].startswith("    at {") and " but got " in cases[1]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["total"] == 20 and len(doc["failures"]) == failed
        for failure in doc["failures"]:
            assert failure["case"].startswith("case ") and failure["passed"] is False
            assert failure["detail"] == LEMMA_DETAIL
            assert {"state", "expected", "actual"} <= set(failure["counterexample"])
    assert run(capsys, *argv)[0] == 0


def _masks_ignoring_lhs(system):
    n = len(system.table)
    patterns = truth_patterns(n)
    guards = [fold_truth_table(guard, patterns) for _bit, _lhs, guard in system._checks]
    return truth_columns(guards, n)


def _masks_without_the_lowest_rule(system, masks=BooleanPSystem.applicable_masks):
    return [mask & ~1 for mask in masks(system)]


TABLE_DISAGREES = (
    ": the exhaustive applicability table disagrees with the per-configuration moves"
)


@pytest.mark.parametrize("fault", [_masks_ignoring_lhs, _masks_without_the_lowest_rule])
@pytest.mark.parametrize(
    "argv",
    [
        ("check", "bn-sim", MODELS / "ex31.bn", "--mode", "asyn"),
        ("check", "bcn-sim", MODELS / "ex32.bcn", "--mode", "asyn"),
    ],
    ids=["bn-sim", "bcn-sim"],
)
def test_a_wrong_applicability_table_fails_the_simulation_check(capsys, monkeypatch, fault, argv):
    # the per-configuration `applicable_mask` is right, so the counterexample
    # `successors` gives shows the expected moves: only the detail says why
    with monkeypatch.context() as patch:
        patch.setattr(BooleanPSystem, "applicable_masks", fault)
        code, out, _ = run(capsys, *argv)
    assert code == 1
    first, counterexample = out.splitlines()
    assert first.startswith("FAIL: ") and first.endswith(TABLE_DISAGREES)
    state, sides = counterexample.split(": expected ")
    expected, actual = sides.split(" but got ")
    assert state.startswith("at {") and expected == actual
    assert run(capsys, *argv)[:2] == (0, "pass: labelled transition relations coincide\n")


def _ids_keeping_the_lowest(system, mask, rule_set=BooleanPSystem.rule_set):
    return rule_set(system, mask & -mask)


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "bn-sim", MODELS / "ex31.bn", "--mode", "syn"),
        ("check", "bcn-sim", MODELS / "ex32.bcn", "--mode", "syn"),
        ("check", "bcn-sim", MODELS / "ex32.bcn", "--mode", "asyn"),
    ],
    ids=["bn-sim-syn", "bcn-sim-syn", "bcn-sim-asyn"],
)
def test_a_decoder_keeping_one_id_fails_the_simulation_check(capsys, monkeypatch, argv):
    # `pi transitions` and `successors` label moves through `rule_set`; this
    # decoder reads one-rule masks right, so it shows only on moves firing
    # several rules (not under bn-sim asyn, where each move fires one)
    with monkeypatch.context() as patch:
        patch.setattr(BooleanPSystem, "rule_set", _ids_keeping_the_lowest)
        code, out, _ = run(capsys, *argv)
    assert code == 1
    first, counterexample = out.splitlines()
    assert first.startswith("FAIL: ") and not first.endswith(TABLE_DISAGREES)
    expected, actual = counterexample.split(": expected ")[1].split(" but got ")
    assert expected != actual
    assert run(capsys, *argv)[:2] == (0, "pass: labelled transition relations coincide\n")


def _mutant(owner, name, old, new="pass"):
    """`owner.name`, a function, method or cached property, recompiled from
    its source with `old`, which occurs once there, replaced by `new`.  Its
    globals are a copy of its module's, taken now."""
    member = inspect.getattr_static(owner, name)
    source = textwrap.dedent(inspect.getsource(getattr(member, "func", member)))
    assert source.count(old) == 1
    namespace = dict(vars(inspect.getmodule(owner)))
    exec(source.replace(old, new), namespace)
    mutant = namespace[name]
    if isinstance(mutant, functools.cached_property):
        mutant.__set_name__(owner, name)
    return mutant


@pytest.mark.parametrize(
    "statement, rows",
    [
        # 1 -> 0 after {0} closed: an edge to a visited node off the stack
        ("leaves[v] = 1", [[], [0]]),
        # {1, 2} leaves through 2 -> 0; only the root 1 reports the flag
        ("leaves[parent] |= leaves[v]", [[], [2], [1, 0]]),
        # 0 -> 1, where 1 closes its own component as 0's tree child
        ("leaves[work[-1][0]] = 1", [[1], []]),
    ],
    ids=["edge-to-closed", "child-to-parent", "parent-to-closed-child"],
)
def test_a_dropped_leave_flag_fails_the_component_flags(monkeypatch, statement, rows):
    with monkeypatch.context() as patch:
        patch.setattr(boolps.bn, "_components", _mutant(boolps.bn, "_components", statement))
        with pytest.raises(AssertionError):
            assert_component_flags(rows)
    assert_component_flags(rows)


def test_phase_rows_moving_every_changed_bit_fail_the_eager_comparison(monkeypatch):
    # two overlapping groups: where x and z both change, {x, y} moves x
    # alone, and the faulty step moves z with it
    instance = dataclasses.replace(
        parse_instance_text(OVERLAP_INSTANCE),
        mode=BooleanMode.of(VarTable.of("x", "y", "z"), [["x", "y"], ["y", "z"]]))
    with monkeypatch.context() as patch:
        patch.setattr(cofase, "_step_set",
                      _mutant(cofase, "_step_set", "bits ^ (change & g)", "bits ^ change"))
        with pytest.raises(AssertionError):
            assert_same_as_eager(instance, 1)
    assert_same_as_eager(instance, 1)


def test_phase_steps_under_the_first_mode_element_only_fail_criterion_8(monkeypatch):
    # the split is made once per solve, so every class loses the same groups
    with monkeypatch.context() as patch:
        patch.setattr(cofase._ModeSplit, "__init__", _mutant(
            cofase._ModeSplit, "__init__", "mode.sorted_elements()", "mode.sorted_elements()[:1]"))
        with pytest.raises(AssertionError):
            test_acceptance.test_criterion_8_cross_engine_agreement()
    test_acceptance.test_criterion_8_cross_engine_agreement()


def test_a_parts_memo_keyed_without_the_table_fails_the_direct_golden(monkeypatch):
    # ex32 under syn: both variables are frozen, so each class reads the
    # parts of the first class that asked for them, the uncontrolled ones
    with monkeypatch.context() as patch:
        patch.setattr(cofase._ModeSplit, "moved", _mutant(
            cofase._ModeSplit, "moved", "key = (i, tables[i])", "key = i"))
        with pytest.raises(AssertionError):
            assert_direct_golden("ex32/uniform/0")
    assert_direct_golden("ex32/uniform/0")


def test_classes_in_raw_control_order_fail_the_class_match(monkeypatch):
    # {u0} is bits 01 but digits 10: by raw bits it comes before {u1}
    bcn = chained_overlap_network()
    with monkeypatch.context() as patch:
        # the binding `assert_classes_match` calls
        patch.setattr(test_cofase, "control_classes", _mutant(
            boolps.bcn, "control_classes", "classes.sort(key=operator.itemgetter(0))",
            "classes.sort(key=operator.itemgetter(1))"))
        with pytest.raises(AssertionError):
            assert_classes_match(bcn)
    assert_classes_match(bcn)


def test_an_image_ignoring_min_steps_fails_the_min_steps_check(monkeypatch):
    # the zero-step image holds the start, which is the target; the
    # witness's `bn_step` search then finds no run of at least one step
    check = test_cofase.TestDirectSolver().test_min_steps_per_phase
    with monkeypatch.context() as patch:
        patch.setattr(cofase._Phase, "image",
                      _mutant(cofase._Phase, "image", "if self.min_steps:", "if False:"))
        with pytest.raises(ValidationError, match="no path inside a phase"):
            check()
    check()


def test_a_first_step_without_self_loops_fails_the_direct_golden(monkeypatch):
    # under min_steps 1 a group that leaves a state where it is steps it
    # there; without that step the golden's 1-phase witness is lost
    with monkeypatch.context() as patch:
        patch.setattr(cofase._Phase, "image",
                      _mutant(cofase._Phase, "image", "states & still", "0"))
        with pytest.raises(AssertionError):
            assert_direct_golden("random-001/uniform/1")
    assert_direct_golden("random-001/uniform/1")


def test_labels_in_digit_order_fail_the_canonical_rows(monkeypatch):
    # ex31's asyn labels: {x} comes before {y} by text, {y} (01) before {x} (10) by digits
    network = parse_bn_text((MODELS / "ex31.bn").read_text())
    mode = BooleanMode.asyn(network.table)
    with monkeypatch.context() as patch:
        patch.setattr(boolps.bn, "bn_transitions", _mutant(
            boolps.bn, "bn_transitions", "sorted(mode.elements, key=label_text)",
            "mode.sorted_elements()"))
        with pytest.raises(UsageError, match="sorted by their text"):
            assert_rows_are_canonical(boolps.bn.bn_transitions(network, mode))
    assert_rows_are_canonical(boolps.bn.bn_transitions(network, mode))


def test_a_witness_stepping_the_tables_fails_the_solution_check(monkeypatch):
    # `path` steps with `bn_step`, so a table fault alone raises (test_cofase);
    # stepping the faulty tables instead gives a witness that only the
    # replay of `check_solution` refutes
    instance = parse_instance_text(TABLE_FAULT_INSTANCE)
    with monkeypatch.context() as patch:
        plant_table_fault(patch, instance)  # first: the mutant's globals copy it
        patch.setattr(cofase._Phase, "path", _mutant(
            cofase._Phase, "path", "bits ^ bn_step(self.network, table.state(bits), union).bits",
            "_moved(self.tables, groups)[bits]"))
        solution = cofase.solve_cofase(instance, 3)
        assert solution
        assert cofase.check_solution(instance, solution) == [
            "start 00: step 0: 00 -> 10 is not a move of the network under control {}"
        ]
    assert not cofase.solve_cofase(instance, 3)


def test_a_product_that_never_dedupes_fails_the_evolve_golden(monkeypatch):
    # the golden's product factors share r10 and r2, so their unions collide;
    # without the dict each collision is a second, equal move
    with monkeypatch.context() as patch:
        patch.setattr(boolp, "_dot", _mutant(
            boolp, "_dot", "if not used >> shift & used2 >> shift:", "if True:"))
        with pytest.raises(AssertionError, match="product"):
            test_boolp.test_evolve_order_golden()
    test_boolp.test_evolve_order_golden()


def test_a_powerset_without_its_stutter_fails_the_controlled_check(capsys, monkeypatch):
    # the controller's intro factor is a powerset: without its empty move no
    # step leaves every control symbol out
    argv = ("check", "bcn-sim", MODELS / "ex32.bcn", "--mode", "syn")
    powerset = boolp.PowersetQuasimode
    with monkeypatch.context() as patch:
        patch.setattr(powerset, "resolve",
                      _mutant(powerset, "resolve", "return moves", "return moves[1:] or moves"))
        code, out, _ = run(capsys, *argv)
    assert code == 1
    first, counterexample = out.splitlines()
    assert first == "FAIL: composed embedding and controlled dynamics disagree"
    expected, actual = counterexample.split(": expected ")[1].split(" but got ")
    assert len(expected.split("; ")) > len(actual.split("; "))
    assert run(capsys, *argv)[:2] == (0, "pass: labelled transition relations coincide\n")


def test_a_comparison_that_always_trusts_the_index_fails_the_verdict_golden(monkeypatch):
    # the idle extra rule sorts first and shifts every mask by one bit; only
    # the decoded ids show that the relations coincide
    with monkeypatch.context() as patch:
        patch.setattr(equivalence, "_compare_moves",
                      _mutant(equivalence, "_compare_moves", "if trusted:", "if True:"))
        with pytest.raises(AssertionError):
            test_equivalence.test_verdict_golden("bcn-extra-rule-idle")
    test_equivalence.test_verdict_golden("bcn-extra-rule-idle")


def test_a_comparison_of_each_group_s_first_configuration_fails_the_mutant_checks(monkeypatch):
    # a fault at a configuration that shares its applicable mask with a
    # lower one goes unseen when each group stops after its first member
    check = test_equivalence.TestMutantDetection().test_single_fault_mutants_are_detected
    with monkeypatch.context() as patch:
        patch.setattr(equivalence, "_compare_moves", _mutant(
            equivalence, "_compare_moves", "for bits in members:", "for bits in members[:1]:"))
        with pytest.raises(AssertionError, match="non-equivalent mutant"):
            check()
        with pytest.raises(AssertionError):
            test_equivalence.test_verdict_golden("bcn-missing-u-clr")
    check()
    test_equivalence.test_verdict_golden("bcn-missing-u-clr")


def test_a_composite_engine_reading_the_variables_row_fails_the_heap_comparison(monkeypatch):
    # with the control bits dropped, every configuration reads the row of
    # the same variables under no control symbol
    check = test_cofase.test_composite_search_matches_heap_search_over_state_sets
    with monkeypatch.context() as patch:
        patch.setattr(test_cofase, "solve_cofase_via_composite", _mutant(
            cofase, "solve_cofase_via_composite", "resolved(apps[config])",
            "resolved(apps[config & x_mask])"))
        with pytest.raises(AssertionError):
            check()
    check()
