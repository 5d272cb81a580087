import contextlib
import dataclasses
import json
import random
from pathlib import Path
from unittest import mock

import pytest

from boolps.bcn import BooleanControlNetwork, freeze_extend
from boolps.bn import BooleanMode, BooleanNetwork, named_mode
from boolps.boolp import (
    BooleanPSystem,
    PowersetQuasimode,
    ProductQuasimode,
    Rule,
    derive_mode,
    explicit_quasimode,
    maximally_parallel_mode,
    parse_system_text,
    successors,
)
from boolps.equivalence import (
    boolp_transitions,
    check_bcn_simulation,
    check_bn_simulation,
    check_product_lemma,
    check_rs_embedding,
    run_bcn_simulation_suite,
    run_bn_simulation_suite,
    run_product_lemma_suite,
    run_rs_embedding_suite,
)
from boolps.formula import StateSet, VarTable, parse_formula
from boolps.generators import (
    random_mode,
    random_network,
    random_psystem,
    random_quasimode,
    random_reaction_system,
    random_table,
)
from boolps.translate import (
    ControlledComposite,
    bcn_to_composite,
    bn_mode_to_quasimode,
    bn_to_boolp,
    controller_quasimode,
)


@pytest.fixture
def toggle():
    t = VarTable.of("x", "y")
    return BooleanNetwork(t, (parse_formula("!x & y", t), parse_formula("x & !y", t)))


class TestBoolpTransitions:
    def test_cascade_maxpar_edges(self):
        system, _ = parse_system_text(
            "alphabet a, b\nr1: {a, b} -> {a} | 1\nr2: {a} -> {} | !b\n"
        )
        relation = boolp_transitions(system, maximally_parallel_mode(system))
        t = system.table
        assert relation.edges == frozenset(
            {
                (StateSet.of(t, ["a", "b"]), frozenset({"r1"}), StateSet.of(t, ["a"])),
                (StateSet.of(t, ["a"]), frozenset({"r2"}), StateSet.empty(t)),
            }
        )

    def test_empty_system_has_no_edges(self):
        system = BooleanPSystem(VarTable.of("a"), ())
        relation = boolp_transitions(system, maximally_parallel_mode(system))
        assert relation.edges == frozenset()

    def test_encoded_toggle_under_derived_synchronous(self, toggle):
        system = bn_to_boolp(toggle)
        view = derive_mode(system, bn_mode_to_quasimode(BooleanMode.syn(toggle.table), system))
        relation = boolp_transitions(system, view)
        pairs = {(src.digits(), dst.digits()) for src, _l, dst in relation.edges}
        assert pairs == {("00", "00"), ("01", "10"), ("10", "01"), ("11", "00")}
        assert len(relation.edges) == 4


class TestNetworkSimulation:
    def test_golden_network_passes(self, toggle):
        assert check_bn_simulation(toggle, BooleanMode.syn(toggle.table))
        assert check_bn_simulation(toggle, BooleanMode.asyn(toggle.table))

    def test_random_mode_with_empty_element(self, toggle):
        mode = BooleanMode.of(toggle.table, [[], ["x"]])
        assert check_bn_simulation(toggle, mode)

    def test_flipped_guard_detected_with_counterexample(self, toggle):
        system = bn_to_boolp(toggle)
        rules = tuple(
            Rule(r.id, r.lhs, r.rhs, r.guard.negate()) if r.id == "set_x" else r
            for r in system.rules
        )
        mutant = BooleanPSystem(system.table, rules)
        report = check_bn_simulation(toggle, BooleanMode.syn(toggle.table), system=mutant)
        assert not report
        ce = report.counterexample
        assert ce is not None
        # re-check the counterexample by hand at the reported state
        view = derive_mode(
            mutant, bn_mode_to_quasimode(BooleanMode.syn(toggle.table), mutant)
        )
        assert frozenset(successors(mutant, view, ce.state)) == ce.actual
        assert ce.expected != ce.actual

    def test_dropped_quasimode_element_detected(self, toggle):
        system = bn_to_boolp(toggle)
        full = bn_mode_to_quasimode(BooleanMode.asyn(toggle.table), system)
        pruned = explicit_quasimode(list(full.family)[1:])
        report = check_bn_simulation(
            toggle, BooleanMode.asyn(toggle.table), system=system, quasimode=pruned
        )
        assert not report


class TestControlledSimulation:
    def test_golden_network_passes(self, toggle):
        bcn = freeze_extend(toggle)
        assert check_bcn_simulation(bcn, BooleanMode.syn(toggle.table))
        assert check_bcn_simulation(bcn, BooleanMode.asyn(toggle.table))

    def test_no_controls_reduces_to_plain_simulation(self, toggle):
        bcn = BooleanControlNetwork.build(toggle.table, VarTable(()), toggle.updates)
        assert check_bcn_simulation(bcn, BooleanMode.syn(toggle.table))
        assert check_bn_simulation(toggle, BooleanMode.syn(toggle.table))

    def test_missing_erasers_detected(self, toggle):
        # a controller that never erases control symbols leaves stale ones
        bcn = freeze_extend(toggle)
        mode = BooleanMode.syn(toggle.table)
        composite = bcn_to_composite(bcn, mode)
        crippled_pi_u = BooleanPSystem(
            composite.pi_u.table,
            tuple(r for r in composite.pi_u.rules if not r.id.startswith("u_clr_")),
        )
        from boolps.boolp import union_systems

        mutant = ControlledComposite(
            system=union_systems(composite.pi, crippled_pi_u),
            pi=composite.pi,
            pi_u=crippled_pi_u,
            quasimode=composite.base_quasimode.dot(controller_quasimode(bcn.u_table)),
            base_quasimode=composite.base_quasimode,
            control_quasimode=composite.control_quasimode,
            x_table=composite.x_table,
            u_table=composite.u_table,
            mode=mode,
            regime="free",
        )
        report = check_bcn_simulation(bcn, mode, composite=mutant)
        assert not report
        assert report.counterexample is not None


class TestStrictSemanticsComparison:
    def test_filtered_semantics_is_load_bearing(self, toggle):
        # at the empty configuration no encoded rule is applicable, so the
        # strict reading drops the advised set entirely and loses the
        # network's 00 -> 00 self-loop; the filtered reading keeps it as an
        # explicit empty firing
        system = bn_to_boolp(toggle)
        quasimode = bn_mode_to_quasimode(BooleanMode.syn(toggle.table), system)
        empty = StateSet.empty(toggle.table)
        filtered = derive_mode(system, quasimode)
        strict = derive_mode(system, quasimode, strict=True)
        assert successors(system, filtered, empty) == ((frozenset(), empty),)
        assert successors(system, strict, empty) == ()
        filtered_relation = boolp_transitions(system, filtered)
        strict_relation = boolp_transitions(system, strict)
        assert (empty, frozenset(), empty) in filtered_relation.edges
        assert strict_relation.edges < filtered_relation.edges


class TestLemmaAndReactions:
    def test_lemma_holds_on_seeded_pair(self):
        rng = random.Random(37)
        table = random_table(rng, 4)
        first = random_psystem(rng, table, prefix="a")
        second = random_psystem(rng, table, prefix="b")
        assert check_product_lemma(
            first, second, random_quasimode(rng, first), random_quasimode(rng, second)
        )

    def test_rs_embedding_seeded(self):
        rng = random.Random(53)
        for _ in range(5):
            assert check_rs_embedding(random_reaction_system(rng, 4))


class TestSuites:
    def test_bn_suite_smoke(self):
        suite = run_bn_simulation_suite(count=10, seed=1)
        assert suite and suite.total == 30

    def test_bcn_suite_smoke(self):
        suite = run_bcn_simulation_suite(count=5, seed=2)
        assert suite and suite.total == 10

    def test_lemma_suite_smoke(self):
        assert run_product_lemma_suite(count=10, seed=3)

    def test_rs_suite_smoke(self):
        assert run_rs_embedding_suite(count=10, seed=4)


def _mode_views_equal(sys_a, qm_a, sys_b, qm_b):
    """Structural equivalence of two encodings: identical labelled successor
    sets at every configuration (tables must agree)."""
    if sys_a.table != sys_b.table:
        return False
    view_a = derive_mode(sys_a, qm_a)
    view_b = derive_mode(sys_b, qm_b)
    for state in sys_a.table.subsets():
        if set(successors(sys_a, view_a, state)) != set(successors(sys_b, view_b, state)):
            return False
    return True


class TestMutantDetection:
    def test_single_fault_mutants_are_detected(self):
        rng = random.Random(90)
        missed = 0
        counted = 0
        for _ in range(25):
            table = random_table(rng, rng.randint(2, 4))
            network = random_network(rng, table)
            mode = random_mode(rng, table)
            system = bn_to_boolp(network)
            quasimode = bn_mode_to_quasimode(mode, system)

            mutants = []
            # guard flip
            index = rng.randrange(len(system.rules))
            mutants.append(
                (
                    BooleanPSystem(
                        table,
                        tuple(
                            Rule(r.id, r.lhs, r.rhs, r.guard.negate()) if i == index else r
                            for i, r in enumerate(system.rules)
                        ),
                    ),
                    quasimode,
                )
            )
            # dropped rule (quasimode still advises the missing id)
            index = rng.randrange(len(system.rules))
            mutants.append(
                (
                    BooleanPSystem(
                        table,
                        tuple(r for i, r in enumerate(system.rules) if i != index),
                    ),
                    quasimode,
                )
            )
            # dropped advised element
            family = list(quasimode.family)
            if len(family) > 1:
                family.pop(rng.randrange(len(family)))
                mutants.append((system, explicit_quasimode(family)))

            for mutant_system, mutant_quasimode in mutants:
                report = check_bn_simulation(
                    network, mode, system=mutant_system, quasimode=mutant_quasimode
                )
                if report:
                    # claimed equivalent: confirm against the canonical encoding
                    assert _mode_views_equal(
                        mutant_system, mutant_quasimode, system, quasimode
                    ), "check passed on a non-equivalent mutant"
                    continue
                counted += 1
                ce = report.counterexample
                if ce is None:
                    missed += 1
                    continue
                # counterexamples must be independently re-checkable
                view = derive_mode(mutant_system, mutant_quasimode)
                assert frozenset(successors(mutant_system, view, ce.state)) == ce.actual
        assert counted > 0
        assert missed == 0


# --- verdict goldens ------------------------------------------------------------
#
# `to_json_dict()` of each report, byte for byte, as the id-level checks gave
# them before the checks compared rule masks.  The mask comparison is trusted
# only where the system indexes the spelled rule ids as the check does; these
# cases cover a planted fault, rules added, missing or renamed, and kernels
# whose index or label decoder differs from sorted order.


def _flip_guard(system, rule_id):
    return BooleanPSystem(
        system.table,
        tuple(
            Rule(r.id, r.lhs, r.rhs, r.guard.negate()) if r.id == rule_id else r
            for r in system.rules
        ),
    )


def _extra_rule(system, rule_id, lhs=(), rhs=()):
    extra = Rule(
        rule_id,
        StateSet.of(system.table, lhs),
        StateSet.of(system.table, rhs),
        parse_formula("1", system.table),
    )
    return BooleanPSystem(system.table, system.rules + (extra,))


def _without_rule(system, rule_id):
    return BooleanPSystem(system.table, tuple(r for r in system.rules if r.id != rule_id))


def _renamed(quasimode, old, new):
    """The quasimode advising `new` wherever it advised `old`."""
    if isinstance(quasimode, ProductQuasimode):
        return ProductQuasimode(tuple(_renamed(f, old, new) for f in quasimode.factors))
    if isinstance(quasimode, PowersetQuasimode):
        return PowersetQuasimode(frozenset(new if i == old else i for i in quasimode.base))
    return explicit_quasimode(
        [[new if i == old else i for i in element] for element in quasimode.family]
    )


def _rename_rule(old, new):
    """Mutate by renaming one rule, in the system and where it is advised."""

    def mutate(system, quasimode):
        rules = tuple(
            Rule(new, r.lhs, r.rhs, r.guard) if r.id == old else r for r in system.rules
        )
        return BooleanPSystem(system.table, rules), _renamed(quasimode, old, new)

    return mutate


def _swapped_rule_mask():
    """`BooleanPSystem.rule_mask` with the lowest two bits exchanged."""
    original = BooleanPSystem.rule_mask

    def swapped(self, rule_ids):
        mask = original(self, rule_ids)
        return mask & ~3 | (mask & 1) << 1 | (mask >> 1 & 1)

    return mock.patch.object(BooleanPSystem, "rule_mask", swapped)


def _reversed_index(system):
    """The same system with its rule index in reverse sorted-id order: every
    relation it gives is unchanged, but no mask means what the check's
    own index says."""
    ordered = sorted(system.rules, key=lambda rule: rule.id, reverse=True)
    fields = {
        "_bit": {rule.id: 1 << i for i, rule in enumerate(ordered)},
        "_lhs": tuple(rule.lhs.bits for rule in ordered),
        "_rhs": tuple(rule.rhs.bits for rule in ordered),
        "_checks": tuple((1 << i, rule.lhs.bits, rule.guard) for i, rule in enumerate(ordered)),
        "_bytes": tuple(
            tuple(
                tuple(rule.id for j, rule in enumerate(chunk) if value >> j & 1)
                for value in range(256)
            )
            for chunk in (ordered[k:k + 8] for k in range(0, len(ordered), 8))
        ),
    }
    for name, value in fields.items():
        object.__setattr__(system, name, value)
    return system


def _reversed_decoder(system):
    """The system with only its label decoder `rule_set` reading the index
    in reverse: masks and results stay right, the labels that leave
    `successors` do not."""
    ordered = sorted(system.rule_ids(), reverse=True)
    decoder = tuple(
        tuple(
            tuple(rule_id for j, rule_id in enumerate(chunk) if value >> j & 1)
            for value in range(256)
        )
        for chunk in (ordered[k:k + 8] for k in range(0, len(ordered), 8))
    )
    object.__setattr__(system, "_bytes", decoder)
    return system


def _golden_toggle():
    t = VarTable.of("x", "y")
    return BooleanNetwork(t, (parse_formula("!x & y", t), parse_formula("x & !y", t)))


def _bcn_case(mode_name, mutate=None, swap=False):
    def run():
        network = _golden_toggle()
        bcn = freeze_extend(network)
        mode = named_mode(mode_name, network.table)
        composite = bcn_to_composite(bcn, mode)
        if mutate is not None:
            system, quasimode = mutate(composite.system, composite.quasimode)
            composite = dataclasses.replace(composite, system=system, quasimode=quasimode)
        with _swapped_rule_mask() if swap else contextlib.nullcontext():
            return check_bcn_simulation(bcn, mode, composite=composite)

    return run


def _bn_case(mode_name, mutate=None, swap=False):
    def run():
        network = _golden_toggle()
        mode = named_mode(mode_name, network.table)
        system = bn_to_boolp(network)
        quasimode = bn_mode_to_quasimode(mode, system)
        if mutate is not None:
            system, quasimode = mutate(system, quasimode)
        with _swapped_rule_mask() if swap else contextlib.nullcontext():
            return check_bn_simulation(network, mode, system=system, quasimode=quasimode)

    return run


def _advise_too(rule_id):
    """Mutate by adding a rule that also joins every advised set."""

    def mutate(system, quasimode):
        return _extra_rule(system, rule_id, rhs=system.table.names[:1]), quasimode.dot(
            explicit_quasimode([[rule_id]])
        )

    return mutate


VERDICT_CASES = {
    "bcn-canonical-syn": _bcn_case("syn"),
    "bcn-canonical-asyn": _bcn_case("asyn"),
    "bcn-guard-flip": _bcn_case("syn", lambda s, q: (_flip_guard(s, "set_x"), q)),
    "bcn-extra-rule-idle": _bcn_case("asyn", lambda s, q: (_extra_rule(s, "a_extra"), q)),
    "bcn-extra-rule-advised": _bcn_case("syn", _advise_too("a_extra")),
    "bcn-missing-u-clr": _bcn_case(
        "syn", lambda s, q: (_without_rule(s, "u_clr_" + s.table.names[2]), q)
    ),
    "bcn-swapped-mask-syn": _bcn_case("syn", swap=True),
    "bcn-swapped-mask-asyn": _bcn_case("asyn", swap=True),
    "bcn-reversed-index": _bcn_case("asyn", lambda s, q: (_reversed_index(s), q)),
    "bcn-reversed-decoder": _bcn_case("asyn", lambda s, q: (_reversed_decoder(s), q)),
    # renamed ids that sort to the same positions: the masks match, the ids do not
    "bcn-renamed-rule": _bcn_case("asyn", _rename_rule("set_x", "set_x_")),
    "bcn-renamed-u-clr": _bcn_case("syn", _rename_rule("u_clr_u_x0", "u_clr_u_x0_")),
    "bn-canonical-syn": _bn_case("syn"),
    "bn-canonical-asyn": _bn_case("asyn"),
    "bn-guard-flip": _bn_case("syn", lambda s, q: (_flip_guard(s, "set_x"), q)),
    "bn-extra-rule-idle": _bn_case("asyn", lambda s, q: (_extra_rule(s, "a_extra"), q)),
    "bn-extra-rule-advised": _bn_case("syn", _advise_too("a_extra")),
    "bn-missing-clr": _bn_case("asyn", lambda s, q: (_without_rule(s, "clr_y"), q)),
    "bn-swapped-mask-syn": _bn_case("syn", swap=True),
    "bn-swapped-mask-asyn": _bn_case("asyn", swap=True),
    "bn-reversed-index": _bn_case("asyn", lambda s, q: (_reversed_index(s), q)),
    "bn-renamed-rule": _bn_case("syn", _rename_rule("clr_x", "clr_x_")),
    "bn-reversed-decoder": _bn_case("asyn", lambda s, q: (_reversed_decoder(s), q)),
}

VERDICT_GOLDENS = json.loads(
    (Path(__file__).resolve().parent / "verdict_goldens.json").read_text()
)


@pytest.mark.parametrize("name", sorted(VERDICT_CASES))
def test_verdict_golden(name):
    assert json.dumps(VERDICT_CASES[name]().to_json_dict()) == VERDICT_GOLDENS[name]


def test_verdict_goldens_cover_every_case():
    assert sorted(VERDICT_GOLDENS) == sorted(VERDICT_CASES)
