import contextlib
import dataclasses
import json
import random
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolps import equivalence
from boolps.bcn import BooleanControlNetwork, freeze_extend, parse_bcn_text
from boolps.bn import BooleanMode, BooleanNetwork, named_mode
from boolps.boolp import (
    BooleanPSystem,
    PowersetQuasimode,
    ProductQuasimode,
    Rule,
    apply_rule_set,
    derive_mode,
    explicit_quasimode,
    maximally_parallel_mode,
    parse_system_text,
    successors,
)
from boolps.equivalence import (
    Counterexample,
    EquivalenceReport,
    _expected_moves,
    _spelled_index,
    boolp_transitions,
    check_bcn_simulation,
    check_bn_simulation,
    check_product_lemma,
    check_rs_embedding,
    reaction_result,
    run_bcn_simulation_suite,
    run_bn_simulation_suite,
    run_product_lemma_suite,
    run_rs_embedding_suite,
)
from boolps.errors import UsageError
from boolps.formula import Formula, StateSet, VarTable, parse_formula
from boolps.generators import (
    random_mode,
    random_network,
    random_psystem,
    random_quasimode,
    random_reaction_system,
    random_table,
)
from boolps.translate import (
    Reaction,
    ReactionSystem,
    bcn_to_composite,
    bn_mode_to_quasimode,
    bn_to_boolp,
    rs_to_boolp,
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
        relation = boolp_transitions(maximally_parallel_mode(system))
        t = system.table
        assert relation.edges == frozenset(
            {
                (StateSet.of(t, ["a", "b"]), frozenset({"r1"}), StateSet.of(t, ["a"])),
                (StateSet.of(t, ["a"]), frozenset({"r2"}), StateSet.empty(t)),
            }
        )

    def test_empty_system_has_no_edges(self):
        system = BooleanPSystem(VarTable.of("a"), ())
        relation = boolp_transitions(maximally_parallel_mode(system))
        assert relation.edges == frozenset()

    def test_encoded_toggle_under_derived_synchronous(self, toggle):
        system = bn_to_boolp(toggle)
        view = derive_mode(system, bn_mode_to_quasimode(BooleanMode.syn(toggle.table), system))
        relation = boolp_transitions(view)
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
        view = derive_mode(
            mutant, bn_mode_to_quasimode(BooleanMode.syn(toggle.table), mutant)
        )
        report = check_bn_simulation(toggle, BooleanMode.syn(toggle.table), encoding=view)
        assert not report
        ce = report.counterexample
        assert ce is not None
        # re-check the counterexample by hand at the reported state
        assert frozenset(successors(view, ce.state)) == ce.actual
        assert ce.expected != ce.actual

    def test_dropped_quasimode_element_detected(self, toggle):
        system = bn_to_boolp(toggle)
        full = bn_mode_to_quasimode(BooleanMode.asyn(toggle.table), system)
        pruned = explicit_quasimode(list(full.family)[1:])
        report = check_bn_simulation(
            toggle, BooleanMode.asyn(toggle.table), encoding=derive_mode(system, pruned)
        )
        assert not report


class TestControlledSimulation:
    def test_golden_network_passes(self, toggle):
        bcn = freeze_extend(toggle)
        assert check_bcn_simulation(bcn, BooleanMode.syn(toggle.table))
        assert check_bcn_simulation(bcn, BooleanMode.asyn(toggle.table))

    def test_no_controls_reduces_to_plain_simulation(self, toggle):
        bcn = BooleanControlNetwork(toggle.table, VarTable(()), toggle.table, toggle.updates)
        assert check_bcn_simulation(bcn, BooleanMode.syn(toggle.table))
        assert check_bn_simulation(toggle, BooleanMode.syn(toggle.table))

    def test_missing_erasers_detected(self, toggle):
        # a controller that never erases control symbols leaves stale ones
        bcn = freeze_extend(toggle)
        mode = BooleanMode.syn(toggle.table)
        composite = bcn_to_composite(bcn, mode)
        crippled = BooleanPSystem(
            composite.system.table,
            tuple(r for r in composite.system.rules if not r.id.startswith("u_clr_")),
        )
        # the quasimode still advises the erase rules the system now lacks
        mutant = dataclasses.replace(composite, system=crippled)
        report = check_bcn_simulation(bcn, mode, composite=mutant)
        assert not report
        assert report.counterexample is not None

    def test_composite_of_another_control_network_is_refused_first(self, monkeypatch):
        # `freeze x` alone: the composite lacks ex32's u_y0 and u_y1
        models = Path(__file__).resolve().parent.parent / "models"
        bcn = parse_bcn_text((models / "ex32.bcn").read_text())
        other = parse_bcn_text("var x, y\nfreeze x\nx' = !x & y\ny' = x & !y\n")
        mode = BooleanMode.asyn(bcn.x_table)
        composite = bcn_to_composite(other, mode)
        monkeypatch.setattr(
            BooleanPSystem, "applicable_masks", lambda system: pytest.fail("table built")
        )
        with pytest.raises(UsageError, match="over a different variable table"):
            check_bcn_simulation(bcn, mode, composite=composite)


class TestStrictSemanticsComparison:
    def test_filtered_semantics_is_load_bearing(self, toggle):
        # at the empty configuration no encoded rule is applicable, so a
        # strict reading, which keeps only the advised sets that are entirely
        # applicable, drops the advised set and loses the network's 00 -> 00
        # self-loop; the derived mode keeps it as an explicit empty firing
        system = bn_to_boolp(toggle)
        quasimode = bn_mode_to_quasimode(BooleanMode.syn(toggle.table), system)
        empty = StateSet.empty(toggle.table)
        assert not [m for m in quasimode.elements() if m <= system.applicable_rules(empty)]
        derived = derive_mode(system, quasimode)
        assert successors(derived, empty) == ((frozenset(), empty),)
        strict_edges = frozenset(
            (state, element, apply_rule_set(state, map(system.rule, element)))
            for state in toggle.table.subsets()
            for element in quasimode.elements()
            if element <= system.applicable_rules(state)
        )
        edges = boolp_transitions(derived).edges
        assert (empty, frozenset(), empty) in edges
        assert strict_edges < edges


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


# --- the expected side against its per-configuration walk ---------------------


def old_expected_moves(updates, mode, configuration, bits, index):
    """The expected side as it stood before its per-element plan was built
    once per check: at every configuration, each element's names walked
    through `StateSet` and each name's position looked up again."""
    out = []
    for element in mode.elements:
        label = 0
        next_bits = bits
        for name in element:
            pos = element.table.position(name)
            if updates[pos].evaluate(configuration):
                label |= index["set_" + name]
                next_bits |= 1 << pos
            else:
                next_bits &= ~(1 << pos)
                if bits >> pos & 1:
                    label |= index["clr_" + name]
        out.append((label, next_bits))
    return out


MODE_NAMES = st.sampled_from(["syn", "asyn", "random", "overlapping", "empty"])


def _network_mode(rng, table, mode_name):
    n = len(table)
    return {
        "random": lambda: random_mode(rng, table),
        "overlapping": lambda: BooleanMode(
            table,
            frozenset(table.state(bits % (1 << n)) for bits in (0b0011, 0b0110, 0b1111)),
        ),
        "empty": lambda: BooleanMode(table, frozenset()),
    }.get(mode_name, lambda: named_mode(mode_name, table))()


def assert_expected_pairs_match_walk(updates, mode, index, table, x_mask):
    # the plan packs each move as label << width | next bits; packing the
    # walk's pairs the same way loses nothing, since packing is injective
    width = len(table)
    expected_pairs = _expected_moves(updates, mode, index, table)
    for configuration in table.subsets():
        bits = configuration.bits & x_mask
        assert set(expected_pairs(configuration.bits, bits)) == {
            label << width | next_bits
            for label, next_bits in old_expected_moves(updates, mode, configuration, bits, index)
        }


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(0, 2**32 - 1), MODE_NAMES)
def test_expected_moves_match_walk_on_networks(n, seed, mode_name):
    rng = random.Random(seed)
    table = random_table(rng, n)
    network = random_network(rng, table)
    mode = _network_mode(rng, table, mode_name)
    index = _spelled_index(table.names)
    assert_expected_pairs_match_walk(network.updates, mode, index, table, (1 << n) - 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(0, 2**32 - 1), MODE_NAMES)
def test_expected_moves_match_walk_on_freeze_extended_x_part(n, seed, mode_name):
    """As `check_bcn_simulation` calls it: updates over the 3n-variable
    table, the mode over the n variables, the control bits masked off."""
    rng = random.Random(seed)
    table = random_table(rng, n)
    bcn = freeze_extend(random_network(rng, table))
    mode = _network_mode(rng, table, mode_name)
    index = _spelled_index(bcn.x_table.names, bcn.u_table.names)
    assert_expected_pairs_match_walk(bcn.updates, mode, index, bcn.table, (1 << n) - 1)


def test_expected_moves_evaluate_each_member_update_once_per_configuration():
    rng = random.Random(11)
    table = random_table(rng, 4)
    network = random_network(rng, table)
    mode = _network_mode(rng, table, "overlapping")
    spies = []
    evaluator = Formula.evaluator

    def spied(formula, table):
        spies.append(mock.Mock(side_effect=evaluator(formula, table)))
        return spies[-1]

    with mock.patch.object(Formula, "evaluator", spied):
        expected_pairs = _expected_moves(
            network.updates, mode, _spelled_index(table.names), table
        )
    members = sum(len(element) for element in mode.elements)
    assert len(spies) == members  # each member's table checked once, at build time
    for bits in range(1 << len(table)):
        expected_pairs(bits, bits)
    assert sum(spy.call_count for spy in spies) == members << len(table)


# --- reaction systems: the direct interpreter and a planted fault -------------


def _enabled_products(rs, bits):
    """The result function from the parts' bits, as the test reads it."""
    out = 0
    for reaction in rs.reactions:
        if reaction.reactants.bits & bits == reaction.reactants.bits and not (
            reaction.inhibitors.bits & bits
        ):
            out |= reaction.products.bits
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.data())
def test_rs_embedding_catches_an_extra_product(species, seed, data):
    rng = random.Random(seed)
    drawn = random_reaction_system(rng, species)
    table = drawn.table
    target = data.draw(st.integers(0, len(drawn.reactions) - 1), label="reaction")
    extra = table.state(1 << data.draw(st.integers(0, species - 1), label="species"))
    # no reaction produces the extra species, so it shows wherever the
    # faulty reaction is enabled
    rs = ReactionSystem(
        table,
        tuple(dataclasses.replace(r, products=r.products - extra) for r in drawn.reactions),
    )
    faulty = dataclasses.replace(
        rs.reactions[target], products=rs.reactions[target].products | extra
    )
    planted = dataclasses.replace(
        rs, reactions=rs.reactions[:target] + (faulty,) + rs.reactions[target + 1:]
    )
    assert check_rs_embedding(rs)
    with mock.patch.object(equivalence, "rs_to_boolp", lambda _rs: rs_to_boolp(planted)):
        report = check_rs_embedding(rs)
    assert not report
    first = next(
        bits
        for bits in range(1 << species)
        if faulty.reactants.bits & ~bits == 0 and not faulty.inhibitors.bits & bits
    )
    ce = report.counterexample
    assert ce.state == table.state(first)
    expected_bits = _enabled_products(rs, first)
    assert ce.expected == {(frozenset(), table.state(expected_bits))}
    assert ce.actual == {(frozenset(), table.state(expected_bits | extra.bits))}


def test_reaction_result_rejects_a_state_of_another_table():
    table = VarTable.of("a", "b")
    a = StateSet.of(table, ["a"])
    rs = ReactionSystem(table, (Reaction("r1", a, StateSet.empty(table), a),))
    for other in (VarTable.of("a", "c"), VarTable.of("a")):
        with pytest.raises(UsageError):
            reaction_result(rs, other.state(1))
    with pytest.raises(UsageError):
        reaction_result(ReactionSystem(table, ()), VarTable.of("a").state(0))


def _mode_views_equal(sys_a, qm_a, sys_b, qm_b):
    """Structural equivalence of two encodings: identical labelled successor
    sets at every configuration (tables must agree)."""
    if sys_a.table != sys_b.table:
        return False
    view_a = derive_mode(sys_a, qm_a)
    view_b = derive_mode(sys_b, qm_b)
    for state in sys_a.table.subsets():
        if set(successors(view_a, state)) != set(successors(view_b, state)):
            return False
    return True


def _single_fault_mutants(rng):
    """A random network of 2-4 variables, a random mode, its canonical
    encoding ``(system, quasimode)`` and that encoding's single-fault
    mutants: a guard flipped, a rule dropped (still advised) and, where
    there are several, an advised element dropped."""
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
    return network, mode, (system, quasimode), mutants


class TestMutantDetection:
    def test_single_fault_mutants_are_detected(self):
        rng = random.Random(90)
        missed = 0
        counted = 0
        for _ in range(25):
            network, mode, (system, quasimode), mutants = _single_fault_mutants(rng)
            for mutant_system, mutant_quasimode in mutants:
                view = derive_mode(mutant_system, mutant_quasimode)
                report = check_bn_simulation(network, mode, encoding=view)
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
                assert frozenset(successors(view, ce.state)) == ce.actual
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
    # the same rules under ids that sort in that order: its packed moves and
    # guard checks are the ones the reversed index needs
    ranked = BooleanPSystem(system.table, tuple(
        Rule(f"r{i:04d}", rule.lhs, rule.rhs, rule.guard) for i, rule in enumerate(ordered)
    ))
    fields = {
        "_bit": {rule.id: 1 << i for i, rule in enumerate(ordered)},
        "_rule_moves": ranked._rule_moves,
        "_checks": ranked._checks,
        "_ids": tuple(rule.id for rule in ordered),
    }
    for name, value in fields.items():
        object.__setattr__(system, name, value)
    return system


def _reversed_decoder(system):
    """The system with only its label decoder `rule_set` reading the index
    in reverse: masks and results stay right, the labels that leave
    `successors` do not."""
    object.__setattr__(system, "_ids", tuple(sorted(system.rule_ids(), reverse=True)))
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
            return check_bn_simulation(network, mode, encoding=derive_mode(system, quasimode))

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


@pytest.mark.parametrize("name", sorted(VERDICT_CASES))
def test_verdict_derives_moves_from_the_table_alone(name):
    # the per-configuration `applicable_mask` runs only through `successors`,
    # for a failing verdict's counterexample
    original = BooleanPSystem.applicable_mask
    calls = []

    def counting(system, configuration):
        calls.append(configuration)
        return original(system, configuration)

    with mock.patch.object(BooleanPSystem, "applicable_mask", counting):
        report = VERDICT_CASES[name]()
    assert len(calls) == (0 if report else 1)
    if not report:
        assert calls == [report.counterexample.state]


def test_verdict_goldens_cover_every_case():
    assert sorted(VERDICT_GOLDENS) == sorted(VERDICT_CASES)


# --- one derivation per applicability class -------------------------------------


def per_configuration_compare(view, table, expected_at, index, detail):
    """`equivalence._compare_moves` as one loop over the configurations in
    ascending order, deriving the moves at each one and stopping at the
    first that differs: the reference its grouping by applicable mask must
    report the same as."""
    system = view.system
    if table != system.table:
        raise UsageError("configuration over a different variable table")
    apps = system.applicable_masks()
    rule_set = system.rule_set
    trusted = system.rule_ids() == set(index) == rule_set(sum(index.values())) and all(
        system.rule_mask((rule_id,)) == bit and rule_set(bit) == {rule_id}
        for rule_id, bit in index.items()
    )
    width = len(table)
    full = (1 << width) - 1

    def spelled(mask):
        return frozenset(rule_id for rule_id, bit in index.items() if mask & bit)

    for configuration in table.subsets():
        bits = configuration.bits
        applied = system.apply_moves(view.resolved(apps[bits]), bits)
        expected = expected_at(bits)
        if trusted:
            if set(applied) == expected:
                continue
        elif {(rule_set(out >> width), out & full) for out in applied} == {
            (spelled(move >> width), move & full) for move in expected
        }:
            continue
        expected_ids = frozenset(
            (spelled(move >> width), table.state(move & full)) for move in expected
        )
        actual = frozenset(successors(view, configuration))
        if actual == expected_ids:
            detail += (
                ": the exhaustive applicability table disagrees"
                " with the per-configuration moves"
            )
        return EquivalenceReport(False, detail, Counterexample(configuration, expected_ids, actual))
    return EquivalenceReport(passed=True, detail="labelled transition relations coincide")


def assert_grouped_reports_as_per_configuration(monkeypatch, check):
    """`check()` gives the same report JSON under `_compare_moves` as under
    `per_configuration_compare`; returns that report."""
    report = check()
    with monkeypatch.context() as patch:
        patch.setattr(equivalence, "_compare_moves", per_configuration_compare)
        reference = check()
    assert json.dumps(report.to_json_dict()) == json.dumps(reference.to_json_dict())
    return report


@pytest.mark.parametrize("name", sorted(VERDICT_CASES))
def test_grouped_comparison_reports_as_the_per_configuration_loop(monkeypatch, name):
    assert_grouped_reports_as_per_configuration(monkeypatch, VERDICT_CASES[name])


def test_grouped_comparison_reports_as_the_per_configuration_loop_on_mutants(monkeypatch):
    rng = random.Random(91)
    failed = 0
    for _ in range(25):
        network, mode, canonical, mutants = _single_fault_mutants(rng)
        for system, quasimode in [canonical] + mutants:
            view = derive_mode(system, quasimode)
            report = assert_grouped_reports_as_per_configuration(
                monkeypatch, lambda: check_bn_simulation(network, mode, encoding=view)
            )
            failed += not report
    # guard flips on composites fail at many configurations, of which the
    # lowest is reported
    for _ in range(10):
        table = random_table(rng, rng.randint(2, 3))
        bcn = freeze_extend(random_network(rng, table))
        mode = random_mode(rng, table)
        composite = bcn_to_composite(bcn, mode)
        flipped = _flip_guard(composite.system, rng.choice(sorted(composite.system.rule_ids())))
        composite = dataclasses.replace(composite, system=flipped)
        report = assert_grouped_reports_as_per_configuration(
            monkeypatch, lambda: check_bcn_simulation(bcn, mode, composite=composite)
        )
        failed += not report
    assert failed > 25


def _flipped_at(system, rule_id, bits):
    """`system` with the guard of `rule_id` negated at the configuration
    with `bits` alone."""
    names = system.table.names
    minterm = " & ".join(name if bits >> i & 1 else "!" + name for i, name in enumerate(names))
    rules = []
    for rule in system.rules:
        if rule.id == rule_id:
            guard = rule.guard.to_text()
            flipped = f"({guard}) & !({minterm}) | !({guard}) & ({minterm})"
            rule = Rule(rule.id, rule.lhs, rule.rhs, parse_formula(flipped, system.table))
        rules.append(rule)
    return BooleanPSystem(system.table, tuple(rules))


def test_grouped_comparison_holds_one_group_of_moves_at_a_time():
    # a 9-symbol composite under asyn with a fault at its second-to-last
    # configuration: nearly every group is derived before the failure.
    # Keeping every group's moves peaks at about 2.2 MiB, one at a time at
    # about 0.5 MiB.
    table = random_table(random.Random(7), 3)
    bcn = freeze_extend(random_network(random.Random(7), table))
    mode = BooleanMode.asyn(table)
    composite = bcn_to_composite(bcn, mode)
    planted = (1 << len(bcn.table)) - 2
    faulty = dataclasses.replace(
        composite, system=_flipped_at(composite.system, "set_" + table.names[0], planted)
    )
    tracemalloc.start()
    try:
        report = check_bcn_simulation(bcn, mode, composite=faulty)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not report and report.counterexample.state.bits == planted
    assert peak < 1 << 20
