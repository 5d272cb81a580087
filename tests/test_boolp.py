import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolps.bcn import freeze_extend
from boolps.bn import named_mode
from boolps.boolp import (
    BooleanPSystem,
    ExplicitQuasimode,
    PowersetQuasimode,
    ProductQuasimode,
    Quasimode,
    Rule,
    _dot,
    apply_rule_set,
    derive_mode,
    dotted_product,
    evolve,
    explicit_quasimode,
    format_system_text,
    maximally_parallel_mode,
    named_quasimode,
    parse_system_text,
    quasimode_async,
    quasimode_maxpar,
    quasimode_seq,
    remap_system,
    successors,
    union_systems,
)
from boolps.errors import CapacityError, ParseError, UsageError, ValidationError
from boolps.formula import (
    MAX_NESTING,
    And,
    Const,
    Formula,
    Not,
    Or,
    StateSet,
    Var,
    VarTable,
    equivalent,
    merge_tables,
    parse_formula,
)
from boolps.generators import (
    random_formula,
    random_network,
    random_psystem,
    random_quasimode,
    random_table,
)
from boolps.limits import capped
from boolps.relation import label_text
from boolps.translate import bcn_to_composite

CASCADE_TEXT = """
alphabet a, b
r1: {a, b} -> {a} | 1
r2: {a} -> {} | !b
"""


@pytest.fixture
def cascade():
    system, _ = parse_system_text(CASCADE_TEXT)
    return system


def conf(system, names):
    return StateSet.of(system.table, names)


class TestApplicability:
    def test_guard_blocks_when_b_present(self, cascade):
        assert not cascade.rule("r2").applicable_to(conf(cascade, ["a", "b"]))

    def test_empty_lhs_true_guard_always_applicable(self):
        t = VarTable.of("a")
        rule = Rule("r", StateSet.empty(t), StateSet.of(t, ["a"]), Formula.const(t, True))
        system = BooleanPSystem(t, (rule,))
        for state in t.subsets():
            assert rule.applicable_to(state)

    def test_lhs_must_be_contained(self, cascade):
        assert not cascade.rule("r1").applicable_to(conf(cascade, ["a"]))

    def test_applicable_rules_along_the_cascade(self, cascade):
        assert cascade.applicable_rules(conf(cascade, ["a", "b"])) == {"r1"}
        assert cascade.applicable_rules(conf(cascade, ["a"])) == {"r2"}
        assert cascade.applicable_rules(conf(cascade, [])) == frozenset()
        assert cascade.applicable_rules(conf(cascade, ["b"])) == frozenset()

    def test_empty_system_halts_everywhere(self):
        t = VarTable.of("a")
        system = BooleanPSystem(t, ())
        assert all(system.is_halting(s) for s in t.subsets())


class TestApplication:
    def test_cascade_steps(self, cascade):
        full = conf(cascade, ["a", "b"])
        assert apply_rule_set(full, [cascade.rule("r1")]) == conf(cascade, ["a"])
        assert apply_rule_set(conf(cascade, ["a"]), [cascade.rule("r2")]) == conf(cascade, [])

    def test_empty_set_is_stutter(self, cascade):
        full = conf(cascade, ["a", "b"])
        assert apply_rule_set(full, []) == full

    def test_inapplicable_member_names_rule(self, cascade):
        with pytest.raises(ValidationError) as err:
            apply_rule_set(conf(cascade, ["a", "b"]), [cascade.rule("r2")])
        assert "r2" in str(err.value)

    def test_duplicates_have_no_effect(self, cascade):
        full = conf(cascade, ["a", "b"])
        once = apply_rule_set(full, [cascade.rule("r1")])
        twice = apply_rule_set(full, [cascade.rule("r1"), cascade.rule("r1")])
        assert once == twice

    def test_order_independence_and_idempotence(self):
        rng = random.Random(31)
        for _ in range(30):
            table = random_table(rng, rng.randint(2, 4))
            system = random_psystem(rng, table)
            for state in table.subsets():
                usable = [system.rule(r) for r in system.applicable_rules(state)]
                if not usable:
                    continue
                base = apply_rule_set(state, usable)
                for perm in itertools.islice(itertools.permutations(usable), 6):
                    assert apply_rule_set(state, list(perm)) == base
                assert apply_rule_set(state, usable + usable) == base


class TestDeriveMode:
    def test_filtering_keeps_applicable_part(self, cascade):
        view = derive_mode(cascade, explicit_quasimode([{"r1", "r2"}]))
        assert view.at(conf(cascade, ["a", "b"])) == {frozenset({"r1"})}

    def test_empty_family(self, cascade):
        view = derive_mode(cascade, explicit_quasimode([]))
        for state in cascade.table.subsets():
            assert view.at(state) == frozenset()

    def test_pure_stutter_family(self, cascade):
        view = derive_mode(cascade, explicit_quasimode([set()]))
        for state in cascade.table.subsets():
            assert view.at(state) == {frozenset()}
        for state in cascade.table.subsets():
            assert successors(view, state) == ((frozenset(), state),)


class TestMaxpar:
    def test_cascade_choices(self, cascade):
        view = maximally_parallel_mode(cascade)
        assert view.at(conf(cascade, ["a", "b"])) == {frozenset({"r1"})}
        assert view.at(conf(cascade, ["a"])) == {frozenset({"r2"})}
        assert view.at(conf(cascade, [])) == frozenset()

    def test_deterministic_at_non_halting(self):
        rng = random.Random(7)
        for _ in range(30):
            table = random_table(rng, rng.randint(2, 4))
            system = random_psystem(rng, table)
            view = maximally_parallel_mode(system)
            for state in table.subsets():
                if system.is_halting(state):
                    assert view.at(state) == frozenset()
                else:
                    assert len(view.at(state)) == 1


class TestSuccessorsAndEvolve:
    def test_maxpar_successors(self, cascade):
        view = maximally_parallel_mode(cascade)
        assert successors(view, conf(cascade, ["a", "b"])) == (
            (frozenset({"r1"}), conf(cascade, ["a"])),
        )

    def test_sequential_advising_filters_to_stutter(self, cascade):
        view = derive_mode(cascade, quasimode_seq(cascade))
        got = set(successors(view, conf(cascade, ["a", "b"])))
        assert got == {
            (frozenset({"r1"}), conf(cascade, ["a"])),
            (frozenset(), conf(cascade, ["a", "b"])),
        }

    def test_halting_state_has_no_successors(self, cascade):
        view = maximally_parallel_mode(cascade)
        assert successors(view, conf(cascade, [])) == ()

    def test_cascade_evolution(self, cascade):
        view = maximally_parallel_mode(cascade)
        runs = evolve(view, conf(cascade, ["a", "b"]), 2)
        assert len(runs) == 1
        assert runs[0].text(style="set") == "{a, b} -> {a} -> {} [halting]"
        assert runs[0].halting

    def test_evolution_stops_at_halting_before_bound(self, cascade):
        view = maximally_parallel_mode(cascade)
        runs = evolve(view, conf(cascade, ["a", "b"]), 10)
        assert [s.set_text() for s in runs[0].states] == ["{a, b}", "{a}", "{}"]

    def test_start_already_halting(self, cascade):
        view = maximally_parallel_mode(cascade)
        runs = evolve(view, conf(cascade, []), 4)
        assert runs == (evolve(view, conf(cascade, []), 0))
        assert runs[0].halting and len(runs[0]) == 1

    def test_zero_steps_reports_applicability(self, cascade):
        view = maximally_parallel_mode(cascade)
        assert not evolve(view, conf(cascade, ["a"]), 0)[0].halting
        assert evolve(view, conf(cascade, ["b"]), 0)[0].halting

    def test_breadth_cap(self, cascade):
        view = derive_mode(cascade, quasimode_async(cascade))
        with pytest.raises(CapacityError) as err:
            evolve(view, conf(cascade, ["a", "b"]), 12, breadth_cap=5)
        assert "evolution breadth exceeded cap 5" in str(err.value)


class TestUnion:
    def test_self_union_is_identity(self, cascade):
        assert union_systems(cascade, cascade) == cascade

    def test_disjoint_union_counts(self, cascade):
        rng = random.Random(13)
        other = random_psystem(rng, random_table(rng, 2, prefix="z"), prefix="q")
        union = union_systems(cascade, other)
        assert len(union.table) == len(cascade.table) + 2
        assert len(union.rules) == len(cascade.rules) + len(other.rules)

    def test_same_id_different_rule_rejected(self):
        t = VarTable.of("a")
        one = BooleanPSystem(
            t, (Rule("r", StateSet.of(t, ["a"]), StateSet.empty(t), Formula.const(t, True)),)
        )
        two = BooleanPSystem(
            t, (Rule("r", StateSet.empty(t), StateSet.of(t, ["a"]), Formula.const(t, True)),)
        )
        with pytest.raises(ValidationError):
            union_systems(one, two)

    def test_same_id_guard_equal_as_truth_table_merges(self):
        t = VarTable.of("a", "b")
        lhs = StateSet.of(t, ["a"])
        one = BooleanPSystem(t, (Rule("r", lhs, lhs, parse_formula("!(a & b)", t)),))
        two = BooleanPSystem(t, (Rule("r", lhs, lhs, parse_formula("!a | !b", t)),))
        union = union_systems(one, two)
        assert len(union.rules) == 1

    def test_applicability_factorizes_over_union(self):
        rng = random.Random(41)
        for _ in range(15):
            table_one = random_table(rng, 2, prefix="v")
            table_two = random_table(rng, 2, prefix="w")
            one = random_psystem(rng, table_one, prefix="a")
            two = random_psystem(rng, table_two, prefix="b")
            union = union_systems(one, two)
            merged, map_one, map_two = merge_tables(table_one, table_two)
            assert merged == union.table
            lifted_one = remap_system(one, union.table, map_one)
            lifted_two = remap_system(two, union.table, map_two)
            for state in union.table.subsets():
                assert union.applicable_rules(state) == (
                    lifted_one.applicable_rules(state) | lifted_two.applicable_rules(state)
                )


class TestDottedProduct:
    def test_identity_element(self):
        family = {frozenset({"r1"}), frozenset({"r2"})}
        assert dotted_product({frozenset()}, family) == family

    def test_pairwise_unions(self):
        got = dotted_product({frozenset({"1"})}, {frozenset({"2"}), frozenset({"3"})})
        assert got == {frozenset({"1", "2"}), frozenset({"1", "3"})}

    def test_controller_family_always_contains_erasers(self):
        erasers = frozenset({"c1", "c2"})
        setters = [frozenset(s) for s in ({"s1"}, {"s2"}, {"s1", "s2"}, set())]
        got = dotted_product({erasers}, setters)
        assert all(erasers <= element for element in got)


class TestProductMode:
    def test_stutter_factor_is_identity(self, cascade):
        maxpar = quasimode_maxpar(cascade)
        view = derive_mode(cascade, maxpar)
        combined = derive_mode(cascade, maxpar.dot(explicit_quasimode([set()])))
        for state in cascade.table.subsets():
            assert combined.at(state) == view.at(state)

    def test_derived_product_equals_product_of_derived(self):
        # one concrete instance of the composition property (the seeded
        # suite exercises it at scale)
        rng = random.Random(19)
        table = random_table(rng, 3)
        one = random_psystem(rng, table, prefix="a")
        two = random_psystem(rng, table, prefix="b")
        union = union_systems(one, two)
        qm_one = random_quasimode(rng, one)
        qm_two = random_quasimode(rng, two)
        left = derive_mode(union, qm_one.dot(qm_two))
        for state in union.table.subsets():
            applicable = union.applicable_rules(state)
            right = dotted_product(qm_one.advised(applicable), qm_two.advised(applicable))
            assert left.at(state) == right


class TestQuasimodeGenerators:
    def test_async_enumerates_lazily(self, cascade):
        quasimode = quasimode_async(cascade)
        elements = list(quasimode.elements())
        assert len(elements) == 4  # 2 rules -> 4 subsets
        assert len(set(elements)) == 4  # without duplicates

    def test_maxpar_quasimode_stutters_at_halting(self, cascade):
        # unlike the maximally parallel mode, the derived all-rules family
        # keeps an explicit empty firing at halting configurations
        view = derive_mode(cascade, quasimode_maxpar(cascade))
        assert view.at(conf(cascade, [])) == {frozenset()}


RULE_SETS = st.frozensets(st.sampled_from([f"r{i}" for i in range(1, 6)]))
QUASIMODES = st.recursive(
    st.one_of(
        st.frozensets(RULE_SETS, min_size=1).map(ExplicitQuasimode),
        RULE_SETS.map(PowersetQuasimode),
    ),
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(
        lambda factors: ProductQuasimode(tuple(factors))
    ),
    max_leaves=4,
)


@settings(max_examples=200, deadline=None)
@given(QUASIMODES, RULE_SETS)
def test_advised_cuts_every_element_to_the_applicable_set(quasimode, applicable):
    elements = list(quasimode.elements())
    assert quasimode.advised(applicable) == {a & applicable for a in elements}


# The kernel indexes rules in sorted-id order: declared r1, r2, r3, r10, r11,
# they are bits 0-4 as r1, r10, r11, r2, r3.
POOL = ("r1", "r2", "r3", "r10", "r11")
POOL_SETS = st.frozensets(st.sampled_from(POOL))
POOL_QUASIMODES = st.recursive(
    st.one_of(
        st.frozensets(POOL_SETS, min_size=1).map(ExplicitQuasimode),
        POOL_SETS.map(PowersetQuasimode),
    ),
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(
        lambda factors: ProductQuasimode(tuple(factors))
    ),
    max_leaves=4,
)


@st.composite
def pool_systems(draw):
    """Up to three symbols and a random subset of POOL as rules, declared in
    POOL order, so quasimodes may also advise ids the system lacks."""
    table = VarTable([f"s{i}" for i in range(draw(st.integers(1, 3)))])
    states = st.integers(0, (1 << len(table)) - 1).map(table.state)
    rules = []
    for rule_id in POOL:
        if draw(st.booleans()):
            guard = random_formula(random.Random(draw(st.integers(0, 1 << 16))), table, 2)
            rules.append(Rule(rule_id, draw(states), draw(states), guard))
    return BooleanPSystem(table, tuple(rules))


def reference_pairs(system, advised, configuration):
    """Fired-set/result pairs of an id-level mode value, applied rule by rule."""
    return {
        (fired, apply_rule_set(configuration, [system.rule(r) for r in fired]))
        for fired in advised
    }


@settings(max_examples=200, deadline=None)
@given(pool_systems(), POOL_QUASIMODES, POOL_QUASIMODES)
def test_successors_match_id_level_reference(system, quasimode, other):
    # the reference: Rule.applicable_to, Quasimode.advised, dotted_product
    # and apply_rule_set, none of which uses rule masks
    derived = derive_mode(system, quasimode)
    views = (
        (derived, quasimode.advised),
        (derive_mode(system, quasimode.dot(other)), quasimode.dot(other).advised),
        (maximally_parallel_mode(system), lambda app: {app} if app else set()),
    )
    for configuration in system.table.subsets():
        applicable = frozenset(r.id for r in system.rules if r.applicable_to(configuration))
        for view, advised in views:
            got = successors(view, configuration)
            assert len(got) == len(set(got))
            assert set(got) == reference_pairs(system, advised(applicable), configuration)
            assert view.at(configuration) == advised(applicable)


def reference_dot(first, second, shift):
    """`_dot` without its path for disjoint sides: one dict entry per mask,
    the bits from `shift` up, listed in the order of its first pair."""
    out = {}
    for move in first:
        for move2 in second:
            out[(move | move2) >> shift] = move | move2
    return list(out.values())


SHIFT = 16


def mode_values(masks):
    """A mode value as `_dot` takes it: moves with distinct masks, the
    masks from bit SHIFT up and any bits below."""
    moves = st.tuples(masks, st.integers(0, (1 << SHIFT) - 1))
    return st.lists(
        moves.map(lambda pair: pair[0] << SHIFT | pair[1]),
        max_size=6,
        unique_by=lambda move: move >> SHIFT,
    )


@settings(max_examples=200, deadline=None)
@given(st.data(), st.booleans())
def test_dot_lists_what_the_dict_reference_lists(data, disjoint):
    # disjoint sides take `_dot`'s list comprehension, overlapping ones its dict
    first = data.draw(mode_values(st.integers(0, 15)))
    apart = 4 if disjoint else 0
    second = data.draw(mode_values(st.integers(0, 15).map(lambda mask: mask << apart)))
    assert _dot(first, second, SHIFT) == reference_dot(first, second, SHIFT)


@settings(max_examples=100, deadline=None)
@given(pool_systems(), POOL_QUASIMODES, POOL_QUASIMODES, POOL_QUASIMODES)
def test_a_nested_product_resolves_as_the_flat_one(system, a, b, c):
    # the factors may share ids, so unions collide and the dict dedupes
    nested = ProductQuasimode((a, ProductQuasimode((b, c)))).resolve(system)
    flat = ProductQuasimode((a, b, c)).resolve(system)
    first, second, third = (q.resolve(system) for q in (a, b, c))
    shift = 2 * len(system.table)  # where a move's mask starts
    for app in range(1 << len(system.rules)):
        inner = reference_dot(second(app), third(app), shift)
        expected = reference_dot(first(app), inner, shift)
        assert nested(app) == flat(app) == expected


NO_ELEMENT = ExplicitQuasimode(frozenset())
SOMETIMES_EMPTY = st.recursive(
    st.one_of(st.just(NO_ELEMENT), st.frozensets(POOL_SETS).map(ExplicitQuasimode),
              POOL_SETS.map(PowersetQuasimode)),
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(
        lambda factors: ProductQuasimode(tuple(factors))
    ),
    max_leaves=4,
)


@settings(max_examples=200, deadline=None)
@given(SOMETIMES_EMPTY)
def test_product_rule_ids_match_the_enumerating_definition(quasimode):
    assert quasimode.rule_ids() == Quasimode.rule_ids(quasimode)


@pytest.mark.parametrize(
    "n, regime",
    [
        (n, regime)
        for n in (1, 2, 3)
        for regime in ("free", "tcs", "acs")
        if (n, regime) != (3, "acs")  # its enumeration would list 2**18 controller sets
    ],
)
def test_composite_rule_ids_match_the_enumerating_definition(n, regime):
    rng = random.Random(n)
    table = random_table(rng, n)
    bcn = freeze_extend(random_network(rng, table))
    for mode_name in ("syn", "asyn"):
        composite = bcn_to_composite(bcn, named_mode(mode_name, table), regime)
        quasimode = composite.quasimode
        assert quasimode.rule_ids() == Quasimode.rule_ids(quasimode) == composite.system.rule_ids()
        with_empty = ProductQuasimode((quasimode, NO_ELEMENT))
        assert with_empty.rule_ids() == Quasimode.rule_ids(with_empty) == frozenset()


@st.composite
def guarded_systems(draw):
    """Zero to four symbols and zero to six rules; lhs often empty and guards
    often constant, so the truth tables' edge cases come up."""
    table = VarTable([f"s{i}" for i in range(draw(st.integers(0, 4)))])
    states = st.integers(0, (1 << len(table)) - 1).map(table.state)
    constants = st.booleans().map(lambda value: Formula.const(table, value))
    formulas = st.integers(0, 1 << 16).map(
        lambda seed: random_formula(random.Random(seed), table, 3)
    )
    rules = []
    for k in range(draw(st.integers(0, 6))):
        lhs = draw(st.one_of(st.just(StateSet.empty(table)), states))
        rules.append(Rule(f"r{k}", lhs, draw(states), draw(st.one_of(constants, formulas))))
    return BooleanPSystem(table, tuple(rules))


@settings(max_examples=200, deadline=None)
@given(guarded_systems())
def test_applicable_masks_match_applicable_mask(system):
    masks = system.applicable_masks()
    assert len(masks) == 1 << len(system.table)
    for configuration in system.table.subsets():
        assert masks[configuration.bits] == system.applicable_mask(configuration)


def test_applicable_masks_of_no_rules_and_no_symbols():
    empty_table = VarTable(())
    assert BooleanPSystem(empty_table, ()).applicable_masks() == [0]
    always = Rule("r", StateSet.empty(empty_table), StateSet.empty(empty_table),
                  Formula.const(empty_table, True))
    assert BooleanPSystem(empty_table, (always,)).applicable_masks() == [1]
    table = VarTable.of("a", "b")
    assert BooleanPSystem(table, ()).applicable_masks() == [0, 0, 0, 0]


def test_powerset_over_the_cap_raises(monkeypatch):
    # the cap is read once, when the mode is derived
    system, _ = parse_system_text("alphabet a, b\nr1: {a} -> {b} | 1\nr2: {b} -> {a} | 1\n")
    monkeypatch.setenv("BOOLPS_CAP_VARS", "1")
    view = derive_mode(system, PowersetQuasimode(frozenset({"r1", "r2"})))
    assert view.at(conf(system, ["a"])) == {frozenset(), frozenset({"r1"})}
    with pytest.raises(CapacityError) as err:
        view.at(conf(system, ["a", "b"]))
    assert str(err.value) == (
        "applicable advised rules has 2 variables; enumeration capped at 1 "
        "(raise it with --cap-vars or BOOLPS_CAP_VARS)"
    )


def test_applicable_masks_cap(cascade):
    with capped(1), pytest.raises(CapacityError):
        cascade.applicable_masks()
    with capped(2):
        assert cascade.applicable_masks() == [0, 0b10, 0, 0b01]


@pytest.mark.parametrize("value", [2.7, True, "3"])
def test_capped_rejects_a_non_integer(value):
    # 2.7 set the cap to 2 and True to 1
    with pytest.raises(UsageError, match="must be an integer"), capped(value):
        pass


def test_rule_masks_follow_sorted_ids():
    table = VarTable.of("a")
    true = Formula.const(table, True)
    empty = StateSet.empty(table)
    ids = [f"q{i}" for i in range(20)]  # sorted: q0, q1, q10, ..., q19, q2, ..., q9
    system = BooleanPSystem(table, tuple(Rule(i, empty, empty, true) for i in ids))
    assert [system.rule_set(1 << k) for k in range(20)] == [{i} for i in sorted(ids)]
    assert system.rule_mask({"q2", "q10", "unknown"}) == 1 << 12 | 1 << 2
    rng = random.Random(5)
    for _ in range(50):
        chosen = frozenset(rng.sample(ids, rng.randint(0, 20)))
        assert system.rule_set(system.rule_mask(chosen)) == chosen


SORTED_IDS_TEXT = """
alphabet a, b, c
r2: {a} -> {b} | 1
r3: {b} -> {c} | !c
r10: {} -> {a} | !a
"""

# `evolve` from {b} for two steps, in the order it returns the runs;
# recorded before the rule-mask kernel, whose successors are unordered.
EVOLVE_GOLDEN = {
    'maxpar': [
        '{b} --{r10, r3}--> {a, c} --{r2}--> {b, c}',
    ],
    'seq': [
        '{b} --{}--> {b} --{}--> {b}',
        '{b} --{}--> {b} --{r10}--> {a, b}',
        '{b} --{}--> {b} --{r3}--> {c}',
        '{b} --{r10}--> {a, b} --{}--> {a, b}',
        '{b} --{r10}--> {a, b} --{r2}--> {b}',
        '{b} --{r10}--> {a, b} --{r3}--> {a, c}',
        '{b} --{r3}--> {c} --{}--> {c}',
        '{b} --{r3}--> {c} --{r10}--> {a, c}',
    ],
    'async': [
        '{b} --{}--> {b} --{}--> {b}',
        '{b} --{}--> {b} --{r10}--> {a, b}',
        '{b} --{}--> {b} --{r10, r3}--> {a, c}',
        '{b} --{}--> {b} --{r3}--> {c}',
        '{b} --{r10}--> {a, b} --{}--> {a, b}',
        '{b} --{r10}--> {a, b} --{r2}--> {b}',
        '{b} --{r10}--> {a, b} --{r2, r3}--> {b, c}',
        '{b} --{r10}--> {a, b} --{r3}--> {a, c}',
        '{b} --{r10, r3}--> {a, c} --{}--> {a, c}',
        '{b} --{r10, r3}--> {a, c} --{r2}--> {b, c}',
        '{b} --{r3}--> {c} --{}--> {c}',
        '{b} --{r3}--> {c} --{r10}--> {a, c}',
    ],
    'explicit': [
        '{b} --{}--> {b} --{}--> {b}',
        '{b} --{}--> {b} --{r10, r3}--> {a, c}',
        '{b} --{}--> {b} --{r3}--> {c}',
        '{b} --{r10, r3}--> {a, c} --{}--> {a, c}',
        '{b} --{r10, r3}--> {a, c} --{r2}--> {b, c}',
        '{b} --{r3}--> {c} --{}--> {c}',
        '{b} --{r3}--> {c} --{r10}--> {a, c}',
    ],
    'product': [
        '{b} --{}--> {b} --{}--> {b}',
        '{b} --{}--> {b} --{r10}--> {a, b}',
        '{b} --{}--> {b} --{r10, r3}--> {a, c}',
        '{b} --{}--> {b} --{r3}--> {c}',
        '{b} --{r10}--> {a, b} --{r2}--> {b}',
        '{b} --{r10}--> {a, b} --{r2, r3}--> {b, c}',
        '{b} --{r10}--> {a, b} --{r3}--> {a, c}',
        '{b} --{r10, r3}--> {a, c} --{}--> {a, c}',
        '{b} --{r10, r3}--> {a, c} --{r2}--> {b, c}',
        '{b} --{r3}--> {c} --{}--> {c}',
        '{b} --{r3}--> {c} --{r10}--> {a, c}',
    ],
}


def run_text(trajectory):
    out = trajectory.states[0].set_text()
    for label, state in zip(trajectory.labels, trajectory.states[1:]):
        out += f" --{label_text(label)}--> {state.set_text()}"
    return out + (" [halting]" if trajectory.halting else "")


def test_evolve_order_golden():
    system, _ = parse_system_text(SORTED_IDS_TEXT)
    family = explicit_quasimode([{"r10", "r3"}, {"r2"}, {"r2", "r3"}])
    views = {
        "maxpar": maximally_parallel_mode(system),
        "seq": derive_mode(system, quasimode_seq(system)),
        "async": derive_mode(system, quasimode_async(system)),
        "explicit": derive_mode(system, family),
        "product": derive_mode(
            system, family.dot(PowersetQuasimode(frozenset({"r10", "r2"})))
        ),
    }
    start = conf(system, ["b"])
    for name, view in views.items():
        runs = evolve(view, start, 2)
        assert [run_text(t) for t in runs] == EVOLVE_GOLDEN[name], name


class TestTextFormat:
    def test_round_trip_with_quasimode(self, cascade):
        quasimode = explicit_quasimode([{"r1"}, {"r1", "r2"}])
        text = format_system_text(cascade, quasimode)
        system, parsed = parse_system_text(text)
        assert system == cascade
        assert frozenset(parsed.elements()) == frozenset(quasimode.elements())

    def test_named_quasimode_round_trip(self, cascade):
        text = format_system_text(cascade, quasimode_maxpar(cascade))
        _system, parsed = parse_system_text(text)
        assert parsed.name == "maxpar"

    def test_empty_alphabet_has_no_text_form(self):
        # the reader needs a symbol after `alphabet`, so the writer refuses
        with pytest.raises(ParseError):
            parse_system_text("alphabet \n")
        system = BooleanPSystem(VarTable.of(), ())
        for quasimode in (None, quasimode_maxpar(system)):
            with pytest.raises(UsageError, match="empty alphabet"):
                format_system_text(system, quasimode)

    def test_default_guard_is_tautology(self):
        system, _ = parse_system_text("alphabet a\nr1: {a} -> {}\n")
        assert system.rule("r1").guard.root == parse_formula("1", system.table).root

    def test_unknown_advised_rule_rejected(self):
        from boolps.errors import ParseError

        with pytest.raises(ParseError):
            parse_system_text("alphabet a\nr1: {a} -> {} | 1\nadvise {zz}\n")

    def test_random_round_trip_is_semantically_identical(self):
        # dumps re-parse to the same rule set: same ids, same sides, guards
        # equal as truth tables (nested chains may flatten structurally)
        from boolps.formula import equivalent

        rng = random.Random(77)
        for _ in range(30):
            table = random_table(rng, rng.randint(1, 5))
            system = random_psystem(rng, table)
            quasimode = random_quasimode(rng, system)
            again, parsed = parse_system_text(format_system_text(system, quasimode))
            assert again.table == system.table
            assert again.rule_ids() == system.rule_ids()
            for rule in system.rules:
                other = again.rule(rule.id)
                assert other.lhs == rule.lhs and other.rhs == rule.rhs
                assert equivalent(other.guard, rule.guard)
            assert frozenset(parsed.elements()) == frozenset(quasimode.elements())


# --- .pi round trip -------------------------------------------------------------

NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True)
RULE_IDS = st.from_regex(r"[A-Za-z0-9_]{1,4}", fullmatch=True)


def guard_nodes(size):
    """Guard ASTs over `size` symbols: small random trees, and chains of
    ``!(... | s0)`` levels from well inside to past MAX_NESTING."""
    leaves = st.one_of(st.booleans().map(Const), st.integers(0, size - 1).map(Var))
    trees = st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map(Not),
            st.lists(inner, max_size=3).map(lambda nodes: And(tuple(nodes))),
            st.lists(inner, max_size=3).map(lambda nodes: Or(tuple(nodes))),
        ),
        max_leaves=12,
    )

    def chain(levels):
        node = Var(0)
        for _ in range(levels):
            node = Not(Or((node, Var(0))))
        return node

    return st.one_of(trees, st.integers(0, MAX_NESTING // 2 + 2).map(chain))


@st.composite
def written_systems(draw):
    """A system with its quasimode (none, named, or an advised family)."""
    table = VarTable(draw(st.lists(NAMES, min_size=1, max_size=4, unique=True)))
    states = st.integers(0, (1 << len(table)) - 1).map(table.state)
    guards = guard_nodes(len(table)).map(lambda root: Formula(table, root))
    ids = draw(st.lists(RULE_IDS, max_size=5, unique=True))
    system = BooleanPSystem(
        table, tuple(Rule(i, draw(states), draw(states), draw(guards)) for i in ids)
    )
    kind = draw(st.sampled_from(["none", "maxpar", "seq", "async", "advised"]))
    if kind == "none":
        return system, None
    if kind != "advised":
        return system, named_quasimode(kind, system)
    rule_sets = st.frozensets(st.sampled_from(ids)) if ids else st.just(frozenset())
    return system, ExplicitQuasimode(draw(st.frozensets(rule_sets, min_size=1)))


@settings(max_examples=200, deadline=None)
@given(written_systems())
def test_pi_text_round_trip(written):
    system, quasimode = written
    try:
        text = format_system_text(system, quasimode)
    except ParseError as exc:  # the writer refuses a guard the reader would
        assert f"nested deeper than {MAX_NESTING} levels" in str(exc)
        return
    again, parsed = parse_system_text(text)
    assert again.table == system.table
    assert [rule.id for rule in again.rules] == [rule.id for rule in system.rules]
    for rule, other in zip(system.rules, again.rules):
        assert (other.lhs, other.rhs) == (rule.lhs, rule.rhs)
        assert equivalent(other.guard, rule.guard)
    if quasimode is None:
        assert parsed is None
    else:
        assert parsed.name == quasimode.name
        assert frozenset(parsed.elements()) == frozenset(quasimode.elements())
