import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolps.bcn import BooleanControlNetwork, freeze_extend
from boolps.bn import BooleanMode, BooleanNetwork
from boolps.boolp import (
    BooleanPSystem,
    ExplicitQuasimode,
    PowersetQuasimode,
    ProductQuasimode,
    Rule,
    apply_rule_set,
    successors,
    union_systems,
)
from boolps.errors import ValidationError
from boolps.formula import Formula, StateSet, VarTable, equivalent, parse_formula
from boolps.generators import random_mode, random_network, random_table
from boolps.translate import (
    Reaction,
    ReactionSystem,
    bcn_to_composite,
    bn_mode_to_quasimode,
    bn_to_boolp,
    parse_reactions_text,
    rs_to_boolp,
)


@pytest.fixture
def toggle():
    t = VarTable.of("x", "y")
    return BooleanNetwork(t, (parse_formula("!x & y", t), parse_formula("x & !y", t)))


class TestNetworkEncoding:
    def test_rule_pairs(self, toggle):
        system = bn_to_boolp(toggle)
        assert {r.id for r in system.rules} == {"set_x", "clr_x", "set_y", "clr_y"}
        t = system.table
        set_x = system.rule("set_x")
        assert set_x.lhs == StateSet.empty(t)
        assert set_x.rhs == StateSet.of(t, ["x"])
        assert equivalent(set_x.guard, parse_formula("!x & y", t))
        clr_x = system.rule("clr_x")
        assert clr_x.lhs == StateSet.of(t, ["x"])
        assert clr_x.rhs == StateSet.empty(t)
        assert equivalent(clr_x.guard, parse_formula("!(!x & y)", t))

    def test_constant_one_never_erases(self):
        t = VarTable.of("a")
        network = BooleanNetwork(t, (Formula.const(t, True),))
        system = bn_to_boolp(network)
        for state in t.subsets():
            assert not system.rule("clr_a").applicable_to(state)

    def test_applicable_rules_at_full_state(self, toggle):
        # guards at x=1, y=1: both updates are 0, so only the erase rules fire
        system = bn_to_boolp(toggle)
        full = StateSet.full(system.table)
        assert system.applicable_rules(full) == {"clr_x", "clr_y"}


class TestModeToQuasimode:
    def test_synchronous(self, toggle):
        system = bn_to_boolp(toggle)
        quasimode = bn_mode_to_quasimode(BooleanMode.syn(toggle.table), system)
        assert set(quasimode.elements()) == {
            frozenset({"set_x", "clr_x", "set_y", "clr_y"})
        }

    def test_asynchronous(self, toggle):
        system = bn_to_boolp(toggle)
        quasimode = bn_mode_to_quasimode(BooleanMode.asyn(toggle.table), system)
        assert set(quasimode.elements()) == {
            frozenset({"set_x", "clr_x"}),
            frozenset({"set_y", "clr_y"}),
        }

    def test_empty_mode(self, toggle):
        system = bn_to_boolp(toggle)
        mode = BooleanMode(toggle.table, frozenset())
        assert set(bn_mode_to_quasimode(mode, system).elements()) == set()


class TestComposite:
    def test_shape(self, toggle):
        composite = bcn_to_composite(freeze_extend(toggle), BooleanMode.syn(toggle.table))
        assert composite.system.table.names == ("x", "y", "u_x0", "u_x1", "u_y0", "u_y1")
        controller = [r for r in composite.system.rules if r.id.startswith("u_")]
        assert len(controller) == 8  # erase + introduce per control symbol
        assert all(
            r.guard.evaluate(state)
            for r in controller
            for state in composite.system.table.subsets()
        )

    def test_no_controls_degenerates_to_plain_encoding(self, toggle):
        empty = VarTable(())
        bcn = BooleanControlNetwork(toggle.table, empty, toggle.table, toggle.updates)
        mode = BooleanMode.syn(toggle.table)
        composite = bcn_to_composite(bcn, mode)
        plain = bn_to_boolp(toggle)
        assert composite.system == plain
        # the controller quasimode advises only the empty set
        assert set(composite.quasimode.elements()) == set(
            bn_mode_to_quasimode(mode, plain).elements()
        )

    def test_replays_the_three_phase_trajectory(self, toggle):
        # the controller introduces the next phase's control symbols during
        # the step before they take effect; the driven walk visits
        # 01 -> 10 -> 01 -> 00 -> 00 -> 01 -> 11 on the variables
        composite = bcn_to_composite(freeze_extend(toggle), BooleanMode.syn(toggle.table))
        view = composite.mode_view()
        t = toggle.table
        u = composite.u_table

        def config(digits, controls):
            return composite.initial_config(
                StateSet.from_digits(t, digits), StateSet.of(u, controls)
            )

        walk = [
            config("01", []),
            config("10", []),
            config("01", ["u_x0"]),
            config("00", ["u_x0"]),
            config("00", ["u_y1"]),
            config("01", ["u_y1"]),
            config("11", []),
        ]
        for here, there in zip(walk, walk[1:]):
            reached = {nxt for _fired, nxt in successors(view, here)}
            assert there in reached

    def test_projections(self, toggle):
        composite = bcn_to_composite(freeze_extend(toggle), BooleanMode.syn(toggle.table))
        config = composite.initial_config(
            StateSet.from_digits(toggle.table, "10"),
            StateSet.of(composite.u_table, ["u_y1"]),
        )
        assert composite.project_x(config).digits() == "10"
        assert composite.project_u(config).names() == ("u_y1",)


class TestTotalControl:
    def test_two_pairs_give_four_choices(self, toggle):
        composite = bcn_to_composite(
            freeze_extend(toggle), BooleanMode.syn(toggle.table), regime="tcs"
        )
        # syn advises one update element, so each element is one controller choice
        elements = set(composite.quasimode.elements())
        assert len(elements) == 4
        erasers = frozenset(f"u_clr_{n}" for n in composite.u_table.names)
        for element in elements:
            assert erasers <= element
            for stem in ("x", "y"):
                setters = element & {f"u_set_u_{stem}0", f"u_set_u_{stem}1"}
                assert len(setters) == 1

    def test_no_pairs(self, toggle):
        bcn = BooleanControlNetwork(toggle.table, VarTable(()), toggle.table, toggle.updates)
        mode = BooleanMode.syn(toggle.table)
        composite = bcn_to_composite(bcn, mode, regime="tcs")
        assert set(composite.quasimode.elements()) == set(
            bn_mode_to_quasimode(mode, composite.system).elements()
        )

    def test_total_choices_are_among_free_ones(self, toggle):
        bcn = freeze_extend(toggle)
        mode = BooleanMode.syn(toggle.table)
        free = set(bcn_to_composite(bcn, mode).quasimode.elements())
        assert set(bcn_to_composite(bcn, mode, regime="tcs").quasimode.elements()) <= free

    def test_unpaired_controls_rejected(self, toggle):
        mode = BooleanMode.syn(toggle.table)
        for controls in (["k"], ["u_x0"], ["u_x0", "u_x1", "u_y1"]):
            table = VarTable(toggle.table.names + tuple(controls))
            updates = tuple(f.remap(table, {0: 0, 1: 1}) for f in toggle.updates)
            bcn = BooleanControlNetwork(toggle.table, VarTable(controls), table, updates)
            assert bcn_to_composite(bcn, mode).regime == "free"  # free needs no pairs
            for regime in ("tcs", "acs"):
                with pytest.raises(ValidationError):
                    bcn_to_composite(bcn, mode, regime=regime)


class TestAbidingControl:
    @pytest.fixture
    def one_pair(self):
        t = VarTable.of("x")
        network = BooleanNetwork(t, (parse_formula("!x", t),))
        return bcn_to_composite(freeze_extend(network), BooleanMode.syn(t), regime="acs")

    def test_rule_inventory(self, one_pair):
        ids = {r.id for r in one_pair.system.rules if r.id.startswith("u_")}
        assert ids == {
            "u_set_u_x0",
            "u_set_u_x1",
            "u_rw_u_x0_u_x0",
            "u_rw_u_x0_u_x1",
            "u_rw_u_x1_u_x0",
            "u_rw_u_x1_u_x1",
        }
        # syn advises {set_x, clr_x} as one element, dotted with every
        # subset of the six controller rules
        assert len(list(one_pair.quasimode.elements())) == 2 ** 6

    def test_polarity_switch(self, one_pair):
        table = one_pair.system.table
        start = StateSet.of(table, ["u_x0"])
        rewrite = one_pair.system.rule("u_rw_u_x0_u_x1")
        assert apply_rule_set(start, [rewrite]) == StateSet.of(table, ["u_x1"])

    def test_identity_rewrite_is_noop(self, one_pair):
        start = StateSet.of(one_pair.system.table, ["u_x0"])
        assert apply_rule_set(start, [one_pair.system.rule("u_rw_u_x0_u_x0")]) == start

    def test_controlled_variables_never_released(self, toggle):
        # exhaustive over two pairs: wherever a pair has a symbol, every
        # successor keeps some symbol of that pair
        composite = bcn_to_composite(
            freeze_extend(toggle), BooleanMode.syn(toggle.table), regime="acs"
        )
        system, view = composite.system, composite.mode_view()
        pairs = [("u_x0", "u_x1"), ("u_y0", "u_y1")]
        for state in system.table.subsets():
            held = [p for p in pairs if p[0] in state or p[1] in state]
            for _fired, nxt in successors(view, state):
                for off, on in held:
                    assert off in nxt or on in nxt


class TestRegimeDynamics:
    @pytest.fixture
    def one_var(self):
        t = VarTable.of("x")
        return BooleanNetwork(t, (parse_formula("!x", t),))

    def test_tcs_keeps_exactly_one_symbol_per_pair(self, one_var):
        composite = bcn_to_composite(
            freeze_extend(one_var), BooleanMode.syn(one_var.table), regime="tcs"
        )
        view = composite.mode_view()
        table = composite.system.table
        for config in table.subsets():
            for _fired, nxt in successors(view, config):
                assert len({"u_x0", "u_x1"} & set(nxt)) == 1

    def test_acs_never_releases_a_controlled_variable(self, one_var):
        composite = bcn_to_composite(
            freeze_extend(one_var), BooleanMode.syn(one_var.table), regime="acs"
        )
        view = composite.mode_view()
        table = composite.system.table
        for config in table.subsets():
            controlled = bool({"u_x0", "u_x1"} & set(config))
            for _fired, nxt in successors(view, config):
                if controlled:
                    assert {"u_x0", "u_x1"} & set(nxt)

    def test_free_regime_can_release(self, one_var):
        composite = bcn_to_composite(
            freeze_extend(one_var), BooleanMode.syn(one_var.table), regime="free"
        )
        view = composite.mode_view()
        table = composite.system.table
        config = StateSet.of(table, ["u_x0"])
        released = {
            nxt for _f, nxt in successors(view, config)
            if not {"u_x0", "u_x1"} & set(nxt)
        }
        assert released


# --- the composite against a union of two systems ----------------------------


def union_reference(bcn, mode, regime):
    """The composite built as the union of two systems: the update encoding
    over the network's table and a controller over the control table alone,
    each with its own quasimode."""
    table, u_table = bcn.table, bcn.u_table
    empty = StateSet.empty(table)
    encoding = []
    for name, update in zip(bcn.x_table.names, bcn.updates):
        symbol = StateSet.of(table, [name])
        encoding.append(Rule(f"set_{name}", empty, symbol, update))
        encoding.append(Rule(f"clr_{name}", symbol, empty, update.negate()))
    true = Formula.const(u_table, True)

    def rule(rule_id, lhs, rhs):
        return Rule(rule_id, StateSet.of(u_table, lhs), StateSet.of(u_table, rhs), true)

    names = u_table.names
    pairs = list(zip(names[::2], names[1::2]))  # freeze_extend declares pairs together
    if regime == "acs":
        rules = [rule(f"u_set_{n}", [], [n]) for n in names]
        rules += [rule(f"u_rw_{a}_{b}", [a], [b]) for pair in pairs for a in pair for b in pair]
        control = PowersetQuasimode(frozenset(r.id for r in rules))
    else:
        rules = []
        for n in names:
            rules += [rule(f"u_clr_{n}", [n], []), rule(f"u_set_{n}", [], [n])]
        factors = [ExplicitQuasimode(frozenset({frozenset(f"u_clr_{n}" for n in names)}))]
        if regime == "free":
            factors.append(PowersetQuasimode(frozenset(f"u_set_{n}" for n in names)))
        else:
            factors += [
                ExplicitQuasimode(frozenset({frozenset({f"u_set_{n}"}) for n in pair}))
                for pair in pairs
            ]
        control = ProductQuasimode(tuple(factors))
    system = union_systems(
        BooleanPSystem(table, tuple(encoding)), BooleanPSystem(u_table, tuple(rules))
    )
    base = ExplicitQuasimode(
        frozenset(
            frozenset(i for n in element for i in (f"set_{n}", f"clr_{n}"))
            for element in mode.elements
        )
    )
    return system, base.dot(control)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 1 << 16),
    st.sampled_from(["syn", "asyn", "random"]),
    st.sampled_from(["free", "tcs", "acs"]),
)
def test_composite_matches_union_of_two_systems(size, seed, mode_name, regime):
    rng = random.Random(seed)
    table = random_table(rng, size)
    network = random_network(rng, table, max_depth=3)
    controllable = [n for n in table.names if rng.random() < 0.7]
    bcn = freeze_extend(network, controllable)
    mode = {
        "syn": BooleanMode.syn(table),
        "asyn": BooleanMode.asyn(table),
        "random": random_mode(rng, table),
    }[mode_name]
    composite = bcn_to_composite(bcn, mode, regime=regime)
    system, quasimode = union_reference(bcn, mode, regime)
    assert composite.system == system
    assert composite.system.rules == system.rules
    assert composite.quasimode == quasimode


def test_composite_builds_one_system_and_remaps_nothing():
    t = VarTable.of("a", "b", "c")
    bcn = freeze_extend(BooleanNetwork(t, tuple(Formula.var(t, n) for n in t.names)))
    counts = {"systems": 0, "remaps": 0}
    post_init, remap = BooleanPSystem.__post_init__, Formula.remap

    def counting_post_init(self):
        counts["systems"] += 1
        post_init(self)

    def counting_remap(self, *args):
        counts["remaps"] += 1
        return remap(self, *args)

    with mock.patch.object(BooleanPSystem, "__post_init__", counting_post_init), \
            mock.patch.object(Formula, "remap", counting_remap):
        bcn_to_composite(bcn, BooleanMode.syn(t))
    assert counts == {"systems": 1, "remaps": 0}


def reaction_oracle(rs, state):
    """Independent result function: union of products of enabled reactions."""
    out = StateSet.empty(rs.table)
    for reaction in rs.reactions:
        if reaction.reactants <= state and not (reaction.inhibitors & state).bits:
            out = out | reaction.products
    return out


class TestReactionEmbedding:
    @pytest.fixture
    def loop(self):
        text = (
            "species a, b, c\n"
            "a1: reactants {a} inhibitors {c} products {b}\n"
            "a2: reactants {b} inhibitors {} products {a, c}\n"
        )
        return parse_reactions_text(text)

    def test_one_step_equals_result_function(self, loop):
        view = rs_to_boolp(loop)
        for state in loop.table.subsets():
            steps = successors(view, state)
            got = steps[0][1] if steps else state
            assert got == reaction_oracle(loop, state)

    def test_nothing_enabled_erases_everything(self, loop):
        view = rs_to_boolp(loop)
        state = StateSet.of(loop.table, ["a", "c"])  # a1 inhibited by c, a2 lacks b
        assert reaction_oracle(loop, state) == StateSet.empty(loop.table)
        ((fired, nxt),) = successors(view, state)
        assert nxt == StateSet.empty(loop.table)
        assert fired == {"deg_a", "deg_c"}

    def test_empty_state_halts_when_reactions_need_reactants(self, loop):
        system = rs_to_boolp(loop).system
        assert system.is_halting(StateSet.empty(loop.table))

    def test_reactant_free_reaction_fires_at_empty_state(self):
        rs = ReactionSystem(
            VarTable.of("a"),
            (
                Reaction(
                    "spawn",
                    StateSet.empty(VarTable.of("a")),
                    StateSet.empty(VarTable.of("a")),
                    StateSet.of(VarTable.of("a"), ["a"]),
                ),
            ),
        )
        view = rs_to_boolp(rs)
        state = StateSet.empty(rs.table)
        assert not view.system.is_halting(state)
        ((_, nxt),) = successors(view, state)
        assert nxt == reaction_oracle(rs, state)

    def test_overlapping_reactant_inhibitor_rejected(self):
        t = VarTable.of("a")
        a = StateSet.of(t, ["a"])
        with pytest.raises(ValidationError):
            ReactionSystem(t, (Reaction("bad", a, a, a),))

    def test_random_small_systems_against_oracle(self):
        from boolps.generators import random_reaction_system

        rng = random.Random(71)
        for _ in range(20):
            rs = random_reaction_system(rng, rng.randint(1, 4))
            view = rs_to_boolp(rs)
            for state in rs.table.subsets():
                steps = successors(view, state)
                got = steps[0][1] if steps else state
                assert got == reaction_oracle(rs, state)
