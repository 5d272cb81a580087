import random

import pytest

from boolps.bcn import (
    BooleanControlNetwork,
    Control,
    apply_control,
    enumerate_controls,
    format_bcn_text,
    freeze_extend,
    glue_trajectories,
    parse_bcn_text,
)
from boolps.bn import BooleanMode, BooleanNetwork, Trajectory, bn_step, bn_transitions
from boolps.errors import ValidationError
from boolps.formula import Formula, StateSet, VarTable, equivalent, parse_formula
from boolps.generators import random_mode, random_network, random_table


@pytest.fixture
def toggle():
    t = VarTable.of("x", "y")
    return BooleanNetwork(t, (parse_formula("!x & y", t), parse_formula("x & !y", t)))


@pytest.fixture
def frozen_toggle(toggle):
    return freeze_extend(toggle)


def control(bcn, names):
    return Control(StateSet.of(bcn.u_table, names))


def digit(table, text):
    return StateSet.from_digits(table, text)


def flatten_network_map(x_table, u_table, networks):
    """Flatten an extensional control-to-network map into one formula per
    variable: the disjunction, over all control assignments, of (the
    conjunction fixing that assignment) and (the network formula the
    assignment selects)."""
    table = VarTable(x_table.names + u_table.names)
    x_map = {i: i for i in range(len(x_table))}
    controls = list(enumerate_controls(u_table))
    literals = {}
    for mu in controls:
        parts = []
        for pos, name in enumerate(u_table.names):
            var = Formula.var(table, name)
            parts.append(var if mu.assignment.bits >> pos & 1 else var.negate())
        literals[mu] = parts
    updates = []
    for x_pos in range(len(x_table)):
        branches = []
        for mu in controls:
            branch = networks[mu].updates[x_pos].remap(table, x_map)
            lits = literals[mu]
            if lits:
                branch = lits[0].conj(*lits[1:], branch)
            branches.append(branch)
        updates.append(Formula.const(table, False).disj(*branches))
    return BooleanControlNetwork(x_table, u_table, table, tuple(updates))


class TestFreezeExtend:
    def test_control_alphabet(self, frozen_toggle):
        assert frozen_toggle.u_table.names == ("u_x0", "u_x1", "u_y0", "u_y1")
        assert frozen_toggle.table.names[:2] == ("x", "y")

    def test_controlled_update_truth_table(self, frozen_toggle):
        # compare against the independently parsed pinning formula over all
        # 2^6 combined states
        t = frozen_toggle.table
        expected_x = parse_formula("(!x & y & !u_x0) | u_x1", t)
        expected_y = parse_formula("(x & !y & !u_y0) | u_y1", t)
        assert equivalent(frozen_toggle.updates[0], expected_x)
        assert equivalent(frozen_toggle.updates[1], expected_y)

    def test_all_zero_control_recovers_network(self, toggle, frozen_toggle):
        released = apply_control(frozen_toggle, control(frozen_toggle, []))
        for mine, original in zip(released.updates, toggle.updates):
            assert equivalent(mine, original)

    def test_all_zero_control_preserves_transitions(self, toggle, frozen_toggle):
        rng = random.Random(3)
        released = apply_control(frozen_toggle, control(frozen_toggle, []))
        for mode in (
            BooleanMode.syn(toggle.table),
            BooleanMode.asyn(toggle.table),
            random_mode(rng, toggle.table),
        ):
            assert bn_transitions(released, mode).edges == bn_transitions(toggle, mode).edges

    def test_pin_to_zero(self, frozen_toggle):
        pinned = apply_control(frozen_toggle, control(frozen_toggle, ["u_x0"]))
        for state in pinned.table.subsets():
            assert pinned.updates[0].evaluate(state) is False

    def test_pin_to_one(self, frozen_toggle):
        pinned = apply_control(frozen_toggle, control(frozen_toggle, ["u_y1"]))
        for state in pinned.table.subsets():
            assert pinned.updates[1].evaluate(state) is True

    def test_pin_to_one_wins_over_pin_to_zero(self, frozen_toggle):
        both = apply_control(frozen_toggle, control(frozen_toggle, ["u_x0", "u_x1"]))
        for state in both.table.subsets():
            assert both.updates[0].evaluate(state) is True

    def test_partial_freeze(self, toggle):
        bcn = freeze_extend(toggle, variables=["y"])
        assert bcn.u_table.names == ("u_y0", "u_y1")
        assert equivalent(
            bcn.updates[0],
            parse_formula("!x & y", bcn.table),
        )


class TestGoldenControlledTrajectory:
    def test_three_phase_walk(self, frozen_toggle):
        # phase 1 (no controls): 01 -> 10 -> 01; phase 2 (x pinned to 0):
        # 01 -> 00 -> 00, with 00 still a fixed point; phase 3 (y pinned
        # to 1): 00 -> 01 -> 11
        t = frozen_toggle.x_table
        full = StateSet.full(t)
        walk = {
            (): ["01", "10", "01"],
            ("u_x0",): ["01", "00", "00"],
            ("u_y1",): ["00", "01", "11"],
        }
        parts = []
        for names, digits in walk.items():
            network = apply_control(frozen_toggle, control(frozen_toggle, names))
            for here, there in zip(digits, digits[1:]):
                assert bn_step(network, digit(t, here), full) == digit(t, there)
            parts.append(Trajectory(tuple(digit(t, d) for d in digits)))
        glued = glue_trajectories(parts)
        assert [s.digits() for s in glued.states] == [
            "01", "10", "01", "00", "00", "01", "11",
        ]


class TestFlatten:
    def test_stored_formulas_are_the_flattening(self, frozen_toggle):
        # stored updates are the flattened family: one per variable, over X + U
        assert len(frozen_toggle.updates) == len(frozen_toggle.x_table) == 2
        assert all(f.table == frozen_toggle.table for f in frozen_toggle.updates)

    def test_extensional_ingestion_matches_intensional(self, frozen_toggle):
        # rebuild the network map control by control, flatten it through the
        # disjunction-over-controls construction, and compare truth tables
        # over all 2^6 combined states
        networks = {
            mu: apply_control(frozen_toggle, mu)
            for mu in enumerate_controls(frozen_toggle.u_table)
        }
        rebuilt = flatten_network_map(frozen_toggle.x_table, frozen_toggle.u_table, networks)
        for mine, original in zip(rebuilt.updates, frozen_toggle.updates):
            assert equivalent(mine, original)

    def test_no_controls_identity(self, toggle):
        empty = VarTable(())
        networks = {mu: toggle for mu in enumerate_controls(empty)}
        rebuilt = flatten_network_map(toggle.table, empty, networks)
        for mine, original in zip(rebuilt.updates, toggle.updates):
            assert equivalent(mine, original)

    def test_single_control_update_is_that_control(self):
        x = VarTable.of("x")
        u = VarTable.of("u")
        bcn = BooleanControlNetwork.build(
            x, u, (parse_formula("u", VarTable.of("x", "u")),)
        )
        sats = {s for s in bcn.table.subsets() if bcn.updates[0].evaluate(s)}
        assert sats == {s for s in bcn.table.subsets() if "u" in s}

    def test_flatten_and_apply_commute(self):
        rng = random.Random(17)
        for _ in range(15):
            table = random_table(rng, rng.randint(1, 3))
            bcn = freeze_extend(random_network(rng, table, max_depth=3))
            for mu in enumerate_controls(bcn.u_table):
                selected = apply_control(bcn, mu)
                values = {
                    name: name in mu.assignment for name in bcn.u_table.names
                }
                for pos, name in enumerate(table.names):
                    substituted = bcn.updates[pos].substitute(values)
                    lifted = selected.updates[selected.table.position(name)].remap(
                        bcn.table, {i: i for i in range(len(table))}
                    )
                    assert equivalent(substituted, lifted)


class TestGlue:
    def test_single_part_is_identity(self, toggle):
        t = toggle.table
        part = Trajectory((digit(t, "01"), digit(t, "10")))
        assert glue_trajectories([part]) == part

    def test_endpoint_mismatch_names_index(self, toggle):
        t = toggle.table
        first = Trajectory((digit(t, "01"), digit(t, "10")))
        second = Trajectory((digit(t, "00"), digit(t, "01")))
        with pytest.raises(ValidationError) as err:
            glue_trajectories([first, second])
        assert "1" in str(err.value)


class TestTextFormat:
    def test_freeze_sugar(self, frozen_toggle):
        text = "var x, y\nfreeze x\nfreeze y\nx' = !x & y\ny' = x & !y\n"
        parsed = parse_bcn_text(text)
        assert parsed.u_table.names == frozen_toggle.u_table.names
        for mine, original in zip(parsed.updates, frozen_toggle.updates):
            assert equivalent(mine, original)

    def test_explicit_controls(self):
        parsed = parse_bcn_text("var x\ncontrol u\nx' = x | u\n")
        assert parsed.u_table.names == ("u",)
        assert parsed.updates[0].variables() == {"x", "u"}

    def test_round_trip(self, frozen_toggle):
        text = format_bcn_text(frozen_toggle)
        again = parse_bcn_text(text)
        assert again.table == frozen_toggle.table
        for mine, original in zip(again.updates, frozen_toggle.updates):
            assert equivalent(mine, original)

    def test_duplicate_update_names_both_lines(self):
        import boolps.errors as errors

        with pytest.raises(errors.ParseError) as err:
            parse_bcn_text("var x\nfreeze x\nx' = x\n# again\nx' = !x\n")
        assert err.value.line == 5 and "lines 3 and 5" in str(err.value)

    def test_duplicate_freeze_control_rejected(self):
        text = "var x\ncontrol u_x0\nfreeze x\nx' = x\n"
        import boolps.errors as errors

        with pytest.raises(errors.ParseError):
            parse_bcn_text(text)
