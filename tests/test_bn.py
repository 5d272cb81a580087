import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolps.bn import (
    BooleanMode,
    BooleanNetwork,
    Trajectory,
    attractors,
    bn_step,
    bn_trajectories,
    bn_transitions,
    format_bn_text,
    named_mode,
    parse_bn_text,
    parse_mode_text,
)
from boolps.errors import CapacityError, ParseError, UsageError, ValidationError
from boolps.formula import Formula, StateSet, VarTable, parse_formula
from boolps.generators import random_mode, random_network, random_table


@pytest.fixture
def toggle():
    """Cross-inhibition pair: x' = !x & y, y' = x & !y."""
    t = VarTable.of("x", "y")
    return BooleanNetwork(t, (parse_formula("!x & y", t), parse_formula("x & !y", t)))


def digit(table, text):
    return StateSet.from_digits(table, text)


def edges_as_digits(relation):
    return {
        (src.digits(), label.set_text(), dst.digits())
        for src, label, dst in relation.edges
    }


class TestStep:
    def test_synchronous_swap(self, toggle):
        t = toggle.table
        assert bn_step(toggle, digit(t, "01"), StateSet.full(t)) == digit(t, "10")
        assert bn_step(toggle, digit(t, "10"), StateSet.full(t)) == digit(t, "01")
        assert bn_step(toggle, digit(t, "00"), StateSet.full(t)) == digit(t, "00")

    def test_full_state_is_not_fixed(self, toggle):
        # both updates evaluate to 0 at x=1, y=1, so the formulas send 11 to 00
        t = toggle.table
        assert bn_step(toggle, digit(t, "11"), StateSet.full(t)) == digit(t, "00")

    def test_empty_group_is_identity(self, toggle):
        t = toggle.table
        for state in t.subsets():
            assert bn_step(toggle, state, StateSet.empty(t)) == state

    def test_foreign_group_rejected(self, toggle):
        other = VarTable.of("z")
        with pytest.raises(UsageError):
            bn_step(toggle, StateSet.empty(toggle.table), StateSet.empty(other))


class TestTransitions:
    def test_synchronous_relation_exact(self, toggle):
        rel = bn_transitions(toggle, BooleanMode.syn(toggle.table))
        assert edges_as_digits(rel) == {
            ("00", "{x, y}", "00"),
            ("01", "{x, y}", "10"),
            ("10", "{x, y}", "01"),
            ("11", "{x, y}", "00"),
        }

    def test_asynchronous_successors(self, toggle):
        t = toggle.table
        rel = bn_transitions(toggle, BooleanMode.asyn(t))
        succ = lambda d: {dst.digits() for _m, dst in rel.successors(digit(t, d))}
        assert succ("01") == {"11", "00"}
        assert succ("10") == {"11", "00"}
        # derived from the update formulas (single-variable flips at 11)
        assert succ("11") == {"01", "10"}
        assert succ("00") == {"00"}

    def test_mode_with_empty_element_gives_self_loops(self, toggle):
        t = toggle.table
        mode = BooleanMode.of(t, [[]])
        rel = bn_transitions(toggle, mode)
        assert {(src, dst) for src, _label, dst in rel.edges} == {(s, s) for s in t.subsets()}

    def test_synchronous_out_degree_is_one(self):
        rng = random.Random(11)
        for _ in range(20):
            table = random_table(rng, rng.randint(2, 4))
            network = random_network(rng, table)
            rel = bn_transitions(network, BooleanMode.syn(table))
            for state in table.subsets():
                assert len(rel.successors(state)) == 1

    def test_capacity(self, toggle):
        with pytest.raises(CapacityError):
            bn_transitions(toggle, BooleanMode.syn(toggle.table), cap=1)


class TestAttractors:
    def test_toggle_synchronous(self, toggle):
        t = toggle.table
        got = attractors(toggle, BooleanMode.syn(t))
        assert got == [
            (digit(t, "00"),),
            (digit(t, "01"), digit(t, "10")),
        ]
        # 11 is not an attractor: the formulas send it to 00
        assert all(digit(t, "11") not in a for a in got)

    def test_toggle_asynchronous(self, toggle):
        # one-step graph from the formulas: 01 and 10 can escape to 00,
        # and 11 moves to 01/10, so the only terminal component is {00}
        t = toggle.table
        assert attractors(toggle, BooleanMode.asyn(t)) == [(digit(t, "00"),)]

    def test_constant_zero_network(self):
        t = VarTable.of("a", "b")
        network = BooleanNetwork(t, (Formula.const(t, False), Formula.const(t, False)))
        assert attractors(network, BooleanMode.syn(t)) == [(StateSet.empty(t),)]

    def test_identity_network_all_states_fixed(self):
        t = VarTable.of("a", "b")
        network = BooleanNetwork(t, (Formula.var(t, "a"), Formula.var(t, "b")))
        got = attractors(network, BooleanMode.syn(t))
        assert got == [(s,) for s in sorted(t.subsets(), key=StateSet.sort_key)]

    def test_every_state_reaches_an_attractor(self):
        rng = random.Random(5)
        for _ in range(15):
            table = random_table(rng, rng.randint(2, 4))
            network = random_network(rng, table)
            mode = BooleanMode.asyn(table)
            rel = bn_transitions(network, mode)
            basin = set()
            for states in attractors(network, mode):
                basin.update(states)
            # walk backwards until a fixpoint: states with some edge into the basin
            changed = True
            while changed:
                changed = False
                for src, _label, dst in rel.edges:
                    if dst in basin and src not in basin:
                        basin.add(src)
                        changed = True
            assert basin == set(table.subsets())


def test_disjoint_groups_commute_on_one_step():
    rng = random.Random(23)
    for _ in range(25):
        table = random_table(rng, 4)
        network = random_network(rng, table)
        bits_a = rng.randrange(16)
        bits_b = rng.randrange(16) & ~bits_a
        m_a, m_b = table.state(bits_a), table.state(bits_b)
        for state in table.subsets():
            joint = bn_step(network, state, m_a | m_b)
            left = bn_step(network, state, m_a)
            right = bn_step(network, state, m_b)
            merged = (
                left.bits & bits_a
                | right.bits & bits_b
                | state.bits & ~(bits_a | bits_b)
            )
            assert joint == table.state(merged)


def _oracle_attractors(network, mode):
    """S is an attractor iff S = reach(s) for every s in S; reach by BFS."""
    succ = {s: {bn_step(network, s, m) for m in mode.elements} for s in network.table.subsets()}

    def reach(source):
        seen = {source}
        queue = deque([source])
        while queue:
            for dst in succ[queue.popleft()]:
                if dst not in seen:
                    seen.add(dst)
                    queue.append(dst)
        return frozenset(seen)

    closure = {s: reach(s) for s in succ}
    return {closure[s] for s in succ if all(closure[t] == closure[s] for t in closure[s])}


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["syn", "asyn", "random"]),
)
def test_attractors_match_reachability_oracle(n, seed, mode_name):
    rng = random.Random(seed)
    table = random_table(rng, n)
    network = random_network(rng, table)
    mode = random_mode(rng, table) if mode_name == "random" else named_mode(mode_name, table)
    got = attractors(network, mode)
    assert {frozenset(a) for a in got} == _oracle_attractors(network, mode)
    assert len(set(got)) == len(got)
    for states in got:
        assert list(states) == sorted(states, key=StateSet.sort_key)
    assert got == sorted(got, key=lambda states: tuple(s.sort_key() for s in states))


def test_import_loads_only_the_standard_library():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys; before = set(sys.modules); import boolps; "
        "print('\\n'.join(sorted(set(sys.modules) - before)))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout.split()
    roots = {name.split(".")[0] for name in loaded}
    assert "boolps" in roots
    assert roots - {"boolps"} <= set(sys.stdlib_module_names)


class TestTrajectories:
    def test_deterministic_trace(self, toggle):
        t = toggle.table
        runs = bn_trajectories(toggle, BooleanMode.syn(t), digit(t, "01"), 3)
        assert len(runs) == 1
        assert runs[0].text() == "01 -> 10 -> 01 -> 10"

    def test_breadth_cap(self, toggle):
        t = toggle.table
        with pytest.raises(CapacityError) as err:
            bn_trajectories(toggle, BooleanMode.asyn(t), digit(t, "01"), 8, breadth_cap=10)
        assert err.value.partial

    def test_labels_record_groups(self, toggle):
        t = toggle.table
        runs = bn_trajectories(toggle, BooleanMode.asyn(t), digit(t, "01"), 1)
        assert {r.labels for r in runs} <= {
            (StateSet.of(t, ["x"]),),
            (StateSet.of(t, ["y"]),),
        }

    def test_trajectory_validation(self):
        with pytest.raises(ValidationError):
            Trajectory(())


class TestTextFormat:
    def test_round_trip(self, toggle):
        text = format_bn_text(toggle)
        again = parse_bn_text(text)
        assert again.table == toggle.table
        assert bn_transitions(again, BooleanMode.asyn(again.table)).edges == \
            bn_transitions(toggle, BooleanMode.asyn(toggle.table)).edges

    def test_comments_and_blank_lines(self):
        network = parse_bn_text("# c\n\nvar a\n a' = !a # flip\n")
        assert network.table.names == ("a",)

    def test_missing_update(self):
        with pytest.raises(ParseError):
            parse_bn_text("var a, b\na' = b\n")

    def test_undeclared_update(self):
        with pytest.raises(ParseError):
            parse_bn_text("var a\na' = a\nb' = a\n")

    def test_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse_bn_text("var a\na' = a &\n", source="m.bn")
        assert err.value.line == 2 and "m.bn" in str(err.value)

    def test_duplicate_update_names_both_lines(self):
        with pytest.raises(ParseError) as err:
            parse_bn_text("var x, y\nx' = y\nx' = !y\ny' = x\n")
        assert err.value.line == 3 and "lines 2 and 3" in str(err.value)

    def test_control_lines_rejected(self):
        for line in ("control u", "freeze x"):
            with pytest.raises(ParseError) as err:
                parse_bn_text(f"var x\n{line}\nx' = x\n")
            assert err.value.line == 2

    def test_mode_file(self, toggle):
        mode = parse_mode_text("group {x}\ngroup {}\n", toggle.table)
        assert mode.elements == frozenset(
            {StateSet.of(toggle.table, ["x"]), StateSet.empty(toggle.table)}
        )

    def test_named_modes(self, toggle):
        assert named_mode("syn", toggle.table).elements == frozenset({StateSet.full(toggle.table)})
        assert len(named_mode("asyn", toggle.table).elements) == 2
        with pytest.raises(UsageError):
            named_mode("nope", toggle.table)
