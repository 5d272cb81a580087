import functools
import operator
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boolps.bn
from boolps.bn import (
    BooleanMode,
    BooleanNetwork,
    Trajectory,
    _moved,
    attractors,
    bn_step,
    bn_trajectories,
    bn_transitions,
    named_mode,
    parse_bn_text,
    parse_mode_text,
)
from boolps.errors import CapacityError, ParseError, UsageError, ValidationError
from boolps.formula import Formula, StateSet, VarTable, parse_formula
from boolps.generators import random_mode, random_network, random_table
from boolps.limits import capped
from oracles import _oracle_attractors, _row_attractors


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
        with capped(1), pytest.raises(CapacityError):
            bn_transitions(toggle, BooleanMode.syn(toggle.table))


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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_moved_is_the_or_of_its_parts(data):
    # bit i of moved[b] depends on update i's table alone, so a step map
    # over several groups is the OR of maps over the variables of their
    # union, taken one by one or a subset at once
    def ored(out, mask):
        for i in range(n):
            if mask >> i & 1:
                out = list(map(operator.or_, out, _moved(tables, [1 << i])))
        return out

    n = data.draw(st.integers(1, 8))
    tables = data.draw(st.lists(st.integers(0, (1 << (1 << n)) - 1), min_size=n, max_size=n))
    groups = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4))
    union = functools.reduce(operator.or_, groups, 0)
    subset = data.draw(st.integers(0, (1 << n) - 1)) & union
    moved = _moved(tables, groups)
    assert moved == ored([0] * (1 << n), union)
    assert moved == ored(_moved(tables, [subset]), union & ~subset)


def _single_mode(rng, table):
    """A random subset of the one-variable groups, sometimes with the empty
    group, sometimes without any element."""
    groups = [StateSet.of(table, [name]) for name in table if rng.random() < 0.5]
    if rng.random() < 0.3:
        groups.append(StateSet.empty(table))
    return BooleanMode(table, frozenset(groups))


def _overlapping_mode(rng, table):
    """Two to four windows of two or three cyclically consecutive
    variables, each sharing a variable with the next."""
    n = len(table)
    start = rng.randrange(n)
    groups = []
    for _ in range(rng.randint(2, 4)):
        width = rng.randint(2, 3)
        groups.append(table.state(sum({1 << (start + k) % n for k in range(width)})))
        start += width - 1
    return BooleanMode(table, frozenset(groups))


def _draw_mode(mode_name, rng, table):
    return {
        "random": lambda: random_mode(rng, table),
        "single": lambda: _single_mode(rng, table),
        "overlapping": lambda: _overlapping_mode(rng, table),
    }.get(mode_name, lambda: named_mode(mode_name, table))()


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["syn", "asyn", "random", "single", "overlapping"]),
)
def test_attractors_match_reachability_oracle(n, seed, mode_name):
    rng = random.Random(seed)
    table = random_table(rng, n)
    network = random_network(rng, table)
    mode = _draw_mode(mode_name, rng, table)
    got = attractors(network, mode)
    assert {frozenset(a) for a in got} == _oracle_attractors(network, mode)
    assert len(set(got)) == len(got)
    for states in got:
        assert list(states) == sorted(states, key=StateSet.sort_key)
    assert got == sorted(got, key=lambda states: tuple(s.sort_key() for s in states))


def _gray_walk_network(table):
    """Under asyn, each state's only move leads to the next state of the
    reflected Gray code: one transient of 2**n - 1 steps from 0..0 to the
    fixed point where only the last variable holds."""
    xs = [Formula.var(table, name) for name in table]

    def xor(a, b):
        return a.conj(b.negate()).disj(a.negate().conj(b))

    def parity(fs):
        half = len(fs) // 2
        return fs[0] if len(fs) == 1 else xor(parity(fs[:half]), parity(fs[half:]))

    # even parity moves x0; odd parity moves the variable above the lowest one set
    odd = parity(xs)
    moves = [odd.negate()] + [
        odd.conj(xs[i - 1], *(x.negate() for x in xs[: i - 1])) for i in range(1, len(xs))
    ]
    return BooleanNetwork(table, tuple(xor(x, move) for x, move in zip(xs, moves)))


@pytest.mark.parametrize("mode_name", ["asyn", "syn", "random", "overlapping"])
@pytest.mark.parametrize("n", [8, 9, 10])
def test_attractors_match_the_row_components(n, mode_name):
    # the rows come from `bn_step`, independently of the truth tables
    rng = random.Random(n)
    for _ in range(3):
        table = random_table(rng, n)
        network = random_network(rng, table)
        mode = _draw_mode(mode_name, rng, table)
        assert {frozenset(a) for a in attractors(network, mode)} == _row_attractors(network, mode)
    if mode_name in ("asyn", "syn"):
        # each state of the walk moves one variable: syn steps as asyn does
        walk = _gray_walk_network(table)
        assert attractors(walk, mode) == [(table.state(1 << n - 1),)]
        assert {frozenset(a) for a in attractors(walk, mode)} == _row_attractors(walk, mode)


def _traced_attractors_peak(mode_of):
    table = random_table(random.Random(5), 14)
    network = random_network(random.Random(5), table)
    mode = mode_of(table)
    tracemalloc.start()
    try:
        attractors(network, mode)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_asyn_attractors_at_fourteen_variables_stay_small():
    # the successors come from 14 truth tables of 2**14 bits, transposed
    # into one int per state; no row is built and Tarjan keeps a successor
    # list only for the states on its path
    assert _traced_attractors_peak(BooleanMode.asyn) < 2 * 2**20


@pytest.mark.parametrize("mode_name", ["syn", "random"])
def test_wide_group_attractors_at_fourteen_variables_stay_small(mode_name):
    # the same tables serve groups of any width: no row of next states is built
    mode_of = {"syn": BooleanMode.syn, "random": lambda t: random_mode(random.Random(5), t)}
    assert _traced_attractors_peak(mode_of[mode_name]) < 2 * 2**20


def test_attractors_check_mode_and_cap_before_folding(toggle, monkeypatch):
    monkeypatch.setattr(boolps.bn, "fold_truth_table", lambda *args: pytest.fail("folded"))
    other = BooleanMode.syn(VarTable.of("x", "z"))
    with pytest.raises(UsageError):
        attractors(toggle, other)
    with capped(1), pytest.raises(CapacityError):
        attractors(toggle, BooleanMode.syn(toggle.table))


def test_bn_transitions_checks_mode_and_cap_before_folding(toggle, monkeypatch):
    monkeypatch.setattr(boolps.bn, "fold_truth_table", lambda *args: pytest.fail("folded"))
    other = BooleanMode.syn(VarTable.of("x", "z"))
    with pytest.raises(UsageError):
        bn_transitions(toggle, other)
    with capped(1), pytest.raises(CapacityError):
        bn_transitions(toggle, BooleanMode.syn(toggle.table))


def assert_component_flags(rows):
    """`boolps.bn._components` over the graph ``rows[v]`` (v's successors)
    yields every node once, each component after every one its edges reach,
    and flags exactly the components an edge leaves."""
    n = len(rows)
    seen = []
    for component, leaves in boolps.bn._components(rows.__getitem__, n):
        members = set(component)
        assert leaves == any(w not in members for v in component for w in rows[v])
        # every edge leaving the component reaches one yielded before it
        assert all(w in members or w in seen for v in component for w in rows[v])
        seen.extend(component)
    assert sorted(seen) == list(range(n))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_components_flag_exactly_the_components_an_edge_leaves(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 40)
    assert_component_flags(
        [rng.sample(range(n), rng.randint(0, min(n, 3))) for _ in range(n)]
    )


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
        assert "trajectory breadth exceeded cap 10" in str(err.value)

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
