import heapq
import itertools
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import boolps.bcn
from boolps import cofase
from boolps.bcn import (
    BooleanControlNetwork,
    apply_control,
    control_classes,
    enumerate_controls,
    freeze_extend,
    parse_bcn_text,
)
from boolps.bn import BooleanMode, BooleanNetwork, Trajectory, bn_step, named_mode
from boolps.boolp import successors
from boolps.cli import main
from boolps.cofase import (
    CoFaSeInstance,
    CoFaSeSolution,
    NoSolutionWithinBound,
    check_solution,
    control_space,
    parse_instance_text,
    solution_from_json,
    solution_to_json,
    solve_cofase,
    solve_cofase_via_composite,
    verify_control_sequence,
)
from boolps.errors import CapacityError, ParseError, UsageError, ValidationError
from boolps.formula import Formula, StateSet, VarTable, parse_formula
from boolps.generators import (
    random_cofase_instance,
    random_formula,
    random_mode,
    random_network,
    random_subset,
    random_table,
)
from boolps.limits import capped
from boolps.translate import bcn_to_composite
from oracles import _oracle_control_classes, _oracle_phase_reach, eager_maps, eager_solve, step_rows
from test_bn import _draw_mode

MODELS = Path(__file__).resolve().parent.parent / "models"


@pytest.fixture
def toggle():
    t = VarTable.of("x", "y")
    return BooleanNetwork(t, (parse_formula("!x & y", t), parse_formula("x & !y", t)))


@pytest.fixture
def frozen(toggle):
    return freeze_extend(toggle)


def digit(table, text):
    return StateSet.from_digits(table, text)


def control(bcn, names):
    return StateSet.of(bcn.u_table, names)


def golden_instance(frozen):
    t = frozen.x_table
    return CoFaSeInstance.of(
        frozen, [digit(t, "01")], [digit(t, "11")], BooleanMode.syn(t)
    )


class TestVerify:
    def golden_parts(self, frozen):
        t = frozen.x_table
        states = tuple(
            digit(t, d) for d in ("01", "10", "01", "00", "00", "01", "11")
        )
        sequence = (control(frozen, []), control(frozen, ["u_x0"]), control(frozen, ["u_y1"]))
        return Trajectory(states), sequence

    def test_golden_trajectory_accepted(self, frozen):
        trajectory, sequence = self.golden_parts(frozen)
        mode = BooleanMode.syn(frozen.x_table)
        assert verify_control_sequence(frozen, sequence, mode, trajectory, (2, 4))

    def test_single_phase_single_state(self, frozen):
        t = frozen.x_table
        witness = Trajectory((digit(t, "00"),))
        sequence = (control(frozen, ["u_x1"]),)
        assert verify_control_sequence(
            frozen, sequence, BooleanMode.syn(t), witness, ()
        )

    def test_corrupted_state_reports_step(self, frozen):
        trajectory, sequence = self.golden_parts(frozen)
        t = frozen.x_table
        states = list(trajectory.states)
        states[3] = digit(t, "11")
        result = verify_control_sequence(
            frozen, sequence, BooleanMode.syn(t), Trajectory(tuple(states)), (2, 4)
        )
        assert not result
        assert result.failed_step == 2

    def test_malformed_boundaries(self, frozen):
        trajectory, sequence = self.golden_parts(frozen)
        mode = BooleanMode.syn(frozen.x_table)
        with pytest.raises(ValidationError):
            verify_control_sequence(frozen, sequence, mode, trajectory, (2,))
        with pytest.raises(ValidationError):
            verify_control_sequence(frozen, sequence, mode, trajectory, (4, 2))
        with pytest.raises(ValidationError):
            verify_control_sequence(frozen, sequence, mode, trajectory, (2, 9))

    def test_zero_step_phase_allowed(self, frozen):
        t = frozen.x_table
        witness = Trajectory((digit(t, "00"), digit(t, "00")))
        sequence = (control(frozen, []), control(frozen, []))
        assert verify_control_sequence(
            frozen, sequence, BooleanMode.syn(t), witness, (0,)
        )


def ex32_witness(start, controls, states):
    return {"start": start, "controls": controls, "states": states, "boundaries": []}


SOLVES_EX32 = ex32_witness("01", [["u_y1"]], ["01", "11"])
# One uniform solution document per line `check_solution` gives on
# models/ex32.cofase (start 01, target 11): its witnesses and the lines.
PROBLEM_CASES = {
    "solves": ([SOLVES_EX32], []),
    "no-witness": ([], ["start 01: no witness"]),
    "more-than-one-witness": ([SOLVES_EX32, SOLVES_EX32], ["start 01: more than one witness"]),
    "foreign-start": (
        [ex32_witness("11", [[]], ["11"])],
        ["start 01: no witness", "start 11: not a start of the instance"],
    ),
    "two-sequences": (
        [SOLVES_EX32, ex32_witness("01", [[]], ["01"])],
        ["start 01: more than one witness",
         "start 01: uniform solution, but the control sequence differs from that of start 01"],
    ),
    "not-a-move": (
        [ex32_witness("01", [["u_y1"]], ["01", "00"])],
        ["start 01: step 0: 01 -> 00 is not a move of the network under control {u_y1}"],
    ),
    "ends-outside-targets": (
        [ex32_witness("01", [[]], ["01"])], ["start 01: witness ends outside the target set"]
    ),
    "starts-elsewhere": (
        [ex32_witness("01", [[]], ["11"])], ["start 01: witness starts elsewhere"]
    ),
}


def assert_problem_lines(witnesses, lines):
    instance = parse_instance_text((MODELS / "ex32.cofase").read_text())
    document = json.dumps({"solvable": True, "policy": "uniform", "witnesses": witnesses})
    # through the module, so that a patched `check_solution` is the one called
    assert cofase.check_solution(instance, solution_from_json(instance, document)) == lines


@pytest.mark.parametrize("case", PROBLEM_CASES)
def test_check_solution_gives_each_problem_line(case):
    assert_problem_lines(*PROBLEM_CASES[case])


class TestDirectSolver:
    def test_golden_instance_solved_within_three_phases(self, frozen):
        instance = golden_instance(frozen)
        solution = solve_cofase(instance, max_phases=3)
        assert solution
        assert solution.phases <= 3
        assert check_solution(instance, solution) == []

    def test_start_inside_targets(self, frozen):
        t = frozen.x_table
        instance = CoFaSeInstance.of(
            frozen, [digit(t, "10")], [digit(t, "10"), digit(t, "11")], BooleanMode.syn(t)
        )
        solution = solve_cofase(instance, max_phases=3)
        assert solution.phases == 1
        witness = solution.witnesses[0]
        assert witness.sequence == (control(frozen, []),)
        assert len(witness.trajectory.states) == 1

    def test_unreachable_without_controls(self, toggle):
        # the uncontrolled pair cannot leave the {01, 10} oscillation
        t = toggle.table
        bcn = BooleanControlNetwork(t, VarTable(()), t, toggle.updates)
        instance = CoFaSeInstance.of(
            bcn, [digit(t, "01")], [digit(t, "11")], BooleanMode.syn(t)
        )
        result = solve_cofase(instance, max_phases=5)
        assert isinstance(result, NoSolutionWithinBound)
        assert result.phase_bound == 5
        # the start node, the oscillation after one phase, then nothing new
        assert result.explored == 2 and result.frontier == (1, 1, 0)
        assert "frontier" not in solution_to_json(result)
        via = solve_cofase_via_composite(instance, max_steps=32, max_phases=5)
        assert isinstance(via, NoSolutionWithinBound)

    def test_per_start_explored_sums_every_search(self):
        # x latches once y is pinned to 1; only y is controllable; z holds.
        bcn = parse_bcn_text("var x, y, z\nfreeze y\nx' = x | y\ny' = y\nz' = z\n")
        t = bcn.x_table

        def solve(*starts):
            instance = CoFaSeInstance.of(
                bcn, [digit(t, s) for s in starts], [digit(t, "100")], BooleanMode.syn(t)
            )
            return solve_cofase(instance, max_phases=2, policy="per-start")

        # 000 needs two phases (pin y to 1, then to 0); its search visits
        # {000} and {000, 010, 110} before the second phase succeeds.  001
        # keeps z = 1: {001}, {001, 011, 111}, then {001, 011, 101, 111}.
        assert solve("000")
        assert solve("001").explored == 3
        assert solve("000", "001").explored == 2 + 3

    def test_uniform_policy_with_two_starts(self, frozen):
        t = frozen.x_table
        instance = CoFaSeInstance.of(
            frozen,
            [digit(t, "01"), digit(t, "10")],
            [digit(t, "11")],
            BooleanMode.syn(t),
        )
        solution = solve_cofase(instance, max_phases=3, policy="uniform")
        assert solution
        assert len({w.sequence for w in solution.witnesses}) == 1
        assert check_solution(instance, solution) == []

    def test_per_start_policy(self, frozen):
        t = frozen.x_table
        instance = CoFaSeInstance.of(
            frozen,
            [digit(t, "00"), digit(t, "11")],
            [digit(t, "10")],
            BooleanMode.syn(t),
        )
        solution = solve_cofase(instance, max_phases=3, policy="per-start")
        assert solution and solution.policy == "per-start"
        assert check_solution(instance, solution) == []

    def test_min_steps_per_phase(self):
        # constant-off variable: with zero-step phases the trivial instance
        # is solvable, with mandatory progress it is not
        t = VarTable.of("x")
        network = BooleanNetwork(t, (Formula.const(t, False),))
        bcn = BooleanControlNetwork(t, VarTable(()), t, network.updates)
        instance = CoFaSeInstance.of(
            bcn, [digit(t, "1")], [digit(t, "1")], BooleanMode.syn(t)
        )
        lax = solve_cofase(instance, max_phases=3)
        assert lax and lax.phases == 1
        strict = solve_cofase(instance, max_phases=3, min_steps_per_phase=1)
        assert isinstance(strict, NoSolutionWithinBound)

    def test_shortest_sequence_has_canonical_tie_break(self, frozen):
        # from 00 the all-zero control already stays at 00 forever, so the
        # first canonical control solves target 00
        t = frozen.x_table
        instance = CoFaSeInstance.of(
            frozen, [digit(t, "00")], [digit(t, "00")], BooleanMode.syn(t)
        )
        solution = solve_cofase(instance, max_phases=2)
        assert solution.witnesses[0].sequence == (control(frozen, []),)

    def test_bad_arguments(self, frozen):
        instance = golden_instance(frozen)
        with pytest.raises(UsageError):
            solve_cofase(instance, max_phases=0)
        with pytest.raises(UsageError):
            solve_cofase(instance, max_phases=1, policy="everyone")
        with pytest.raises(UsageError):
            solve_cofase(instance, max_phases=1, min_steps_per_phase=2)


def brute_force_min_phases(instance, max_phases):
    """Independent oracle: try every control sequence up to the bound,
    composing per-phase closures computed directly from network steps."""
    controls = list(enumerate_controls(instance.bcn.u_table))
    elements = instance.mode.sorted_elements()

    def closure(network, state):
        seen = {state}
        frontier = [state]
        while frontier:
            nxt = []
            for here in frontier:
                for element in elements:
                    there = bn_step(network, here, element)
                    if there not in seen:
                        seen.add(there)
                        nxt.append(there)
            frontier = nxt
        return seen

    closures = {}
    for mu in controls:
        network = apply_control(instance.bcn, mu)
        closures[mu] = {s: closure(network, s) for s in instance.bcn.x_table.subsets()}

    for length in range(1, max_phases + 1):
        for sequence in itertools.product(controls, repeat=length):
            good = True
            for start in instance.starts:
                frontier = {start}
                for mu in sequence:
                    out = set()
                    for state in frontier:
                        out |= closures[mu][state]
                    frontier = out
                if not frontier & instance.targets:
                    good = False
                    break
            if good:
                return length
    return None


def as_bits(states: int, size: int) -> set:
    """The state bits set in an int of `size` bits."""
    return {bits for bits in range(size) if states >> bits & 1}


def one_class_phase(network, mode, min_steps):
    """The engine's phase of `network` under `mode`, as a control network
    without controls: one class, whose tables are the network's."""
    table = network.table
    bcn = BooleanControlNetwork(table, VarTable(()), table, network.updates)
    instance = CoFaSeInstance.of(bcn, [table.state(0)], [table.state(0)], mode)
    (phase,) = cofase._phases(instance, min_steps)
    return phase


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["syn", "asyn", "random", "single", "overlapping"]),
    st.sampled_from([0, 1]),
)
@example(8, 1, "asyn", 1)
@example(8, 2, "overlapping", 0)
def test_phase_image_matches_bfs_oracle(n, seed, mode_name, min_steps):
    rng = random.Random(seed)
    table = random_table(rng, n)
    network = random_network(rng, table)
    mode = _draw_mode(mode_name, rng, table)
    phase = one_class_phase(network, mode, min_steps)
    oracle = _oracle_phase_reach(step_rows(network, mode)[1], min_steps)
    size = 1 << n
    full = (1 << size) - 1
    sets = [0, full] + [1 << rng.randrange(size) for _ in range(3)]
    sets += [rng.getrandbits(size) & rng.getrandbits(size) for _ in range(3)]
    for states in sets:
        got = phase.image(states)
        assert type(got) is int
        assert as_bits(got, size) == set().union(*(oracle[s] for s in as_bits(states, size)))


def random_control_network(rng, n, explicit, idle):
    """Variables x0.., explicit controls u0.. that the updates may mention,
    freeze pairs on some variables, and with `idle` a control no update
    mentions."""
    x_table = random_table(rng, n)
    inputs = [f"u{i}" for i in range(explicit)]
    mentioned = VarTable(x_table.names + tuple(inputs))
    lines = ["var " + ", ".join(x_table.names)]
    if inputs or idle:
        lines.append("control " + ", ".join(inputs + (["idle"] if idle else [])))
    lines += [f"freeze {name}" for name in x_table.names if rng.random() < 0.4]
    lines += [
        f"{name}' = {random_formula(rng, mentioned, max_depth=3).to_text()}"
        for name in x_table.names
    ]
    return parse_bcn_text("\n".join(lines) + "\n")


control_networks = st.builds(
    lambda seed, n, explicit, idle: random_control_network(
        random.Random(seed), n, explicit, idle
    ),
    st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 2), st.booleans(),
)


def assert_classes_match(bcn):
    """`control_classes` gives the oracle's classes, tables and order over
    every control."""
    got = control_classes(bcn)
    expected = _oracle_control_classes(bcn, enumerate_controls(bcn.u_table))
    assert list(got.items()) == list(expected.items())


@settings(max_examples=100, deadline=None)
@given(control_networks)
def test_selected_networks_match_apply_control(bcn):
    # `control_classes` against per-control networks; the tables are
    # compared as exact ints, so a fold wider than 2**n bits fails
    assert_classes_match(bcn)


def chained_overlap_network():
    """u0 is read by x0 and x1, u1 by x1 and x2: x0 and x2 share no input,
    yet the three updates form one group."""
    return parse_bcn_text(
        "var x0, x1, x2\ncontrol u0, u1\n"
        "x0' = u0 | x1\nx1' = u0 & !u1 | x2\nx2' = u1 | x0\n"
    )


def test_overlap_chains_into_one_group():
    # the 4 controls select 4 distinct tuples of tables; a group per update
    # would give 2 * 2 * 2 classes, pairing tables no one control selects
    bcn = chained_overlap_network()
    assert_classes_match(bcn)
    assert len(control_classes(bcn)) == 4


def counted_folds(monkeypatch):
    """Record the table folds `control_classes` makes, and fail on any
    `apply_control` call."""
    calls = []
    fold = boolps.bcn._table_node
    monkeypatch.setattr(
        boolps.bcn, "_table_node", lambda *args: calls.append(args) or fold(*args)
    )
    monkeypatch.setattr(boolps.bcn, "apply_control", lambda *args: pytest.fail("applied"))
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_selected_networks_apply_each_control_projection_once(n, monkeypatch):
    # a freeze-wrapped update mentions at most its own pair (none if it
    # folds to a constant): at most 4 projections each, all met
    rng = random.Random(n)
    bcn = freeze_extend(random_network(rng, random_table(rng, n)))
    folds = counted_folds(monkeypatch)
    classes = control_classes(bcn)
    inputs = set(bcn.u_table.names)
    assert len(folds) == sum(1 << len(u.variables() & inputs) for u in bcn.updates) <= 4 * n
    for i in range(n):
        # (f & !u0) | u1 folds to f, 0 or 1
        assert len({tables[i] for tables in classes.values()}) <= 3


def test_a_group_over_the_cap_raises_before_folding(monkeypatch):
    # one update reads all 6 inputs: a group of 6 inputs, though 2 classes
    bcn = parse_bcn_text("var x\ncontrol a, b, c, d, e, f\nx' = a | b | c | d | e | f\n")
    assert len(control_classes(bcn)) == 2
    folds = counted_folds(monkeypatch)
    with capped(5), pytest.raises(CapacityError, match="control group has 6 variables"):
        control_classes(bcn)
    assert folds == []


def test_classes_check_the_state_space_before_folding(monkeypatch):
    # ex32's two freeze pairs give 3 * 3 classes over its 2 variables
    bcn = parse_bcn_text((MODELS / "ex32.bcn").read_text())
    assert len(control_classes(bcn)) == 9
    folds = counted_folds(monkeypatch)
    with capped(1), pytest.raises(CapacityError, match="state space has 2 variables"):
        control_classes(bcn)
    assert folds == []


def test_equivalent_folds_are_one_class():
    # a = 1 folds x's update to x | y and a = 0 to y | x: structurally
    # unequal, equal tables
    instance = parse_instance_text(
        "var x, y\ncontrol a\nx' = a & (x | y) | !a & (y | x)\ny' = y\n"
        "start {y}\ntarget {x, y}\nmode asyn\n"
    )
    classes = control_classes(instance.bcn)
    assert list(classes) == [control(instance.bcn, [])]
    assert all(assert_same_as_eager(instance, 2))


def assert_same_as_eager(instance, max_phases):
    """Both policies and both phase readings give the eager solver's result;
    returns the results."""
    results = []
    for min_steps in (0, 1):
        built = eager_maps(instance, min_steps)
        for policy in ("uniform", "per-start"):
            got = solve_cofase(instance, max_phases, policy, min_steps)
            assert got == eager_solve(instance, max_phases, policy, min_steps, built)
            results.append(got)
    return results


@settings(max_examples=60, deadline=None)
@given(
    control_networks,
    st.randoms(use_true_random=False),
    st.sampled_from(["syn", "asyn", "random"]),
    st.integers(1, 3),
)
def test_quotient_solver_matches_eager_solver(bcn, rng, mode_name, max_phases):
    table = bcn.x_table
    mode = random_mode(rng, table) if mode_name == "random" else named_mode(mode_name, table)
    starts = [random_subset(rng, table) for _ in range(rng.randint(1, 2))]
    targets = [random_subset(rng, table) for _ in range(rng.randint(1, 2))]
    assert_same_as_eager(CoFaSeInstance.of(bcn, starts, targets, mode), max_phases)


def test_quotient_solver_matches_eager_solver_on_acceptance_instances():
    rng = random.Random(4040)  # the instances of acceptance criterion 8
    for _ in range(30):
        assert_same_as_eager(random_cofase_instance(rng, max_vars=3), 4)
    with open(MODELS / "ex32.cofase") as handle:
        assert_same_as_eager(parse_instance_text(handle.read()), 3)


def wide_instance(seed, n):
    """An asyn instance on n variables, x1-x3 freeze-controlled (27 networks),
    with three starts and one target."""
    rng = random.Random(seed)
    table = random_table(rng, n)
    bcn = freeze_extend(random_network(rng, table), ["x1", "x2", "x3"])
    starts = [random_subset(rng, table) for _ in range(3)]
    return CoFaSeInstance.of(bcn, starts, [random_subset(rng, table)], BooleanMode.asyn(table))


def freeze_extended_instance(n):
    """``Random(7)``'s network on n variables with every variable
    freeze-controlled (3**n networks), asyn, from 0..0 to 1..1."""
    rng = random.Random(7)
    bcn = freeze_extend(random_network(rng, random_table(rng, n)))
    table = bcn.x_table
    return CoFaSeInstance.of(bcn, [table.state(0)], [table.state((1 << n) - 1)],
                             BooleanMode.asyn(table))


def test_both_engines_agree_on_the_freeze_extended_network_at_four_variables():
    # 12 composite symbols, 4,096 configurations: the test takes about 0.7 s
    # on a 2-vCPU Xeon, nearly all of it in the composite engine
    instance = freeze_extended_instance(4)
    direct = solve_cofase(instance, max_phases=2)
    via = solve_cofase_via_composite(instance, max_steps=16, max_phases=2)
    assert direct and via
    assert direct.phases == via.phases == 1
    assert check_solution(instance, direct) == []
    assert check_solution(instance, via) == []


@pytest.mark.parametrize("seed, n", [(3, 7), (7, 8)])
def test_quotient_solver_matches_eager_solver_on_sets_wider_than_a_word(seed, n):
    # 128 and 256 states; none is solvable within 5 phases, so the
    # comparison covers `explored` and `frontier`
    results = assert_same_as_eager(wide_instance(seed, n), 5)
    assert not any(results)
    assert all(len(result.frontier) > 2 for result in results)


def test_uniform_solve_on_256_states_stays_small():
    # each node holds three ints of 256 bits, and each class two masks of
    # 256 bits per variable: the solve needs about 0.1 MiB
    instance = wide_instance(3, 8)
    tracemalloc.start()
    try:
        assert not solve_cofase(instance, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_one_phase_solve_builds_a_step_map_per_network_at_most(monkeypatch):
    # 64 controls select 27 networks (none / pin to 0 / pin to 1 per variable)
    t = VarTable.of("p", "q", "r")
    bcn = freeze_extend(BooleanNetwork(t, tuple(Formula.var(t, n) for n in t.names)))
    instance = CoFaSeInstance.of(bcn, [digit(t, "000")], [digit(t, "111")], BooleanMode.syn(t))
    calls = []
    fold = cofase._moved
    monkeypatch.setattr(cofase, "_moved", lambda *args: calls.append(args) or fold(*args))
    assert solve_cofase(instance, max_phases=1).phases == 1
    assert 0 < len(calls) <= 27


def test_per_start_solve_applies_a_shared_control_once(monkeypatch):
    # both starts need x pinned to 1 for one phase: the phase, and the
    # network its witnesses step, serve the whole solve
    instance = parse_instance_text(
        "var x, y\nfreeze x\nx' = x\ny' = y\nstart {}, {y}\ntarget {x}, {x, y}\nmode asyn\n"
    )
    calls = []
    apply = cofase.apply_control
    monkeypatch.setattr(cofase, "apply_control", lambda *args: calls.append(args) or apply(*args))
    solution = solve_cofase(instance, 1, "per-start")
    assert [witness.sequence for witness in solution.witnesses] == [
        (control(instance.bcn, ["u_x1"]),)
    ] * 2
    assert len(calls) == 1


def test_solve_checks_the_cap_before_folding(frozen, monkeypatch):
    monkeypatch.setattr(cofase, "_moved", lambda *args: pytest.fail("folded"))
    with capped(1), pytest.raises(CapacityError):
        solve_cofase(golden_instance(frozen), 3)


def test_solve_checks_the_class_count_before_folding(monkeypatch):
    # ex32's two freeze pairs form two groups of 3 classes: 9 > 2**3
    instance = parse_instance_text((MODELS / "ex32.cofase").read_text())
    monkeypatch.setattr(cofase, "_moved", lambda *args: pytest.fail("folded"))
    with capped(3), pytest.raises(CapacityError, match="9 control classes"):
        solve_cofase(instance, 3)


# a pair of controls named like a freeze pair that the update reads as an
# AND: only the control raising both reaches the target
U_P_INSTANCE = (
    "var a, b\ncontrol u_p0, u_p1, u_q0, u_q1, u_r0, u_r1\n"
    "a' = u_p0 & u_p1\nb' = b\nstart 00\ntarget 10\nmode syn\n"
)


def test_an_alphabet_over_the_cap_keeps_every_class():
    # 6 inputs over a cap of 5: the classes come from the one input group
    # of a's update, not from a generator that reads the names as pairs
    instance = parse_instance_text(U_P_INSTANCE)
    uncapped = solution_to_json(solve_cofase(instance, 3))
    with capped(5):
        assert solution_to_json(solve_cofase(instance, 3)) == uncapped
    assert json.loads(uncapped)["witnesses"][0]["controls"] == [["u_p0", "u_p1"]]


def test_cli_solves_an_alphabet_over_the_cap(tmp_path, capsys):
    path = tmp_path / "u_p.cofase"
    path.write_text(U_P_INSTANCE)
    assert main(["cofase", "solve", str(path), "--cap-vars", "5"]) == 0
    assert "controls {u_p0, u_p1}" in capsys.readouterr().out


def test_freeze_all_over_the_cap_solves_as_uncapped():
    # 6 freeze controls over a cap of 5; 3 groups of 3 classes: 27 <= 2**5
    instance = parse_instance_text(
        "var p, q, r\nfreeze p\nfreeze q\nfreeze r\np' = q\nq' = r\nr' = !p\n"
        "start 000\ntarget 110\nmode asyn\n"
    )
    uncapped = solution_to_json(solve_cofase(instance, 3))
    with capped(5):
        assert len(control_classes(instance.bcn)) == 27
        assert solution_to_json(solve_cofase(instance, 3)) == uncapped
    assert '"solvable": true' in uncapped


# x' = x never moves x, so no phase leads from 00 to 10
TABLE_FAULT_INSTANCE = "var x, y\nfreeze y\nx' = x\ny' = y\nstart {}\ntarget {x}\nmode asyn\n"


def plant_table_fault(patch, instance):
    """Make every control class read x's update as 1 at 0..0."""
    classes = cofase.control_classes
    x = instance.bcn.x_table.position("x")
    patch.setattr(cofase, "control_classes", lambda bcn: {
        control: tuple(table | (i == x) for i, table in enumerate(tables))
        for control, tables in classes(bcn).items()})


def test_a_planted_table_fault_raises_instead_of_a_witness(monkeypatch):
    # the witness steps with `bn_step`, so a table that claims x' = 1 at 00 shows
    instance = parse_instance_text(TABLE_FAULT_INSTANCE)
    assert not solve_cofase(instance, 3)
    plant_table_fault(monkeypatch, instance)
    for policy in ("uniform", "per-start"):
        with pytest.raises(ValidationError, match="no path inside a phase"):
            solve_cofase(instance, 3, policy)


class TestMinimalityAndAgreement:
    def test_minimality_against_brute_force(self):
        rng = random.Random(101)
        for _ in range(8):
            instance = random_cofase_instance(rng, max_vars=2)
            solution = solve_cofase(instance, max_phases=3)
            oracle = brute_force_min_phases(instance, 3)
            if oracle is None:
                assert isinstance(solution, NoSolutionWithinBound)
            else:
                assert solution and solution.phases == oracle

    def test_engines_agree(self):
        rng = random.Random(202)
        for _ in range(10):
            instance = random_cofase_instance(rng, max_vars=3)
            direct = solve_cofase(instance, max_phases=4)
            steps = 4 * (1 << len(instance.bcn.x_table)) + 4
            via = solve_cofase_via_composite(instance, max_steps=steps, max_phases=4)
            assert bool(direct) == bool(via)
            if direct:
                assert direct.phases == via.phases
                assert check_solution(instance, direct) == []
                assert check_solution(instance, via) == []


class TestCompositeSolver:
    def test_golden_instance(self, frozen):
        instance = golden_instance(frozen)
        solution = solve_cofase_via_composite(instance, max_steps=32, max_phases=3)
        assert solution and solution.phases == 1
        assert check_solution(instance, solution) == []

    def test_no_controls_is_plain_reachability(self, toggle):
        t = toggle.table
        bcn = BooleanControlNetwork(t, VarTable(()), t, toggle.updates)
        instance = CoFaSeInstance.of(
            bcn, [digit(t, "01")], [digit(t, "10")], BooleanMode.syn(t)
        )
        solution = solve_cofase_via_composite(instance, max_steps=8)
        assert solution and solution.phases == 1

    def test_zero_step_bound(self, frozen):
        t = frozen.x_table
        instance = CoFaSeInstance.of(
            frozen, [digit(t, "01")], [digit(t, "11")], BooleanMode.syn(t)
        )
        result = solve_cofase_via_composite(instance, max_steps=0)
        assert isinstance(result, NoSolutionWithinBound)
        assert result.step_bound == 0

    def test_a_huge_step_bound_commits_no_memory_up_front(self, frozen):
        # the bucket queue holds the costs pushed, not one slot per cost; the
        # solve peaks near 27 KiB
        instance = golden_instance(frozen)
        small = solve_cofase_via_composite(instance, max_steps=8)
        tracemalloc.start()
        try:
            huge = solve_cofase_via_composite(instance, max_steps=10**9, max_phases=None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert small and solution_to_json(huge) == solution_to_json(small)
        assert peak < 256 * 2**10

    def test_bounds_below_range_rejected(self, frozen):
        instance = golden_instance(frozen)
        with pytest.raises(UsageError, match="max_steps"):
            solve_cofase_via_composite(instance, max_steps=-1)
        with pytest.raises(UsageError, match="max_phases"):
            solve_cofase_via_composite(instance, max_steps=8, max_phases=0)


class TestControlSpace:
    def test_full_enumeration_order(self, frozen):
        controls = control_space(frozen)
        assert len(controls) == 16
        assert controls[0].names() == ()
        assert controls[1].names() == ("u_y1",)

    def test_over_the_cap_raises(self):
        t = VarTable.of("p", "q", "r")
        bcn = freeze_extend(BooleanNetwork(t, tuple(Formula.var(t, n) for n in t.names)))
        with capped(5), pytest.raises(CapacityError, match="control alphabet"):
            control_space(bcn)


class TestInstanceIO:
    def test_parse_instance_file(self, frozen):
        text = (
            "var x, y\nfreeze x\nfreeze y\n"
            "x' = !x & y\ny' = x & !y\n"
            "start {01}\ntarget {11}\nmode syn\n"
        )
        instance = parse_instance_text(text)
        assert instance.starts == (digit(instance.bcn.x_table, "01"),)
        assert instance.targets == {digit(instance.bcn.x_table, "11")}
        assert instance.mode == BooleanMode.syn(instance.bcn.x_table)

    def test_state_list_notations(self):
        text = (
            "var x, y\nx' = x\ny' = y\n"
            "start {01, 10}\ntarget {{x}, {x, y}}\nmode asyn\n"
        )
        instance = parse_instance_text(text)
        t = instance.bcn.x_table
        assert set(instance.starts) == {digit(t, "01"), digit(t, "10")}
        assert instance.targets == {digit(t, "10"), digit(t, "11")}

    def test_missing_sections(self):
        with pytest.raises(ParseError):
            parse_instance_text("var x\nx' = x\nstart {1}\n")

    @pytest.mark.parametrize("keyword", ["start", "target", "mode"])
    def test_duplicate_keyword_names_both_lines(self, keyword):
        lines = ["var x", "freeze x", "x' = x", "start {0}", "target {1}", "mode syn"]
        value = next(line for line in lines if line.startswith(keyword))
        with pytest.raises(ParseError) as err:
            parse_instance_text("\n".join(lines + [value]) + "\n")
        first = lines.index(value) + 1
        assert err.value.line == 7 and f"lines {first} and 7" in str(err.value)

    def test_errors_carry_file_line_numbers(self):
        # keyword lines before the network block keep their own numbering
        with pytest.raises(ParseError) as err:
            parse_instance_text("start {0}\ntarget {1}\nvar x\nx' = x &\n")
        assert err.value.line == 4

    def test_solution_json_round_trip(self, frozen):
        instance = golden_instance(frozen)
        solution = solve_cofase(instance, max_phases=3)
        text = solution_to_json(solution)
        loaded = solution_from_json(instance, text)
        assert loaded.phases == solution.phases
        assert check_solution(instance, loaded) == []

    def test_no_solution_json(self, frozen):
        result = NoSolutionWithinBound(phase_bound=2, step_bound=None, explored=5)
        text = solution_to_json(result)
        assert '"solvable": false' in text
        instance = golden_instance(frozen)
        with pytest.raises(ValidationError):
            solution_from_json(instance, text)


def heap_composite_solve(instance, max_steps, max_phases=None):
    """The composite engine as a search over `StateSet` configurations, with
    `successors` labels and the sorted-id tie-break, to compare the engine's
    search over configuration bits and rule masks with."""
    composite = bcn_to_composite(instance.bcn, instance.mode)
    view = composite.mode_view()
    system = composite.system
    controls = control_space(instance.bcn)
    n_x = len(instance.bcn.x_table)
    witnesses = []
    explored = 0
    for start in instance.starts:
        found = None
        parents = {}
        best = {}
        counter = 0
        heap = []
        for mu in controls:
            config = composite.initial_config(start, mu)
            if config not in best:
                best[config] = (0, 0)
                parents[config] = None
                heapq.heappush(heap, (0, 0, counter, config))
                counter += 1
        while heap:
            switches, steps, _tick, config = heapq.heappop(heap)
            if best[config] != (switches, steps):
                continue
            explored += 1
            if composite.project_x(config) in instance.targets:
                found = config
                break
            if steps >= max_steps:
                continue
            improving = {}
            for fired, nxt in successors(view, config):
                switched = composite.project_u(nxt) != composite.project_u(config)
                cost = (switches + switched, steps + 1)
                if max_phases is not None and cost[0] > max_phases - 1:
                    continue
                if nxt in best and best[nxt] <= cost:
                    continue
                key = tuple(sorted(fired))
                if nxt not in improving or key < improving[nxt][0]:
                    improving[nxt] = (key, cost)
            for nxt, (_key, cost) in sorted(improving.items(), key=lambda item: item[1][0]):
                best[nxt] = cost
                parents[nxt] = config
                heapq.heappush(heap, (cost[0], cost[1], counter, nxt))
                counter += 1
        if found is None:
            return NoSolutionWithinBound(
                max_phases, max_steps, explored,
                f"no composite run for start {start.set_text()}",
            )
        path = [found]
        while parents[path[0]] is not None:
            path.insert(0, parents[path[0]])
        step_controls = [composite.project_u(config) for config in path[:-1] or path]
        sequence = [step_controls[0]]
        boundaries = []
        for index, mu in enumerate(step_controls[1:], start=1):
            if mu != sequence[-1]:
                sequence.append(mu)
                boundaries.append(index)
        witnesses.append(
            cofase.PhaseWitness(
                start,
                tuple(sequence),
                Trajectory(tuple(composite.project_x(config) for config in path)),
                tuple(boundaries),
            )
        )
    return CoFaSeSolution("per-start", tuple(witnesses))


@settings(max_examples=60, deadline=None)
# two instances whose witnesses change if fired sets are ordered by their
# masks as ints instead of by their rule-index tuples
@example(59, 3, "asyn", 2, 1, 6, None)
@example(64, 3, "syn", 2, 1, 6, 2)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 3),
    st.sampled_from(["syn", "asyn"]),
    st.integers(1, 2),
    st.integers(1, 2),
    st.integers(0, 6),
    st.sampled_from([None, 1, 2]),
)
def test_composite_search_matches_heap_search_over_state_sets(
    seed, n, mode_name, n_starts, n_targets, max_steps, max_phases
):
    rng = random.Random(seed)
    table = random_table(rng, n)
    controllable = [name for name in table.names if rng.random() < 0.6] or [table.names[0]]
    bcn = freeze_extend(random_network(rng, table), variables=controllable)
    starts = [random_subset(rng, table) for _ in range(n_starts)]
    targets = [random_subset(rng, table) for _ in range(n_targets)]
    instance = CoFaSeInstance.of(bcn, starts, targets, named_mode(mode_name, table))
    got = solve_cofase_via_composite(instance, max_steps, max_phases)
    expected = heap_composite_solve(instance, max_steps, max_phases)
    assert got == expected
    assert solution_to_json(got) == solution_to_json(expected)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1).map(random.Random),
    st.sampled_from(["uniform", "per-start", "composite"]),
)
def test_solution_json_round_trip_of_random_solutions(rng, engine):
    instance = random_cofase_instance(rng, max_vars=3)
    starts = [random_subset(rng, instance.bcn.x_table) for _ in range(rng.randint(1, 2))]
    instance = CoFaSeInstance.of(instance.bcn, starts, instance.targets, instance.mode)
    if engine == "composite":
        solution = solve_cofase_via_composite(instance, max_steps=40, max_phases=4)
    else:
        solution = solve_cofase(instance, max_phases=4, policy=engine)
    if not solution:
        return
    text = solution_to_json(solution)
    loaded = solution_from_json(instance, text)
    assert solution_to_json(loaded) == text
    assert check_solution(instance, loaded) == []
