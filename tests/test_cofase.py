import heapq
import itertools
import random
from collections import deque
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import boolps.bcn
from boolps import cofase
from boolps.bcn import (
    BooleanControlNetwork,
    apply_control,
    enumerate_controls,
    freeze_extend,
    parse_bcn_text,
    selected_networks,
)
from boolps.bn import BooleanMode, BooleanNetwork, Trajectory, bn_step, named_mode, step_table
from boolps.boolp import successors
from boolps.cofase import (
    CoFaSeInstance,
    CoFaSeSolution,
    NoSolutionWithinBound,
    _build_solution,
    _phase_reach,
    control_space,
    parse_instance_text,
    solution_from_json,
    solution_to_json,
    solve_cofase,
    solve_cofase_via_composite,
    verify_control_sequence,
)
from boolps.errors import ParseError, UsageError, ValidationError
from boolps.formula import Formula, StateSet, VarTable, parse_formula
from boolps.generators import (
    random_cofase_instance,
    random_formula,
    random_mode,
    random_network,
    random_subset,
    random_table,
)
from boolps.translate import bcn_to_composite

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


class TestDirectSolver:
    def test_golden_instance_solved_within_three_phases(self, frozen):
        instance = golden_instance(frozen)
        solution = solve_cofase(instance, max_phases=3)
        assert solution
        assert solution.phases <= 3
        witness = solution.witnesses[0]
        assert verify_control_sequence(
            frozen, witness.sequence, instance.mode, witness.trajectory, witness.boundaries
        )
        assert witness.trajectory.first == instance.starts[0]
        assert witness.trajectory.last in instance.targets

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
        for witness in solution.witnesses:
            assert verify_control_sequence(
                frozen, witness.sequence, instance.mode, witness.trajectory,
                witness.boundaries,
            )
            assert witness.trajectory.last in instance.targets

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
        assert {w.start for w in solution.witnesses} == set(instance.starts)
        for witness in solution.witnesses:
            assert verify_control_sequence(
                frozen, witness.sequence, instance.mode, witness.trajectory,
                witness.boundaries,
            )

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


def _oracle_phase_reach(rows, min_steps):
    """Reach by one BFS per state; with min_steps 1, from the one-step successors."""

    def reach(source):
        seen = {source}
        queue = deque([source])
        while queue:
            for dst in rows[queue.popleft()]:
                if dst not in seen:
                    seen.add(dst)
                    queue.append(dst)
        return seen

    if min_steps == 0:
        return [reach(s) for s in range(len(rows))]
    return [set().union(*(reach(dst) for dst in row)) for row in rows]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["syn", "asyn", "random"]),
    st.sampled_from([0, 1]),
)
def test_phase_reach_matches_bfs_oracle(n, seed, mode_name, min_steps):
    rng = random.Random(seed)
    table = random_table(rng, n)
    network = random_network(rng, table)
    mode = random_mode(rng, table) if mode_name == "random" else named_mode(mode_name, table)
    rows = step_table(network, mode)[1]
    got = _phase_reach(rows, min_steps)
    assert all(type(reach) is frozenset for reach in got)
    assert got == _oracle_phase_reach(rows, min_steps)
    if min_steps == 0:
        # mutually reachable states share one closure object
        for s, reach in enumerate(got):
            for t in reach:
                if s in got[t]:
                    assert got[t] is reach


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


@settings(max_examples=100, deadline=None)
@given(control_networks, st.randoms(use_true_random=False))
def test_selected_networks_match_apply_control(bcn, rng):
    controls = control_space(bcn)
    rng.shuffle(controls)
    expected = {}
    for mu in controls:  # the first control in the given order stands for its class
        expected.setdefault(apply_control(bcn, mu), mu)
    got = selected_networks(bcn, controls)
    assert list(got.items()) == [(mu, network) for network, mu in expected.items()]


def counted_apply_control(monkeypatch):
    """Count the `apply_control` calls `selected_networks` makes."""
    calls = []
    apply = boolps.bcn.apply_control
    monkeypatch.setattr(
        boolps.bcn, "apply_control", lambda *args: calls.append(args) or apply(*args)
    )
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_selected_networks_apply_each_control_projection_once(n, monkeypatch):
    # a freeze-wrapped update has 4 projections, and control 0 brings n of them
    rng = random.Random(n)
    bcn = freeze_extend(random_network(rng, random_table(rng, n)))
    calls = counted_apply_control(monkeypatch)
    networks = selected_networks(bcn, control_space(bcn))
    assert 1 <= len(calls) <= 1 + 3 * n
    for i in range(n):
        # (f & !u0) | u1 folds to f, 0 or 1: equal folds are one object
        updates = [network.updates[i] for network in networks.values()]
        assert len({id(update) for update in updates}) == len(set(updates)) <= 3


def test_selected_networks_reject_a_foreign_control_before_applying_any(frozen, monkeypatch):
    calls = counted_apply_control(monkeypatch)
    foreign = VarTable.of("u_x0", "u_x1").state(0)
    with pytest.raises(UsageError):
        selected_networks(frozen, [foreign] + control_space(frozen))
    assert calls == []


def eager_solve(instance, max_phases, policy="uniform", min_steps=0):
    """The direct engine without the control quotient: `apply_control`, a
    step table and a phase closure for every control, then a breadth-first
    search trying every control at every node.  Witnesses come from the
    engine's own `_build_solution`, fed these maps."""
    maps = {}
    for mu in control_space(instance.bcn):
        elements, rows = step_table(apply_control(instance.bcn, mu), instance.mode)
        maps[mu] = (elements, rows, _phase_reach(rows, min_steps))

    def search(sub):
        """The result and the number of search nodes visited."""
        targets = {target.bits for target in sub.targets}
        initial = tuple(frozenset({start.bits}) for start in sub.starts)
        visited = {initial}
        queue = [(initial, ())]
        frontier = [1]
        for _depth in range(max_phases):
            if not queue:
                break
            next_queue = []
            for node, sequence in queue:
                for mu, (_elements, _rows, reach) in maps.items():
                    image = tuple(
                        frozenset().union(*(reach[s] for s in comp)) for comp in node
                    )
                    if all(comp & targets for comp in image):
                        solution = _build_solution(sub, sequence + (mu,), maps.__getitem__,
                                                   min_steps)
                        return solution, len(visited)
                    if image not in visited:
                        visited.add(image)
                        next_queue.append((image, sequence + (mu,)))
            frontier.append(len(next_queue))
            queue = next_queue
        failed = NoSolutionWithinBound(max_phases, None, len(visited), frontier=tuple(frontier))
        return failed, len(visited)

    if policy == "uniform":
        return search(instance)[0]
    witnesses = []
    explored = 0
    for start in instance.starts:
        result, visited = search(
            CoFaSeInstance(instance.bcn, (start,), instance.targets, instance.mode)
        )
        explored += visited
        if not result:
            return NoSolutionWithinBound(
                max_phases, None, explored,
                f"no sequence for start {start.set_text()}", result.frontier,
            )
        witnesses.extend(result.witnesses)
    return CoFaSeSolution("per-start", tuple(witnesses))


def assert_same_as_eager(instance, max_phases):
    for policy in ("uniform", "per-start"):
        for min_steps in (0, 1):
            got = solve_cofase(instance, max_phases, policy, min_steps)
            assert got == eager_solve(instance, max_phases, policy, min_steps)


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


def test_one_phase_solve_builds_a_step_map_per_network_at_most(monkeypatch):
    # 64 controls select 27 networks (none / pin to 0 / pin to 1 per variable)
    t = VarTable.of("p", "q", "r")
    bcn = freeze_extend(BooleanNetwork(t, tuple(Formula.var(t, n) for n in t.names)))
    instance = CoFaSeInstance.of(bcn, [digit(t, "000")], [digit(t, "111")], BooleanMode.syn(t))
    calls = []
    build = cofase.step_table
    monkeypatch.setattr(cofase, "step_table", lambda *args: calls.append(args) or build(*args))
    assert solve_cofase(instance, max_phases=1).phases == 1
    assert 0 < len(calls) <= 27


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
                for witness in via.witnesses:
                    assert verify_control_sequence(
                        instance.bcn, witness.sequence, instance.mode,
                        witness.trajectory, witness.boundaries,
                    )
                    assert witness.trajectory.last in instance.targets


class TestCompositeSolver:
    def test_golden_instance(self, frozen):
        instance = golden_instance(frozen)
        solution = solve_cofase_via_composite(instance, max_steps=32, max_phases=3)
        assert solution and solution.phases == 1
        witness = solution.witnesses[0]
        assert verify_control_sequence(
            frozen, witness.sequence, instance.mode, witness.trajectory, witness.boundaries
        )

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

    def test_freeze_generator_when_capped(self):
        t = VarTable.of("p", "q", "r")
        network = BooleanNetwork(
            t, tuple(Formula.var(t, n) for n in t.names)
        )
        bcn = freeze_extend(network)
        controls = control_space(bcn, cap=5)  # 2^6 > 2^5 forces the generator
        assert len(controls) == 27  # 3 choices per pair
        pairs = [{f"u_{name}0", f"u_{name}1"} for name in t.names]
        expected = [
            mu for mu in enumerate_controls(bcn.u_table)
            if all(not pair <= set(mu.names()) for pair in pairs)
        ]
        assert controls == expected


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
        for witness in loaded.witnesses:
            assert verify_control_sequence(
                frozen, witness.sequence, instance.mode, witness.trajectory,
                witness.boundaries,
            )

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
            for fired, nxt in successors(system, view, config):
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
