"""Every network over two variables, bounded-exhaustively: each of the
16 * 16 pairs of update truth tables, with every subset of its variables
freeze-controlled, under syn and under asyn, from two fixed starts to one
fixed target: 2,048 instances.  Small faults show at small sizes, and at
n = 2 there are few enough networks to try them all.

The networks are built here from their truth tables, one Shannon
expansion per update, not by the package's generators.  On each
instance the direct engine (per start) and the composite engine agree on
solvability and on the number of phases, `check_solution` accepts both
answers, and under `min_steps_per_phase=1` the direct engine gives what
`oracles.eager_solve` gives, under the uniform policy.  The eager maps
come from the networks the controls select, which are again pairs of
truth tables: a raised ``u_<x>1`` pins x to 1 (table 15), else a raised
``u_<x>0`` pins it to 0 (table 0).  There are 256 such pairs per mode,
so each one's maps are built once for the sweep.
"""

import itertools

import pytest
from oracles import eager_solve, phase_maps

from boolps.bcn import freeze_extend
from boolps.bn import BooleanMode, BooleanNetwork
from boolps.cofase import (
    CoFaSeInstance,
    check_solution,
    control_space,
    solve_cofase,
    solve_cofase_via_composite,
)
from boolps.formula import Formula, VarTable

TABLE = VarTable.of("x0", "x1")
MAX_PHASES = 3
# a phase visits at most the 4 states, so 3 steps each cover every run
MAX_STEPS = 3 * MAX_PHASES
STARTS = [TABLE.state(0b00), TABLE.state(0b11)]
TARGET = TABLE.state(0b01)  # x0 alone, digits 10


def update(table: int) -> Formula:
    """The formula whose value at the state with bits b is bit b of `table`:
    x1 selects between the two halves, each a formula of x0 (the
    combinators fold the constants away)."""
    x0, x1 = (Formula.var(TABLE, name) for name in TABLE.names)
    halves = [
        [Formula.const(TABLE, False), x0.negate(), x0, Formula.const(TABLE, True)][half]
        for half in (table & 3, table >> 2)
    ]
    return x1.negate().conj(halves[0]).disj(x1.conj(halves[1]))


UPDATES = [update(table) for table in range(16)]
FREEZES = [(), ("x0",), ("x1",), ("x0", "x1")]


def mode_of(mode_name):
    return BooleanMode.syn(TABLE) if mode_name == "syn" else BooleanMode.asyn(TABLE)


def instances(mode_name, frozen):
    """The 256 instances of one mode and one freeze subset, each with its
    two update tables."""
    for tables in itertools.product(range(16), repeat=2):
        network = BooleanNetwork(TABLE, tuple(UPDATES[table] for table in tables))
        bcn = freeze_extend(network, frozen)
        yield tables, CoFaSeInstance.of(bcn, STARTS, [TARGET], mode_of(mode_name))


def selected_tables(tables, control):
    """The update tables of the network that `control` selects."""
    raised = set(control.names())
    return tuple(
        15 if f"u_{name}1" in raised else 0 if f"u_{name}0" in raised else table
        for name, table in zip(TABLE.names, tables)
    )


def test_the_updates_are_the_sixteen_truth_tables():
    states = list(TABLE.subsets())
    tables = [sum(formula.evaluate(state) << state.bits for state in states)
              for formula in UPDATES]
    assert tables == list(range(16))


@pytest.mark.parametrize("frozen", FREEZES, ids=lambda frozen: "+".join(frozen) or "none")
@pytest.mark.parametrize("mode_name", ["syn", "asyn"])
def test_engines_agree_on_every_two_variable_network(mode_name, frozen):
    known = {}  # selected tables -> their phase maps under min_steps 1
    solvable = 0
    for tables, instance in instances(mode_name, frozen):
        direct = solve_cofase(instance, MAX_PHASES, "per-start")
        via = solve_cofase_via_composite(instance, MAX_STEPS, MAX_PHASES)
        assert bool(direct) == bool(via)
        if direct:
            solvable += 1
            assert direct.phases == via.phases
            assert check_solution(instance, direct) == []
            assert check_solution(instance, via) == []
        built = {}, {}
        for control in control_space(instance.bcn):
            selected = selected_tables(tables, control)
            if selected not in known:
                network = BooleanNetwork(TABLE, tuple(UPDATES[table] for table in selected))
                known[selected] = phase_maps(network, instance.mode, 1)
            built[0][control], built[1][control] = known[selected]
        assert solve_cofase(instance, MAX_PHASES, "uniform", 1) == eager_solve(
            instance, MAX_PHASES, "uniform", 1, built)
    # every block compares witnesses, not only refutations
    assert solvable > 0
