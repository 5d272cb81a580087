"""The tests' expected sides: references that step networks with `bn_step`
from `apply_control` and search them breadth first, never through the
package's truth tables, control classes or step maps.  A kernel fault
therefore shows as a disagreement with them instead of on both sides;
`test_harness` checks that no function here names a kernel entry point.
"""

import functools
import operator
from collections import deque
from dataclasses import dataclass

from boolps.bcn import apply_control
from boolps.bn import _components, bn_step
from boolps.cofase import (
    CoFaSeInstance,
    CoFaSeSolution,
    NoSolutionWithinBound,
    _build_solution,
    _Phase,
    control_space,
)


def step_rows(network, mode):
    """The one-step graph over all 2**n states, as ``(elements, rows)``:
    `elements` is ``mode.sorted_elements()`` and ``rows[bits]`` holds the
    next-state bits under each element, in that order.

    Each state is stepped once with `bn_step`, under the union of the
    elements: an update reads only the state, so element g changes exactly
    the bits of g that the union step changes.  The tests' reference for
    the one-step graph, independent of the package's truth tables.
    """
    elements = mode.sorted_elements()
    groups = [element.bits for element in elements]
    union = network.table.state(functools.reduce(operator.or_, groups, 0))
    rows = []
    for state in network.table.subsets():
        bits = state.bits
        moved = bits ^ bn_step(network, state, union).bits
        rows.append(tuple(bits ^ (moved & g) for g in groups))
    return elements, rows


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


def _row_attractors(network, mode):
    """Terminal components of Tarjan's components over the `step_rows` rows."""
    rows = step_rows(network, mode)[1]
    found = set()
    for component, _leaves in _components(rows.__getitem__, len(rows)):
        members = set(component)
        if all(w in members for u in component for w in rows[u]):
            found.add(frozenset(network.table.state(bits) for bits in component))
    return found


def as_int(states):
    """A set of state bits as the int with those bits set."""
    return sum(1 << bits for bits in states)


def _oracle_phase_reach(rows, min_steps):
    """Reach by one BFS per state; with min_steps 1, from the states one step away."""

    def reach(source):
        seen = {source}
        queue = deque([source])
        while queue:
            for dst in rows[queue.popleft()]:
                if dst not in seen:
                    seen.add(dst)
                    queue.append(dst)
        return seen

    closure = [reach(s) for s in range(len(rows))]
    if min_steps == 0:
        return closure
    return [set().union(*(closure[dst] for dst in row)) for row in rows]


def _oracle_control_classes(bcn, controls):
    """Per control, via `apply_control`: each update of the selected
    network read state by state with `Formula.evaluate`, as a table of
    2**n bits; the first control in the given order stands for each
    distinct tuple of tables."""
    states = list(bcn.x_table.subsets())
    first = {}
    for mu in controls:
        network = apply_control(bcn, mu)
        tables = tuple(
            sum(update.evaluate(state) << state.bits for state in states)
            for update in network.updates
        )
        first.setdefault(tables, mu)
    return {mu: tables for tables, mu in first.items()}


def phase_maps(network, mode, min_steps):
    """The BFS phase reach (`_oracle_phase_reach`) of the network's
    `step_rows`, per state, as ints and as sets."""
    reach = _oracle_phase_reach(step_rows(network, mode)[1], min_steps)
    return [as_int(states) for states in reach], reach


def eager_maps(instance, min_steps):
    """Per control, via `apply_control`: the `phase_maps` of the network it
    selects, as the two dicts that `eager_solve` reads."""
    maps = {}
    oracle = {}
    for mu in control_space(instance.bcn):
        maps[mu], oracle[mu] = phase_maps(apply_control(instance.bcn, mu), instance.mode,
                                          min_steps)
    return maps, oracle


@dataclass(eq=False)
class EagerPhase(_Phase):
    """A phase of `eager_solve`: the engine's `_Phase`, for the `reaches`
    and `path` that `_build_solution` calls, with its images taken from
    `reach`, one int per state from `eager_maps`, instead of from tables
    and a split of the mode, of which it has none."""

    reach: list = None

    def image(self, states):
        out = 0
        for bits, reach in enumerate(self.reach):
            if states >> bits & 1:
                out |= reach
        return out


def eager_solve(instance, max_phases, policy, min_steps, built):
    """The direct engine without the control quotient: `built`, the
    `eager_maps` of the instance under min_steps, then a breadth-first
    search over frozensets trying every control at every node.  Witnesses
    come from the engine's own `_build_solution`, fed `EagerPhase`s."""
    maps, oracle = built

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
                for mu, reach in oracle.items():
                    image = tuple(
                        frozenset().union(*(reach[s] for s in comp)) for comp in node
                    )
                    if all(comp & targets for comp in image):
                        phases = [EagerPhase(sub, mu, (), min_steps, None, maps[mu])
                                  for mu in sequence + (mu,)]
                        solution = _build_solution(sub, phases)
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
