"""Boolean networks: update schedules (modes), stepping, transition graphs, attractors.

A network assigns one update formula per variable.  A mode is a family of
variable groups; one step picks a group and recomputes exactly those
variables from the current state, leaving the rest unchanged.  The
synchronous mode updates all variables at once, the asynchronous one a
single variable at a time.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CapacityError, UsageError, ValidationError
from .formula import (
    Formula,
    StateSet,
    VarTable,
    _Lines,
    fold_truth_table,
    parse_state,
    truth_columns,
    truth_patterns,
)
from .limits import DEFAULT_BREADTH_CAP, check_enumerable
from .relation import TransitionRelation, label_text


@dataclass(frozen=True)
class BooleanNetwork:
    table: VarTable
    updates: tuple[Formula, ...]

    def __post_init__(self):
        if len(self.updates) != len(self.table):
            raise ValidationError(
                f"expected {len(self.table)} update formulas, got {len(self.updates)}"
            )
        for formula in self.updates:
            if formula.table != self.table:
                raise ValidationError("update formula over a different variable table")


@dataclass(frozen=True)
class BooleanMode:
    """Family of variable groups that may be updated together in one step."""

    table: VarTable
    elements: frozenset[StateSet]

    def __post_init__(self):
        for element in self.elements:
            if element.table != self.table:
                raise ValidationError("mode element over a different variable table")

    @classmethod
    def syn(cls, table: VarTable) -> "BooleanMode":
        return cls(table, frozenset({StateSet.full(table)}))

    @classmethod
    def asyn(cls, table: VarTable) -> "BooleanMode":
        return cls(
            table, frozenset(StateSet.of(table, [name]) for name in table)
        )

    @classmethod
    def of(cls, table: VarTable, groups: Iterable[Iterable[str]]) -> "BooleanMode":
        return cls(table, frozenset(StateSet.of(table, g) for g in groups))

    def sorted_elements(self):
        return sorted(self.elements, key=StateSet.sort_key)


@dataclass(frozen=True)
class Trajectory:
    """Finite run: a non-empty state sequence with optional per-step labels."""

    states: tuple[StateSet, ...]
    labels: tuple = None
    halting: bool = False

    def __post_init__(self):
        if not self.states:
            raise ValidationError("a trajectory needs at least one state")
        if self.labels is not None and len(self.labels) != len(self.states) - 1:
            raise ValidationError("need exactly one label per step")

    @property
    def first(self) -> StateSet:
        return self.states[0]

    @property
    def last(self) -> StateSet:
        return self.states[-1]

    def __len__(self):
        return len(self.states)

    def text(self, style: str = "digits") -> str:
        if style == "digits":
            parts = [s.digits() for s in self.states]
        else:
            parts = [s.set_text() for s in self.states]
        out = " -> ".join(parts)
        if self.halting:
            out += " [halting]"
        return out


def bn_step(network: BooleanNetwork, state: StateSet, group: StateSet) -> StateSet:
    """One step updating exactly the variables of `group` from `state`."""
    if group.table != network.table:
        raise UsageError("update group over a different variable table")
    if state.table != network.table:
        raise UsageError("state over a different variable table")
    bits = state.bits
    for pos in range(len(network.table)):
        if group.bits >> pos & 1:
            if network.updates[pos].evaluate(state):
                bits |= 1 << pos
            else:
                bits &= ~(1 << pos)
    return network.table.state(bits)


def _truth_tables(network: BooleanNetwork, n: int) -> list[int]:
    """The updates' truth tables over the 2**n states."""
    patterns = truth_patterns(n)
    return [fold_truth_table(update, patterns) for update in network.updates]


def _moved(tables: list[int], groups: list[int]) -> list[int]:
    """``moved[b]``: the bits a step under the union of `groups` changes at
    each of the 2**n states b, from the n updates' truth `tables` over them.

    For each variable x_i in a group, D_i, the states where update i
    disagrees with x_i, is table i XOR x_i's pattern; `truth_columns`
    transposes the D_i state by state.  Group g moves b to
    ``b ^ (moved[b] & g)``: an update reads only the state.  Bit i of
    ``moved[b]`` reads table i alone, so the map over several groups is
    the OR of maps over any split of their union's variables.  The tables
    are a network's (`bn_transitions`, `attractors`), or control classes'
    (`cofase._ModeSplit`, which builds a part per update and table over
    the groups of several variables, once per solve, and ORs a class's
    parts; one-variable groups step whole sets instead).  `bn_step` stays
    the per-state reference stepper.
    """
    n = len(tables)
    union = functools.reduce(operator.or_, groups, 0)
    return truth_columns(
        [
            table ^ pattern if union >> i & 1 else 0
            for i, (table, pattern) in enumerate(zip(tables, truth_patterns(n)))
        ],
        n,
    )


def bn_transitions(network: BooleanNetwork, mode: BooleanMode) -> TransitionRelation:
    """Full labelled edge set over all 2**n states, one edge per mode element.

    The destinations come from the updates' truth tables (`_moved`), as in
    `attractors`; the elements are put in label order once, so each row,
    one destination per element, is already canonical.
    """
    if mode.table != network.table:
        raise UsageError("mode over a different variable table")
    n = check_enumerable(len(network.table), "network")
    elements = sorted(mode.elements, key=label_text)
    groups = [element.bits for element in elements]
    moved = _moved(_truth_tables(network, n), groups)
    return TransitionRelation._canonical(
        network.table,
        elements,
        [
            tuple(enumerate([bits ^ (change & g) for g in groups]))
            for bits, change in enumerate(moved)
        ],
    )


def enumerate_runs(start, max_steps: int, breadth_cap, expand, what: str) -> list:
    """All runs of a labelled one-step relation from `start`, breadth first.

    `expand(state)` lists the state's ``(label, next state)`` pairs in
    branch order; it is called once per distinct state.  A run stops at a
    state without pairs, or after `max_steps` steps.  Returns the stopped
    runs, then the runs still growing, as ``(states, labels)`` tuples.
    Raises CapacityError ("<what> breadth exceeded cap N") when a step
    leaves more than `breadth_cap` runs (default DEFAULT_BREADTH_CAP),
    stopped ones included.
    """
    if max_steps < 0:
        raise UsageError("max_steps must be non-negative")
    if breadth_cap is not None and breadth_cap < 0:
        raise UsageError("breadth cap must be non-negative")
    limit = DEFAULT_BREADTH_CAP if breadth_cap is None else breadth_cap
    # branches revisit states: expand each one once per call
    moves = {}
    done = []
    paths = [((start,), ())]
    for _ in range(max_steps):
        grown = []
        for states, labels in paths:
            last = states[-1]
            if last not in moves:
                moves[last] = expand(last)
            if not moves[last]:
                done.append((states, labels))
            for label, nxt in moves[last]:
                grown.append((states + (nxt,), labels + (label,)))
        if len(grown) + len(done) > limit:
            raise CapacityError(f"{what} breadth exceeded cap {limit}")
        paths = grown
        if not paths:
            break
    return done + paths


def bn_trajectories(
    network: BooleanNetwork,
    mode: BooleanMode,
    start: StateSet,
    max_steps: int,
    breadth_cap=None,
) -> tuple[Trajectory, ...]:
    """All labelled runs from `start`, each extended for `max_steps` steps
    (a mode without elements stops every run at `start`)."""
    elements = mode.sorted_elements()
    runs = enumerate_runs(
        start, max_steps, breadth_cap,
        lambda state: [(element, bn_step(network, state, element)) for element in elements],
        "trajectory",
    )
    # distinct state sequences; label choices may coincide state-wise
    seen = {}
    for states, labels in runs:
        seen.setdefault(states, labels)
    return tuple(Trajectory(states, labels) for states, labels in seen.items())


def _components(successors, n: int) -> Iterator[tuple[list[int], bool]]:
    """Strongly connected components of nodes 0..n-1, each yielded after
    every component its edges reach (the order in which Tarjan closes them),
    as ``(nodes, leaves)``: `leaves` is whether an edge leaves the component.

    Iterative Tarjan (SIAM J. Comput. 1, 1972) over ``successors(v)``, the
    successor list of node v.  An edge leaves v's component iff it reaches
    a closed component: a visited node off the stack, or a tree child that
    closed its own.  Each node passes its flag to its tree parent, so the
    component's root holds the OR of its nodes' flags when it closes.
    """
    order = [0] * n  # 1-based discovery order; 0 = not visited yet
    low = [0] * n
    on_stack = [False] * n
    leaves = bytearray(n)
    stack = []
    counter = 0
    for root in range(n):
        if order[root]:
            continue
        counter += 1
        order[root] = low[root] = counter
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(successors(root)))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if not order[w]:
                    counter += 1
                    order[w] = low[w] = counter
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(successors(w))))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], order[w])
                else:
                    leaves[v] = 1
            else:
                work.pop()
                if low[v] < order[v]:  # v's component is still open: pass its low up
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                    leaves[parent] |= leaves[v]
                    continue
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                if work:  # the parent's edge to v leaves the parent's component
                    leaves[work[-1][0]] = 1
                yield component, bool(leaves[v])


def attractors(network: BooleanNetwork, mode: BooleanMode):
    """Terminal strongly-connected components of the one-step graph.

    Every run eventually stays inside one of these: they are the sets of
    mutually reachable states the dynamics cannot escape.  Returned as
    canonically sorted tuples of states, sorted among themselves.

    The successors come from the updates' truth tables (`_moved`) under
    every mode; self-loops are left out, as they change no component.  A
    component is terminal iff no edge leaves it.
    """
    if mode.table != network.table:
        raise UsageError("mode over a different variable table")
    table = network.table
    n = check_enumerable(len(table), "network")
    groups = [element.bits for element in mode.elements]
    moved = _moved(_truth_tables(network, n), groups)

    def successors(bits):
        change = moved[bits]
        return [bits ^ (change & g) for g in groups if change & g]

    result = []
    for component, leaves in _components(successors, 1 << n):
        if not leaves:
            states = sorted((table.state(bits) for bits in component), key=StateSet.sort_key)
            result.append(tuple(states))
    result.sort(key=lambda states: tuple(s.sort_key() for s in states))
    return result


# --- text format ------------------------------------------------------------
#
#   # comment
#   var x, y
#   x' = !x & y
#   y' = x & !y


def parse_bn_text(text: str, source=None) -> BooleanNetwork:
    """A `.bn` file is a `.bcn` file without `control` or `freeze` lines."""
    from .bcn import _read_bcn  # bcn builds on this module

    bcn = _read_bcn(text, source, names=("var",))[0]
    return BooleanNetwork(bcn.table, bcn.updates)


def parse_mode_text(text: str, table: VarTable, source=None) -> BooleanMode:
    """Mode file: one `group {x,y}` line per element (``group {}`` allowed)."""
    lines = _Lines(text, source=source)
    groups = []
    for line, lineno in lines.rest:
        if not line.startswith("group"):
            raise lines.unreadable(lineno)
        with lines.at(lineno):
            groups.append(parse_state(table, line[len("group"):].strip()))
    return BooleanMode(table, frozenset(groups))


def named_mode(name: str, table: VarTable) -> BooleanMode:
    if name == "syn":
        return BooleanMode.syn(table)
    if name == "asyn":
        return BooleanMode.asyn(table)
    raise UsageError(f"unknown mode name {name!r} (expected syn or asyn)")
