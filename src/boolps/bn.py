"""Boolean networks: update schedules (modes), stepping, transition graphs, attractors.

A network assigns one update formula per variable.  A mode is a family of
variable groups; one step picks a group and recomputes exactly those
variables from the current state, leaving the rest unchanged.  The
synchronous mode updates all variables at once, the asynchronous one a
single variable at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import CapacityError, UsageError, ValidationError
from .formula import Formula, StateSet, VarTable, _Lines, parse_state
from .limits import DEFAULT_BREADTH_CAP, check_enumerable
from .relation import TransitionRelation


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


def bn_transitions(network: BooleanNetwork, mode: BooleanMode, cap=None) -> TransitionRelation:
    """Full labelled edge set over all 2**n states, one edge per mode element."""
    if mode.table != network.table:
        raise UsageError("mode over a different variable table")
    check_enumerable(len(network.table), cap, "network")
    edges = set()
    elements = mode.sorted_elements()
    for state in network.table.subsets():
        for element in elements:
            edges.add((state, element, bn_step(network, state, element)))
    return TransitionRelation(network.table, frozenset(edges))


def bn_trajectories(
    network: BooleanNetwork,
    mode: BooleanMode,
    start: StateSet,
    max_steps: int,
    breadth_cap=None,
) -> tuple[Trajectory, ...]:
    """All labelled runs from `start`, each extended for `max_steps` steps."""
    if max_steps < 0:
        raise UsageError("max_steps must be non-negative")
    if breadth_cap is not None and breadth_cap < 0:
        raise UsageError("breadth cap must be non-negative")
    limit = DEFAULT_BREADTH_CAP if breadth_cap is None else breadth_cap
    elements = mode.sorted_elements()
    paths = [((start,), ())]
    for _ in range(max_steps):
        if not elements:
            break
        grown = []
        for states, labels in paths:
            for element in elements:
                grown.append(
                    (states + (bn_step(network, states[-1], element),), labels + (element,))
                )
        if len(grown) > limit:
            raise CapacityError(
                f"trajectory breadth exceeded cap {limit}",
                partial=tuple(Trajectory(s, l) for s, l in paths),
            )
        paths = grown
    # distinct state sequences; label choices may coincide state-wise
    seen = {}
    for states, labels in paths:
        seen.setdefault(states, labels)
    return tuple(Trajectory(states, labels) for states, labels in seen.items())


def _components(successors) -> list[list[int]]:
    """Strongly connected components, each listed after every component its
    edges reach (the order in which Tarjan closes them).

    Iterative Tarjan (SIAM J. Comput. 1, 1972) over ``successors[v]``, the
    successor list of node v.
    """
    n = len(successors)
    order = [0] * n  # 1-based discovery order; 0 = not visited yet
    low = [0] * n
    on_stack = [False] * n
    stack = []
    found = []
    counter = 0
    for root in range(n):
        if order[root]:
            continue
        counter += 1
        order[root] = low[root] = counter
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(successors[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if not order[w]:
                    counter += 1
                    order[w] = low[w] = counter
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(successors[w])))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], order[w])
            else:
                work.pop()
                if low[v] < order[v]:  # v's component is still open: pass its low up
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                    continue
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                found.append(component)
    return found


def attractors(network: BooleanNetwork, mode: BooleanMode, cap=None):
    """Terminal strongly-connected components of the one-step graph.

    Every run eventually stays inside one of these: they are the sets of
    mutually reachable states the dynamics cannot escape.  Returned as
    canonically sorted tuples of states, sorted among themselves.
    """
    check_enumerable(len(network.table), cap, "network")
    table = network.table
    successors = [
        [bn_step(network, state, element).bits for element in mode.elements]
        for state in table.subsets()
    ]
    result = []
    for component in _components(successors):
        members = set(component)
        if any(w not in members for u in component for w in successors[u]):
            continue  # an edge leaves: not terminal
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


def format_bn_text(network: BooleanNetwork) -> str:
    lines = ["var " + ", ".join(network.table.names)]
    for name, update in zip(network.table.names, network.updates):
        lines.append(f"{name}' = {update.to_text()}")
    return "\n".join(lines) + "\n"


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
