"""Bounded search for control sequences driving a controlled network.

An instance asks for a sequence of controls such that, switching the
network from one control to the next, some trajectory leads from each
start state into the target set.  A phase (one control's tenure) may last
any number of steps, including zero by default; pass
``min_steps_per_phase=1`` for the stricter reading.

Two engines are provided.  The direct engine searches the phase graph:
it runs a breadth-first search over per-start frontier sets, returning a
shortest sequence (ties broken by canonical control order).  Controls that
select networks with equal truth tables form one class, tried once under
its first control in canonical order.  The classes are built per group of
updates that share control inputs (`bcn.control_classes`), never by a loop
over every control, and come ordered by the digit rank of their controls.
A phase's image of a state set is saturated from its class's truth tables
(`_Phase.image`), with no per-state closure: whole-set shifts under
single-variable groups, explicit steps under wider ones.  What every class
derives alike is derived once per solve (`_ModeSplit`): the split of the
mode's groups by shape, and the parts of the wide groups' step maps, one
per update and table, whose OR is a class's step map.  The second engine
searches the composed set-rewriting embedding of the instance from every
control (`control_space`) and decodes the control sequence from the
control-symbol history; the two must agree, which is used as a
cross-check throughout the test suite.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import operator
from dataclasses import dataclass, replace

from .bcn import (
    BooleanControlNetwork,
    _read_bcn,
    apply_control,
    control_classes,
    enumerate_controls,
    glue_trajectories,
)
from .bn import BooleanMode, Trajectory, _moved, bn_step, named_mode
# unused here; bench/tracer.py counts the kernel's calls through every binding
from .boolp import successors as boolp_successors  # noqa: F401
from .errors import ParseError, UsageError, ValidationError
from .formula import StateSet, VarTable, parse_state, truth_patterns
from .limits import check_enumerable
from .relation import digit_order
from .translate import bcn_to_composite


@dataclass(frozen=True)
class CoFaSeInstance:
    bcn: BooleanControlNetwork
    starts: tuple[StateSet, ...]
    targets: frozenset[StateSet]
    mode: BooleanMode

    def __post_init__(self):
        if not self.starts or not self.targets:
            raise ValidationError("need at least one start and one target state")
        for state in list(self.starts) + list(self.targets):
            if state.table != self.bcn.x_table:
                raise ValidationError("start/target state over a different table")
        if self.mode.table != self.bcn.x_table:
            raise ValidationError("mode over a different variable table")

    @classmethod
    def of(cls, bcn, starts, targets, mode) -> "CoFaSeInstance":
        ordered = sorted(set(starts), key=StateSet.sort_key)
        return cls(bcn, tuple(ordered), frozenset(targets), mode)


@dataclass(frozen=True)
class PhaseWitness:
    """Per start state: the control sequence (a tuple of controls, each the
    `StateSet` of raised inputs over the network's `u_table`), the glued
    trajectory, and the indices (into the trajectory) at which the interior
    phase switches happen.  ValidationError: an empty sequence, or
    boundaries that do not split the trajectory into one span per control."""

    start: StateSet
    sequence: tuple[StateSet, ...]
    trajectory: Trajectory
    boundaries: tuple[int, ...]

    def __post_init__(self):
        phases = len(self.sequence)
        if phases == 0:
            raise ValidationError("empty control sequence")
        if len(self.boundaries) != phases - 1:
            raise ValidationError(
                f"{phases} phases need {phases - 1} boundaries, got {len(self.boundaries)}"
            )
        last = len(self.trajectory.states) - 1
        cuts = (0,) + self.boundaries + (last,)
        if not all(0 <= left <= right <= last for left, right in zip(cuts, cuts[1:])):
            raise ValidationError(f"boundaries {self.boundaries} do not partition the witness")


@dataclass(frozen=True)
class CoFaSeSolution:
    """A witness per start state.  Under the uniform policy every witness
    has the same control sequence (a tuple of control `StateSet`s)."""

    policy: str
    witnesses: tuple[PhaseWitness, ...]

    def __bool__(self):
        return True

    @property
    def phases(self) -> int:
        return max(len(w.sequence) for w in self.witnesses)


@dataclass(frozen=True)
class NoSolutionWithinBound:
    phase_bound: int | None
    step_bound: int | None
    # search nodes visited: per-start, summed over the searches of every
    # start up to the one that failed
    explored: int
    detail: str = ""
    # the direct engine's search nodes first reached at each depth (number
    # of phases), from depth 0, in the search that failed: per-start, the
    # failing start's; uniform, they sum to `explored`
    frontier: tuple[int, ...] = ()

    def __bool__(self):
        return False


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failed_step: int | None = None
    reason: str = ""

    def __bool__(self):
        return self.ok


# --- control space ------------------------------------------------------------


def control_space(bcn: BooleanControlNetwork) -> list[StateSet]:
    """All controls in canonical order: the composite engine's seeds, one
    initial control-symbol set each.  CapacityError: the control alphabet
    is over the variable cap."""
    return enumerate_controls(bcn.u_table)


# --- phases ----------------------------------------------------------------------


def _step_set(out: int, states: int, flips, wide, moved) -> int:
    """`out` with the states one step leads to from those set in `states`:
    two masked shifts per single-variable group of `flips`, and each state b
    stepped under each group g of `wide` to ``b ^ (moved[b] & g)``."""
    for shift, up, down in flips:
        out |= (states & up) << shift | (states & down) >> shift
    if wide:
        while states:
            low = states & -states
            states ^= low
            bits = low.bit_length() - 1
            change = moved[bits]
            for g in wide:
                out |= 1 << (bits ^ (change & g))
    return out


class _ModeSplit:
    """What the phases of one solve share: the mode's elements split by
    shape, once, and the parts their step maps are built from.

    A group {x_i} moves the states of D_i, table i XOR x_i's pattern, by
    two masked shifts; `singles` holds ``(2**i, i, x_i's pattern)`` for
    each, and `still` is every state when the mode has the empty group.  A
    group of several variables moves several bits at once; those groups are
    `wide`, and a class steps them through its ``moved`` (`bn._moved` over
    their union, one small int per state).  Bit i of ``moved[b]`` depends
    on update i's table alone, so ``moved`` is the OR of parts: `base`, over
    the updates whose table is the same in every class, and one part per
    (update, table) of the others, built the first time a class needs it.
    `classes` holds every class's tuple of tables.
    """

    def __init__(self, mode: BooleanMode, classes):
        n = len(mode.table)
        self.full = (1 << (1 << n)) - 1
        patterns = truth_patterns(n)
        self.singles, self.wide, self.still = [], [], 0
        for element in mode.sorted_elements():
            g = element.bits
            if g & (g - 1):
                self.wide.append(g)
            elif g:
                i = g.bit_length() - 1
                self.singles.append((g, i, patterns[i]))
            else:
                self.still = self.full
        union = functools.reduce(operator.or_, self.wide, 0)
        columns = list(zip(*classes))  # per update: its table in each class
        self.varying = [i for i, column in enumerate(columns)
                        if union >> i & 1 and len(set(column)) > 1]
        shared = union & ~sum(1 << i for i in self.varying)
        self.base = _moved([column[0] for column in columns], [shared]) if shared else None
        self._parts = {}

    def moved(self, tables: tuple[int, ...]) -> list[int]:
        """``moved`` under the wide groups for a class with these tables."""
        moved = self.base
        for i in self.varying:
            key = (i, tables[i])
            if key not in self._parts:
                self._parts[key] = _moved(tables, [1 << i])
            part = self._parts[key]
            moved = part if moved is None else list(map(operator.or_, moved, part))
        return moved


@dataclass(eq=False)
class _Phase:
    """One control class's phase: the class's first control selects the
    network its witnesses step, and its per-update truth `tables` give the
    images of state sets, which `image` computes from them.  Only `_Phase`
    reads the tables; what it derives from them is built on first use and
    kept for the solve, and what every class derives alike comes from the
    solve's `split`."""

    instance: CoFaSeInstance
    control: StateSet
    tables: tuple[int, ...]
    min_steps: int
    split: _ModeSplit

    @functools.cached_property
    def _steps(self) -> tuple:
        """The class's steps under the split's groups: ``(2**i, up, down)``
        per single-variable group, the two halves of D_i, moved 2**i up
        (x_i off) or down (x_i on) while every other state stays; `still`,
        the states that some single or empty group leaves as they are; the
        wide groups; and their ``moved``."""
        split, tables = self.split, self.tables
        flips, still = [], split.still
        for g, i, pattern in split.singles:
            moves = tables[i] ^ pattern
            flips.append((g, moves & ~pattern, moves & pattern))
            still |= split.full & ~moves
        return flips, still, split.wide, split.moved(tables) if split.wide else None

    def image(self, states: int) -> int:
        """The states reachable from those set in `states` within the phase
        (at least `min_steps` steps), as an int.

        Saturation (Ciardo, Lüttgen and Siminiceanu, TACAS 2001) on the
        2**n-bit sets: each single-variable group steps every reached state
        at once with two masked shifts, the groups in turn, each seeing what
        the ones before it added, until a round adds nothing.  A round costs
        a few passes over the sets per such group, however few states they
        hold.  Each state is stepped once, when first reached, under the
        wider groups, at a cost per state.  When one wide group is all the
        mode moves with (syn), each state has one move, and each start's run
        is followed until it meets a state already reached.  Under
        ``min_steps`` 1 the first step keeps the states a group leaves where
        they are: a self-loop is a step.
        """
        flips, still, wide, moved = self._steps
        if self.min_steps:
            states = _step_set(states & still, states, flips, wide, moved)
        reached = states
        if not flips and len(wide) == 1:
            while states:
                low = states & -states
                states ^= low
                bits = low.bit_length() - 1
                while True:
                    bits ^= moved[bits]
                    bit = 1 << bits
                    if reached & bit:
                        break
                    reached |= bit
            return reached
        stepped = 0  # the states stepped under the wide groups
        while True:
            before = reached
            for shift, up, down in flips:
                reached |= (reached & up) << shift | (reached & down) >> shift
            if wide:
                reached, stepped = _step_set(reached, reached ^ stepped, (), wide, moved), reached
            if reached == before:
                return reached

    @functools.cached_property
    def network(self):
        return apply_control(self.instance.bcn, self.control)

    def reaches(self, source: int, target: int) -> bool:
        return bool(self.image(1 << source) >> target & 1)

    def path(self, source: int, target: int) -> Trajectory:
        """Shortest labelled run from source to target bits inside the phase.

        Each state the search reaches is stepped once with `bn_step` under
        the union of the mode's elements, independently of the truth tables
        the images come from; element g moves it to ``bits ^ (moved & g)``.
        """
        table = self.network.table
        if self.min_steps == 0 and source == target:
            return Trajectory((table.state(source),), ())
        elements = self.instance.mode.sorted_elements()
        groups = [element.bits for element in elements]
        union = table.state(functools.reduce(operator.or_, groups, 0))
        # breadth-first with >= 1 step: seed from the one-step successors, so a
        # path back to the source itself counts as a cycle, not as length zero
        parents = {}
        frontier = [source]
        while target not in parents and frontier:
            nxt = []
            for bits in frontier:
                moved = bits ^ bn_step(self.network, table.state(bits), union).bits
                for index, g in enumerate(groups):
                    dst = bits ^ (moved & g)
                    if dst not in parents:
                        parents[dst] = (bits, index)
                        nxt.append(dst)
            frontier = nxt
        if target not in parents:
            raise ValidationError("no path inside a phase; reachability bookkeeping broken")
        states = [table.state(target)]
        labels = []
        cursor = target
        while True:
            prev, index = parents[cursor]
            states.append(table.state(prev))
            labels.append(elements[index])
            if prev == source:
                break
            cursor = prev
        return Trajectory(tuple(reversed(states)), tuple(reversed(labels)))


# --- direct engine --------------------------------------------------------------


def solve_cofase(
    instance: CoFaSeInstance,
    max_phases: int,
    policy: str = "uniform",
    min_steps_per_phase: int = 0,
):
    """Breadth-first search over phase graphs for a shortest control sequence.

    `uniform` finds one sequence that works for every start state (with an
    existential choice of trajectory per start); `per-start` allows a
    different sequence per start state.  Returns a CoFaSeSolution or a
    NoSolutionWithinBound carrying the explored bound.
    """
    if max_phases < 1:
        raise UsageError("max_phases must be at least 1")
    if policy not in ("uniform", "per-start"):
        raise UsageError(f"unknown policy {policy!r}")
    if min_steps_per_phase not in (0, 1):
        raise UsageError("min_steps_per_phase must be 0 or 1")
    phases = _phases(instance, min_steps_per_phase)

    if policy == "per-start":
        witnesses = []
        explored = 0
        for start in instance.starts:
            sub = CoFaSeInstance(instance.bcn, (start,), instance.targets, instance.mode)
            result, visited = _solve_uniform(sub, phases, max_phases)
            explored += visited
            if not result:
                detail = f"no sequence for start {start.set_text()}"
                return replace(result, explored=explored, detail=detail)
            witnesses.extend(result.witnesses)
        return CoFaSeSolution(policy="per-start", witnesses=tuple(witnesses))

    return _solve_uniform(instance, phases, max_phases)[0]


def _phases(instance: CoFaSeInstance, min_steps: int) -> list[_Phase]:
    """One phase per control class, all sharing one split of the mode.
    Controls selecting equal truth tables have one image; the class's first
    control in canonical order stands for it, so the search is unchanged."""
    classes = control_classes(instance.bcn)
    split = _ModeSplit(instance.mode, classes.values())
    return [_Phase(instance, control, tables, min_steps, split)
            for control, tables in classes.items()]


def _solve_uniform(instance, phases, max_phases):
    """The breadth-first phase search; returns the result and the number of
    search nodes it visited."""
    targets = sum(1 << target.bits for target in instance.targets)
    initial = tuple(1 << start.bits for start in instance.starts)
    visited = {initial}
    queue = [(initial, ())]
    frontier = [1]  # one entry per depth searched, the start node's first
    while queue and len(frontier) <= max_phases:
        next_queue = []
        for node, sequence in queue:
            for phase in phases:
                successors = tuple(phase.image(comp) for comp in node)
                grown = sequence + (phase,)
                if all(comp & targets for comp in successors):
                    return _build_solution(instance, grown), len(visited)
                if successors not in visited:
                    visited.add(successors)
                    next_queue.append((successors, grown))
        frontier.append(len(next_queue))
        queue = next_queue
    result = NoSolutionWithinBound(
        phase_bound=max_phases, step_bound=None, explored=len(visited),
        frontier=tuple(frontier),
    )
    return result, len(visited)


def _build_solution(instance, phases):
    """A witness per start; a phase ends at the first state by digit order
    that can finish."""
    targets = sum(1 << target.bits for target in instance.targets)
    order = digit_order(len(instance.bcn.x_table))
    sequence = tuple(phase.control for phase in phases)
    witnesses = []
    for start in instance.starts:
        frontiers = [1 << start.bits]
        for phase in phases:
            frontiers.append(phase.image(frontiers[-1]))
        endpoints = [min(_bit_indices(frontiers[-1] & targets), key=order.__getitem__)]
        for phase, frontier in zip(reversed(phases), reversed(frontiers[:-1])):
            # each `reaches` is an image, so the starts are tried in digit order
            candidates = sorted(_bit_indices(frontier), key=order.__getitem__)
            first = next((s for s in candidates if phase.reaches(s, endpoints[0])), None)
            if first is None:
                raise ValidationError("no phase start reaches the endpoint; "
                                      "reachability bookkeeping broken")
            endpoints.insert(0, first)
        segments = [phase.path(endpoints[i], endpoints[i + 1]) for i, phase in enumerate(phases)]
        boundaries = itertools.accumulate(len(segment.states) - 1 for segment in segments[:-1])
        trajectory = glue_trajectories(segments)
        witnesses.append(PhaseWitness(start, sequence, trajectory, tuple(boundaries)))
    return CoFaSeSolution(policy="uniform", witnesses=tuple(witnesses))


# --- verification ----------------------------------------------------------------


def verify_control_sequence(
    bcn: BooleanControlNetwork,
    sequence: tuple[StateSet, ...],
    mode: BooleanMode,
    witness: Trajectory,
    boundaries,
) -> VerificationResult:
    """Check a glued trajectory against a control sequence.

    `boundaries` are the interior split indices: phase i covers the states
    from boundary i-1 to boundary i (with 0 and the last index implied).
    Each step of phase i must be one step of the network selected by the
    i-th control under the mode.  ValidationError: the boundaries do not
    fit the sequence and the witness (see `PhaseWitness`).
    """
    checked = PhaseWitness(witness.first, tuple(sequence), witness, tuple(boundaries))
    cuts = (0,) + checked.boundaries + (len(witness.states) - 1,)
    for state in witness.states:
        if state.table != bcn.x_table:
            raise UsageError("witness state over a different variable table")
    elements = mode.sorted_elements()
    for i, control in enumerate(checked.sequence):
        network = apply_control(bcn, control)
        for t in range(cuts[i], cuts[i + 1]):
            src, dst = witness.states[t], witness.states[t + 1]
            if not any(bn_step(network, src, m) == dst for m in elements):
                return VerificationResult(
                    ok=False,
                    failed_step=t,
                    reason=(
                        f"step {t}: {src.digits()} -> {dst.digits()} is not a move of "
                        f"the network under control {control.set_text()}"
                    ),
                )
    return VerificationResult(ok=True)


def check_solution(instance: CoFaSeInstance, solution: CoFaSeSolution) -> list[str]:
    """The problems that keep `solution` from solving `instance`, one line each
    in `cofase verify`'s order; empty when it solves it.  Each start needs one
    witness, replayed in `verify_control_sequence`, from the start to a target."""
    seen = [witness.start for witness in solution.witnesses]
    problems = [f"start {start.digits()}: {'more than one' if start in seen else 'no'} witness"
                for start in instance.starts if seen.count(start) != 1]
    for witness in solution.witnesses:
        if witness.start not in instance.starts:
            problem = "not a start of the instance"
        elif solution.policy == "uniform" and witness.sequence != solution.witnesses[0].sequence:
            problem = ("uniform solution, but the control sequence differs from that of "
                       f"start {solution.witnesses[0].start.digits()}")
        elif not (replay := verify_control_sequence(instance.bcn, witness.sequence, instance.mode,
                                                    witness.trajectory, witness.boundaries)):
            problem = replay.reason
        elif witness.trajectory.last not in instance.targets:
            problem = "witness ends outside the target set"
        elif witness.trajectory.first != witness.start:
            problem = "witness starts elsewhere"
        else:
            continue
        problems.append(f"start {witness.start.digits()}: {problem}")
    return problems


# --- composite engine --------------------------------------------------------------


def solve_cofase_via_composite(
    instance: CoFaSeInstance,
    max_steps: int,
    max_phases: int | None = None,
):
    """Solve by searching the composed set-rewriting embedding.

    Runs a lexicographic Dijkstra over composite configurations with cost
    (control switches, steps), per start state, trying every initial
    control-symbol set; decodes the control sequence from the control
    symbols along the path, collapsing consecutive equal controls into
    phases.  Inherently per-start: with several starts each gets its own
    sequence.
    """
    if max_steps < 0:
        raise UsageError("max_steps must be at least 0")
    if max_phases is not None and max_phases < 1:
        raise UsageError("max_phases must be at least 1")
    check_enumerable(len(instance.bcn.table), "composite state space")
    composite = bcn_to_composite(instance.bcn, instance.mode)
    resolved = composite.mode_view().resolved
    apply_moves = composite.system.apply_moves
    apps = composite.system.applicable_masks()
    controls = control_space(instance.bcn)
    # configurations are kept as bits: the variables are the low n_x bits,
    # the control part the bits above them; a move applied at one reads
    # ``fired mask << width | next configuration``
    n_x = len(instance.bcn.x_table)
    x_mask = (1 << n_x) - 1
    width = len(instance.bcn.table)
    full = (1 << width) - 1
    targets = sum(1 << target.bits for target in instance.targets)
    witnesses = []
    explored = 0
    for start in instance.starts:
        found = None
        parents = {}
        best = {}
        counter = 0
        heap = []
        for control in controls:
            config = composite.initial_config(start, control).bits  # one per control
            best[config] = (0, 0)
            parents[config] = None
            heapq.heappush(heap, (0, 0, counter, config))
            counter += 1
        while heap:
            switches, steps, _tick, config = heapq.heappop(heap)
            if best.get(config, (-1, -1)) != (switches, steps):
                continue  # stale entry
            explored += 1
            if targets >> (config & x_mask) & 1:
                found = config
                break
            if steps >= max_steps:
                continue
            here = config >> n_x
            # The push order breaks ties in the heap.  A successor's cost does
            # not depend on the fired set, so it is pushed at most once, in
            # the rule-id lexicographic order of its first fired set; only the
            # improving successors are put in that order.  Rule indices follow
            # sorted ids, so a fired mask's ascending bit indices order like
            # its sorted ids.
            improving = {}
            for out in apply_moves(resolved(apps[config]), config):
                nxt = out & full
                cost = (switches + (nxt >> n_x != here), steps + 1)
                if max_phases is not None and cost[0] > max_phases - 1:
                    continue
                if nxt in best and best[nxt] <= cost:
                    continue
                key = _bit_indices(out >> width)
                if nxt not in improving or key < improving[nxt][0]:
                    improving[nxt] = (key, cost)
            for nxt, (_key, cost) in sorted(improving.items(), key=lambda item: item[1][0]):
                best[nxt] = cost
                parents[nxt] = config
                heapq.heappush(heap, (cost[0], cost[1], counter, nxt))
                counter += 1
        if found is None:
            return NoSolutionWithinBound(
                phase_bound=max_phases,
                step_bound=max_steps,
                explored=explored,
                detail=f"no composite run for start {start.set_text()}",
            )
        witnesses.append(_decode_composite_run(composite, parents, found, start))
    return CoFaSeSolution(policy="per-start", witnesses=tuple(witnesses))


def _bit_indices(mask: int) -> tuple:
    """The positions of a mask's set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _decode_composite_run(composite, parents, final, start) -> PhaseWitness:
    """The witness along the parent chain of configuration bits ending at `final`."""
    path = [final]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    path = [composite.system.table.state(bits) for bits in reversed(path)]
    states = tuple(composite.project_x(config) for config in path)
    # a run of no steps still has its initial control
    step_controls = [composite.project_u(config) for config in path[:-1] or path]
    controls = [step_controls[0]]
    boundaries = []
    for index, control in enumerate(step_controls[1:], start=1):
        if control != controls[-1]:
            controls.append(control)
            boundaries.append(index)
    return PhaseWitness(
        start=start,
        sequence=tuple(controls),
        trajectory=Trajectory(states),
        boundaries=tuple(boundaries),
    )


# --- instance files and solution JSON ------------------------------------------------


def _top_level_parts(text: str) -> list[str]:
    """`text` split at the commas outside braces, stripped, blanks dropped."""
    parts = [""]
    depth = 0
    for char in text:
        depth += (char == "{") - (char == "}")
        if char == "," and depth == 0:
            parts.append("")
        else:
            parts[-1] += char
    return [part.strip() for part in parts if part.strip()]


def _parse_state_list(table: VarTable, text: str) -> list[StateSet]:
    """States side by side (`01, 10` or `{x}, {x,y}`), or one brace list of
    them (`{01, 10}` or `{{x}, {x,y}}`), or one set state (`{x, y}`)."""
    parts = _top_level_parts(text)
    if len(parts) == 1 and parts[0].startswith("{") and parts[0].endswith("}"):
        inner = parts[0][1:-1].strip()
        items = _top_level_parts(inner)
        if inner.startswith("{") or items and all(set(item) <= set("01") for item in items):
            return [parse_state(table, item) for item in items]
        return [parse_state(table, parts[0])]
    return [parse_state(table, p) for p in parts]


def parse_instance_text(text: str, source=None) -> CoFaSeInstance:
    """Instance file: a control-network block plus start/target/mode lines."""
    bcn, lines = _read_bcn(text, source, values=("start", "target", "mode"))
    if "start" not in lines.values or "target" not in lines.values:
        raise lines.error("instance needs `start` and `target` lines")
    with lines.at():
        starts = _parse_state_list(bcn.x_table, lines.values["start"][0])
        targets = _parse_state_list(bcn.x_table, lines.values["target"][0])
        mode = named_mode(lines.values.get("mode", ("syn",))[0], bcn.x_table)
        return CoFaSeInstance.of(bcn, starts, targets, mode)


def solution_to_json(result) -> str:
    if not result:
        return json.dumps(
            {
                "solvable": False,
                "phase_bound": result.phase_bound,
                "step_bound": result.step_bound,
                "explored": result.explored,
                "detail": result.detail,
            },
            indent=2,
        )
    doc = {"solvable": True, "policy": result.policy, "phases": result.phases,
           "witnesses": []}
    for witness in result.witnesses:
        doc["witnesses"].append(
            {
                "start": witness.start.digits(),
                "controls": [sorted(c.names()) for c in witness.sequence],
                "states": [s.digits() for s in witness.trajectory.states],
                "boundaries": list(witness.boundaries),
            }
        )
    return json.dumps(doc, indent=2)


_WITNESS_KEYS = ("start", "controls", "states", "boundaries")


def _witness_fields(entry, index: int, source) -> tuple:
    """The fields of a witness entry in `_WITNESS_KEYS` order, checked for shape."""
    if not isinstance(entry, dict):
        raise ParseError(f"witness {index} is not a JSON object", source=source)
    missing = [key for key in _WITNESS_KEYS if key not in entry]
    if missing:
        raise ParseError(f"witness {index} lacks {', '.join(missing)}", source=source)
    start, controls, states, boundaries = (entry[key] for key in _WITNESS_KEYS)
    if not (
        isinstance(start, str)
        and isinstance(controls, list)
        and all(isinstance(c, list) and all(isinstance(n, str) for n in c) for c in controls)
        and isinstance(states, list)
        and all(isinstance(s, str) for s in states)
        and isinstance(boundaries, list)
        and all(type(b) is int for b in boundaries)
    ):
        raise ParseError(
            f"witness {index}: start and states must be digit strings, controls "
            "lists of names and boundaries integers",
            source=source,
        )
    return start, controls, states, boundaries


def solution_from_json(instance: CoFaSeInstance, text: str, source=None) -> CoFaSeSolution:
    """Read a solution document; one of the wrong shape is a ParseError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not JSON: {exc.msg}", line=exc.lineno, source=source) from None
    if not isinstance(doc, dict):
        raise ParseError("a solution document is a JSON object", source=source)
    if "solvable" not in doc:
        raise ParseError("solution document has no `solvable` field", source=source)
    solvable = doc["solvable"]
    if not isinstance(solvable, bool):
        raise ParseError(f"`solvable` must be true or false, not {json.dumps(solvable)}",
                         source=source)
    if not solvable:
        raise ValidationError("solution document says the instance is unsolvable")
    if not isinstance(doc.get("witnesses"), list):
        raise ParseError("solution document has no `witnesses` list", source=source)
    policy = doc.get("policy", "uniform")
    if policy not in ("uniform", "per-start"):
        raise ParseError(f"policy must be uniform or per-start, not {policy!r}", source=source)
    witnesses = []
    for index, entry in enumerate(doc["witnesses"]):
        start, controls, states, boundaries = _witness_fields(entry, index, source)
        try:  # digits of the wrong length, unknown control names, no states, bad boundaries
            witness = PhaseWitness(
                start=StateSet.from_digits(instance.bcn.x_table, start),
                sequence=tuple(StateSet.of(instance.bcn.u_table, names) for names in controls),
                trajectory=Trajectory(
                    tuple(StateSet.from_digits(instance.bcn.x_table, s) for s in states)
                ),
                boundaries=tuple(boundaries),
            )
        except (UsageError, ValidationError) as exc:
            raise ParseError(f"witness {index}: {exc}", source=source) from None
        witnesses.append(witness)
    return CoFaSeSolution(policy=policy, witnesses=tuple(witnesses))
