"""Bounded search for control sequences driving a controlled network.

An instance asks for a sequence of controls such that, switching the
network from one control to the next, some trajectory leads from each
start state into the target set.  A phase (one control's tenure) may last
any number of steps, including zero by default; pass
``min_steps_per_phase=1`` for the stricter reading.

Two engines are provided.  The direct engine searches the phase graph:
it runs a breadth-first search over per-start frontier sets, returning a
shortest sequence (ties broken by canonical control order).  Controls that
select the same network form one class, tried once under its first
control in canonical order; the reflexive-transitive closure of a
network's step relation is built when the search first needs it.  The
second engine searches the composed set-rewriting embedding of the
instance and decodes the control sequence from the control-symbol
history; the two must agree, which is used as a cross-check throughout
the test suite.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass

from .bcn import (
    BooleanControlNetwork,
    _read_bcn,
    apply_control,
    enumerate_controls,
    freeze_pairs,
    glue_trajectories,
    selected_networks,
)
from .bn import BooleanMode, Trajectory, _components, bn_step, named_mode, step_table
# unused here; bench/tracer.py counts the kernel's calls through every binding
from .boolp import successors as boolp_successors  # noqa: F401
from .errors import CapacityError, ParseError, UsageError, ValidationError
from .formula import StateSet, VarTable, parse_state
from .limits import check_enumerable, var_cap
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


def control_space(bcn: BooleanControlNetwork, cap=None) -> list[StateSet]:
    """All controls in canonical order; falls back to the freeze-pair
    generator (none / pin-to-0 / pin-to-1 per pair) when the control
    alphabet is too large to enumerate fully."""
    try:
        return enumerate_controls(bcn.u_table, cap)
    except CapacityError:
        pass
    u_table = bcn.u_table
    try:
        pairs = freeze_pairs(u_table)
    except ValidationError as exc:
        raise CapacityError(
            f"{len(u_table)} control inputs exceed the cap {var_cap(cap)} and no "
            f"reduced generator applies: {exc}"
        ) from None
    if 3 ** len(pairs) > 1 << var_cap(cap):
        raise CapacityError(
            f"{len(pairs)} freeze pairs still give {3 ** len(pairs)} controls"
        )
    choices = [
        (0, 1 << u_table.position(off), 1 << u_table.position(on)) for off, on in pairs
    ]
    controls = [u_table.state(sum(picked)) for picked in itertools.product(*choices)]
    return sorted(controls, key=StateSet.sort_key)


# --- phase relations ------------------------------------------------------------


def _phase_reach(rows, min_steps: int) -> list:
    """Per state bits, the bits of the states reachable within one phase
    (>= min_steps steps), as a frozenset.

    The reflexive-transitive closure of a strongly connected component is its
    states plus the closures of the components its edges reach, which
    `_components` lists first; the component's states share that one set.
    """
    closure = [None] * len(rows)
    for component in _components(rows):
        out = set(component)
        for v in component:
            for w in rows[v]:
                if closure[w] is not None:  # None: an edge inside this component
                    out |= closure[w]
        shared = frozenset(out)
        for v in component:
            closure[v] = shared
    if min_steps == 0:
        return closure
    reach = []
    for row in rows:
        out = set()
        for dst in row:
            out |= closure[dst]
        reach.append(frozenset(out))
    return reach


def _shortest_phase_path(table, elements, rows, source, target, min_steps) -> Trajectory:
    """Shortest labelled run from source to target bits inside one phase."""
    if min_steps == 0 and source == target:
        return Trajectory((table.state(source),), ())
    # breadth-first with >= 1 step: seed from the one-step successors, so a
    # path back to the source itself counts as a cycle, not as length zero
    parents = {}
    frontier = [source]
    while target not in parents and frontier:
        nxt = []
        for bits in frontier:
            for index, dst in enumerate(rows[bits]):
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
        states.insert(0, table.state(prev))
        labels.insert(0, elements[index])
        if prev == source:
            break
        cursor = prev
    return Trajectory(tuple(states), tuple(labels))


# --- direct engine --------------------------------------------------------------


def _image(reach, states) -> frozenset:
    out = set()
    for bits in states:
        # a phase closure is transitive: a state already in `out` adds nothing
        if bits not in out:
            out |= reach[bits]
    return frozenset(out)


def solve_cofase(
    instance: CoFaSeInstance,
    max_phases: int,
    policy: str = "uniform",
    min_steps_per_phase: int = 0,
    cap=None,
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
    check_enumerable(len(instance.bcn.x_table), cap, "state space")
    # controls selecting one network have one image; the class's first
    # control in canonical order stands for it, so the search is unchanged
    networks = selected_networks(instance.bcn, control_space(instance.bcn, cap))
    controls = list(networks)
    built = {}

    def phase_maps(control):
        """(elements, rows, phase reach) of the control's network, built on first use."""
        if control not in built:
            elements, rows = step_table(networks[control], instance.mode, cap)
            built[control] = (elements, rows, _phase_reach(rows, min_steps_per_phase))
        return built[control]

    if policy == "per-start":
        witnesses = []
        explored = 0
        for start in instance.starts:
            sub = CoFaSeInstance(instance.bcn, (start,), instance.targets, instance.mode)
            result, visited = _solve_uniform(
                sub, controls, phase_maps, max_phases, min_steps_per_phase
            )
            explored += visited
            if not result:
                return NoSolutionWithinBound(
                    phase_bound=max_phases,
                    step_bound=None,
                    explored=explored,
                    detail=f"no sequence for start {start.set_text()}",
                    frontier=result.frontier,
                )
            witnesses.extend(result.witnesses)
        return CoFaSeSolution(policy="per-start", witnesses=tuple(witnesses))

    return _solve_uniform(instance, controls, phase_maps, max_phases, min_steps_per_phase)[0]


def _solve_uniform(instance, controls, phase_maps, max_phases, min_steps):
    """The breadth-first phase search; returns the result and the number of
    search nodes it visited."""
    targets = frozenset(target.bits for target in instance.targets)
    initial = tuple(frozenset({start.bits}) for start in instance.starts)
    visited = {initial}
    queue = [(initial, ())]
    frontier = [1]  # one entry per depth searched, the start node's first
    while queue and len(frontier) <= max_phases:
        next_queue = []
        for node, sequence in queue:
            for control in controls:
                reach = phase_maps(control)[2]
                successors = tuple(_image(reach, comp) for comp in node)
                grown = sequence + (control,)
                if all(comp & targets for comp in successors):
                    return _build_solution(instance, grown, phase_maps, min_steps), len(visited)
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


def _build_solution(instance, sequence, phase_maps, min_steps):
    witnesses = []
    for start in instance.starts:
        witnesses.append(
            _witness_for(start, sequence, instance.targets, phase_maps, min_steps)
        )
    return CoFaSeSolution(policy="uniform", witnesses=tuple(witnesses))


def _witness_for(start, sequence, targets, phase_maps, min_steps):
    table = start.table
    frontiers = [frozenset({start.bits})]
    for control in sequence:
        frontiers.append(_image(phase_maps(control)[2], frontiers[-1]))

    def first(candidates):
        return min((table.state(bits) for bits in candidates), key=StateSet.sort_key).bits

    endpoints = [first(frontiers[-1] & {target.bits for target in targets})]
    for i in reversed(range(len(sequence))):
        reach = phase_maps(sequence[i])[2]
        endpoints.insert(0, first(s for s in frontiers[i] if endpoints[0] in reach[s]))
    segments = []
    for i, control in enumerate(sequence):
        elements, rows, _reach = phase_maps(control)
        segments.append(
            _shortest_phase_path(table, elements, rows, endpoints[i], endpoints[i + 1], min_steps)
        )
    trajectory = glue_trajectories(segments)
    boundaries = []
    at = 0
    for segment in segments[:-1]:
        at += len(segment.states) - 1
        boundaries.append(at)
    return PhaseWitness(
        start=start,
        sequence=tuple(sequence),
        trajectory=trajectory,
        boundaries=tuple(boundaries),
    )


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


# --- composite engine --------------------------------------------------------------


def solve_cofase_via_composite(
    instance: CoFaSeInstance,
    max_steps: int,
    max_phases: int | None = None,
    cap=None,
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
    check_enumerable(len(instance.bcn.table), cap, "composite state space")
    composite = bcn_to_composite(instance.bcn, instance.mode)
    mode_view = composite.mode_view()
    configuration = composite.system.table.state
    controls = control_space(instance.bcn, cap)
    # configurations are kept as bits: the variables are the low n_x bits,
    # the control part the bits above them
    n_x = len(instance.bcn.x_table)
    x_mask = (1 << n_x) - 1
    target_bits = {target.bits for target in instance.targets}
    witnesses = []
    explored = 0
    for start in instance.starts:
        found = None
        parents = {}
        best = {}
        counter = 0
        heap = []
        for control in controls:
            config = composite.initial_config(start, control).bits
            if config not in best or best[config] > (0, 0):
                best[config] = (0, 0)
                parents[config] = None
                heapq.heappush(heap, (0, 0, counter, config))
                counter += 1
        while heap:
            switches, steps, _tick, config = heapq.heappop(heap)
            if best.get(config, (-1, -1)) != (switches, steps):
                continue  # stale entry
            explored += 1
            if config & x_mask in target_bits:
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
            for mask, erase, add in mode_view.moves(configuration(config)):
                nxt = config & ~erase | add
                cost = (switches + (nxt >> n_x != here), steps + 1)
                if max_phases is not None and cost[0] > max_phases - 1:
                    continue
                if nxt in best and best[nxt] <= cost:
                    continue
                key = _bit_indices(mask)
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
    while parents[path[0]] is not None:
        path.insert(0, parents[path[0]])
    path = [composite.system.table.state(bits) for bits in path]
    states = tuple(composite.project_x(config) for config in path)
    if len(path) == 1:
        step_controls = [composite.project_u(path[0])]
    else:
        step_controls = [composite.project_u(config) for config in path[:-1]]
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
    parts = []
    depth = 0
    current = ""
    for char in text:
        if char == "{":
            depth += 1
        if char == "}":
            depth -= 1
        if char == "," and depth == 0:
            parts.append(current.strip())
            current = ""
        else:
            current += char
    parts.append(current.strip())
    return [part for part in parts if part]


def _parse_state_list(table: VarTable, text: str) -> list[StateSet]:
    """States side by side (`01, 10` or `{x}, {x,y}`), or one brace list of
    them (`{01, 10}` or `{{x}, {x,y}}`), or one set state (`{x, y}`)."""
    parts = _top_level_parts(text)
    if len(parts) == 1 and parts[0].startswith("{") and parts[0].endswith("}"):
        inner = parts[0][1:-1].strip()
        if inner.startswith("{"):
            return [parse_state(table, p) for p in _top_level_parts(inner)]
        items = _top_level_parts(inner)
        if items and all(all(c in "01" for c in item) for item in items):
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
    if not doc.get("solvable", False):
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
