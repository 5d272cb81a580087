"""Boolean control networks: freeze controls, control application, trajectory gluing.

A control network is a network template whose update formulas may mention a
disjoint alphabet U of control inputs.  A control is a Boolean assignment to
U, held as the `StateSet` of its raised inputs over `u_table`, and a control
sequence is a tuple of them.  Fixing a control yields a plain Boolean
network.  Networks are stored intensionally (formulas over the combined
table); extensional per-control network maps are flattened into one
disjunction per variable at ingestion.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .bn import BooleanNetwork, Trajectory
from .errors import CapacityError, UsageError, ValidationError
from .formula import Formula, StateSet, VarTable, _Lines, _table_node, parse_formula, truth_patterns
from .limits import ENV_VAR_CAP, check_enumerable, var_cap
from .relation import digit_order


@dataclass(frozen=True)
class BooleanControlNetwork:
    """Per-variable update formulas over the combined table X followed by U."""

    x_table: VarTable
    u_table: VarTable
    table: VarTable  # x names then u names
    updates: tuple[Formula, ...]  # one per x, over `table`

    def __post_init__(self):
        overlap = set(self.x_table.names) & set(self.u_table.names)
        if overlap:
            raise ValidationError(f"control names collide with variables: {sorted(overlap)}")
        if self.table.names != self.x_table.names + self.u_table.names:
            raise ValidationError("combined table must list variables then controls")
        if len(self.updates) != len(self.x_table):
            raise ValidationError("need exactly one update per (non-control) variable")
        for formula in self.updates:
            if formula.table != self.table:
                raise ValidationError("update formula over a different combined table")


def enumerate_controls(u_table: VarTable) -> list[StateSet]:
    """All controls in canonical (digit-value) order."""
    n = check_enumerable(len(u_table), "control alphabet")
    return [u_table.state(bits) for bits in digit_order(n)]


def apply_control(bcn: BooleanControlNetwork, control: StateSet) -> BooleanNetwork:
    """The plain network selected by a control, the reference that witnesses
    and `verify_control_sequence` step: substitute every control input and
    fold.  Variables come first in the combined table, so a fold mentions
    only positions of `x_table` and is re-tabled as it is."""
    if control.table != bcn.u_table:
        raise UsageError("control over a different control table")
    values = {
        name: bool(control.bits >> pos & 1)
        for pos, name in enumerate(bcn.u_table.names)
    }
    return BooleanNetwork(
        bcn.x_table,
        tuple(Formula(bcn.x_table, f.substitute(values).root) for f in bcn.updates),
    )


def control_classes(bcn: BooleanControlNetwork) -> dict[StateSet, tuple[int, ...]]:
    """The classes of controls that select networks with equal truth tables,
    each as its first control in canonical order mapped to the per-update
    truth tables over the 2**n states of `x_table`, in canonical order of
    those controls.

    Update i's table depends only on the control's projection onto the
    inputs it mentions, so it is folded once per projection, with each
    input read as the all-0 or the all-1 table.  Updates whose inputs
    overlap, directly or through other updates, form a group, which keeps
    the first projection onto its inputs in canonical order for each tuple
    of its updates' tables.  The classes are the product over the groups:
    digit order compares their disjoint positions independently, so the
    union of a class's first projections is its canonical minimum.  The
    product concatenates the tables group by group and puts them in update
    order with one permutation; the classes are ordered by the digit rank
    of their controls (`relation.digit_order`), the sum of their groups'
    ranks.  CapacityError: the state space is over the cap (checked first),
    a group has more inputs than the cap (before it is built), or there
    are more than 2**cap classes (before their product is built).
    """
    n = check_enumerable(len(bcn.x_table), "state space")
    width = len(bcn.u_table)
    u_names = set(bcn.u_table.names)
    masks = [
        sum(1 << bcn.u_table.position(name) for name in formula.variables() & u_names)
        for formula in bcn.updates
    ]
    patterns = truth_patterns(n)
    full = (1 << (1 << n)) - 1

    @functools.cache
    def fold(update, projection):
        inputs = [full if projection >> pos & 1 else 0 for pos in range(width)]
        return _table_node(bcn.updates[update].root, patterns + inputs, full)

    groups = _input_groups(masks)
    firsts = []  # per group: (rank, first projection, its updates' tables) per tuple of tables
    for mask, members in groups:
        k = check_enumerable(mask.bit_count(), "control group")
        spread = [0]  # spread[local]: the group's k-bit pattern at its positions
        rank = [0]  # rank[local]: the digit rank of that pattern over the whole alphabet
        for pos in range(width):
            if mask >> pos & 1:
                spread += [bits | 1 << pos for bits in spread]
                rank += [value | 1 << width - 1 - pos for value in rank]
        first = {}
        for local in digit_order(k):
            bits = spread[local]
            first.setdefault(tuple(fold(u, bits & masks[u]) for u in members), (rank[local], bits))
        firsts.append([(value, bits, tables) for tables, (value, bits) in first.items()])
    count, cap = math.prod(map(len, firsts)), var_cap()
    if count > 1 << cap:
        raise CapacityError(f"{count} control classes exceed 2**{cap}; enumeration capped "
                            f"at {cap} (raise it with --cap-vars or {ENV_VAR_CAP})")
    classes = [(0, 0, ())]
    for first in firsts:
        classes = [(value + value2, bits | bits2, tables + tables2)
                   for value, bits, tables in classes for value2, bits2, tables2 in first]
    classes.sort(key=operator.itemgetter(0))
    order = [update for _mask, members in groups for update in members]
    if order != sorted(order):  # two or more updates, so the getter returns tuples
        reorder = operator.itemgetter(*sorted(range(n), key=order.__getitem__))
        classes = [(value, bits, reorder(tables)) for value, bits, tables in classes]
    state = bcn.u_table.state
    return {state(bits): tables for _value, bits, tables in classes}


def _input_groups(masks: list[int]) -> list[tuple[int, list[int]]]:
    """(union of the masks, the updates) per group of overlapping input masks."""
    groups = []
    for update, mask in enumerate(masks):
        members = [update]
        for group in [group for group in groups if group[0] & mask]:
            groups.remove(group)
            mask |= group[0]
            members += group[1]
        groups.append((mask, members))
    return groups


def control_pair_names(name: str) -> tuple[str, str]:
    """Names of the freeze pair for a variable: raise the first to pin it to 0,
    the second to pin it to 1."""
    return f"u_{name}0", f"u_{name}1"


def freeze_pairs(u_table: VarTable) -> list[tuple[str, str]]:
    """Split a control alphabet into freeze pairs ``(u_<x>0, u_<x>1)``, in
    declaration order; ValidationError names a control outside any pair."""
    names = set(u_table.names)
    pairs = []
    seen = set()
    for name in u_table.names:
        if name in seen:
            continue
        if not (name.startswith("u_") and name[-1] in "01"):
            raise ValidationError(f"control {name!r} is not part of a freeze pair")
        off, on = control_pair_names(name[2:-1])
        if off not in names or on not in names:
            raise ValidationError(f"control {name!r} lacks its freeze partner")
        seen.update((off, on))
        pairs.append((off, on))
    return pairs


def _frozen(update: Formula, name: str) -> Formula:
    """``(update & !u_<x>0) | u_<x>1`` over the update's (combined) table."""
    off, on = control_pair_names(name)
    return update.conj(Formula.var(update.table, off).negate()).disj(
        Formula.var(update.table, on)
    )


def freeze_extend(network: BooleanNetwork, variables=None) -> BooleanControlNetwork:
    """Extend a network with freeze controls for `variables` (default: all).

    Each controllable x gets the pair ``u_<x>0`` / ``u_<x>1`` and the update
    ``(f_x & !u_<x>0) | u_<x>1``: raising the first pins x to 0, raising the
    second pins x to 1, and the second wins when both are raised.  The
    all-zero control recovers the original network.
    """
    if variables is None:
        variables = network.table.names
    chosen = []
    seen = set()
    for name in variables:
        network.table.position(name)  # validates membership
        if name not in seen:
            seen.add(name)
            chosen.append(name)
    u_names = []
    for name in network.table.names:
        if name in seen:
            u_names.extend(control_pair_names(name))
    u_table = VarTable(u_names)
    table = VarTable(network.table.names + u_table.names)
    updates = []
    for name, update in zip(network.table.names, network.updates):
        lifted = Formula(table, update.root)  # the variables keep their positions
        updates.append(_frozen(lifted, name) if name in seen else lifted)
    return BooleanControlNetwork(network.table, u_table, table, tuple(updates))


def glue_trajectories(parts: Sequence[Trajectory]) -> Trajectory:
    """Concatenate runs whose endpoints meet, identifying shared states once."""
    if not parts:
        raise ValidationError("nothing to glue")
    states = list(parts[0].states)
    labels = list(parts[0].labels) if parts[0].labels is not None else None
    for index, part in enumerate(parts[1:], start=1):
        if part.first != states[-1]:
            raise ValidationError(
                f"trajectory {index} starts at {part.first.set_text()}, expected "
                f"{states[-1].set_text()}"
            )
        states.extend(part.states[1:])
        if labels is not None and part.labels is not None:
            labels.extend(part.labels)
        else:
            labels = None
    return Trajectory(tuple(states), tuple(labels) if labels is not None else None,
                      halting=parts[-1].halting)


# --- text format ------------------------------------------------------------
#
#   var x, y
#   control a, b          # optional explicit controls
#   freeze x              # sugar: adds u_x0/u_x1 and wraps x's update
#   x' = !x & y
#   y' = x & !y


def _read_bcn(
    text: str, source=None, names=("var", "control", "freeze"), values=()
) -> tuple[BooleanControlNetwork, _Lines]:
    """Read a control network from the declaration lines `names` plus one
    update line per variable; also returns the lines, whose `values`
    keywords belong to an enclosing format."""
    lines = _Lines(text, names, values, source)
    update_lines = {}
    for line, lineno in lines.rest:
        if "'" not in line or "=" not in line:
            raise lines.unreadable(lineno)
        target, _, rhs = line.partition("=")
        target = target.strip()
        if not target.endswith("'"):
            raise lines.error(f"update target must end with ' : {target!r}", line=lineno)
        name = target[:-1].strip()
        lines.once(update_lines, name, rhs.strip(), lineno, f"update for {name!r}")
    x_names = lines.names["var"]
    u_names = list(lines.names.get("control", ()))
    frozen = lines.names.get("freeze", [])
    if not x_names:
        raise lines.error("no `var` declaration found")
    for name in frozen:
        if name not in x_names:
            raise lines.error(f"freeze of undeclared variable {name!r}")
        for control in control_pair_names(name):
            if control in u_names:
                raise lines.error(f"control {control!r} declared twice")
            u_names.append(control)
    with lines.at():
        x_table = VarTable(x_names)
        u_table = VarTable(u_names)
        table = VarTable(x_names + u_names)
    updates = []
    for name in x_names:
        if name not in update_lines:
            raise lines.error(f"missing update for variable {name!r}")
        rhs, lineno = update_lines.pop(name)
        with lines.at(lineno):
            formula = parse_formula(rhs, table)
        updates.append(_frozen(formula, name) if name in frozen else formula)
    if update_lines:
        extra = ", ".join(sorted(update_lines))
        raise lines.error(f"updates for undeclared variables: {extra}")
    return BooleanControlNetwork(x_table, u_table, table, tuple(updates)), lines


def parse_bcn_text(text: str, source=None) -> BooleanControlNetwork:
    return _read_bcn(text, source)[0]
