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

from dataclasses import dataclass
from typing import Iterable, Sequence

from .bn import BooleanNetwork, Trajectory
from .errors import UsageError, ValidationError
from .formula import Formula, StateSet, VarTable, _Lines, parse_formula
from .limits import check_enumerable


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


def enumerate_controls(u_table: VarTable, cap=None) -> list[StateSet]:
    """All controls in canonical (digit-value) order."""
    check_enumerable(len(u_table), cap, "control alphabet")
    return sorted(u_table.subsets(), key=StateSet.sort_key)


def apply_control(bcn: BooleanControlNetwork, control: StateSet) -> BooleanNetwork:
    """The plain network selected by a control: substitute, fold, drop the controls."""
    if control.table != bcn.u_table:
        raise UsageError("control over a different control table")
    values = {
        name: bool(control.bits >> pos & 1)
        for pos, name in enumerate(bcn.u_table.names)
    }
    n_x = len(bcn.x_table)
    x_map = {i: i for i in range(n_x)}
    updates = []
    for formula in bcn.updates:
        folded = formula.substitute(values)
        leftover = folded.variables() & set(bcn.u_table.names)
        if leftover:
            raise ValidationError(f"control inputs survived substitution: {sorted(leftover)}")
        updates.append(folded.remap(bcn.x_table, x_map))
    return BooleanNetwork(bcn.x_table, tuple(updates))


def selected_networks(
    bcn: BooleanControlNetwork, controls: Iterable[StateSet]
) -> dict[StateSet, BooleanNetwork]:
    """The distinct (structurally unequal) networks the controls select,
    each under the first control, in the given order, that selects it.

    Update i's fold depends only on the control's projection onto the
    inputs the update mentions (`substitute` leaves unmentioned names
    untouched).  `apply_control` runs only on a control that brings some
    update a projection not met before; that network's update i becomes
    the fold for the new projection, interned per update, so equal folds
    are one `Formula` object.  Controls are grouped by the tuple of their
    per-update fold indices, and each class's network is assembled from
    the shared folds of its first control.
    """
    u_names = set(bcn.u_table.names)
    masks = [
        sum(1 << bcn.u_table.position(name) for name in formula.variables() & u_names)
        for formula in bcn.updates
    ]
    # per update: the fold index of each projection met, and the distinct folds
    by_projection = [{} for _ in masks]
    folds = [{} for _ in masks]
    first = {}
    for control in controls:
        if control.table != bcn.u_table:
            raise UsageError("control over a different control table")
        bits = control.bits
        projections = [bits & mask for mask in masks]
        if any(p not in seen for p, seen in zip(projections, by_projection)):
            network = apply_control(bcn, control)
            for seen, distinct, projection, fold in zip(
                by_projection, folds, projections, network.updates
            ):
                if projection not in seen:
                    seen[projection] = distinct.setdefault(fold, len(distinct))
        key = tuple(seen[p] for p, seen in zip(projections, by_projection))
        first.setdefault(key, control)
    shared = [list(distinct) for distinct in folds]
    return {
        control: BooleanNetwork(bcn.x_table, tuple(f[i] for f, i in zip(shared, key)))
        for key, control in first.items()
    }


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
    x_map = {i: i for i in range(len(network.table))}
    updates = []
    for name, update in zip(network.table.names, network.updates):
        lifted = update.remap(table, x_map)
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
