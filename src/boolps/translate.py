"""Constructions embedding network dynamics into guarded set-rewriting systems.

The central encoding represents each variable x by a pair of rules: one
that introduces x when its update formula holds, and one that erases x when
it does not.  A network mode maps to the quasimode advising, per mode
element, the union of the rule pairs of its variables.  A controlled
network becomes one system over its variables plus control symbols: the
rule pairs of its controlled updates, then the controller's rules, which
erase, introduce or rewrite control symbols.  Running it under the dotted
product of the update quasimode and the controller quasimode of a control
regime reproduces the controlled dynamics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .bcn import BooleanControlNetwork, freeze_pairs
from .bn import BooleanMode, BooleanNetwork
from .boolp import (
    BooleanPSystem,
    ExplicitQuasimode,
    ModeView,
    PowersetQuasimode,
    ProductQuasimode,
    Quasimode,
    Rule,
    derive_mode,
    maximally_parallel_mode,
)
from .errors import UsageError, ValidationError
from .formula import Formula, StateSet, VarTable, _Lines, _split_names


def variable_rule_ids(name: str) -> tuple[str, str]:
    """Ids of the introduce/erase rule pair encoding one variable's update."""
    return f"set_{name}", f"clr_{name}"


def control_rule_ids(name: str) -> tuple[str, str]:
    """Ids of the introduce/erase rule pair for one control symbol."""
    return f"u_set_{name}", f"u_clr_{name}"


def _encode_updates(table: VarTable, names, updates) -> tuple[Rule, ...]:
    """Per variable, an introduce rule guarded by its update formula and an
    erase rule guarded by the negation."""
    empty = StateSet.empty(table)
    rules = []
    for name, update in zip(names, updates):
        set_id, clr_id = variable_rule_ids(name)
        target = StateSet.of(table, [name])
        rules.append(Rule(set_id, empty, target, update))
        rules.append(Rule(clr_id, target, empty, update.negate()))
    return tuple(rules)


def bn_to_boolp(network: BooleanNetwork) -> BooleanPSystem:
    """Encode a network: per variable, an introduce rule guarded by the update
    formula and an erase rule guarded by its negation."""
    table = network.table
    return BooleanPSystem(table, _encode_updates(table, table.names, network.updates))


def bn_mode_to_quasimode(mode: BooleanMode, system: BooleanPSystem) -> ExplicitQuasimode:
    """Advise, per mode element, both rules of every variable in the element."""
    quasimode = ExplicitQuasimode(
        frozenset(
            frozenset(rule_id for name in element for rule_id in variable_rule_ids(name))
            for element in mode.elements
        )
    )
    missing = frozenset().union(*quasimode.family) - system.rule_ids()
    if missing:
        raise ValidationError(f"system lacks encoded rules {sorted(missing)}")
    return quasimode


# --- controlled composition -------------------------------------------------


def _controller(
    table: VarTable, u_table: VarTable, regime: str
) -> tuple[tuple[Rule, ...], Quasimode]:
    """The controller's always-enabled rules over `table` for the symbols of
    `u_table`, and its quasimode under the regime.

    ``free`` and ``tcs`` have an erase and an introduce rule per symbol;
    every step erases all symbols and introduces any subset of them
    (``free``) or exactly one symbol of each freeze pair (``tcs``).  ``acs``
    has introduce rules plus value rewrites within each pair and no erasure,
    any subset of them firing: once a pair has a symbol it can change
    polarity but never disappear, so the controlled variables only grow.
    """
    true = Formula.const(table, True)
    empty = StateSet.empty(table)
    symbol = {name: StateSet.of(table, [name]) for name in u_table.names}
    introduce = [control_rule_ids(name)[0] for name in u_table.names]
    if regime == "acs":
        rules = [
            Rule(set_id, empty, symbol[name], true)
            for set_id, name in zip(introduce, u_table.names)
        ]
        rules += [
            Rule(f"u_rw_{source}_{target}", symbol[source], symbol[target], true)
            for pair in freeze_pairs(u_table)
            for source in pair
            for target in pair
        ]
        return tuple(rules), PowersetQuasimode(frozenset(r.id for r in rules))
    if regime not in ("free", "tcs"):
        raise UsageError(f"unknown control regime {regime!r}")
    rules = []
    for name in u_table.names:
        set_id, clr_id = control_rule_ids(name)
        rules.append(Rule(clr_id, symbol[name], empty, true))
        rules.append(Rule(set_id, empty, symbol[name], true))
    erase = frozenset(control_rule_ids(name)[1] for name in u_table.names)
    factors = [ExplicitQuasimode(frozenset({erase}))]
    if regime == "free":
        factors.append(PowersetQuasimode(frozenset(introduce)))
    else:
        factors += [
            ExplicitQuasimode(frozenset(frozenset({control_rule_ids(name)[0]}) for name in pair))
            for pair in freeze_pairs(u_table)
        ]
    return tuple(rules), ProductQuasimode(tuple(factors))


@dataclass(frozen=True)
class ControlledComposite:
    """A controlled network embedded as one rewriting system over its
    variables plus control symbols.

    `system` holds the update encoding (introduce/erase rules guarded by
    the controlled update formulas), then the controller's rules over the
    control symbols.  `quasimode` is the dotted product of the update
    quasimode (from the network mode) and the controller quasimode of the
    chosen regime.
    """

    system: BooleanPSystem
    quasimode: Quasimode
    x_table: VarTable
    u_table: VarTable
    mode: BooleanMode
    regime: str

    def mode_view(self) -> ModeView:
        return derive_mode(self.system, self.quasimode)

    def initial_config(self, state: StateSet, control: StateSet) -> StateSet:
        """Starting configuration: the first control must be present from the start."""
        if state.table != self.x_table:
            raise UsageError("state over a different variable table")
        if control.table != self.u_table:
            raise UsageError("control over a different control table")
        bits = state.bits | control.bits << len(self.x_table)
        return self.system.table.state(bits)

    def project_x(self, configuration: StateSet) -> StateSet:
        mask = (1 << len(self.x_table)) - 1
        return self.x_table.state(configuration.bits & mask)

    def project_u(self, configuration: StateSet) -> StateSet:
        return self.u_table.state(configuration.bits >> len(self.x_table))


def bcn_to_composite(
    bcn: BooleanControlNetwork, mode: BooleanMode, regime: str = "free"
) -> ControlledComposite:
    """Embed a controlled network with its controller under a control regime.

    Regimes: ``free`` (controls may change arbitrarily each step), ``tcs``
    (every freeze pair keeps exactly one symbol raised), ``acs`` (control
    symbols are never erased, only rewritten).
    """
    if mode.table != bcn.x_table:
        raise UsageError("mode over a different variable table")
    updates = _encode_updates(bcn.table, bcn.x_table.names, bcn.updates)
    controller, control_quasimode = _controller(bcn.table, bcn.u_table, regime)
    system = BooleanPSystem(bcn.table, updates + controller)
    return ControlledComposite(
        system=system,
        quasimode=bn_mode_to_quasimode(mode, system).dot(control_quasimode),
        x_table=bcn.x_table,
        u_table=bcn.u_table,
        mode=mode,
        regime=regime,
    )


# --- reaction systems ---------------------------------------------------------


@dataclass(frozen=True)
class Reaction:
    """Reactants enable, inhibitors block, products appear."""

    id: str
    reactants: StateSet
    inhibitors: StateSet
    products: StateSet

    def __post_init__(self):
        tables = {self.reactants.table, self.inhibitors.table, self.products.table}
        if len(tables) != 1:
            raise ValidationError(f"reaction {self.id}: parts over different tables")

    @property
    def table(self) -> VarTable:
        return self.reactants.table


@dataclass(frozen=True)
class ReactionSystem:
    table: VarTable
    reactions: tuple[Reaction, ...]

    def __post_init__(self):
        seen = set()
        for reaction in self.reactions:
            if reaction.table != self.table:
                raise ValidationError(f"reaction {reaction.id} over a different table")
            if reaction.id in seen:
                raise ValidationError(f"duplicate reaction id {reaction.id!r}")
            seen.add(reaction.id)
            if (reaction.reactants & reaction.inhibitors).bits:
                raise ValidationError(
                    f"reaction {reaction.id} lists a species as both reactant and "
                    "inhibitor, so it can never fire; drop the reaction or the species "
                    "from one side"
                )


def degradation_rule_id(name: str) -> str:
    return f"deg_{name}"


def rs_to_boolp(rs: ReactionSystem) -> ModeView:
    """Embed a reaction system: one introduce rule per reaction, one
    always-enabled erase rule per species, run maximally parallel.  The
    result is that maximally parallel mode; its `system` holds the rules.

    One maximally parallel step from W then produces exactly the union of
    the products of the reactions enabled at W: everything not sustained by
    a reaction is erased.
    """
    table = rs.table
    empty = StateSet.empty(table)
    rules = []
    for reaction in rs.reactions:
        guard = Formula.const(table, True)
        parts = [Formula.var(table, n) for n in reaction.reactants]
        parts += [Formula.var(table, n).negate() for n in reaction.inhibitors]
        if parts:
            guard = parts[0].conj(*parts[1:])
        rules.append(Rule(reaction.id, empty, reaction.products, guard))
    for name in table.names:
        rules.append(
            Rule(
                degradation_rule_id(name),
                StateSet.of(table, [name]),
                empty,
                Formula.const(table, True),
            )
        )
    return maximally_parallel_mode(BooleanPSystem(table, tuple(rules)))


# --- reaction system text format ----------------------------------------------
#
#   species a, b, c        # optional; inferred from mentions otherwise
#   a1: reactants {a} inhibitors {c} products {b}


_REACTION_RE = re.compile(
    r"(?P<id>[A-Za-z0-9_]+)\s*:\s*reactants\s*(?P<r>\{[^}]*\})\s*"
    r"inhibitors\s*(?P<i>\{[^}]*\})\s*products\s*(?P<p>\{[^}]*\})\s*$"
)


def parse_reactions_text(text: str, source=None) -> ReactionSystem:
    lines = _Lines(text, names=("species",), source=source)
    reactions = {}  # reaction id -> its three name lists, line number
    for line, lineno in lines.rest:
        m = _REACTION_RE.match(line)
        if m is None:
            raise lines.unreadable(lineno)
        parts = [_split_names(m.group(group)[1:-1]) for group in ("r", "i", "p")]
        lines.once(reactions, m.group("id"), parts, lineno, f"reaction id {m.group('id')!r}")
    species = lines.names["species"]
    if not species:
        mentioned = (name for parts, _ in reactions.values() for names in parts for name in names)
        species = list(dict.fromkeys(mentioned))
    if not species:
        raise lines.error("no species declared or mentioned")
    with lines.at():
        table = VarTable(species)
    built = []
    for reaction_id, (parts, lineno) in reactions.items():
        with lines.at(lineno):
            built.append(Reaction(reaction_id, *(StateSet.of(table, p) for p in parts)))
    with lines.at():
        return ReactionSystem(table, tuple(built))


# --- composite dump format ------------------------------------------------------
#
#   alphabet x, y, u_x0, ...
#   controls u_x0, u_x1, ...
#   regime free
#   mode syn                  # or one `group {...}` line per mode element
#   <rule lines: the update rules, then the controller rules>
#
# The alphabet and rule lines are `.pi` syntax; no command reads a dump back.


def format_composite_text(composite: ControlledComposite) -> str:
    lines = ["alphabet " + ", ".join(composite.system.table.names)]
    if len(composite.u_table):
        lines.append("controls " + ", ".join(composite.u_table.names))
    lines.append(f"regime {composite.regime}")
    if composite.mode == BooleanMode.syn(composite.x_table):
        lines.append("mode syn")
    elif composite.mode == BooleanMode.asyn(composite.x_table):
        lines.append("mode asyn")
    else:
        for element in composite.mode.sorted_elements():
            lines.append(f"group {element.set_text()}")
    for rule in composite.system.rules:
        lines.append(rule.text())
    return "\n".join(lines) + "\n"
