"""Guarded set-rewriting systems: rules, applicability, modes, quasimodes, evolutions.

A system is an alphabet plus rules ``A -> B | guard``.  A rule is applicable
to a configuration W when ``A`` is contained in W and the guard holds at W;
applying a set of individually applicable rules yields
``(W - union of As) | union of Bs``.  Only individual applicability is ever
checked, so rules never compete and joint application is order-independent
and idempotent.

Modes pick which rule sets may fire at each configuration.  A quasimode is
a configuration-independent family of advised rule sets; the mode it
derives restricts each advised set to its applicable part at the current
configuration (an advised set whose rules are all inapplicable contributes
an explicit empty firing, i.e. a stutter step).

Inside the kernel a rule set is an ``int`` mask: the rule with the i-th
smallest id is bit ``1 << i``.  A move, the firing of one rule set, is
one int too, packed as ``fired mask << 2w | add bits << w | erase bits``
over a system of w symbols, so the moves of a union of rule sets are the
``|`` of their moves.  Only this module knows that layout: everything
else reads a mode value through `BooleanPSystem.apply_moves`, which gives
``fired mask << w | result bits`` per move, the result being ``bits &
~erase | add``; rule ids appear only where a label leaves `successors`.
Because indices follow sorted ids, ordering fired sets by their index
tuples orders them by their sorted ids.  A product quasimode resolves its
factors, nested products spliced in, and combines their values with
`_dot`, which keeps one move per distinct mask; masks can collide only
where factors share rules, so factors over disjoint rules pay only for
the pairs they list.  The id-level `Quasimode.advised`, `dotted_product`,
`Rule.applicable_to` and `apply_rule_set` are kept as the reference the
mask path is checked against.

`applicable_mask` evaluates the guards at one configuration; a loop over
every configuration reads all the masks at once from `applicable_masks`,
built from the guards' bit-parallel truth tables, and hands each distinct
one to its mode's `resolved` once.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .bn import Trajectory, enumerate_runs
from .errors import ParseError, UsageError, ValidationError
from .formula import (
    Formula,
    StateSet,
    VarTable,
    _Lines,
    _split_names,
    equivalent,
    fold_truth_table,
    merge_tables,
    parse_formula,
    parse_state,
    truth_columns,
    truth_patterns,
)
from .limits import check_enumerable, check_within, var_cap

RuleSet = frozenset  # of rule id strings

_RULE_ID_RE = re.compile(r"[A-Za-z0-9_]+")


@dataclass(frozen=True)
class Rule:
    """Guarded set-rewriting rule ``id: lhs -> rhs | guard``."""

    id: str
    lhs: StateSet
    rhs: StateSet
    guard: Formula

    def __post_init__(self):
        if not _RULE_ID_RE.fullmatch(self.id):
            raise ValidationError(f"invalid rule id {self.id!r}")
        if self.lhs.table != self.rhs.table or self.lhs.table != self.guard.table:
            raise ValidationError(f"rule {self.id}: parts over different tables")

    @property
    def table(self) -> VarTable:
        return self.lhs.table

    def applicable_to(self, configuration: StateSet) -> bool:
        """True iff lhs is contained in the configuration and the guard holds there."""
        if configuration.table != self.table:
            raise UsageError("configuration over a different variable table")
        return self.lhs <= configuration and self.guard.evaluate(configuration)

    def text(self) -> str:
        """The rule's text line; raises the reader's ParseError for a guard
        nested past MAX_NESTING (an erase guard's ``!(...)`` adds two levels)."""
        guard = self.guard.to_text()
        try:
            parse_formula(guard, self.table)
        except ParseError as exc:
            raise ParseError(f"rule {self.id}: {exc.message}", offset=exc.offset) from None
        return f"{self.id}: {self.lhs.set_text()} -> {self.rhs.set_text()} | {guard}"


@dataclass(frozen=True)
class BooleanPSystem:
    table: VarTable
    rules: tuple[Rule, ...]
    _by_id: dict = field(init=False, repr=False, compare=False)
    _bit: dict = field(init=False, repr=False, compare=False)  # id -> rule mask bit
    _width: int = field(init=False, repr=False, compare=False)  # number of symbols
    _rule_moves: tuple = field(init=False, repr=False, compare=False)  # index -> packed move
    _checks: tuple = field(init=False, repr=False, compare=False)  # (bit, lhs bits, guard)
    _ids: tuple = field(init=False, repr=False, compare=False)  # index -> rule id

    def __post_init__(self):
        by_id = {}
        for rule in self.rules:
            if rule.table != self.table:
                raise ValidationError(f"rule {rule.id} over a different variable table")
            if rule.id in by_id:
                raise ValidationError(f"duplicate rule id {rule.id!r}")
            by_id[rule.id] = rule
        ordered = [by_id[rule_id] for rule_id in sorted(by_id)]
        width = len(self.table)
        fields = {
            "_by_id": by_id,
            "_bit": {rule.id: 1 << i for i, rule in enumerate(ordered)},
            "_width": width,
            "_rule_moves": tuple(
                1 << i << 2 * width | rule.rhs.bits << width | rule.lhs.bits
                for i, rule in enumerate(ordered)
            ),
            "_checks": tuple(
                (1 << i, rule.lhs.bits, rule.guard) for i, rule in enumerate(ordered)
            ),
            "_ids": tuple(rule.id for rule in ordered),
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def rule(self, rule_id: str) -> Rule:
        try:
            return self._by_id[rule_id]
        except KeyError:
            raise UsageError(f"unknown rule id {rule_id!r}") from None

    def rule_ids(self) -> frozenset:
        return frozenset(self._by_id)

    def rule_mask(self, rule_ids: Iterable[str]) -> int:
        """Mask of the given ids; ids the system lacks are left out."""
        bit = self._bit
        mask = 0
        for rule_id in rule_ids:
            mask |= bit.get(rule_id, 0)
        return mask

    def rule_set(self, mask: int) -> RuleSet:
        """The ids of a rule mask."""
        ids = self._ids
        out = []
        while mask:
            low = mask & -mask
            out.append(ids[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    def fold(self, mask: int) -> int:
        """The move firing the rules of `mask`: the union of their moves, so
        it erases the union of their left-hand sides and adds the union of
        their right-hand sides."""
        rule_moves = self._rule_moves
        move = 0
        rest = mask
        while rest:
            low = rest & -rest
            move |= rule_moves[low.bit_length() - 1]
            rest ^= low
        return move

    def apply_moves(self, moves, bits: int) -> list:
        """The mode value `moves` applied at the configuration with `bits`:
        per move, ``fired mask << w | result bits``, w the number of symbols
        and the result ``bits & ~erase | add``.  `bits` has no bit at or
        above w, so only the move's erase bits can clear one of them."""
        width = self._width
        return [move >> width | bits & ~move for move in moves]

    def applicable_mask(self, configuration: StateSet) -> int:
        """Mask of the rules individually applicable to the configuration."""
        if configuration.table != self.table:
            raise UsageError("configuration over a different variable table")
        bits = configuration.bits
        mask = 0
        for bit, lhs, guard in self._checks:
            if not lhs & ~bits and guard.evaluate(configuration):
                mask |= bit
        return mask

    def applicable_masks(self) -> list:
        """`out[bits]` is `applicable_mask` at the configuration with those
        bits, for every configuration: each guard's truth table, ANDed with
        the patterns of its rule's lhs, read off state by state by
        `truth_columns`.  The list belongs to the caller; nothing of it is
        kept here."""
        n = check_enumerable(len(self.table), "system")
        patterns = truth_patterns(n)
        tables = []
        for _bit, lhs, guard in self._checks:
            table = fold_truth_table(guard, patterns)
            for pos, pattern in enumerate(patterns):
                if lhs >> pos & 1:
                    table &= pattern
            tables.append(table)
        return truth_columns(tables, n)

    def applicable_rules(self, configuration: StateSet) -> RuleSet:
        """Ids of the rules individually applicable to the configuration."""
        if configuration.table != self.table:
            raise UsageError("configuration over a different variable table")
        return frozenset(r.id for r in self.rules if r.applicable_to(configuration))

    def is_halting(self, configuration: StateSet) -> bool:
        return not self.applicable_mask(configuration)


def apply_rule_set(configuration: StateSet, rules: Iterable[Rule]) -> StateSet:
    """Joint application of rule objects; duplicates are harmless.

    Raises ValidationError naming the first inapplicable member.
    """
    erase = 0
    add = 0
    for rule in rules:
        if not rule.applicable_to(configuration):
            raise ValidationError(
                f"rule {rule.id} is not applicable to {configuration.set_text()}"
            )
        erase |= rule.lhs.bits
        add |= rule.rhs.bits
    return configuration.table.state(configuration.bits & ~erase | add)


# --- quasimodes ---------------------------------------------------------------


def dotted_product(a: Iterable[frozenset], b: Iterable[frozenset]) -> frozenset:
    """All unions of one element from each family."""
    b = tuple(b)
    return frozenset(x | y for x in a for y in b)


def _dot(first, second, shift: int) -> list:
    """Dotted product of two mode values given as moves with distinct
    masks, the masks from bit `shift` up: the pairwise unions, one move per
    distinct mask, in the order of their first pair.

    Two unions can collide only when the sides share a rule.  Sides over
    disjoint rules, as the composite's factors always are, give every pair
    its own mask, so the unions are listed as they come; otherwise a dict
    keeps one move per mask (colliding unions fire the same rules, so they
    are the same move)."""
    used = used2 = 0
    for move in first:
        used |= move
    for move in second:
        used2 |= move
    if not used >> shift & used2 >> shift:
        return [move | move2 for move in first for move2 in second]
    out = {}
    for move in first:
        for move2 in second:
            union = move | move2
            out[union >> shift] = union
    return list(out.values())


class Quasimode:
    """Configuration-independent family of advised rule-id sets."""

    name: str | None = None

    def elements(self) -> Iterator[RuleSet]:
        """Enumerate the family without duplicates (may be exponentially large)."""
        raise NotImplementedError

    def advised(self, applicable: RuleSet):
        """The derived mode's value at any configuration whose applicable
        rule ids are `applicable`; it depends on nothing else: the
        applicable part of every advised set, empty results kept as stutter
        elements."""
        raise NotImplementedError

    def resolve(self, system: BooleanPSystem):
        """The same family resolved against `system` once: a function from
        an applicable-rule mask to the derived mode's value there, as moves
        with distinct masks, in the layout the module docstring gives.
        Advised ids the system lacks are never applicable."""
        raise NotImplementedError

    def dot(self, other: "Quasimode") -> "Quasimode":
        return ProductQuasimode((self, other))

    def rule_ids(self) -> frozenset:
        """Every rule id some element advises."""
        return frozenset().union(*self.elements())

    def validate(self, system: BooleanPSystem):
        missing = self.rule_ids() - system.rule_ids()
        if missing:
            raise ValidationError(f"advised unknown rule ids {sorted(missing)}")


@dataclass(frozen=True)
class ExplicitQuasimode(Quasimode):
    family: frozenset  # of RuleSet
    name: str | None = None

    def elements(self):
        return iter(self.family)

    def advised(self, applicable):
        return frozenset(m & applicable for m in self.family)

    def resolve(self, system):
        masks = {system.rule_mask(element) for element in self.family}
        fold = system.fold
        return lambda app: [fold(mask) for mask in {mask & app for mask in masks}]


@dataclass(frozen=True)
class PowersetQuasimode(Quasimode):
    """The family of all subsets of a base rule set, never materialized eagerly."""

    base: RuleSet
    name: str | None = None

    def elements(self):
        base = sorted(self.base)
        for size in range(len(base) + 1):
            for combo in itertools.combinations(base, size):
                yield frozenset(combo)

    def rule_ids(self):
        return self.base

    def advised(self, applicable):
        usable = sorted(self.base & applicable)
        check_enumerable(len(usable), "applicable advised rules")
        return frozenset(
            frozenset(combo)
            for size in range(len(usable) + 1)
            for combo in itertools.combinations(usable, size)
        )

    def resolve(self, system):
        """The variable cap is read when the mode is derived, not per configuration."""
        base = system.rule_mask(self.base)
        rule_moves = system._rule_moves
        limit = var_cap()

        def at(app):
            usable = base & app
            check_within(usable.bit_count(), limit, "applicable advised rules")
            moves = [0]
            while usable:
                low = usable & -usable
                rule_move = rule_moves[low.bit_length() - 1]
                moves += [move | rule_move for move in moves]
                usable ^= low
            return moves

        return at


@dataclass(frozen=True)
class ProductQuasimode(Quasimode):
    """Dotted product of factor families: all unions of one element per factor.

    Restriction to the applicable part distributes over union, so the
    derived mode of a product is the dotted product of the factors' derived
    modes; that keeps evaluation lazy in the factors.  The dotted product is
    associative, and so is `_dot`'s first-pair order, so a nested product
    resolves as one flat list of factors dotted left to right: the same
    list, without an intermediate product per level.
    """

    factors: tuple[Quasimode, ...]

    def _flat(self) -> list:
        """The factors, with the factors of nested products spliced in."""
        out = []
        for factor in self.factors:
            out += factor._flat() if isinstance(factor, ProductQuasimode) else [factor]
        return out

    def elements(self):
        seen = set()
        for combo in itertools.product(*(tuple(f.elements()) for f in self.factors)):
            union = frozenset().union(*combo)
            if union not in seen:
                seen.add(union)
                yield union

    def rule_ids(self):
        """The factors' ids, or none when some factor has no element."""
        factors = self._flat()
        if any(next(iter(f.elements()), None) is None for f in factors):
            return frozenset()
        return frozenset().union(*(f.rule_ids() for f in factors))

    def advised(self, applicable):
        parts = [f.advised(applicable) for f in self.factors]
        result = parts[0]
        for part in parts[1:]:
            result = dotted_product(result, part)
        return result

    def resolve(self, system):
        first, *rest = [f.resolve(system) for f in self._flat()]
        shift = 2 * system._width

        def at(app):
            result = first(app)
            for part in rest:
                result = _dot(result, part(app), shift)
            return result

        return at


def explicit_quasimode(family: Iterable[Iterable[str]]) -> ExplicitQuasimode:
    return ExplicitQuasimode(frozenset(frozenset(m) for m in family))


def quasimode_maxpar(system: BooleanPSystem) -> ExplicitQuasimode:
    """Advise all rules; the filtered mode fires the non-extendable applicable set."""
    return ExplicitQuasimode(frozenset({system.rule_ids()}), name="maxpar")


def quasimode_seq(system: BooleanPSystem) -> ExplicitQuasimode:
    """Advise each rule alone (sequential firing)."""
    return ExplicitQuasimode(
        frozenset(frozenset({r.id}) for r in system.rules), name="seq"
    )


def quasimode_async(system: BooleanPSystem) -> PowersetQuasimode:
    """Advise every set of rules (asynchronous firing)."""
    return PowersetQuasimode(system.rule_ids(), name="async")


# --- modes --------------------------------------------------------------------


class ModeView:
    """Configuration-indexed view of the rule sets a system may fire.

    A mode belongs to the system it was derived for, kept as `system`; its
    consumers take the view alone.  Every mode here depends on the
    applicable rules alone: `resolved` maps an applicable mask to the mode's
    value there, as moves with distinct masks, which
    `BooleanPSystem.apply_moves` applies at a configuration.  `moves` gives
    that value at a configuration, `at` as id sets.  Every fired rule is
    individually applicable at that configuration.  Nothing is cached; a
    caller that revisits configurations keeps what it needs itself, and an
    exhaustive caller reads its masks from
    `BooleanPSystem.applicable_masks` and resolves each distinct one once.
    """

    def __init__(self, system: BooleanPSystem, resolved):
        self.system = system
        self.resolved = resolved

    def moves(self, configuration: StateSet) -> list:
        return self.resolved(self.system.applicable_mask(configuration))

    def at(self, configuration: StateSet) -> frozenset:
        rule_set = self.system.rule_set
        shift = 2 * self.system._width
        return frozenset(rule_set(move >> shift) for move in self.moves(configuration))


def derive_mode(system: BooleanPSystem, quasimode: Quasimode) -> ModeView:
    """The mode a quasimode induces."""
    return ModeView(system, quasimode.resolve(system))


def maximally_parallel_mode(system: BooleanPSystem) -> ModeView:
    """Fire the unique non-extendable applicable set; nothing at halting states."""
    return ModeView(system, lambda app: [system.fold(app)] if app else [])


def successors(mode: ModeView, configuration: StateSet):
    """Fired-set/result pairs at a configuration of `mode.system`, in no
    particular order; `evolve` and the composite engine sort what they need."""
    system = mode.system
    width = system._width
    full = (1 << width) - 1
    state = system.table.state
    rule_set = system.rule_set
    return tuple(
        (rule_set(out >> width), state(out & full))
        for out in system.apply_moves(mode.moves(configuration), configuration.bits)
    )


def evolve(
    mode: ModeView, start: StateSet, max_steps: int, breadth_cap=None
) -> tuple[Trajectory, ...]:
    """All evolutions from `start`, each extended until `max_steps` or a dead end.

    Branches follow the fired sets in rule-id lexicographic order (rule
    indices follow sorted ids, so this is the order of their index tuples).

    A trajectory is flagged halting iff no rule of `mode.system` is
    applicable at its last state; a dead end under the mode without that
    (an empty mode value at a non-halting state) just stops the branch.
    """
    def expand(configuration):
        return sorted(
            successors(mode, configuration),
            key=lambda p: (tuple(sorted(p[0])), p[1].sort_key()),
        )

    runs = enumerate_runs(start, max_steps, breadth_cap, expand, "evolution")
    halting = {}
    for states, _labels in runs:
        if states[-1] not in halting:
            halting[states[-1]] = mode.system.is_halting(states[-1])
    return tuple(Trajectory(s, l, halting=halting[s[-1]]) for s, l in runs)


# --- composition ----------------------------------------------------------------


def _remap_rule(rule: Rule, table: VarTable, position_map) -> Rule:
    return Rule(
        rule.id,
        rule.lhs.remap(table, position_map),
        rule.rhs.remap(table, position_map),
        rule.guard.remap(table, position_map),
    )


def remap_system(system: BooleanPSystem, table: VarTable, position_map) -> BooleanPSystem:
    """Re-intern a system into a larger table by a `merge_tables` position map."""
    return BooleanPSystem(table, tuple(_remap_rule(r, table, position_map) for r in system.rules))


def union_systems(first: BooleanPSystem, second: BooleanPSystem) -> BooleanPSystem:
    """Union of alphabets and rules; shared names are merged positionally.

    A rule id occurring in both systems must name the same rule (same lhs
    and rhs, guards equal as truth tables); such duplicates are kept once.
    """
    merged, map_a, map_b = merge_tables(first.table, second.table)
    left = remap_system(first, merged, map_a)
    right = remap_system(second, merged, map_b)
    rules = list(left.rules)
    by_id = {r.id: r for r in rules}
    for rule in right.rules:
        other = by_id.get(rule.id)
        if other is None:
            by_id[rule.id] = rule
            rules.append(rule)
            continue
        same = (
            other.lhs == rule.lhs
            and other.rhs == rule.rhs
            and (other.guard == rule.guard or equivalent(other.guard, rule.guard))
        )
        if not same:
            raise ValidationError(f"rule id {rule.id!r} names two different rules")
    return BooleanPSystem(merged, tuple(rules))


# --- text format ----------------------------------------------------------------
#
#   alphabet a, b
#   r1: {a, b} -> {a} | 1
#   r2: {a} -> {} | !b
#   quasimode maxpar          # optional; or explicit `advise {r1, r2}` lines


_RULE_LINE_RE = re.compile(
    r"(?P<id>[A-Za-z0-9_]+)\s*:\s*(?P<lhs>\{[^}]*\})\s*->\s*(?P<rhs>\{[^}]*\})\s*(?:\|(?P<guard>.*))?$"
)


def parse_system_text(text: str, source=None):
    """Parse a system file; returns ``(system, quasimode or None)``."""
    lines = _Lines(text, names=("alphabet",), values=("quasimode",), source=source)
    rule_lines = {}  # rule id -> (lhs, rhs, guard), line number
    advised = []
    for line, lineno in lines.rest:
        if line.startswith("advise "):
            advised.append((line[7:].strip(), lineno))
            continue
        m = _RULE_LINE_RE.match(line)
        if m is None:
            raise lines.unreadable(lineno)
        guard = (m.group("guard") or "").strip() or "1"  # a missing or blank guard reads 1
        rule_id, parts = m.group("id"), (m.group("lhs"), m.group("rhs"), guard)
        lines.once(rule_lines, rule_id, parts, lineno, f"rule id {rule_id!r}")
    if not lines.names["alphabet"]:
        raise lines.error("no `alphabet` declaration found")
    with lines.at():
        table = VarTable(lines.names["alphabet"])
    rules = []
    for rule_id, ((lhs, rhs, guard), lineno) in rule_lines.items():
        with lines.at(lineno):
            parts = parse_state(table, lhs), parse_state(table, rhs), parse_formula(guard, table)
        rules.append(Rule(rule_id, *parts))
    with lines.at():
        system = BooleanPSystem(table, tuple(rules))
    quasimode = None
    quasimode_name, quasimode_line = lines.values.get("quasimode", (None, None))
    if advised:
        if quasimode_name is not None:
            raise lines.error("both a named quasimode and advise lines given", quasimode_line)
        family = []
        for inner, lineno in advised:
            if not (inner.startswith("{") and inner.endswith("}")):
                raise lines.error(
                    f"advise needs a rule set literal, got {inner!r}", line=lineno
                )
            family.append(frozenset(_split_names(inner[1:-1])))
        quasimode = explicit_quasimode(family)
        with lines.at():
            quasimode.validate(system)
    elif quasimode_name is not None:
        with lines.at(quasimode_line):
            quasimode = named_quasimode(quasimode_name, system)
    return system, quasimode


def named_quasimode(name: str, system: BooleanPSystem) -> Quasimode:
    if name == "maxpar":
        return quasimode_maxpar(system)
    if name == "seq":
        return quasimode_seq(system)
    if name == "async":
        return quasimode_async(system)
    raise UsageError(f"unknown quasimode name {name!r} (expected maxpar, seq or async)")


def format_system_text(system: BooleanPSystem, quasimode: Quasimode | None = None) -> str:
    if not system.table.names:  # the reader needs a symbol after `alphabet`
        raise UsageError("a system over an empty alphabet has no text form")
    lines = ["alphabet " + ", ".join(system.table.names)]
    for rule in system.rules:
        lines.append(rule.text())
    if quasimode is not None:
        if quasimode.name in ("maxpar", "seq", "async"):
            lines.append(f"quasimode {quasimode.name}")
        else:
            elements = sorted(quasimode.elements(), key=lambda m: tuple(sorted(m)))
            if not elements:
                # no advise line reads back as no quasimode at all
                raise UsageError("an advised quasimode without elements has no text form")
            for element in elements:
                lines.append("advise {" + ", ".join(sorted(element)) + "}")
    return "\n".join(lines) + "\n"
