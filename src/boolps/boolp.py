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
an explicit empty firing, i.e. a stutter step).  The strict variant instead
drops advised sets that are not entirely applicable.

Inside the kernel a rule set is an ``int`` mask: the rule with the i-th
smallest id is bit ``1 << i``.  Modes produce ``(fired mask, erase bits,
add bits)`` triples, so a result is ``bits & ~erase | add``; rule ids
appear only where a label leaves `successors`.  Because indices follow
sorted ids, ordering fired sets by their index tuples orders them by
their sorted ids.  The id-level `Quasimode.advised`, `dotted_product`,
`Rule.applicable_to` and `apply_rule_set` are kept as the reference the
mask path is checked against.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .bn import Trajectory
from .errors import CapacityError, ParseError, UsageError, ValidationError
from .formula import (
    Formula,
    StateSet,
    VarTable,
    _Lines,
    _split_names,
    equivalent,
    merge_tables,
    parse_formula,
    parse_state,
)
from .limits import DEFAULT_BREADTH_CAP, check_enumerable

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
    _lhs: tuple = field(init=False, repr=False, compare=False)  # index -> lhs bits
    _rhs: tuple = field(init=False, repr=False, compare=False)  # index -> rhs bits
    _checks: tuple = field(init=False, repr=False, compare=False)  # (bit, lhs bits, guard)
    _bytes: tuple = field(init=False, repr=False, compare=False)  # see `rule_set`

    def __post_init__(self):
        by_id = {}
        for rule in self.rules:
            if rule.table != self.table:
                raise ValidationError(f"rule {rule.id} over a different variable table")
            if rule.id in by_id:
                raise ValidationError(f"duplicate rule id {rule.id!r}")
            by_id[rule.id] = rule
        ordered = [by_id[rule_id] for rule_id in sorted(by_id)]
        fields = {
            "_by_id": by_id,
            "_bit": {rule.id: 1 << i for i, rule in enumerate(ordered)},
            "_lhs": tuple(rule.lhs.bits for rule in ordered),
            "_rhs": tuple(rule.rhs.bits for rule in ordered),
            "_checks": tuple(
                (1 << i, rule.lhs.bits, rule.guard) for i, rule in enumerate(ordered)
            ),
            "_bytes": tuple(
                tuple(
                    tuple(rule.id for j, rule in enumerate(chunk) if value >> j & 1)
                    for value in range(256)
                )
                for chunk in (ordered[k:k + 8] for k in range(0, len(ordered), 8))
            ),
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
        """The ids of a rule mask, read a byte at a time: `_bytes[k][v]` holds
        the ids of rules 8k..8k+7 whose bits are set in the byte value v
        (256 tuples per 8 rules, fixed when the system is built)."""
        ids = ()
        for table in self._bytes:
            if not mask:
                break
            ids += table[mask & 255]
            mask >>= 8
        return frozenset(ids)

    def fold(self, mask: int) -> tuple[int, int, int]:
        """``(mask, erase bits, add bits)``: the unions of the fired rules'
        left- and right-hand sides."""
        lhs, rhs = self._lhs, self._rhs
        erase = add = 0
        rest = mask
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            erase |= lhs[i]
            add |= rhs[i]
            rest ^= low
        return mask, erase, add

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

    def applicable_rules(self, configuration: StateSet) -> RuleSet:
        """Ids of the rules individually applicable to the configuration."""
        if configuration.table != self.table:
            raise UsageError("configuration over a different variable table")
        return frozenset(r.id for r in self.rules if r.applicable_to(configuration))

    def is_halting(self, configuration: StateSet) -> bool:
        return not self.applicable_mask(configuration)

    def apply_rule_set(self, configuration: StateSet, rule_ids: Iterable[str]) -> StateSet:
        """Joint application; every member must be individually applicable."""
        ids = frozenset(rule_ids)
        applicable = self.applicable_rules(configuration)
        for rule_id in sorted(ids):
            if rule_id not in self._by_id:
                raise UsageError(f"unknown rule id {rule_id!r}")
            if rule_id not in applicable:
                raise ValidationError(
                    f"rule {rule_id} is not applicable to {configuration.set_text()}"
                )
        _mask, erase, add = self.fold(self.rule_mask(ids))
        return self.table.state(configuration.bits & ~erase | add)


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


def _dot(first, second) -> list:
    """Dotted product of two mode values given as ``(mask, erase, add)``
    triples: the pairwise unions, one triple per distinct mask."""
    out = {}
    for mask, erase, add in first:
        for mask2, erase2, add2 in second:
            out[mask | mask2] = (mask | mask2, erase | erase2, add | add2)
    return list(out.values())


class Quasimode:
    """Configuration-independent family of advised rule-id sets."""

    name: str | None = None

    def elements(self) -> Iterator[RuleSet]:
        """Enumerate the family without duplicates (may be exponentially large)."""
        raise NotImplementedError

    def advised(self, applicable: RuleSet, strict=False):
        """The derived mode's value at any configuration whose applicable
        rule ids are `applicable`; it depends on nothing else.

        Filtered semantics keeps the applicable part of every advised set
        (retaining empty results as stutter elements); strict semantics
        keeps only advised sets that are entirely applicable.
        """
        raise NotImplementedError

    def resolve(self, system: BooleanPSystem, strict=False):
        """The same family resolved against `system` once: a function from
        an applicable-rule mask to the derived mode's value there, as
        ``(fired mask, erase bits, add bits)`` triples with distinct masks.
        Advised ids the system lacks are never applicable."""
        raise NotImplementedError

    def size_hint(self) -> int:
        raise NotImplementedError

    def dot(self, other: "Quasimode") -> "Quasimode":
        return ProductQuasimode((self, other))

    def validate(self, system: BooleanPSystem):
        known = system.rule_ids()
        for element in self.elements():
            missing = element - known
            if missing:
                raise ValidationError(f"advised unknown rule ids {sorted(missing)}")


@dataclass(frozen=True)
class ExplicitQuasimode(Quasimode):
    family: frozenset  # of RuleSet
    name: str | None = None

    def elements(self):
        return iter(self.family)

    def advised(self, applicable, strict=False):
        if strict:
            return frozenset(m for m in self.family if m <= applicable)
        return frozenset(m & applicable for m in self.family)

    def resolve(self, system, strict=False):
        masks = set()
        for element in self.family:
            mask = system.rule_mask(element)
            if strict and mask.bit_count() < len(element):
                continue  # advises a rule the system lacks: never entirely applicable
            masks.add(mask)
        fold = system.fold
        if strict:
            moves = [fold(mask) for mask in masks]
            return lambda app: [move for move in moves if not move[0] & ~app]
        return lambda app: [fold(mask) for mask in {mask & app for mask in masks}]

    def size_hint(self):
        return len(self.family)


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

    def advised(self, applicable, strict=False):
        # every subset of the applicable part is entirely applicable, so the
        # strict and filtered readings coincide here
        usable = sorted(self.base & applicable)
        check_enumerable(len(usable), what="applicable advised rules")
        return frozenset(
            frozenset(combo)
            for size in range(len(usable) + 1)
            for combo in itertools.combinations(usable, size)
        )

    def resolve(self, system, strict=False):
        # strict and filtered coincide here, as in `advised`
        base = system.rule_mask(self.base)
        lhs, rhs = system._lhs, system._rhs

        def at(app):
            usable = base & app
            check_enumerable(usable.bit_count(), what="applicable advised rules")
            moves = [(0, 0, 0)]
            while usable:
                low = usable & -usable
                i = low.bit_length() - 1
                erase, add = lhs[i], rhs[i]
                moves += [(mask | low, e | erase, a | add) for mask, e, a in moves]
                usable ^= low
            return moves

        return at

    def size_hint(self):
        return 1 << len(self.base)


@dataclass(frozen=True)
class ProductQuasimode(Quasimode):
    """Dotted product of factor families: all unions of one element per factor.

    Restriction to the applicable part distributes over union, so the
    derived mode of a product is the dotted product of the factors' derived
    modes; that keeps evaluation lazy in the factors.
    """

    factors: tuple[Quasimode, ...]
    name: str | None = None

    def elements(self):
        seen = set()
        for combo in itertools.product(*(tuple(f.elements()) for f in self.factors)):
            union = frozenset().union(*combo)
            if union not in seen:
                seen.add(union)
                yield union

    def advised(self, applicable, strict=False):
        parts = [f.advised(applicable, strict) for f in self.factors]
        result = parts[0]
        for part in parts[1:]:
            result = dotted_product(result, part)
        return result

    def resolve(self, system, strict=False):
        first, *rest = [f.resolve(system, strict) for f in self.factors]

        def at(app):
            result = first(app)
            for part in rest:
                result = _dot(result, part(app))
            return result

        return at

    def size_hint(self):
        size = 1
        for factor in self.factors:
            size *= factor.size_hint()
        return size


def explicit_quasimode(family: Iterable[Iterable[str]], name=None) -> ExplicitQuasimode:
    return ExplicitQuasimode(frozenset(frozenset(m) for m in family), name=name)


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

    `moves` gives them as ``(fired mask, erase bits, add bits)`` triples
    with distinct masks, `at` as id sets.  Every fired rule is individually
    applicable at that configuration.  Nothing is cached; a caller that
    revisits configurations keeps what it needs itself.
    """

    def __init__(self, system: BooleanPSystem, moves):
        self.system = system
        self._moves = moves

    def moves(self, configuration: StateSet) -> list:
        return self._moves(configuration)

    def at(self, configuration: StateSet) -> frozenset:
        rule_set = self.system.rule_set
        return frozenset(rule_set(mask) for mask, _erase, _add in self._moves(configuration))


def derive_mode(system: BooleanPSystem, quasimode: Quasimode, strict=False) -> ModeView:
    """The mode a quasimode induces (filtered by default, strict on request);
    its value depends on the applicable rules alone."""
    resolved = quasimode.resolve(system, strict)
    return ModeView(system, lambda configuration: resolved(system.applicable_mask(configuration)))


def maximally_parallel_mode(system: BooleanPSystem) -> ModeView:
    """Fire the unique non-extendable applicable set; nothing at halting states."""

    def moves(configuration):
        app = system.applicable_mask(configuration)
        return [system.fold(app)] if app else []

    return ModeView(system, moves)


def product_mode(first: ModeView, second: ModeView) -> ModeView:
    """Pointwise dotted product of two mode views over the same system."""
    if first.system != second.system:
        raise UsageError("product of modes over different systems")
    return ModeView(
        first.system,
        lambda configuration: _dot(first.moves(configuration), second.moves(configuration)),
    )


def successors(system: BooleanPSystem, mode: ModeView, configuration: StateSet):
    """Fired-set/result pairs at a configuration, in no particular order;
    `evolve` and the composite engine sort what they need."""
    if mode.system is not system and mode.system != system:
        raise UsageError("mode over a different system")
    bits = configuration.bits
    state = system.table.state
    rule_set = system.rule_set
    return tuple(
        (rule_set(mask), state(bits & ~erase | add))
        for mask, erase, add in mode.moves(configuration)
    )


def evolve(
    system: BooleanPSystem,
    mode: ModeView,
    start: StateSet,
    max_steps: int,
    breadth_cap=None,
) -> tuple[Trajectory, ...]:
    """All evolutions from `start`, each extended until `max_steps` or a dead end.

    Branches follow the fired sets in rule-id lexicographic order (rule
    indices follow sorted ids, so this is the order of their index tuples).

    A trajectory is flagged halting iff no rule is applicable at its last
    state; a dead end under the mode without that (an empty mode value at a
    non-halting state) just stops the branch.
    """
    if max_steps < 0:
        raise UsageError("max_steps must be non-negative")
    if breadth_cap is not None and breadth_cap < 0:
        raise UsageError("breadth cap must be non-negative")
    limit = DEFAULT_BREADTH_CAP if breadth_cap is None else breadth_cap
    # branches revisit configurations: expand each one once per call
    expanded = {}
    halting = {}

    def trajectories(paths):
        for states, _labels in paths:
            if states[-1] not in halting:
                halting[states[-1]] = system.is_halting(states[-1])
        return tuple(Trajectory(s, l, halting=halting[s[-1]]) for s, l in paths)

    done = []
    paths = [((start,), ())]
    for _ in range(max_steps):
        grown = []
        for states, labels in paths:
            last = states[-1]
            if last not in expanded:
                expanded[last] = sorted(
                    successors(system, mode, last),
                    key=lambda p: (tuple(sorted(p[0])), p[1].sort_key()),
                )
            if not expanded[last]:
                done.append((states, labels))
                continue
            for fired, nxt in expanded[last]:
                grown.append((states + (nxt,), labels + (fired,)))
        if len(grown) + len(done) > limit:
            raise CapacityError(
                f"evolution breadth exceeded cap {limit}", partial=trajectories(done + grown)
            )
        paths = grown
        if not paths:
            break
    return trajectories(done + paths)


# --- composition ----------------------------------------------------------------


def _remap_rule(rule: Rule, table: VarTable, position_map) -> Rule:
    return Rule(
        rule.id,
        rule.lhs.remap(table, position_map),
        rule.rhs.remap(table, position_map),
        rule.guard.remap(table, position_map),
    )


def remap_system(system: BooleanPSystem, table: VarTable) -> BooleanPSystem:
    """Re-intern a system into a larger table containing all its names."""
    position_map = {
        i: table.position(name) for i, name in enumerate(system.table.names)
    }
    return BooleanPSystem(table, tuple(_remap_rule(r, table, position_map) for r in system.rules))


def union_systems(first: BooleanPSystem, second: BooleanPSystem) -> BooleanPSystem:
    """Union of alphabets and rules; shared names are merged positionally.

    A rule id occurring in both systems must name the same rule (same lhs
    and rhs, guards equal as truth tables); such duplicates are kept once.
    """
    merged, _map_a, _map_b = merge_tables(first.table, second.table)
    left = remap_system(first, merged)
    right = remap_system(second, merged)
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


def _rule_parts(line: str):
    """``(id, lhs, rhs, guard)`` texts of a rule line, or None; a missing or
    blank guard reads ``1``."""
    m = _RULE_LINE_RE.match(line)
    if m is None:
        return None
    return m.group("id"), m.group("lhs"), m.group("rhs"), (m.group("guard") or "1").strip() or "1"


def parse_system_text(text: str, source=None):
    """Parse a system file; returns ``(system, quasimode or None)``."""
    lines = _Lines(text, names=("alphabet",), values=("quasimode",), source=source)
    rule_lines = []
    advised = []
    for line, lineno in lines.rest:
        if line.startswith("advise "):
            advised.append((line[7:].strip(), lineno))
            continue
        parts = _rule_parts(line)
        if parts is None:
            raise lines.unreadable(lineno)
        rule_lines.append((parts, lineno))
    if not lines.names["alphabet"]:
        raise lines.error("no `alphabet` declaration found")
    with lines.at():
        table = VarTable(lines.names["alphabet"])
    rules = []
    for (rule_id, lhs, rhs, guard), lineno in rule_lines:
        with lines.at(lineno):
            parts = parse_state(table, lhs), parse_state(table, rhs), parse_formula(guard, table)
        rules.append(Rule(rule_id, *parts))
    with lines.at():
        system = BooleanPSystem(table, tuple(rules))
    quasimode = None
    quasimode_name = lines.values.get("quasimode", (None,))[0]
    if advised:
        if quasimode_name is not None:
            raise lines.error("both a named quasimode and advise lines given")
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
        with lines.at():
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
    lines = ["alphabet " + ", ".join(system.table.names)]
    for rule in system.rules:
        lines.append(rule.text())
    if quasimode is not None:
        if quasimode.name in ("maxpar", "seq", "async"):
            lines.append(f"quasimode {quasimode.name}")
        else:
            for element in sorted(quasimode.elements(), key=lambda m: tuple(sorted(m))):
                lines.append("advise {" + ", ".join(sorted(element)) + "}")
    return "\n".join(lines) + "\n"
