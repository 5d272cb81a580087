"""Exhaustive transition-relation comparisons certifying the embeddings.

Each check builds the compared relation twice: once through the rewriting
machinery under test, which reads every configuration's applicable rules
from the guards' truth tables (`BooleanPSystem.applicable_masks`), once
independently from the models' own definitions (each update formula's
function compiled from its AST, `Formula.evaluator`, and the reactions'
reactant, inhibitor and product bits), and requires exact labelled
equality.  Both sides work on the configurations' bits; states are built
only at a failure, whose counterexample carries the state together with
both successor sets, so it can be re-checked by hand or replayed through
the CLI trace command.

The network and controlled-network checks compare masks.  The expected
side spells the rule ids an encoding must have and indexes them in sorted
order itself (`_spelled_index`); its per-element plan is built once per
check from the update formulas, never from the kernel, with each
update's table checked there, and calls the updates' compiled functions
on each configuration's bits.  A move is one int, packed as
``label mask << width | next bits``, where `width` is the number of
symbols of the checked table; packing is injective, so two sets of packed
moves are equal exactly when their ``(label, next bits)`` pairs are.  The
expected side's packed moves meet the kernel's, which
`BooleanPSystem.apply_moves` packs the same way.  They are compared as
they are where the system indexes exactly the spelled ids (`rule_mask`
and `rule_set`, which must also decode their union to every spelled id);
otherwise both sides are decoded to id sets.  The kernel's mode depends
on the applicable mask alone, so the configurations are grouped by their
entry in `applicable_masks` and each group's moves are derived once; the
expected side is still built at every configuration.  `successors` runs
only at a failing configuration, for the counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bcn import BooleanControlNetwork, freeze_extend
from .bn import BooleanMode, BooleanNetwork
from .boolp import (
    BooleanPSystem,
    ModeView,
    Quasimode,
    derive_mode,
    dotted_product,
    successors,
    union_systems,
)
from .errors import UsageError
from .formula import StateSet
from .generators import (
    random_mode,
    random_network,
    random_psystem,
    random_quasimode,
    random_reaction_system,
    random_table,
)
from .limits import check_enumerable
from .relation import TransitionRelation, label_text
from .translate import (
    ReactionSystem,
    bcn_to_composite,
    bn_mode_to_quasimode,
    bn_to_boolp,
    rs_to_boolp,
)


def boolp_transitions(mode: ModeView) -> TransitionRelation:
    """Edges for every configuration of `mode.system` and every fired set it allows."""
    system = mode.system
    apply_moves = system.apply_moves
    width = len(system.table)
    full = (1 << width) - 1
    apps = system.applicable_masks()
    # The mode depends on the applicable mask alone, so each distinct one is
    # resolved once, and each distinct move decoded once: applied at the
    # empty configuration it gives its fired mask and the bits it adds,
    # applied at the full one the bits it keeps or adds, and at any
    # configuration its result is ``bits & kept | added``.
    resolved = {app: mode.resolved(app) for app in dict.fromkeys(apps)}
    moves = list(dict.fromkeys(move for value in resolved.values() for move in value))
    empty, whole = apply_moves(moves, 0), apply_moves(moves, full)
    decoded = {mask: system.rule_set(mask) for mask in {out >> width for out in empty}}
    masks = sorted(decoded, key=lambda mask: label_text(decoded[mask]))
    index = {mask: i for i, mask in enumerate(masks)}
    entry = {
        move: (index[out >> width], kept & full, out & full)
        for move, out, kept in zip(moves, empty, whole)
    }
    # fired masks are distinct at a configuration, so sorting by label index
    # puts each row in canonical order
    entries = {app: sorted(map(entry.__getitem__, value)) for app, value in resolved.items()}
    rows = [
        tuple([(label, bits & kept | added) for label, kept, added in entries[app]])
        for bits, app in enumerate(apps)
    ]
    return TransitionRelation._canonical(system.table, [decoded[mask] for mask in masks], rows)


def _item_text(item) -> str:
    if isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], StateSet):
        return f"{label_text(item[0])} -> {item[1].set_text()}"
    return label_text(item)


@dataclass(frozen=True)
class Counterexample:
    """A state with the two successor families (or advised families) that differ."""

    state: StateSet
    expected: frozenset
    actual: frozenset

    def describe(self) -> str:
        def fmt(items):
            if not items:
                return "(none)"
            return "; ".join(sorted(_item_text(i) for i in items))

        return (
            f"at {self.state.set_text()}: expected {fmt(self.expected)} "
            f"but got {fmt(self.actual)}"
        )


@dataclass(frozen=True)
class EquivalenceReport:
    passed: bool
    detail: str
    counterexample: Counterexample | None = None

    def __bool__(self):
        return self.passed

    def to_json_dict(self):
        doc = {"passed": self.passed, "detail": self.detail}
        if self.counterexample is not None:
            ce = self.counterexample
            doc["counterexample"] = {
                "state": ce.state.set_text(),
                "expected": sorted(_item_text(i) for i in ce.expected),
                "actual": sorted(_item_text(i) for i in ce.actual),
            }
        return doc


def _spelled_index(x_names, u_names=()):
    """The expected side's own rule index: the ids an encoding of these
    variables and control symbols must have (``set_x``/``clr_x`` per
    variable, ``u_set_u``/``u_clr_u`` per control symbol), spelled out here
    rather than taken from the encoder under test: an id -> bit map, with
    bit i for the i-th smallest id, listed in that order."""
    ordered = sorted(
        {prefix + name for name in x_names for prefix in ("set_", "clr_")}
        | {prefix + name for name in u_names for prefix in ("u_set_", "u_clr_")}
    )
    return {rule_id: 1 << i for i, rule_id in enumerate(ordered)}


def _expected_moves(updates, mode: BooleanMode, index, table):
    """Build, once per check, the function of ``(bits, x_bits)`` that lists
    the move of every mode element, packed as ``label mask << width | next
    variable bits``, read off the update formulas alone: introduce x where
    its update holds, erase x where it fails and x is present.

    `bits` is a configuration of `table`, the updates' table, of `width`
    symbols, and `x_bits` its variable part; variables come first in
    `table`, so their positions index `updates`.  Each update is evaluated
    on `bits` by its compiled function (`Formula.evaluator`, which checks
    its table here, once).  Label bits come from `index`, the check's own
    map from the ids `_spelled_index` spells.
    """
    width = len(table)
    plan = [
        [
            (
                updates[pos].evaluator(table),
                1 << pos,
                index["set_" + name] << width,
                index["clr_" + name] << width,
            )
            for pos, name in enumerate(element.table.names)
            if element.bits >> pos & 1
        ]
        for element in mode.elements
    ]

    def packed_moves(bits, x_bits):
        out = []
        for members in plan:
            label = 0
            next_bits = x_bits
            for holds, bit, set_label, clr_label in members:
                if holds(bits):
                    label |= set_label
                    next_bits |= bit
                else:
                    next_bits &= ~bit
                    if x_bits & bit:
                        label |= clr_label
            out.append(label | next_bits)
        return out

    return packed_moves


def _compare_moves(view: ModeView, table, expected_at, index, detail):
    """Compare the moves of `view` at every configuration of `table` with
    `expected_at(bits)`, a set of moves packed as ``label mask <<
    len(table) | next bits`` under `index`, as the module docstring says,
    and report the lowest configuration where they differ.  `table` is the
    checked model's; an encoding over another table is a usage error,
    raised before the applicability table is built.

    The groups of configurations sharing an applicable mask are walked in
    the order of their lowest configuration, one group's moves held at a
    time; each stops at its first failure, and no group looks at or above
    the lowest failure found so far."""
    system = view.system
    if table != system.table:
        raise UsageError("configuration over a different variable table")
    apps = system.applicable_masks()
    rule_set = system.rule_set
    apply_moves = system.apply_moves
    trusted = system.rule_ids() == set(index) == rule_set(sum(index.values())) and all(
        system.rule_mask((rule_id,)) == bit and rule_set(bit) == {rule_id}
        for rule_id, bit in index.items()
    )
    width = len(table)
    full = (1 << width) - 1

    def spelled(mask):
        return frozenset(rule_id for rule_id, bit in index.items() if mask & bit)

    groups = {}
    for bits, app in enumerate(apps):
        groups.setdefault(app, []).append(bits)
    failure = 1 << width  # above every configuration
    for app, members in groups.items():
        if members[0] >= failure:
            break  # every later group starts higher still
        moves = view.resolved(app)
        for bits in members:
            if bits >= failure:
                break
            expected = expected_at(bits)
            applied = apply_moves(moves, bits)
            if trusted:
                if set(applied) == expected:
                    continue
            elif {(rule_set(out >> width), out & full) for out in applied} == {
                (spelled(move >> width), move & full) for move in expected
            }:
                continue
            failure, failed = bits, expected
            break
    if failure >> width:
        return EquivalenceReport(passed=True, detail="labelled transition relations coincide")
    configuration = table.state(failure)
    expected_ids = frozenset(
        (spelled(move >> width), table.state(move & full)) for move in failed
    )
    actual = frozenset(successors(view, configuration))
    if actual == expected_ids:  # only the table's derivation is wrong
        detail += (
            ": the exhaustive applicability table disagrees"
            " with the per-configuration moves"
        )
    return EquivalenceReport(False, detail, Counterexample(configuration, expected_ids, actual))


def check_bn_simulation(
    network: BooleanNetwork, mode: BooleanMode, encoding: ModeView | None = None
) -> EquivalenceReport:
    """Compare a network's labelled dynamics with its rewriting encoding.

    The encoding's edge at W advised by mode element m carries the
    applicable part of m's rule pairs; the expected side rebuilds that
    label directly from the update formulas (introduce x where the update
    holds, erase x where it fails and x is present) and steps the network.

    `encoding`, the derived mode under test, defaults to the canonical
    encoding's mode; fault injection tests pass a mutated one.
    """
    if mode.table != network.table:
        raise UsageError("mode over a different variable table")
    check_enumerable(len(network.table), "network")
    if encoding is None:
        system = bn_to_boolp(network)
        encoding = derive_mode(system, bn_mode_to_quasimode(mode, system))
    table = network.table
    index = _spelled_index(table.names)
    expected_moves = _expected_moves(network.updates, mode, index, table)

    def expected_at(bits):
        return set(expected_moves(bits, bits))

    return _compare_moves(
        encoding, table, expected_at, index, "network encoding and network dynamics disagree"
    )


def check_bcn_simulation(
    bcn: BooleanControlNetwork,
    mode: BooleanMode,
    composite=None,
) -> EquivalenceReport:
    """Compare the composed controlled embedding with the controlled dynamics.

    Expected successors of a configuration split into variables part W and
    control part W_U: for every mode element, the variables move one step
    of the network selected by W_U (labels from the update formulas as in
    the network check, controls read verbatim); the present control
    symbols are all erased and every subset of control symbols may be
    re-introduced.  `composite` defaults to the canonical embedding; fault
    injection tests pass a mutated one.
    """
    check_enumerable(len(bcn.table), "composite")
    if composite is None:
        composite = bcn_to_composite(bcn, mode)
    u_names = bcn.u_table.names
    index = _spelled_index(bcn.x_table.names, u_names)
    width = len(bcn.table)
    n_x = len(bcn.x_table)
    x_mask = (1 << n_x) - 1
    u_set_bits = [index["u_set_" + name] << width for name in u_names]
    u_clr_bits = [index["u_clr_" + name] << width for name in u_names]

    def labels(bits_of):
        """Per control-part value, the packed label of its symbols' rules."""
        out = [0]
        for bit in bits_of:
            out += [label | bit for label in out]
        return out

    erase_labels = labels(u_clr_bits)
    # the packed move of re-introducing each subset of control symbols
    intros = [label | s_bits << n_x for s_bits, label in enumerate(labels(u_set_bits))]
    x_moves = _expected_moves(bcn.updates, mode, index, bcn.table)

    def expected_at(bits):
        erase = erase_labels[bits >> n_x]
        return {
            move | erase | intro
            for move in x_moves(bits, bits & x_mask)
            for intro in intros
        }

    return _compare_moves(
        composite.mode_view(), bcn.table, expected_at, index,
        "composed embedding and controlled dynamics disagree",
    )


def check_product_lemma(
    first: BooleanPSystem,
    second: BooleanPSystem,
    first_quasimode: Quasimode,
    second_quasimode: Quasimode,
) -> EquivalenceReport:
    """Deriving the dotted product of two quasimodes must equal the pointwise
    dotted product of the modes they derive, at every configuration of the
    union system.  The left side runs the rule-mask kernel; the right side
    derives each mode with the id-level `Quasimode.advised`."""
    union = union_systems(first, second)
    check_enumerable(len(union.table), "union system")
    left = derive_mode(union, first_quasimode.dot(second_quasimode))
    apps = union.applicable_masks()
    rule_set = union.rule_set
    width = len(union.table)
    for configuration in union.table.subsets():
        applicable = union.applicable_rules(configuration)
        bits = configuration.bits
        lhs = frozenset(
            rule_set(out >> width) for out in union.apply_moves(left.resolved(apps[bits]), bits)
        )
        rhs = dotted_product(
            first_quasimode.advised(applicable), second_quasimode.advised(applicable)
        )
        if lhs != rhs:
            return EquivalenceReport(
                passed=False,
                detail="derived product mode differs from product of derived modes",
                counterexample=Counterexample(configuration, rhs, lhs),
            )
    return EquivalenceReport(passed=True, detail="derived modes coincide at every configuration")


def reaction_result(rs: ReactionSystem, state: StateSet) -> StateSet:
    """Direct interpreter: union of the products of the enabled reactions,
    a reaction being enabled where all its reactants' bits and none of its
    inhibitors' bits are set in `state`."""
    if state.table != rs.table:
        raise UsageError("state sets belong to different variable tables")
    return rs.table.state(_result_bits(rs, state.bits))


def _result_bits(rs: ReactionSystem, present: int) -> int:
    """`reaction_result` on bits: the union of the products of the reactions
    enabled at the state with bits `present`."""
    bits = 0
    for reaction in rs.reactions:
        if not (reaction.reactants.bits & ~present or reaction.inhibitors.bits & present):
            bits |= reaction.products.bits
    return bits


def check_rs_embedding(rs: ReactionSystem) -> EquivalenceReport:
    """One maximally parallel step of the embedding equals the direct result
    function on every state (a halting state can only be the empty one, and
    there both sides stay empty).  Both sides are compared as bits; states
    are built for the counterexample only."""
    check_enumerable(len(rs.table), "reaction system")
    mode = rs_to_boolp(rs)
    system = mode.system
    apps = system.applicable_masks()
    resolved, apply_moves = mode.resolved, system.apply_moves
    full = (1 << len(rs.table)) - 1
    for bits, app in enumerate(apps):
        expected = _result_bits(rs, bits)
        applied = apply_moves(resolved(app), bits)
        actual = applied[0] & full if applied else bits
        if expected != actual:
            state = rs.table.state
            return EquivalenceReport(
                passed=False,
                detail="embedded step and direct result function disagree",
                counterexample=Counterexample(
                    state(bits),
                    frozenset({(frozenset(), state(expected))}),
                    frozenset({(frozenset(), state(actual))}),
                ),
            )
    return EquivalenceReport(passed=True, detail="embedded step equals the result function")


# --- seeded random suites -----------------------------------------------------


@dataclass(frozen=True)
class SuiteResult:
    name: str
    total: int
    failures: tuple  # of (case label, EquivalenceReport)

    def __bool__(self):
        return not self.failures

    @property
    def passed(self) -> int:
        return self.total - len(self.failures)

    def summary(self) -> str:
        status = "pass" if self else "FAIL"
        out = [f"{self.name}: {self.passed}/{self.total} cases pass [{status}]"]
        for label, report in self.failures:
            out.append(f"  {label}: {report.detail}")
            if report.counterexample is not None:
                out.append(f"    {report.counterexample.describe()}")
        return "\n".join(out)


def _run_suite(name: str, count: int, seed: int, draw) -> SuiteResult:
    """Run `count` seeded random cases.  ``draw(rng)`` draws one case and
    yields its checks as ``(variant, report)`` pairs, variant None for a
    case with a single check; every check counts toward the total."""
    if count < 0:
        raise UsageError(f"case count must be non-negative, not {count}")
    rng = random.Random(seed)
    failures = []
    total = 0
    for index in range(count):
        for variant, report in draw(rng):
            total += 1
            if not report:
                label = f"case {index}" if variant is None else f"case {index} ({variant})"
                failures.append((label, report))
    return SuiteResult(name, total, tuple(failures))


def _bn_simulation_case(rng):
    table = random_table(rng, rng.randint(2, 5))
    network = random_network(rng, table)
    modes = [
        ("syn", BooleanMode.syn(table)),
        ("asyn", BooleanMode.asyn(table)),
        ("random", random_mode(rng, table)),
    ]
    for mode_name, mode in modes:
        yield mode_name, check_bn_simulation(network, mode)


def _bcn_simulation_case(rng):
    table = random_table(rng, rng.randint(2, 3))
    bcn = freeze_extend(random_network(rng, table))
    yield "syn", check_bcn_simulation(bcn, BooleanMode.syn(table))
    yield "asyn", check_bcn_simulation(bcn, BooleanMode.asyn(table))


def _product_lemma_case(rng):
    table = random_table(rng, rng.randint(2, 5))
    first = random_psystem(rng, table, prefix="a")
    second = random_psystem(rng, table, prefix="b")
    yield None, check_product_lemma(
        first, second, random_quasimode(rng, first), random_quasimode(rng, second)
    )


def _rs_embedding_case(rng):
    yield None, check_rs_embedding(random_reaction_system(rng, rng.randint(1, 6)))


def run_bn_simulation_suite(count=100, seed=2024) -> SuiteResult:
    """Random networks of 2-5 variables under the synchronous, asynchronous
    and one random mode."""
    return _run_suite("network-embedding suite", count, seed, _bn_simulation_case)


def run_bcn_simulation_suite(count=50, seed=2025) -> SuiteResult:
    """Random freeze-extended networks of 2-3 variables under syn and asyn."""
    return _run_suite("controlled-embedding suite", count, seed, _bcn_simulation_case)


def run_product_lemma_suite(count=100, seed=2026) -> SuiteResult:
    """Random system pairs with random explicit quasimodes."""
    return _run_suite("mode-product suite", count, seed, _product_lemma_case)


def run_rs_embedding_suite(count=100, seed=2027) -> SuiteResult:
    """Random reaction systems of 1-6 species."""
    return _run_suite("reaction-embedding suite", count, seed, _rs_embedding_case)
