"""Exhaustive transition-relation comparisons certifying the embeddings.

Each check builds the compared relation twice: once through the rewriting
machinery under test, once independently from network primitives (formula
evaluation and stepping), and requires exact labelled equality.  Failures
carry a counterexample state together with both successor sets, so they can
be re-checked by hand or replayed through the CLI trace command.

The network and controlled-network checks compare masks.  The expected side
spells the rule ids an encoding must have and indexes them in sorted order
itself, never through the kernel; at each configuration its ``(label mask,
next bits)`` pairs are compared with the kernel's ``(fired mask, result
bits)``.  Where the two sets differ, or where the system does not index
exactly the spelled ids as the check does (both `rule_mask` and the label
decoder `rule_set`), that configuration is compared again on rule ids, and
only a difference there is reported.
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
from .limits import check_enumerable
from .relation import TransitionRelation, label_text
from .translate import (
    ReactionSystem,
    bcn_to_composite,
    bn_mode_to_quasimode,
    bn_to_boolp,
    rs_to_boolp,
)


def boolp_transitions(system: BooleanPSystem, mode: ModeView, cap=None) -> TransitionRelation:
    """Edges for every configuration and every fired set the mode allows there."""
    check_enumerable(len(system.table), cap, "system")
    edges = set()
    for configuration in system.table.subsets():
        for fired, nxt in successors(system, mode, configuration):
            edges.add((configuration, fired, nxt))
    return TransitionRelation(system.table, frozenset(edges))


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


def _expected_moves(updates, mode: BooleanMode, configuration: StateSet, bits: int, index):
    """``(label mask, next variable bits)`` for every mode element, read off
    the update formulas alone: introduce x where its update holds, erase x
    where it fails and x is present.

    `bits` is the variable part of `configuration`; variables come first in
    its table, so their positions index `updates`.  Label bits come from
    `index`, the check's own map from the ids `_spelled_index` spells.
    """
    out = []
    for element in mode.elements:
        label = 0
        next_bits = bits
        for name in element:
            pos = element.table.position(name)
            if updates[pos].evaluate(configuration):
                label |= index["set_" + name]
                next_bits |= 1 << pos
            else:
                next_bits &= ~(1 << pos)
                if bits >> pos & 1:
                    label |= index["clr_" + name]
        out.append((label, next_bits))
    return out


def _compare_moves(system, view, table, expected_at, index, detail):
    """Compare the kernel's moves at every configuration of `table` with
    `expected_at(configuration)`, a set of ``(label mask, next bits)`` under
    `index`, as the module docstring says: as ints while the system maps
    each spelled id to its bit in `index` and back, and at the id level
    where the int sets differ or the indices do not agree."""
    ordered = list(index)
    trusted = system.rule_ids() == set(index) and all(
        system.rule_mask((rule_id,)) == bit and system.rule_set(bit) == {rule_id}
        for rule_id, bit in index.items()
    )
    for configuration in table.subsets():
        expected = expected_at(configuration)
        if trusted:
            bits = configuration.bits
            actual = {
                (mask, bits & ~erase | add) for mask, erase, add in view.moves(configuration)
            }
            if actual == expected:
                continue
        expected_ids = {
            (frozenset(rule_id for i, rule_id in enumerate(ordered) if mask >> i & 1),
             table.state(next_bits))
            for mask, next_bits in expected
        }
        actual_ids = set(successors(system, view, configuration))
        if expected_ids != actual_ids:
            return EquivalenceReport(
                passed=False,
                detail=detail,
                counterexample=Counterexample(
                    configuration, frozenset(expected_ids), frozenset(actual_ids)
                ),
            )
    return EquivalenceReport(passed=True, detail="labelled transition relations coincide")


def check_bn_simulation(
    network: BooleanNetwork,
    mode: BooleanMode,
    cap=None,
    system: BooleanPSystem | None = None,
    quasimode: Quasimode | None = None,
) -> EquivalenceReport:
    """Compare a network's labelled dynamics with its rewriting encoding.

    The encoding's edge at W advised by mode element m carries the
    applicable part of m's rule pairs; the expected side rebuilds that
    label directly from the update formulas (introduce x where the update
    holds, erase x where it fails and x is present) and steps the network.

    `system` and `quasimode` default to the canonical encoding; fault
    injection tests pass mutated ones.
    """
    if mode.table != network.table:
        raise UsageError("mode over a different variable table")
    check_enumerable(len(network.table), cap, "network")
    if system is None:
        system = bn_to_boolp(network)
    if quasimode is None:
        quasimode = bn_mode_to_quasimode(mode, system)
    view = derive_mode(system, quasimode)
    table = network.table
    index = _spelled_index(table.names)

    def expected_at(configuration):
        return set(
            _expected_moves(network.updates, mode, configuration, configuration.bits, index)
        )

    return _compare_moves(
        system, view, table, expected_at, index,
        "network encoding and network dynamics disagree",
    )


def check_bcn_simulation(
    bcn: BooleanControlNetwork,
    mode: BooleanMode,
    cap=None,
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
    check_enumerable(len(bcn.table), cap, "composite")
    if composite is None:
        composite = bcn_to_composite(bcn, mode)
    system = composite.system
    u_names = bcn.u_table.names
    index = _spelled_index(bcn.x_table.names, u_names)
    n_x = len(bcn.x_table)
    x_mask = (1 << n_x) - 1
    u_set_bits = [index["u_set_" + name] for name in u_names]
    u_clr_bits = [index["u_clr_" + name] for name in u_names]

    def labels(bits_of):
        """Per control-part value, the label mask of its symbols' rules."""
        out = [0]
        for bit in bits_of:
            out += [label | bit for label in out]
        return out

    erase_labels = labels(u_clr_bits)
    # (label mask, result bits) of re-introducing each subset of control symbols
    intros = [(label, s_bits << n_x) for s_bits, label in enumerate(labels(u_set_bits))]

    def expected_at(configuration):
        erase_label = erase_labels[configuration.bits >> n_x]
        expected = set()
        for label, bits in _expected_moves(
            bcn.updates, mode, configuration, configuration.bits & x_mask, index
        ):
            x_label = label | erase_label
            expected.update((x_label | intro, bits | u_bits) for intro, u_bits in intros)
        return expected

    return _compare_moves(
        system, composite.mode_view(), system.table, expected_at, index,
        "composed embedding and controlled dynamics disagree",
    )


def check_product_lemma(
    first: BooleanPSystem,
    second: BooleanPSystem,
    first_quasimode: Quasimode,
    second_quasimode: Quasimode,
    cap=None,
) -> EquivalenceReport:
    """Deriving the dotted product of two quasimodes must equal the pointwise
    dotted product of the modes they derive, at every configuration of the
    union system.  The left side runs the rule-mask kernel; the right side
    derives each mode with the id-level `Quasimode.advised`."""
    union = union_systems(first, second)
    check_enumerable(len(union.table), cap, "union system")
    left = derive_mode(union, first_quasimode.dot(second_quasimode))
    for configuration in union.table.subsets():
        applicable = union.applicable_rules(configuration)
        lhs = left.at(configuration)
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
    """Direct interpreter: union of the products of the enabled reactions."""
    bits = 0
    for reaction in rs.reactions:
        if reaction.reactants <= state and not (reaction.inhibitors & state).bits:
            bits |= reaction.products.bits
    return rs.table.state(bits)


def check_rs_embedding(rs: ReactionSystem, cap=None) -> EquivalenceReport:
    """One maximally parallel step of the embedding equals the direct result
    function on every state (a halting state can only be the empty one, and
    there both sides stay empty)."""
    check_enumerable(len(rs.table), cap, "reaction system")
    system, mode = rs_to_boolp(rs)
    for state in rs.table.subsets():
        expected = reaction_result(rs, state)
        steps = successors(system, mode, state)
        actual = steps[0][1] if steps else state
        if expected != actual:
            return EquivalenceReport(
                passed=False,
                detail="embedded step and direct result function disagree",
                counterexample=Counterexample(
                    state,
                    frozenset({(frozenset(), expected)}),
                    frozenset({(frozenset(), actual)}),
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


def run_bn_simulation_suite(count=100, seed=2024, sizes=(2, 5)) -> SuiteResult:
    """Random networks under the synchronous, asynchronous and one random mode."""
    from .generators import random_mode, random_network, random_table

    rng = random.Random(seed)
    failures = []
    total = 0
    for index in range(count):
        table = random_table(rng, rng.randint(sizes[0], sizes[1]))
        network = random_network(rng, table)
        modes = [
            ("syn", BooleanMode.syn(table)),
            ("asyn", BooleanMode.asyn(table)),
            ("random", random_mode(rng, table)),
        ]
        for mode_name, mode in modes:
            total += 1
            report = check_bn_simulation(network, mode)
            if not report:
                failures.append((f"case {index} ({mode_name})", report))
    return SuiteResult("network-embedding suite", total, tuple(failures))


def run_bcn_simulation_suite(count=50, seed=2025, sizes=(2, 3)) -> SuiteResult:
    """Random freeze-extended networks under syn and asyn."""
    from .generators import random_network, random_table

    rng = random.Random(seed)
    failures = []
    total = 0
    for index in range(count):
        table = random_table(rng, rng.randint(sizes[0], sizes[1]))
        bcn = freeze_extend(random_network(rng, table))
        for mode_name in ("syn", "asyn"):
            total += 1
            mode = BooleanMode.syn(table) if mode_name == "syn" else BooleanMode.asyn(table)
            report = check_bcn_simulation(bcn, mode)
            if not report:
                failures.append((f"case {index} ({mode_name})", report))
    return SuiteResult("controlled-embedding suite", total, tuple(failures))


def run_product_lemma_suite(count=100, seed=2026) -> SuiteResult:
    """Random system pairs with random explicit quasimodes."""
    from .generators import random_psystem, random_quasimode, random_table

    rng = random.Random(seed)
    failures = []
    for index in range(count):
        table = random_table(rng, rng.randint(2, 5))
        first = random_psystem(rng, table, prefix="a")
        second = random_psystem(rng, table, prefix="b")
        report = check_product_lemma(
            first,
            second,
            random_quasimode(rng, first),
            random_quasimode(rng, second),
        )
        if not report:
            failures.append((f"case {index}", report))
    return SuiteResult("mode-product suite", count, tuple(failures))


def run_rs_embedding_suite(count=100, seed=2027, max_species=6) -> SuiteResult:
    from .generators import random_reaction_system

    rng = random.Random(seed)
    failures = []
    for index in range(count):
        rs = random_reaction_system(rng, rng.randint(1, max_species))
        report = check_rs_embedding(rs)
        if not report:
            failures.append((f"case {index}", report))
    return SuiteResult("reaction-embedding suite", count, tuple(failures))
