"""Seeded random models for the exhaustive certification suites."""

from __future__ import annotations

import random

from .bcn import freeze_extend
from .bn import BooleanMode, BooleanNetwork
from .boolp import BooleanPSystem, ExplicitQuasimode, Rule
from .cofase import CoFaSeInstance
from .formula import And, Const, Formula, Node, Not, Or, StateSet, Var, VarTable
from .translate import Reaction, ReactionSystem


def random_table(rng: random.Random, size: int, prefix: str = "x") -> VarTable:
    return VarTable(f"{prefix}{i}" for i in range(size))


def _random_node(rng: random.Random, size: int, depth: int) -> Node:
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.85 and size:
            return Var(rng.randrange(size))
        return Const(rng.random() < 0.5)
    kind = rng.random()
    if kind < 0.3:
        return Not(_random_node(rng, size, depth - 1))
    arity = rng.randint(2, 3)
    children = tuple(_random_node(rng, size, depth - 1) for _ in range(arity))
    return And(children) if kind < 0.65 else Or(children)


def random_formula(rng: random.Random, table: VarTable, max_depth: int = 4) -> Formula:
    return Formula(table, _random_node(rng, len(table), rng.randint(0, max_depth)))


def random_network(rng: random.Random, table: VarTable, max_depth: int = 4) -> BooleanNetwork:
    return BooleanNetwork(
        table, tuple(random_formula(rng, table, max_depth) for _ in table.names)
    )


def random_mode(rng: random.Random, table: VarTable, max_elements: int = 6) -> BooleanMode:
    """Non-empty family of update groups; the empty group is allowed."""
    space = 1 << len(table)
    count = rng.randint(1, min(max_elements, space))
    chosen = rng.sample(range(space), count)
    return BooleanMode(table, frozenset(table.state(bits) for bits in chosen))


def random_subset(rng: random.Random, table: VarTable) -> StateSet:
    return table.state(rng.randrange(1 << len(table)))


def random_psystem(
    rng: random.Random,
    table: VarTable,
    max_rules: int = 4,
    max_depth: int = 3,
    prefix: str = "r",
) -> BooleanPSystem:
    rules = []
    for index in range(rng.randint(1, max_rules)):
        rules.append(
            Rule(
                f"{prefix}{index + 1}",
                random_subset(rng, table),
                random_subset(rng, table),
                random_formula(rng, table, max_depth),
            )
        )
    return BooleanPSystem(table, tuple(rules))


def random_quasimode(
    rng: random.Random, system: BooleanPSystem, max_elements: int = 5
) -> ExplicitQuasimode:
    ids = sorted(system.rule_ids())
    family = []
    for _ in range(rng.randint(1, max_elements)):
        family.append(frozenset(r for r in ids if rng.random() < 0.5))
    return ExplicitQuasimode(frozenset(family))


def random_reaction_system(
    rng: random.Random, species: int, max_reactions: int = 6
) -> ReactionSystem:
    table = random_table(rng, species, prefix="s")
    reactions = []
    for index in range(rng.randint(1, max_reactions)):
        reactants = random_subset(rng, table)
        inhibitors = random_subset(rng, table) - reactants
        products = random_subset(rng, table)
        reactions.append(
            Reaction(f"a{index + 1}", reactants, inhibitors, products)
        )
    return ReactionSystem(table, tuple(reactions))


def random_cofase_instance(rng: random.Random, max_vars: int = 3) -> CoFaSeInstance:
    """Freeze-controlled instance with one start and one target state.

    Only a random non-empty subset of the variables is controllable, so
    multi-phase and unsolvable instances come up too.
    """
    table = random_table(rng, rng.randint(2, max_vars))
    controllable = [name for name in table.names if rng.random() < 0.6]
    if not controllable:
        controllable = [rng.choice(table.names)]
    bcn = freeze_extend(random_network(rng, table), variables=controllable)
    start = random_subset(rng, table)
    target = random_subset(rng, table)
    mode = BooleanMode.syn(table) if rng.random() < 0.5 else BooleanMode.asyn(table)
    return CoFaSeInstance.of(bcn, [start], [target], mode)
