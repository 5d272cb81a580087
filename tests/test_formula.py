import functools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolps.bn import BooleanNetwork
from boolps.errors import CapacityError, ParseError, UsageError, ValidationError
from boolps.formula import (
    MAX_NESTING,
    And,
    Const,
    Formula,
    Not,
    Or,
    StateSet,
    Var,
    VarTable,
    _eval_node,
    equivalent,
    merge_tables,
    parse_formula,
    parse_state,
    truth_bitmask,
    truth_columns,
)
from boolps.generators import random_formula, random_table
from boolps.limits import capped
from boolps.translate import bn_to_boolp


def naive_eval(text, env):
    """Independent oracle: run the formula as a Python boolean expression.

    `!`/`&`/`|` map onto `not`/`and`/`or`, which have the same relative
    precedence, and `0`/`1` are falsy/truthy literals.
    """
    py = text.replace("!", " not ").replace("&", " and ").replace("|", " or ")
    return bool(eval(py, {"__builtins__": {}}, dict(env)))


def all_states(table):
    return list(table.subsets())


def env_of(state):
    return {name: name in state for name in state.table.names}


class TestVarTable:
    def test_positions_follow_declaration_order(self):
        t = VarTable.of("x", "y", "z")
        assert t.position("x") == 0 and t.position("z") == 2
        assert t.name(1) == "y"

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            VarTable.of("x", "x")

    def test_bad_identifier_rejected(self):
        with pytest.raises(ValidationError):
            VarTable.of("0x")

    def test_unknown_name(self):
        with pytest.raises(UsageError):
            VarTable.of("x").position("y")

    def test_merge_by_name(self):
        a = VarTable.of("x", "y")
        b = VarTable.of("y", "z")
        merged, map_a, map_b = merge_tables(a, b)
        assert merged.names == ("x", "y", "z")
        assert map_a == {0: 0, 1: 1}
        assert map_b == {0: 1, 1: 2}


class TestStateSet:
    def test_digits_put_first_variable_first(self):
        t = VarTable.of("x", "y")
        assert StateSet.of(t, ["y"]).digits() == "01"
        assert StateSet.from_digits(t, "10").names() == ("x",)

    def test_set_algebra(self):
        t = VarTable.of("a", "b", "c")
        s = StateSet.of(t, ["a", "b"])
        assert (s - StateSet.of(t, ["b"])) == StateSet.of(t, ["a"])
        assert (s | StateSet.of(t, ["c"])) == StateSet.full(t)
        assert StateSet.of(t, ["b"]) <= s
        assert not s <= StateSet.of(t, ["b"])

    def test_indicator_reading(self):
        t = VarTable.of("a", "b")
        s = StateSet.of(t, ["a"])
        assert "a" in s and "b" not in s

    def test_cross_table_ops_rejected(self):
        s = StateSet.of(VarTable.of("a"), ["a"])
        with pytest.raises(UsageError):
            s | StateSet.of(VarTable.of("b"), [])

    def test_parse_state_both_notations(self):
        t = VarTable.of("x", "y")
        assert parse_state(t, "01") == StateSet.of(t, ["y"])
        assert parse_state(t, "{x, y}") == StateSet.full(t)
        assert parse_state(t, "{}") == StateSet.empty(t)
        with pytest.raises(ParseError):
            parse_state(t, "02")


class TestEval:
    def test_negated_variable_at_state_without_it(self):
        # the guard that lets an `a` be erased once `b` is gone
        t = VarTable.of("a", "b")
        phi = parse_formula("!b", t)
        assert phi.evaluate(StateSet.of(t, ["a"])) is True

    def test_tautology_on_empty_state(self):
        t = VarTable.of("a", "b")
        assert parse_formula("1", t).evaluate(StateSet.empty(t)) is True

    def test_toggle_update_at_full_state(self):
        # hand truth table of !x & y: row x=1,y=1 gives 0
        t = VarTable.of("x", "y")
        phi = parse_formula("!x & y", t)
        assert phi.evaluate(StateSet.full(t)) is False

    def test_mismatched_table_is_usage_error(self):
        phi = parse_formula("a", VarTable.of("a"))
        with pytest.raises(UsageError):
            phi.evaluate(StateSet.empty(VarTable.of("b")))


class TestParse:
    def test_precedence_shape(self):
        t = VarTable.of("x", "y")
        phi = parse_formula("!x & y", t)
        assert phi.root == And((Not(Var(0)), Var(1)))

    def test_constant(self):
        t = VarTable.of("x")
        assert parse_formula("1", t).root == Const(True)

    def test_or_with_zero_same_truth_table(self):
        # brute truth-table comparison over the 4 states
        t = VarTable.of("x", "y")
        a = parse_formula("(x & !y) | 0", t)
        b = parse_formula("x & !y", t)
        assert equivalent(a, b)

    def test_unknown_identifier_offset(self):
        t = VarTable.of("x")
        with pytest.raises(ParseError) as err:
            parse_formula("x & yy", t)
        assert err.value.offset == 4

    def test_syntax_error_offset(self):
        t = VarTable.of("x")
        with pytest.raises(ParseError) as err:
            parse_formula("x & ", t)
        assert err.value.offset == 4
        with pytest.raises(ParseError):
            parse_formula("(x", t)
        with pytest.raises(ParseError):
            parse_formula("x y", t)

    @pytest.mark.parametrize("opener, closer", [("!", ""), ("(", ")"), ("!(", ")")])
    def test_nesting_limit(self, opener, closer):
        t = VarTable.of("x")
        levels = MAX_NESTING // len(opener)
        text = opener * levels + "x" + closer * levels
        assert parse_formula(text, t).evaluate(t.state(1)) in (True, False)
        with pytest.raises(ParseError) as err:
            parse_formula("!" + text, t)
        assert err.value.offset == len(opener) * levels

    def test_nary_chains_flatten(self):
        t = VarTable.of("a", "b", "c")
        phi = parse_formula("a & b & c", t)
        assert phi.root == And((Var(0), Var(1), Var(2)))


# --- properties -----------------------------------------------------------

NAMES = ("a", "b", "c")
TABLE = VarTable(NAMES)

_atoms = st.sampled_from(list(NAMES) + ["0", "1"])


def _formula_texts(depth, atoms=_atoms):
    if depth == 0:
        return atoms
    sub = _formula_texts(depth - 1, atoms)
    return st.one_of(
        atoms,
        sub.map(lambda s: f"!({s})"),
        st.tuples(sub, sub).map(lambda p: f"({p[0]} & {p[1]})"),
        st.tuples(sub, sub).map(lambda p: f"({p[0]} | {p[1]})"),
        st.tuples(sub, sub, sub).map(lambda p: f"({p[0]} | {p[1]} | {p[2]})"),
    )


formula_texts = _formula_texts(6)


@settings(max_examples=200, deadline=None)
@given(formula_texts)
def test_parse_eval_matches_python_oracle(text):
    phi = parse_formula(text, TABLE)
    for state in all_states(TABLE):
        assert phi.evaluate(state) == naive_eval(text, env_of(state))


@settings(max_examples=200, deadline=None)
@given(formula_texts)
def test_serialize_parse_preserves_truth_table(text):
    phi = parse_formula(text, TABLE)
    again = parse_formula(phi.to_text(), TABLE)
    for state in all_states(TABLE):
        assert phi.evaluate(state) == again.evaluate(state)


@settings(max_examples=100, deadline=None)
@given(formula_texts, formula_texts)
def test_de_morgan(left_text, right_text):
    left = parse_formula(left_text, TABLE)
    right = parse_formula(right_text, TABLE)
    not_and = left.conj(right).negate()
    or_of_nots = left.negate().disj(right.negate())
    not_or = left.disj(right).negate()
    and_of_nots = left.negate().conj(right.negate())
    for state in all_states(TABLE):
        assert left.negate().evaluate(state) == (not left.evaluate(state))
        assert not_and.evaluate(state) == or_of_nots.evaluate(state)
        assert not_or.evaluate(state) == and_of_nots.evaluate(state)


def ast_bitmask(phi):
    """The truth table read state by state through `Formula.evaluate`."""
    return sum(1 << state.bits for state in all_states(phi.table) if phi.evaluate(state))


@settings(max_examples=200, deadline=None)
@given(formula_texts)
def test_truth_bitmask_matches_evaluate(text):
    phi = parse_formula(text, TABLE)
    assert truth_bitmask(phi) == ast_bitmask(phi)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 7), st.integers(0, 6), st.integers(0, 1 << 16))
def test_truth_bitmask_matches_evaluate_on_random_tables(size, depth, seed):
    table = random_table(random.Random(seed), size)
    phi = random_formula(random.Random(seed), table, depth)
    assert truth_bitmask(phi) == ast_bitmask(phi)


def _wrapped(parts):
    # each `!` or `(` is one level: MAX_NESTING of them, the deepest accepted
    wraps, text = parts
    for op, atom in wraps:
        text = "!" + text if op == "!" else f"({text} {op} {atom})"
    return text


nesting_limit_texts = st.tuples(
    st.lists(
        st.tuples(st.sampled_from(["!", "&", "|"]), _atoms),
        min_size=MAX_NESTING, max_size=MAX_NESTING,
    ),
    _atoms,
).map(_wrapped)


@settings(max_examples=50, deadline=None)
@given(nesting_limit_texts)
def test_truth_bitmask_matches_evaluate_at_nesting_limit(text):
    phi = parse_formula(text, TABLE)
    assert truth_bitmask(phi) == ast_bitmask(phi)


@settings(max_examples=50, deadline=None)
@given(_formula_texts(4, st.sampled_from(["0", "1"])))
def test_truth_bitmask_of_zero_variables_is_one_bit(text):
    phi = parse_formula(text, VarTable(()))
    assert truth_bitmask(phi) == ast_bitmask(phi) == (1 if naive_eval(text, {}) else 0)


def test_truth_bitmask_cap():
    t = VarTable(f"v{i}" for i in range(6))
    with capped(5), pytest.raises(CapacityError):
        truth_bitmask(parse_formula("v0", t))
    with capped(6):
        assert truth_bitmask(parse_formula("v0", t)) == int("10" * 32, 2)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << (1 << n)) - 1), max_size=9))
    )
)
def test_truth_columns_read_each_table_state_by_state(case):
    n, tables = case
    expected = [sum((table >> b & 1) << k for k, table in enumerate(tables)) for b in range(1 << n)]
    assert truth_columns(tables, n) == expected
    assert truth_columns([], n) == [0] * (1 << n)


def test_substitute_folds_constants():
    t = VarTable.of("x", "u")
    phi = parse_formula("(x & !u) | u", t)
    pinned = phi.substitute({"u": True})
    assert pinned.root == Const(True)
    released = phi.substitute({"u": False})
    assert released.variables() == frozenset({"x"})


# --- the compiled evaluator against the AST interpreter ----------------------


def assert_evaluate_is_eval_node(phi):
    for state in all_states(phi.table):
        assert phi.evaluate(state) is _eval_node(phi.root, state.bits)


def _nodes(size):
    leaves = st.builds(Const, st.booleans())
    if size:
        leaves |= st.builds(Var, st.integers(0, size - 1))

    def connectives(sub):
        # empty, single and nested like their parent, unlike the parser's
        children = st.lists(sub, max_size=3).map(tuple)
        return st.one_of(st.builds(Not, sub), children.map(And), children.map(Or))

    return st.recursive(leaves, connectives, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(st.just(n), _nodes(n))), st.data())
def test_compiled_evaluate_matches_eval_node(size_and_root, data):
    size, root = size_and_root
    table = random_table(random.Random(0), size)
    phi = Formula(table, root)
    assert_evaluate_is_eval_node(phi)
    names = st.sampled_from(table.names) if size else st.nothing()
    pinned = data.draw(st.dictionaries(names, st.booleans()))
    assert_evaluate_is_eval_node(phi.substitute(pinned))
    wider = random_table(random.Random(0), size + 1, prefix="y")
    order = data.draw(st.permutations(range(size + 1)))
    assert_evaluate_is_eval_node(phi.remap(wider, dict(enumerate(order))))
    # an equal table that is another object is the same table; another is not
    again = VarTable(table.names)
    assert [phi.evaluate(s) for s in again.subsets()] == [
        phi.evaluate(s) for s in table.subsets()
    ]
    with pytest.raises(UsageError):
        phi.evaluate(StateSet.empty(VarTable(("other",) + table.names)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 7), st.integers(0, 6), st.integers(0, 1 << 16))
def test_compiled_evaluate_matches_eval_node_on_random_formulas(size, depth, seed):
    table = random_table(random.Random(seed), size)
    assert_evaluate_is_eval_node(random_formula(random.Random(seed), table, depth))


@pytest.mark.parametrize(
    "root, value",
    [
        (Const(False), False),
        (Const(True), True),
        (And(()), True),
        (Or(()), False),
        (Not(And(())), False),
        (And((Or(()), Var(0))), False),
        (Or((And(()), Var(0))), True),
    ],
)
def test_constant_roots_and_empty_connectives(root, value):
    phi = Formula(VarTable.of("a"), root)
    assert [phi.evaluate(s) for s in all_states(phi.table)] == [value, value]
    assert_evaluate_is_eval_node(phi)
    again = parse_formula(phi.to_text(), phi.table)
    assert [again.evaluate(s) for s in all_states(phi.table)] == [value, value]


def test_subclassed_nodes_evaluate_and_render():
    class Both(And):
        pass

    phi = Formula(VarTable.of("a", "b"), Not(Both((Var(0), Var(1)))))
    assert phi.to_text() == "!(a & b)"
    assert_evaluate_is_eval_node(phi)


def test_formula_pickles_after_evaluation():
    phi = parse_formula("a & !(b | c)", TABLE)
    before = [phi.evaluate(s) for s in all_states(TABLE)]
    again = pickle.loads(pickle.dumps(phi))
    assert again == phi
    assert [again.evaluate(s) for s in all_states(TABLE)] == before


def test_non_int_position_rejected():
    with pytest.raises(ValidationError):
        Formula(VarTable.of("a", "b"), Var(1.0))


def test_malformed_nodes_rejected():
    with pytest.raises(ValidationError, match="variable position -1 out of range"):
        Formula(VarTable.of("a"), Var(-1))
    with pytest.raises(ValidationError, match="variable position 2 out of range"):
        Formula(VarTable.of("a", "b"), Or((Var(0), Not(Var(2)))))
    with pytest.raises(ValidationError, match="unknown formula node 'a'"):
        Formula(VarTable.of("a"), And((Var(0), "a")))
    with pytest.raises(ValidationError, match="unknown formula node 1"):
        Formula(VarTable.of("a"), 1)


def test_thousand_levels_build_in_linear_time():
    # each level is checked and hashed once: neither walks the tree below it
    t = VarTable.of("a", "b")
    b = Formula.var(t, "b")
    phi = twin = Formula.var(t, "a")
    for _ in range(1000):
        phi = phi.conj(b).negate()
        twin = twin.conj(b).negate()
    assert hash(phi) == hash(twin)
    assert phi.root._span == 2
    with pytest.raises(ValidationError, match="variable position 1 out of range"):
        Formula(VarTable.of("a"), phi.root)


def test_node_hash_survives_pickling_into_another_process():
    text = "a & !(b | c) | 1"
    child = (
        "import pickle, sys\n"
        "from boolps.formula import VarTable, parse_formula\n"
        "root = pickle.loads(sys.stdin.buffer.read())\n"
        f"fresh = parse_formula({text!r}, VarTable.of('a', 'b', 'c')).root\n"
        "print(fresh in {root})\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", child], input=pickle.dumps(parse_formula(text, TABLE).root),
        check=True, capture_output=True, env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout
    assert out.split() == [b"True"]


def test_table_and_state_hash_survive_pickling_across_hash_seeds():
    # string hashes are seeded per process: pickle under one seed, load
    # under another, and compare with a table built in the loading process
    src = Path(__file__).resolve().parent.parent / "src"
    dump = (
        "import pickle, sys\n"
        "from boolps.formula import VarTable\n"
        "t = VarTable.of('a', 'b', 'c')\n"
        "sys.stdout.buffer.write(pickle.dumps((t, t.state(5))))\n"
    )
    load = (
        "import pickle, sys\n"
        "from boolps.formula import VarTable\n"
        "t, s = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = VarTable.of('a', 'b', 'c')\n"
        "print(t == fresh, t in {fresh}, s == fresh.state(5), s in {fresh.state(5)},"
        " s.table is t, t.state(5) is s)\n"
    )

    def run(code, seed, data=None):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
        return subprocess.run(
            [sys.executable, "-c", code], input=data, check=True, capture_output=True, env=env
        ).stdout

    assert run(load, "2", run(dump, "1")).split() == [b"True"] * 6


def test_deep_formula_built_through_the_api_evaluates():
    # 300 levels of conj/disj alternation: one nested parenthesis per two
    t = VarTable.of("a", "b", "c")
    a, b, c = (Formula.var(t, name) for name in t.names)
    phi = a
    for level in range(300):
        phi = phi.conj(b) if level % 2 else phi.disj(c)
    for state in all_states(t):
        value = "a" in state
        for level in range(300):
            value = (value and "b" in state) if level % 2 else (value or "c" in state)
        assert phi.evaluate(state) is _eval_node(phi.root, state.bits) is value


def test_formula_too_deep_to_compile_falls_back_to_eval_node():
    # 210 nested parentheses are more than CPython's parser accepts (200),
    # yet within the AST interpreter's recursion
    root = Var(0)
    for level in range(210):
        root = Not(And((root, Var(1 + level % 2))))
    phi = Formula(TABLE, root)
    assert isinstance(phi._compiled, functools.partial)
    for state in all_states(TABLE):
        value = "a" in state
        for level in range(210):
            value = not (value and TABLE.name(1 + level % 2) in state)
        assert phi.evaluate(state) is _eval_node(root, state.bits) is value


@settings(max_examples=50, deadline=None)
@given(nesting_limit_texts)
def test_formulas_at_nesting_limit_compile(text):
    phi = parse_formula(text, TABLE)
    guards = [rule.guard for rule in bn_to_boolp(BooleanNetwork(TABLE, (phi,) * 3)).rules]
    for formula in [phi, phi.negate()] + guards:
        assert not isinstance(formula._compiled, functools.partial)
        assert_evaluate_is_eval_node(formula)


class TestSetText:
    def test_zero_variable_table(self):
        state = StateSet.empty(VarTable(()))
        assert state.set_text() == "{}" == str(state)
        assert state.set_text() is state.set_text()

    def test_remapped_states(self):
        t = VarTable.of("a", "b", "c")
        wider = VarTable.of("z", "c", "a", "b")
        for state in all_states(t):
            text = state.set_text()
            moved = state.remap(wider, {0: 2, 1: 3, 2: 1})
            assert moved.set_text() == "{" + ", ".join(n for n in wider if n in moved) + "}"
            assert set(moved) == set(state)
            assert state.set_text() is text
            assert repr(moved) == f"StateSet({moved.set_text()})"
