"""Transition relations: int rows against the edge-set renderer they replaced."""

import io
import json
import os
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolps.bn import BooleanMode, bn_step, bn_transitions, named_mode
from boolps.boolp import (
    derive_mode,
    format_system_text,
    maximally_parallel_mode,
    parse_system_text,
    quasimode_async,
    quasimode_seq,
    successors,
)
from boolps.equivalence import boolp_transitions
from boolps.errors import UsageError
from boolps.formula import StateSet, VarTable
from boolps.generators import random_mode, random_network, random_psystem, random_table
from boolps.relation import TransitionRelation, digit_order, label_text
from test_bn import _gray_walk_network

STYLES = ("digits", "set")
NAMES = st.sampled_from(["label", "mode_elem", "rules", "kéy", 'q"uote', "g_2"])


# --- the renderer of a frozenset of (StateSet, label, StateSet) edges ----------


def _text(state, style):
    return state.digits() if style == "digits" else state.set_text()


def _sorted(edges):
    return sorted(edges, key=lambda e: (e[0].sort_key(), label_text(e[1]), e[2].sort_key()))


def old_to_dot(edges, style="digits"):
    lines = ["digraph transitions {"]
    states = sorted({s for e in edges for s in (e[0], e[2])}, key=StateSet.sort_key)
    for state in states:
        lines.append(f'  "{_text(state, style)}";')
    for src, label, dst in _sorted(edges):
        lines.append(
            f'  "{_text(src, style)}" -> "{_text(dst, style)}" [label="{label_text(label)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def old_to_json_lines(edges, style="digits", label_key="label"):
    lines = [
        json.dumps(
            {"src": _text(src, style), label_key: label_text(label), "dst": _text(dst, style)}
        )
        for src, label, dst in _sorted(edges)
    ]
    return "\n".join(lines) + "\n"


def old_to_text(edges, style="digits"):
    lines = [
        f"{_text(src, style)} --{label_text(label)}--> {_text(dst, style)}"
        for src, label, dst in _sorted(edges)
    ]
    return "\n".join(lines) + "\n"


def _renders(style, label_key):
    """(renderer name, its arguments, the edge-set renderer with the same arguments)."""
    return [
        ("to_dot", (style,), lambda edges: old_to_dot(edges, style)),
        ("to_json_lines", (style,), lambda edges: old_to_json_lines(edges, style)),
        ("to_json_lines", (style, label_key),
         lambda edges: old_to_json_lines(edges, style, label_key)),
        ("to_text", (style,), lambda edges: old_to_text(edges, style)),
    ]


def assert_renders_like_edges(relation, edges, style, label_key):
    """Each render, as a string and streamed, has the edge-set renderer's bytes."""
    assert relation.edges == edges
    for name, args, old in _renders(style, label_key):
        render = getattr(relation, name)
        out = io.StringIO()
        assert render(*args, out=out) is None
        assert out.getvalue() == render(*args) == old(edges)
    for state in relation.table.subsets():
        expected = frozenset((label, dst) for src, label, dst in edges if src == state)
        assert relation.successors(state) == expected


# --- built relations -------------------------------------------------------------


def assert_rows_are_canonical(relation):
    """A builder's rows, which skip the constructor's check, pass it unchanged."""
    assert TransitionRelation(relation.table, relation.labels, relation.rows) == relation


def _network_mode(rng, table, mode_name):
    n = len(table)
    return {
        "random": lambda: random_mode(rng, table),
        "overlapping": lambda: BooleanMode(
            table,
            frozenset(table.state(bits % (1 << n)) for bits in (0b0011, 0b0110, 0b1111)),
        ),
        "empty": lambda: BooleanMode(table, frozenset()),
    }.get(mode_name, lambda: named_mode(mode_name, table))()


def _stepped_edges(network, mode):
    """The relation's edges, one `bn_step` per state and element."""
    return frozenset(
        (state, element, bn_step(network, state, element))
        for state in network.table.subsets()
        for element in mode.elements
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["syn", "asyn", "random", "overlapping", "empty"]),
    st.sampled_from(STYLES),
    NAMES,
)
def test_bn_transitions_render_like_edge_set(n, seed, mode_name, style, label_key):
    rng = random.Random(seed)
    table = random_table(rng, n)
    network = random_network(rng, table)
    mode = _network_mode(rng, table, mode_name)
    relation = bn_transitions(network, mode)
    assert_rows_are_canonical(relation)
    assert_renders_like_edges(relation, _stepped_edges(network, mode), style, label_key)


@pytest.mark.parametrize("mode_name", ["asyn", "syn", "random", "overlapping", "empty"])
@pytest.mark.parametrize("n", [8, 9, 10])
def test_bn_transitions_match_bn_step_at_larger_n(n, mode_name):
    rng = random.Random(n)
    table = random_table(rng, n)
    mode = _network_mode(rng, table, mode_name)
    for network in (random_network(rng, table), _gray_walk_network(table)):
        relation = bn_transitions(network, mode)
        assert relation.labels == tuple(sorted(mode.elements, key=label_text))
        assert relation.edges == _stepped_edges(network, mode)


@pytest.mark.parametrize("n, mode_name", [(8, "syn"), (9, "asyn"), (10, "overlapping")])
def test_bn_transitions_stream_like_edge_set_at_larger_n(n, mode_name):
    rng = random.Random(n)
    table = random_table(rng, n)
    relation = bn_transitions(random_network(rng, table), _network_mode(rng, table, mode_name))
    assert_rows_are_canonical(relation)
    for style in STYLES:
        assert_renders_like_edges(relation, relation.edges, style, 'k"é')


def test_boolp_transitions_stream_like_edge_set_at_larger_n():
    rng = random.Random(9)
    system = random_psystem(rng, random_table(rng, 8), max_rules=11)
    for view in (maximally_parallel_mode(system), derive_mode(system, quasimode_seq(system))):
        relation = boolp_transitions(view)
        assert sum(map(len, relation.rows)) > 100
        assert_rows_are_canonical(relation)
        for style in STYLES:
            assert_renders_like_edges(relation, relation.edges, style, "rules")


@pytest.mark.parametrize("render", ["to_dot", "to_json_lines", "to_text"])
def test_streamed_render_holds_one_run_at_a_time(render):
    # the whole n=12 text is 1.5-2.5 MB; as one string it peaks near 10 MiB
    rng = random.Random(12)
    table = random_table(rng, 12)
    relation = bn_transitions(random_network(rng, table), named_mode("asyn", table))
    with open(os.devnull, "w") as sink:
        tracemalloc.start()
        try:
            getattr(relation, render)(out=sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2 * 2**20


def _pi_case(seed, mode_name):
    """A random system written as .pi text and parsed back, with its mode view
    (a .pi alphabet is never empty)."""
    rng = random.Random(seed)
    table = random_table(rng, rng.randint(1, 5))
    written = random_psystem(rng, table, max_rules=4 if mode_name == "async" else 11)
    system, _quasimode = parse_system_text(format_system_text(written))
    if mode_name == "maxpar":
        return system, maximally_parallel_mode(system)
    quasimode = quasimode_seq(system) if mode_name == "seq" else quasimode_async(system)
    return system, derive_mode(system, quasimode)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["maxpar", "seq", "async"]),
    st.sampled_from(STYLES),
    NAMES,
)
def test_boolp_transitions_render_like_edge_set(seed, mode_name, style, label_key):
    system, view = _pi_case(seed, mode_name)
    edges = frozenset(
        (configuration, fired, result)
        for configuration in system.table.subsets()
        for fired, result in successors(view, configuration)
    )
    relation = boolp_transitions(view)
    assert_rows_are_canonical(relation)
    assert_renders_like_edges(relation, edges, style, label_key)


def test_halting_configurations_have_empty_rows_and_no_node():
    system, _ = parse_system_text("alphabet a, b\nr1: {a} -> {b} | 1\n")
    relation = boolp_transitions(maximally_parallel_mode(system))
    # 00 and 01 halt; 01 is a destination, 00 is on no edge
    assert [bool(row) for row in relation.rows] == [False, True, False, True]
    assert relation.to_text() == "10 --{r1}--> 01\n11 --{r1}--> 01\n"
    assert relation.to_dot().splitlines()[1:4] == ['  "01";', '  "10";', '  "11";']
    for style in STYLES:
        assert relation.to_dot(style) == old_to_dot(relation.edges, style)


def test_rows_follow_label_text_and_digit_order():
    system, _ = parse_system_text(
        "alphabet a\n"
        + "".join(f"r{k}: {{}} -> {{a}} | 1\n" for k in range(1, 12))
    )
    relation = boolp_transitions(derive_mode(system, quasimode_seq(system)))
    texts = [label_text(label) for label in relation.labels]
    assert texts == sorted(texts) and texts[:3] == ["{r10}", "{r11}", "{r1}"]
    assert relation.rows == (tuple((i, 1) for i in range(11)),) * 2


def test_digit_order_is_the_sort_by_digits():
    for n in range(6):
        table = random_table(random.Random(n), n)
        order = digit_order(n)
        assert order == sorted(range(1 << n), key=lambda bits: table.state(bits).digits())
        assert [order[bits] for bits in order] == list(range(1 << n))


# --- constructor and render arguments -----------------------------------------------


@pytest.fixture
def pair():
    return VarTable.of("x", "y")


def test_row_count_must_be_two_to_the_n(pair):
    for count in (0, 3, 5):
        with pytest.raises(UsageError, match="need 4 relation rows"):
            TransitionRelation(pair, ("a",), [()] * count)


@pytest.mark.parametrize("entry", [(0, 4), (0, -1), (0, 1 << 40)])
def test_destination_outside_the_table(pair, entry):
    with pytest.raises(UsageError, match="outside"):
        TransitionRelation(pair, ("a",), [(), (entry,), (), ()])


@pytest.mark.parametrize("entry", [(1, 0), (-1, 0)])
def test_label_index_outside_labels(pair, entry):
    with pytest.raises(UsageError, match="outside"):
        TransitionRelation(pair, ("a",), [((0, 1), entry), (), (), ()])
    with pytest.raises(UsageError, match="outside"):
        TransitionRelation(pair, (), [(), (), (), ((0, 0),)])


def test_labels_must_be_sorted_by_text_and_distinct(pair):
    for labels in (("b", "a"), ("a", "a")):
        with pytest.raises(UsageError, match="sorted"):
            TransitionRelation(pair, labels, [()] * 4)


def test_rows_are_put_in_canonical_order(pair):
    # digit order of the destinations: 0 ("00"), 2 ("01"), 1 ("10"), 3 ("11")
    relation = TransitionRelation(
        pair, ("a", "b"), [[(1, 0), (0, 1), (0, 2), (1, 0)], (), [], [(0, 3), (0, 3)]]
    )
    assert relation.rows == (((0, 2), (0, 1), (1, 0)), (), (), ((0, 3),))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_any_rows_construct_or_raise_usage_error(data):
    n = data.draw(st.integers(0, 3))
    table = random_table(random.Random(0), n)
    labels = data.draw(
        st.sampled_from(
            [(), ("a",), ("a", "b", "c"), ('"q', "é"), (frozenset("r"), frozenset())]
        )
    )
    size = 1 << n
    entry = st.tuples(st.integers(-1, len(labels)), st.integers(-1, size))
    count = data.draw(st.sampled_from([size, size, size, max(size - 1, 0), size + 1]))
    rows = data.draw(st.lists(st.lists(entry, max_size=5), min_size=count, max_size=count))
    valid = count == size and all(
        0 <= label < len(labels) and 0 <= dst < size for row in rows for label, dst in row
    )
    if not valid:
        with pytest.raises(UsageError):
            TransitionRelation(table, labels, rows)
        return
    relation = TransitionRelation(table, labels, rows)
    state = table.state
    edges = frozenset(
        (state(src), labels[label], state(dst))
        for src, row in enumerate(rows)
        for label, dst in row
    )
    for style in STYLES:
        assert_renders_like_edges(relation, edges, style, "k")


def test_successors_rejects_a_state_of_another_table(pair):
    relation = TransitionRelation(pair, ("a",), [((0, 1),), (), (), ()])
    assert relation.successors(pair.state(0)) == frozenset({("a", pair.state(1))})
    for other in (VarTable.of("x", "z"), VarTable.of("x"), VarTable.of("x", "y", "z")):
        with pytest.raises(UsageError, match="different variable table"):
            relation.successors(other.state(0))


def test_unknown_style_and_colliding_label_key_are_usage_errors(pair):
    relation = TransitionRelation(pair, ("a",), [((0, 1),), (), (), ()])
    for style in ("Digits", "sets", "", None):
        for render in (relation.to_dot, relation.to_json_lines, relation.to_text):
            with pytest.raises(UsageError, match="unknown state style"):
                render(style)
    for key in ("src", "dst"):
        with pytest.raises(UsageError, match="overwrite"):
            relation.to_json_lines("digits", key)


def test_empty_relations_render_one_newline():
    for n in (0, 2):
        table = random_table(random.Random(n), n)
        relation = TransitionRelation(table, (), [()] * (1 << n))
        assert relation.edges == frozenset()
        for style in STYLES:
            assert relation.to_text(style) == relation.to_json_lines(style) == "\n"
            assert relation.to_dot(style) == "digraph transitions {\n}\n"
            assert_renders_like_edges(relation, frozenset(), style, "k")
