"""Propositional formulas over an interned variable table.

Variables are interned once per model into a :class:`VarTable`; subsets of
the table double as Boolean states via their indicator functions
(:class:`StateSet`).  Formulas are immutable ASTs evaluated against such
subsets.  Everything here is pure and hashable, so values can be shared
freely and used as dict keys.

The concrete grammar for formulas is::

    disj  := conj ('|' conj)*
    conj  := unary ('&' unary)*
    unary := '!' unary | atom
    atom  := '(' disj ')' | '0' | '1' | identifier

with precedence ``!`` > ``&`` > ``|``.  Serialization emits the same
grammar with parentheses only where needed.
"""

from __future__ import annotations

import contextlib
import functools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import ParseError, UsageError, ValidationError
from .limits import check_enumerable

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Deepest accepted nesting of `!` and `(` in formula text.  Parsing,
# substitution and structural equality each take up to four frames per
# level, so an accepted formula, plus the few levels the encodings wrap
# around it, needs about 410 frames: well below Python's default recursion
# limit of 1000, with room for the caller's own frames.
MAX_NESTING = 100


class VarTable:
    """Ordered, interned alphabet of distinct variable names.

    Positions are assigned in declaration order and never change; all
    subsets and formulas over the table address variables by position.
    """

    __slots__ = ("names", "_index", "_hash", "_states")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        index = {}
        for pos, name in enumerate(names):
            if not name or not _IDENT_RE.fullmatch(name):
                raise ValidationError(f"invalid variable name {name!r}")
            if name in index:
                raise ValidationError(f"duplicate variable name {name!r}")
            index[name] = pos
        self.names = names
        self._index = index
        self._hash = hash(names)
        self._states = {}  # bits -> StateSet, interned lazily

    @classmethod
    def of(cls, *names: str) -> "VarTable":
        return cls(names)

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __contains__(self, name):
        return name in self._index

    def __eq__(self, other):
        return isinstance(other, VarTable) and self.names == other.names

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt from the names: the cached hash is seeded per process
        return VarTable, (self.names,)

    def __repr__(self):
        return f"VarTable({', '.join(self.names)})"

    def position(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UsageError(f"unknown variable {name!r}") from None

    def name(self, position: int) -> str:
        return self.names[position]

    def state(self, bits: int) -> "StateSet":
        """Interned StateSet for a bit pattern (bit i set = variable i present)."""
        got = self._states.get(bits)
        if got is None:
            got = StateSet(self, bits)
            self._states[bits] = got
        return got

    def subsets(self) -> Iterator["StateSet"]:
        """All 2**n subsets in ascending bit order.  Callers enforce caps."""
        for bits in range(1 << len(self.names)):
            yield self.state(bits)


def merge_tables(a: VarTable, b: VarTable):
    """Merge two tables by name.

    Returns ``(merged, map_a, map_b)`` where the maps send old positions to
    positions in the merged table.  Names of `a` keep their order; names
    only in `b` follow in `b`'s order.
    """
    names = list(a.names)
    for name in b.names:
        if name not in a:
            names.append(name)
    merged = VarTable(names)
    map_a = {i: merged.position(n) for i, n in enumerate(a.names)}
    map_b = {i: merged.position(n) for i, n in enumerate(b.names)}
    return merged, map_a, map_b


class StateSet:
    """Subset of a VarTable, read as the indicator function of a Boolean state.

    `bits` has bit ``i`` set iff variable ``i`` is a member.  The canonical
    display order puts the lowest-position variable first, so the digit
    string of ``{y}`` over ``(x, y)`` is ``01``.
    """

    __slots__ = ("table", "bits", "_hash", "_digits", "_set_text")

    def __init__(self, table: VarTable, bits: int):
        if bits < 0 or bits >> len(table):
            raise ValidationError(f"bit pattern {bits:#x} out of range for {table!r}")
        self.table = table
        self.bits = bits
        self._hash = table._hash ^ hash(bits)
        self._digits = None
        self._set_text = None

    @classmethod
    def of(cls, table: VarTable, names: Iterable[str] = ()) -> "StateSet":
        bits = 0
        for name in names:
            bits |= 1 << table.position(name)
        return table.state(bits)

    @classmethod
    def empty(cls, table: VarTable) -> "StateSet":
        return table.state(0)

    @classmethod
    def full(cls, table: VarTable) -> "StateSet":
        return table.state((1 << len(table)) - 1)

    @classmethod
    def from_digits(cls, table: VarTable, text: str) -> "StateSet":
        if len(text) != len(table) or any(c not in "01" for c in text):
            raise ValidationError(
                f"digit state {text!r} does not match table of {len(table)} variables"
            )
        bits = 0
        for pos, c in enumerate(text):
            if c == "1":
                bits |= 1 << pos
        return table.state(bits)

    def _check(self, other: "StateSet"):
        if self.table != other.table:
            raise UsageError("state sets belong to different variable tables")

    def __eq__(self, other):
        return (
            isinstance(other, StateSet)
            and self.bits == other.bits
            and self.table == other.table
        )

    def __hash__(self):
        return self._hash

    def __len__(self):
        return bin(self.bits).count("1")

    def __iter__(self):
        for pos, name in enumerate(self.table.names):
            if self.bits >> pos & 1:
                yield name

    def __contains__(self, name):
        return bool(self.bits >> self.table.position(name) & 1)

    def __or__(self, other):
        self._check(other)
        return self.table.state(self.bits | other.bits)

    def __and__(self, other):
        self._check(other)
        return self.table.state(self.bits & other.bits)

    def __sub__(self, other):
        self._check(other)
        return self.table.state(self.bits & ~other.bits)

    def __le__(self, other):
        self._check(other)
        return self.bits & ~other.bits == 0

    def names(self) -> tuple[str, ...]:
        return tuple(self)

    def digits(self) -> str:
        if self._digits is None:
            # the binary numeral read backwards, past a guard bit above the
            # table that keeps the leading zeros
            self._digits = format(self.bits | 1 << len(self.table), "b")[:0:-1]
        return self._digits

    def set_text(self) -> str:
        if self._set_text is None:
            self._set_text = "{" + ", ".join(self) + "}"
        return self._set_text

    def sort_key(self):
        # lowest position = most significant digit, matching digit display
        return self.digits()

    def remap(self, table: VarTable, position_map: Mapping[int, int]) -> "StateSet":
        bits = 0
        for pos in range(len(self.table)):
            if self.bits >> pos & 1:
                bits |= 1 << position_map[pos]
        return table.state(bits)

    def __reduce__(self):
        # interned in the rebuilt table, with that process's hash
        return VarTable.state, (self.table, self.bits)

    def __repr__(self):
        return f"StateSet({self.set_text()})"

    def __str__(self):
        return self.set_text()


def parse_state(table: VarTable, text: str) -> StateSet:
    """Parse a state literal, either digit notation `01` or set notation `{a,b}`."""
    text = text.strip()
    if text.startswith("{"):
        if not text.endswith("}"):
            raise ParseError(f"unterminated set literal {text!r}")
        inner = text[1:-1].strip()
        names = [n.strip() for n in inner.split(",")] if inner else []
        try:
            return StateSet.of(table, names)
        except UsageError as exc:
            raise ParseError(str(exc)) from None
    if text and all(c in "01" for c in text):
        try:
            return StateSet.from_digits(table, text)
        except ValidationError as exc:
            raise ParseError(str(exc)) from None
    raise ParseError(f"cannot read state literal {text!r}")


# --- model text skeleton ---------------------------------------------------


def _split_names(text: str) -> list[str]:
    """Names of a comma-separated list, blanks dropped."""
    return [n.strip() for n in text.split(",") if n.strip()]


class _Lines:
    """Declaration lines of one model text, the skeleton every reader shares.

    `#` starts a comment and blank lines are skipped.  A line whose first
    word is one of `names` adds its comma-separated names to that keyword's
    list; one whose first word is one of `values` sets that keyword's value,
    at most once.  Every other line is kept in `rest`, with its number, for
    the format's own syntax.
    """

    def __init__(self, text: str, names=(), values=(), source=None):
        self.source = source
        self.raw = text.splitlines()
        self.names = {keyword: [] for keyword in names}
        self.values = {}  # keyword -> (text, line number)
        self.rest = []  # (stripped line, line number)
        for lineno, raw in enumerate(self.raw, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            keyword, _, tail = line.partition(" ")
            if keyword in self.names:
                self.names[keyword].extend(_split_names(tail))
            elif keyword in values:
                self.once(self.values, keyword, tail.strip(), lineno, f"`{keyword}` line")
            else:
                self.rest.append((line, lineno))

    def once(self, store: dict, key, value, lineno: int, what: str):
        """Record `value` under `key`; a second one is an error naming both lines."""
        if key in store:
            raise self.error(
                f"duplicate {what} on lines {store[key][1]} and {lineno}", line=lineno
            )
        store[key] = (value, lineno)

    def error(self, message: str, line=None) -> ParseError:
        return ParseError(message, line=line, source=self.source)

    def unreadable(self, lineno: int) -> ParseError:
        return self.error(f"cannot read line {self.raw[lineno - 1]!r}", line=lineno)

    @contextlib.contextmanager
    def at(self, lineno=None):
        """Report a model error raised inside the block at `lineno` of this text."""
        try:
            yield
        except ParseError as exc:
            raise ParseError(
                exc.message, offset=exc.offset, line=lineno, source=self.source
            ) from None
        except (UsageError, ValidationError) as exc:
            raise self.error(str(exc), line=lineno) from None


# --- formula AST ------------------------------------------------------------


class Node:
    """Base class for AST nodes.

    Each node is checked, and its hash and span (one more than its largest
    variable position, 0 without variables) computed, once when it is
    built, from its children's.  The hash mixes only ints (a tag per node
    kind, positions, truth values and the children's hashes), never a
    `type()` or `id()`, so a node pickled into another process still hashes
    like the equal nodes built there.
    """

    __slots__ = ()

    def __hash__(self):
        return self._hash

    def _seal(self, tag: int, key, span: int):
        object.__setattr__(self, "_hash", hash((tag, key)))
        object.__setattr__(self, "_span", span)


def _node(cls):
    """A frozen dataclass node keeping `Node`'s cached hash."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = Node.__hash__
    return cls


def _check_children(children):
    for child in children:
        if not isinstance(child, Node):
            raise ValidationError(f"unknown formula node {child!r}")
    return max((child._span for child in children), default=0)


@_node
class Const(Node):
    value: bool

    def __post_init__(self):
        self._seal(0, self.value, 0)


@_node
class Var(Node):
    position: int

    def __post_init__(self):
        if not isinstance(self.position, int) or self.position < 0:
            raise ValidationError(f"variable position {self.position!r} out of range")
        self._seal(1, self.position, self.position + 1)


@_node
class Not(Node):
    child: Node

    def __post_init__(self):
        self._seal(2, self.child, _check_children((self.child,)))


@_node
class And(Node):
    children: tuple[Node, ...]

    def __post_init__(self):
        self._seal(3, self.children, _check_children(self.children))


@_node
class Or(Node):
    children: tuple[Node, ...]

    def __post_init__(self):
        self._seal(4, self.children, _check_children(self.children))


CONST0 = Const(False)
CONST1 = Const(True)


def _eval_node(node: Node, bits: int) -> bool:
    if isinstance(node, Var):
        return bool(bits >> node.position & 1)
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Not):
        return not _eval_node(node.child, bits)
    if isinstance(node, And):
        return all(_eval_node(c, bits) for c in node.children)
    return any(_eval_node(c, bits) for c in node.children)


def _vars_of(node: Node, acc: set):
    if isinstance(node, Var):
        acc.add(node.position)
    elif isinstance(node, Not):
        _vars_of(node.child, acc)
    elif isinstance(node, (And, Or)):
        for child in node.children:
            _vars_of(child, acc)


# folded smart constructors, used by substitution and the construction helpers

def _not(node: Node) -> Node:
    if isinstance(node, Const):
        return CONST0 if node.value else CONST1
    if isinstance(node, Not):
        return node.child
    return Not(node)


def _nary(cls, absorbing: Const, neutral: Const, nodes) -> Node:
    flat = []
    seen = set()
    for node in nodes:
        if isinstance(node, cls):
            inner = node.children
        else:
            inner = (node,)
        for child in inner:
            if child == absorbing:
                return absorbing
            if child == neutral or child in seen:
                continue
            seen.add(child)
            flat.append(child)
    if not flat:
        return neutral
    if len(flat) == 1:
        return flat[0]
    return cls(tuple(flat))


def _and(nodes) -> Node:
    return _nary(And, CONST0, CONST1, nodes)


def _or(nodes) -> Node:
    return _nary(Or, CONST1, CONST0, nodes)


@dataclass(frozen=True)
class Formula:
    """A propositional formula tied to the table its variables live in."""

    table: VarTable
    root: Node

    def __post_init__(self):
        span = _check_children((self.root,))
        if span > len(self.table):
            raise ValidationError(f"variable position {span - 1} out of range")

    # -- constructors

    @classmethod
    def const(cls, table: VarTable, value) -> "Formula":
        return cls(table, CONST1 if value else CONST0)

    @classmethod
    def var(cls, table: VarTable, name: str) -> "Formula":
        return cls(table, Var(table.position(name)))

    # -- combinators (constant-folding, flattening)

    def negate(self) -> "Formula":
        return Formula(self.table, _not(self.root))

    def _align(self, others):
        for other in others:
            if other.table != self.table:
                raise UsageError("formulas belong to different variable tables")
        return [self.root] + [o.root for o in others]

    def conj(self, *others: "Formula") -> "Formula":
        return Formula(self.table, _and(self._align(others)))

    def disj(self, *others: "Formula") -> "Formula":
        return Formula(self.table, _or(self._align(others)))

    # -- semantics

    def evaluate(self, state: StateSet) -> bool:
        """Truth value at `state`: members read 1, non-members read 0."""
        if state.table is not self.table and state.table != self.table:
            raise UsageError("formula and state belong to different variable tables")
        return self._compiled(state.bits)

    def evaluator(self, table: VarTable):
        """`evaluate` as a function of the state bits over `table`, for a
        caller that evaluates at many states: the table is checked here,
        once, and the function is `_compiled`."""
        if table is not self.table and table != self.table:
            raise UsageError("formula and state belong to different variable tables")
        return self._compiled

    @functools.cached_property
    def _compiled(self):
        """`evaluate`'s function of the state bits, compiled from the AST.

        A cache scoped to this formula: built on first use and kept as long
        as the formula.  The source is built from node types and int
        positions only, never from input text, and runs with `bool` as its
        only builtin.  A formula too deep for CPython's parser or compiler
        (200 nested parentheses; deeper chains without them raise
        RecursionError or MemoryError there) falls back to `_eval_node`,
        which stays the reference.
        """
        try:
            source = _render(self.root, _bit_read, _PYTHON_WORDS, 0)
            return eval("lambda b: bool(" + source + ")", {"__builtins__": {"bool": bool}})
        except (SyntaxError, RecursionError, MemoryError):
            return functools.partial(_eval_node, self.root)

    def __getstate__(self):
        # the fields only: a compiled function cannot be pickled, and
        # `_compiled` is rebuilt on first use
        return {"table": self.table, "root": self.root}

    def variables(self) -> frozenset[str]:
        """Names actually mentioned by the formula."""
        acc: set = set()
        _vars_of(self.root, acc)
        return frozenset(self.table.name(p) for p in acc)

    def substitute(self, values: Mapping[str, bool]) -> "Formula":
        """Replace variables by constants and fold the result."""
        positions = {self.table.position(n): bool(v) for n, v in values.items()}

        def rec(node: Node) -> Node:
            if isinstance(node, Var):
                if node.position in positions:
                    return CONST1 if positions[node.position] else CONST0
                return node
            if isinstance(node, Const):
                return node
            if isinstance(node, Not):
                return _not(rec(node.child))
            if isinstance(node, And):
                return _and(rec(c) for c in node.children)
            return _or(rec(c) for c in node.children)

        return Formula(self.table, rec(self.root))

    def remap(self, table: VarTable, position_map: Mapping[int, int]) -> "Formula":
        """Re-intern into another table via a position-to-position map."""

        def rec(node: Node) -> Node:
            if isinstance(node, Var):
                return Var(position_map[node.position])
            if isinstance(node, Const):
                return node
            if isinstance(node, Not):
                return Not(rec(node.child))
            if isinstance(node, And):
                return And(tuple(rec(c) for c in node.children))
            return Or(tuple(rec(c) for c in node.children))

        return Formula(table, rec(self.root))

    # -- text form

    def to_text(self) -> str:
        """Canonical text: `!`, `&`, `|`, parentheses only where precedence needs them."""
        return _render(self.root, self.table.names.__getitem__, _TEXT_WORDS, 0)

    def __str__(self):
        return self.to_text()


# How each node type is spelled, as (false, true, negation, conjunction,
# disjunction).  Python's `or` < `and` < `not` < `&` order the same way as
# the formula grammar, so one renderer serves both.
_TEXT_WORDS = ("0", "1", "!", " & ", " | ")
_PYTHON_WORDS = ("False", "True", "not ", " and ", " or ")


def _bit_read(position: int) -> str:
    return f"b >> {int(position)} & 1"


def _render(node: Node, var, words, required: int) -> str:
    """`node` spelled with `words`, variables by `var(position)`; an empty
    conjunction or disjunction is its neutral constant."""
    false, true, negation, conjunction, disjunction = words
    # precedence: Or 1, And 2, Not 3, atoms 4
    if isinstance(node, Const):
        text, prec = (true if node.value else false), 4
    elif isinstance(node, Var):
        text, prec = var(node.position), 4
    elif isinstance(node, Not):
        text, prec = negation + _render(node.child, var, words, 3), 3
    elif isinstance(node, And):
        text = conjunction.join(_render(c, var, words, 3) for c in node.children) or true
        prec = 2
    else:
        text = disjunction.join(_render(c, var, words, 2) for c in node.children) or false
        prec = 1
    if prec < required:
        return "(" + text + ")"
    return text


# --- parsing ----------------------------------------------------------------

_TOKEN_RE = re.compile(r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[!&|()01])")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", offset=pos)
        if m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append((m.group("op"), m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, table: VarTable):
        self.text = text
        self.table = table
        self.tokens = _tokenize(text)
        self.at = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.at]

    def advance(self):
        token = self.tokens[self.at]
        self.at += 1
        return token

    def enter(self, token):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"formula nested deeper than {MAX_NESTING} levels", offset=token[2]
            )

    def expect(self, kind: str):
        token = self.advance()
        if token[0] != kind:
            raise ParseError(
                f"expected {kind!r}, found {token[1] or 'end of input'!r}",
                offset=token[2],
            )
        return token

    def parse(self) -> Node:
        node = self.disj()
        token = self.peek()
        if token[0] != "end":
            raise ParseError(f"trailing input {token[1]!r}", offset=token[2])
        return node

    def disj(self) -> Node:
        parts = [self.conj()]
        while self.peek()[0] == "|":
            self.advance()
            parts.append(self.conj())
        if len(parts) == 1:
            return parts[0]
        flat = []
        for part in parts:  # keep chains n-ary and flat
            flat.extend(part.children if isinstance(part, Or) else (part,))
        return Or(tuple(flat))

    def conj(self) -> Node:
        parts = [self.unary()]
        while self.peek()[0] == "&":
            self.advance()
            parts.append(self.unary())
        if len(parts) == 1:
            return parts[0]
        flat = []
        for part in parts:
            flat.extend(part.children if isinstance(part, And) else (part,))
        return And(tuple(flat))

    def unary(self) -> Node:
        token = self.peek()
        if token[0] == "!":
            self.enter(self.advance())
            node = Not(self.unary())
            self.depth -= 1
            return node
        return self.atom()

    def atom(self) -> Node:
        token = self.advance()
        kind, text, offset = token
        if kind == "(":
            self.enter(token)
            node = self.disj()
            self.expect(")")
            self.depth -= 1
            return node
        if kind == "0":
            return CONST0
        if kind == "1":
            return CONST1
        if kind == "ident":
            if text not in self.table:
                raise ParseError(f"unknown identifier {text!r}", offset=offset)
            return Var(self.table.position(text))
        raise ParseError(
            f"expected a formula, found {text or 'end of input'!r}", offset=offset
        )


def parse_formula(text: str, table: VarTable) -> Formula:
    """Parse a formula over `table`; syntax errors carry a byte offset.

    Nesting deeper than MAX_NESTING levels (each `!` and each `(` is one)
    is a syntax error at the offset of the token that crosses it.
    """
    return Formula(table, _Parser(text, table).parse())


# --- exhaustive semantics ---------------------------------------------------


def truth_patterns(n: int) -> list[int]:
    """Truth tables of the n variables over all 2**n states, by doubling:
    bit `b` of pattern `i` is bit `i` of `b`."""
    patterns = []
    width = 1  # states covered so far
    for _ in range(n):
        patterns = [p | p << width for p in patterns]
        patterns.append(((1 << width) - 1) << width)
        width <<= 1
    return patterns


def _table_node(node: Node, patterns: list[int], full: int) -> int:
    if isinstance(node, Var):
        return patterns[node.position]
    if isinstance(node, Const):
        return full if node.value else 0
    if isinstance(node, Not):
        return _table_node(node.child, patterns, full) ^ full
    if isinstance(node, And):
        out = full
        for child in node.children:
            out &= _table_node(child, patterns, full)
        return out
    out = 0
    for child in node.children:
        out |= _table_node(child, patterns, full)
    return out


def fold_truth_table(formula: Formula, patterns: list[int]) -> int:
    """The formula's truth table from its table's `truth_patterns`: one
    bitwise operation per AST node, all states at once."""
    if len(patterns) != len(formula.table):
        raise UsageError("patterns and formula have different numbers of variables")
    return _table_node(formula.root, patterns, (1 << (1 << len(patterns))) - 1)


def truth_columns(tables: list[int], n: int) -> list[int]:
    """Truth tables over n variables read state by state: bit k of
    ``out[b]`` is bit b of ``tables[k]``, for each of the 2**n states b."""
    if not tables:
        return [0] * (1 << n)
    # column j of the binary digits, highest table first, is the mask at
    # state 2**n - 1 - j
    rows = [format(table, f"0{1 << n}b") for table in reversed(tables)]
    masks = [int("".join(column), 2) for column in zip(*rows)]
    masks.reverse()
    return masks


def truth_bitmask(formula: Formula) -> int:
    """Bitmask over all 2**n states: bit `b` set iff the state with bits `b` satisfies."""
    n = check_enumerable(len(formula.table), "formula table")
    return fold_truth_table(formula, truth_patterns(n))


def equivalent(a: Formula, b: Formula) -> bool:
    """Truth-table equality of two formulas over the same table."""
    if a.table != b.table:
        raise UsageError("formulas belong to different variable tables")
    return truth_bitmask(a) == truth_bitmask(b)
