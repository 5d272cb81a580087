"""Labelled transition relations over subsets of a variable table."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from .errors import UsageError
from .formula import StateSet, VarTable


def label_text(label) -> str:
    """Canonical rendering of an edge label (a variable group or a rule set)."""
    if isinstance(label, StateSet):
        return label.set_text()
    if isinstance(label, frozenset):
        return "{" + ", ".join(sorted(label)) + "}"
    return str(label)


def digit_order(n: int) -> list[int]:
    """The bit patterns over `n` variables sorted by digit string: the k-th
    is k with its n bits reversed, so ``order[bits]`` is also the rank of bits."""
    order = [0]
    for pos in reversed(range(n)):
        bit = 1 << pos
        order += [bits | bit for bits in order]
    return order


@dataclass(frozen=True)
class TransitionRelation:
    """Deduplicated labelled edges between the states of one table, held as ints.

    `labels` are the distinct labels, sorted by `label_text`.  ``rows[bits]``
    holds the edges leaving the state with those bits as ``(label index,
    destination bits)`` pairs, without repeats, sorted by label index and
    then by the destination's digits; a row given in another order is put
    in that order.  The renderers list sources in digit order, so their
    lines are sorted by (source digits, label text, destination digits).
    Each renderer returns its text, or, given a text stream `out`, writes it
    there one run of source states at a time (`_runs`) and returns None.
    It checks its arguments and builds the state and label texts before it
    writes anything.
    """

    table: VarTable
    labels: tuple
    rows: tuple  # rows[src bits] = ((label index, dst bits), ...)

    def __post_init__(self):
        n, labels = len(self.table), tuple(self.labels)
        size, count = 1 << n, len(labels)
        if len(self.rows) != size:
            raise UsageError(f"{n} variables need {size} relation rows, got {len(self.rows)}")
        texts = [label_text(label) for label in labels]
        if any(a >= b for a, b in zip(texts, texts[1:])):
            raise UsageError("relation labels must be distinct and sorted by their text")
        order = digit_order(n)
        rows = []
        for row in map(tuple, self.rows):
            canonical, last = True, -1
            for label, dst in row:
                if not (0 <= label < count and 0 <= dst < size):
                    raise UsageError(
                        f"edge ({label}, {dst}) is outside the relation's {count} labels"
                        f" or {size} states"
                    )
                key = label << n | order[dst]
                canonical, last = canonical and key > last, key
            if not canonical:
                row = tuple(sorted(set(row), key=lambda e: (e[0], order[e[1]])))
            rows.append(row)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "rows", tuple(rows))

    @classmethod
    def _canonical(cls, table: VarTable, labels, rows) -> TransitionRelation:
        """A relation from labels and rows already in canonical order, as the
        package's builders make them; unlike the constructor, it checks no edge."""
        relation = cls.__new__(cls)
        object.__setattr__(relation, "table", table)
        object.__setattr__(relation, "labels", tuple(labels))
        object.__setattr__(relation, "rows", tuple(rows))
        return relation

    @functools.cached_property
    def edges(self) -> frozenset:
        """The relation as ``(src StateSet, label, dst StateSet)`` triples."""
        state, labels = self.table.state, self.labels
        return frozenset(
            (state(src), labels[label], state(dst))
            for src, row in enumerate(self.rows)
            for label, dst in row
        )

    def successors(self, src: StateSet) -> frozenset:
        if src.table != self.table:
            raise UsageError("state over a different variable table")
        state, labels = self.table.state, self.labels
        return frozenset((labels[label], state(dst)) for label, dst in self.rows[src.bits])

    def _texts(self, style: str, quote=str):
        """State texts indexed by bits and label texts by index, through `quote`."""
        n = len(self.table)
        if style == "digits":
            # the digits of bits are its rank written in n binary digits
            states = [format(rank | 1 << n, "b")[1:] for rank in digit_order(n)]
        elif style == "set":
            members = [()]
            for name in self.table.names:
                members += [names + (name,) for names in members]
            states = ["{" + ", ".join(names) + "}" for names in members]
        else:
            raise UsageError(f"unknown state style {style!r}; expected 'digits' or 'set'")
        return list(map(quote, states)), [quote(label_text(label)) for label in self.labels]

    def _runs(self):
        """The source states in digit order, in runs of 2^(n//2) states: one
        chunk of output per run keeps both the chunks and the number of
        writes near the square root of the state count."""
        order = digit_order(len(self.table))
        step = 1 << len(self.table) // 2
        return [order[i:i + step] for i in range(0, len(order), step)]

    def to_dot(self, style: str = "digits", out=None) -> str | None:
        states, labels = self._texts(style)
        rows = self.rows
        targets = {dst for row in rows for _label, dst in row}
        runs = self._runs()

        def chunks():
            yield "digraph transitions {\n"
            for run in runs:
                yield "".join([
                    f'  "{states[bits]}";\n' for bits in run if rows[bits] or bits in targets
                ])
            for run in runs:
                yield "".join([
                    f'  "{states[src]}" -> "{states[dst]}" [label="{labels[label]}"];\n'
                    for src in run
                    for label, dst in rows[src]
                ])
            yield "}\n"

        return _deliver(chunks(), out)

    def to_json_lines(
        self, style: str = "digits", label_key: str = "label", out=None
    ) -> str | None:
        if label_key in ("src", "dst"):
            raise UsageError(f"label key {label_key!r} would overwrite an endpoint")
        # json.dumps of the three-key dict, with each text quoted once
        states, labels = self._texts(style, json.dumps)
        rows = self.rows
        key = json.dumps(label_key)

        def chunks():
            for run in self._runs():
                yield "".join([
                    f'{{"src": {states[src]}, {key}: {labels[label]}, "dst": {states[dst]}}}\n'
                    for src in run
                    for label, dst in rows[src]
                ])
            if not any(rows):
                yield "\n"

        return _deliver(chunks(), out)

    def to_text(self, style: str = "digits", out=None) -> str | None:
        states, labels = self._texts(style)
        rows = self.rows

        def chunks():
            for run in self._runs():
                yield "".join([
                    f"{states[src]} --{labels[label]}--> {states[dst]}\n"
                    for src in run
                    for label, dst in rows[src]
                ])
            if not any(rows):
                yield "\n"

        return _deliver(chunks(), out)


def _deliver(chunks, out):
    """Write the text chunks to the stream `out`, or return them joined when it is None."""
    if out is None:
        return "".join(chunks)
    out.writelines(chunks)
