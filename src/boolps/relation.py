"""Labelled transition relations over subsets of a variable table."""

from __future__ import annotations

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


@dataclass(frozen=True)
class TransitionRelation:
    """Deduplicated set of labelled edges between states of one universe."""

    table: VarTable
    edges: frozenset  # of (src: StateSet, label, dst: StateSet)

    def __post_init__(self):
        for src, _label, dst in self.edges:
            if src.table != self.table or dst.table != self.table:
                raise UsageError("edge endpoints do not live in the relation's table")

    def sorted_edges(self):
        return sorted(
            self.edges, key=lambda e: (e[0].sort_key(), label_text(e[1]), e[2].sort_key())
        )

    def successors(self, src: StateSet):
        return frozenset((label, dst) for s, label, dst in self.edges if s == src)

    def state_text(self, state: StateSet, style: str = "digits") -> str:
        return state.digits() if style == "digits" else state.set_text()

    def to_dot(self, style: str = "digits", graph_name: str = "transitions") -> str:
        lines = [f"digraph {graph_name} {{"]
        states = sorted(
            {s for e in self.edges for s in (e[0], e[2])}, key=StateSet.sort_key
        )
        for state in states:
            lines.append(f'  "{self.state_text(state, style)}";')
        for src, label, dst in self.sorted_edges():
            lines.append(
                f'  "{self.state_text(src, style)}" -> "{self.state_text(dst, style)}"'
                f' [label="{label_text(label)}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_lines(self, style: str = "digits", label_key: str = "label") -> str:
        lines = []
        for src, label, dst in self.sorted_edges():
            lines.append(
                json.dumps(
                    {
                        "src": self.state_text(src, style),
                        label_key: label_text(label),
                        "dst": self.state_text(dst, style),
                    }
                )
            )
        return "\n".join(lines) + "\n"

    def to_text(self, style: str = "digits") -> str:
        lines = []
        for src, label, dst in self.sorted_edges():
            lines.append(
                f"{self.state_text(src, style)} --{label_text(label)}--> "
                f"{self.state_text(dst, style)}"
            )
        return "\n".join(lines) + "\n"
