"""Mutated model files through the CLI command that reads each format.

Every model in `models/` is edited by inserting, deleting and duplicating
spans of text; whatever comes out, `cli.main` must return an exit code of
the 0-4 contract and never raise.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolps.cli import main

MODELS = Path(__file__).resolve().parent.parent / "models"

COMMANDS = {
    ".bn": [["bn", "transitions"]],
    ".bcn": [["compose"]],
    ".pi": [["pi", "transitions", "--mode", "maxpar"]],
    ".rs": [["check", "rs-embed"]],
    ".cofase": [["cofase", "solve"], ["cofase", "solve", "--engine", "composite"]],
}

CASES = [
    (model.name, command)
    for model in sorted(MODELS.iterdir())
    for command in COMMANDS[model.suffix]
]

# the characters the readers give meaning to, plus a few they never expect
INSERTED = st.text(
    alphabet="abcuxyz01_ ,;:{}()!&|^'=->#\n\té\x00",
    min_size=1,
    max_size=8,
)

EDITS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "duplicate"]),
        st.floats(0, 1),
        st.integers(1, 12),
        INSERTED,
    ),
    min_size=1,
    max_size=4,
)


def mutate(text: str, edits) -> str:
    for kind, where, length, inserted in edits:
        pos = int(where * len(text))
        if kind == "insert":
            text = text[:pos] + inserted + text[pos:]
        elif kind == "delete":
            text = text[:pos] + text[pos + length:]
        else:
            span = text[pos:pos + length]
            text = text[:pos] + span + text[pos:]
    return text


def test_every_model_has_a_reading_command():
    assert {model.suffix for model in MODELS.iterdir()} <= set(COMMANDS)


@pytest.mark.parametrize(
    "model, command", CASES, ids=[f"{m}-{'-'.join(c)}" for m, c in CASES]
)
@settings(max_examples=40, deadline=None)
@given(edits=EDITS)
def test_mutated_model_exits_within_contract(model, command, edits):
    text = mutate((MODELS / model).read_text(), edits)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / model
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, str(path)])
    assert code in range(5), (code, text)
