"""Mutated model files through the CLI command that reads each format.

Every model in `models/` is edited by inserting, deleting and duplicating
spans of text; whatever comes out, `cli.main` must return an exit code of
the 0-4 contract and never raise.  The solution document that
`cofase solve --format json` writes for models/ex32.cofase is edited the
same way and fed to `cofase verify`.  Line-structured text built from the
formats' keywords, names and operators goes straight to each reader, which
may only succeed or raise `ParseError`.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolps.bcn import parse_bcn_text
from boolps.bn import parse_bn_text, parse_mode_text
from boolps.boolp import parse_system_text
from boolps.cli import main
from boolps.cofase import parse_instance_text
from boolps.errors import ParseError
from boolps.formula import VarTable
from boolps.translate import parse_reactions_text

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


def run_main(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue()


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
        code, _out = run_main([*command, path])
    assert code in range(5), (code, text)


@pytest.fixture(scope="module")
def ex32_solution():
    code, out = run_main(["cofase", "solve", MODELS / "ex32.cofase", "--format", "json"])
    assert code == 0
    return out


@settings(max_examples=100, deadline=None)
@given(edits=EDITS)
def test_mutated_solution_verifies_within_contract(ex32_solution, edits):
    text = mutate(ex32_solution, edits)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "solution.json"
        path.write_text(text, encoding="utf-8")
        code, _out = run_main(["cofase", "verify", MODELS / "ex32.cofase", "--solution", path])
    assert code in range(5), (code, text)


# the keywords of every format, a few names, and the punctuation around them
TOKENS = st.sampled_from([
    "var", "control", "freeze", "alphabet", "quasimode", "advise", "species", "start",
    "target", "mode", "group", "reactants", "inhibitors", "products", "maxpar", "syn",
    "x", "y", "u_x0", "u_x1", "r1", "x'", "01", "{x}", "{}", "{", "}", ",", "=", "->",
    "|", "&", "!", "(", ")", ":", "0", "1", "#",
])
LINES = st.lists(st.lists(TOKENS, max_size=8).map(" ".join), max_size=6).map("\n".join)

READERS = {
    "bn": parse_bn_text,
    "bcn": parse_bcn_text,
    "pi": parse_system_text,
    "rs": parse_reactions_text,
    "cofase": parse_instance_text,
    "mode": lambda text: parse_mode_text(text, VarTable.of("x", "y")),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=200, deadline=None)
@given(text=LINES)
@example(text="var x\nfreeze x\nx' = x\nstart ,\ntarget {1}\n")
def test_reader_raises_only_parse_error(reader, text):
    with contextlib.suppress(ParseError):
        READERS[reader](text)
