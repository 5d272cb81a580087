"""Direct-engine and network-graph outputs pinned byte for byte.

`direct_goldens.json` holds, per case, what the direct engine gives on a
seeded random instance or on models/ex32.cofase: the solution JSON, the
mode elements labelling each witness step, and the frontier of a failed
search.  It also holds the `bn transitions` and `bn attractors` text of
seeded random networks under syn, asyn and a random mode.
`composite_solve_goldens.json` holds the composite engine's solution JSON on
the same instances.  Regenerate both with
``PYTHONPATH=src python tests/test_direct_goldens.py`` only for an intended
change of output.
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest

from boolps.bcn import freeze_extend
from boolps.bn import BooleanMode
from boolps.cli import main
from boolps.cofase import (
    CoFaSeInstance,
    parse_instance_text,
    solution_to_json,
    solve_cofase,
    solve_cofase_via_composite,
)
from boolps.generators import random_mode, random_network, random_subset, random_table

HERE = Path(__file__).resolve().parent
MODELS = HERE.parent / "models"
GOLDENS = HERE / "direct_goldens.json"
COMPOSITE_GOLDENS = HERE / "composite_solve_goldens.json"


def _random_instance(rng):
    """1-3 variables, freeze controls on a random subset of them, syn, asyn
    or a random mode, 1-3 starts and 1-2 targets."""
    table = random_table(rng, rng.randint(1, 3))
    controllable = [name for name in table.names if rng.random() < 0.6]
    bcn = freeze_extend(random_network(rng, table), variables=controllable)
    kind = rng.choice(["syn", "asyn", "random"])
    mode = {
        "syn": BooleanMode.syn,
        "asyn": BooleanMode.asyn,
        "random": lambda t: random_mode(rng, t),
    }[kind](table)
    starts = [random_subset(rng, table) for _ in range(rng.randint(1, 3))]
    targets = [random_subset(rng, table) for _ in range(rng.randint(1, 2))]
    return CoFaSeInstance.of(bcn, starts, targets, mode), rng.randint(1, 3)


def _instances():
    rng = random.Random(8080)
    for index in range(200):
        yield f"random-{index:03d}", *_random_instance(rng)
    yield "ex32", parse_instance_text((MODELS / "ex32.cofase").read_text()), 3


def _solve_record(instance, max_phases, policy, min_steps):
    result = solve_cofase(instance, max_phases, policy, min_steps)
    return {
        "json": json.loads(solution_to_json(result)),
        "labels": [
            [element.set_text() for element in witness.trajectory.labels]
            for witness in result.witnesses
        ] if result else None,
        "frontier": None if result else list(result.frontier),
    }


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    return f"{code}\n{out.getvalue()}"


def _network_records(workdir: Path):
    rng = random.Random(9090)
    records = {}
    for index in range(50):
        table = random_table(rng, rng.randint(1, 4))
        model = workdir / f"net{index}.bn"
        network = random_network(rng, table)
        updates = "".join(f"{n}' = {u.to_text()}\n" for n, u in zip(table.names, network.updates))
        model.write_text(f"var {', '.join(table.names)}\n{updates}")
        groups = random_mode(rng, table).sorted_elements()
        mode_file = workdir / f"net{index}.mode"
        mode_file.write_text("".join(f"group {group.set_text()}\n" for group in groups))
        for mode in ("syn", "asyn", mode_file):
            label = mode if isinstance(mode, str) else "random"
            for command in ("transitions", "attractors"):
                records[f"bn-{index:02d}/{label}/{command}"] = _cli(
                    "bn", command, model, "--mode", mode
                )
    return records


def _direct_records():
    records = {}
    for name, instance, max_phases in _instances():
        for policy in ("uniform", "per-start"):
            for min_steps in (0, 1):
                records[f"{name}/{policy}/{min_steps}"] = _solve_record(
                    instance, max_phases, policy, min_steps
                )
    return records


def _composite_records():
    records = {}
    for name, instance, _max_phases in _instances():
        for max_phases in (None, 1, 2):
            result = solve_cofase_via_composite(instance, max_steps=6, max_phases=max_phases)
            records[f"composite/{name}/{max_phases}"] = json.loads(solution_to_json(result))
    return records


def _all_records():
    with tempfile.TemporaryDirectory() as workdir:
        return {**_direct_records(), **_network_records(Path(workdir))}


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text())


def _assert_same(got, expected):
    assert sorted(got) == sorted(expected)
    for key, record in got.items():
        # dumped, so that the order of the document's keys counts too
        assert json.dumps(record) == json.dumps(expected[key]), key


def test_direct_solves_match_goldens(goldens):
    got = _direct_records()
    assert len(got) == 4 * 201
    _assert_same(got, {key: value for key, value in goldens.items() if not key.startswith("bn-")})


def test_network_text_matches_goldens(goldens, tmp_path):
    got = _network_records(tmp_path)
    _assert_same(got, {key: value for key, value in goldens.items() if key.startswith("bn-")})


def test_composite_solves_match_goldens():
    got = _composite_records()
    assert len(got) == 3 * 201
    _assert_same(got, json.loads(COMPOSITE_GOLDENS.read_text()))


def _write(path: Path, records: dict):
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(records.items())]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    _write(GOLDENS, _all_records())
    _write(COMPOSITE_GOLDENS, _composite_records())
