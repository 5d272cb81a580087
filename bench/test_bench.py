"""Tests of the benchmark harness itself.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_program()

import boolps  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from boolps import boolp, cofase, equivalence  # noqa: E402


def package_classes():
    return [value for module in tracing.package_modules() for value in vars(module).values()
            if isinstance(value, type) and value.__module__.startswith("boolps")]


def every_binding():
    """(owner, name, value) for every module and class attribute of the package."""
    owners = tracing.package_modules() + package_classes()
    return [(owner, name, value) for owner in owners for name, value in vars(owner).items()]


def originals():
    return {name: vars(owner)[attribute]
            for name, (owner, attribute, _hot) in tracing.TARGETS.items()}


def test_successors_is_bound_in_four_modules():
    places = {(m.__name__, name) for m, name in tracing.bindings(boolp.successors)}
    assert places == {
        ("boolps", "successors"),
        ("boolps.boolp", "successors"),
        ("boolps.equivalence", "successors"),
        ("boolps.cofase", "boolp_successors"),
    }


def test_install_replaces_every_binding_and_uninstall_restores_them():
    before = every_binding()
    targets = originals()
    wrapped = {id(f) for f in targets.values()}
    tracer = tracing.Tracer()
    with tracer.installed():
        leftover = [(getattr(o, "__name__", o), n) for o, n, v in every_binding()
                    if id(v) in wrapped]
        assert leftover == []
        assert equivalence.successors is cofase.boolp_successors is boolps.successors
        assert boolp.BooleanPSystem.applicable_rules is not targets["boolp.applicable_rules"]
    assert every_binding() == before
    assert not any(getattr(v, "__wrapped_by_tracer__", False) for _o, _n, v in every_binding())


@pytest.fixture(scope="module")
def rounds():
    """One plain and one traced round of every workload on the default seed."""
    out = {}
    for workload in run.WORKLOADS:
        workdir = run.WORK / f"test-{workload}"
        try:
            ops = workloads.build(workload, run.DEFAULT_SEED, workdir)
            calls = [op.prepare() for op in ops]
            out[workload] = run.run_rounds(ops, calls, 0, tracing.Tracer(), lambda line: None)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return out


def test_tracing_changes_no_output(rounds):
    golden = json.loads(run.GOLDEN.read_text())
    for workload, record in rounds.items():
        assert record["rounds"] == 2
        # every operation's traced output matched its plain output
        assert record["failed"] == 0, workload
        assert record["digests"] == golden[workload], workload


def test_traced_rounds_report_every_layer_metric(rounds):
    for record in rounds.values():
        (layers,) = record["layers"]
        assert list(layers) == [name for name, _unit in tracing.METRICS]


def test_workloads_isolate_their_layers(rounds):
    direct = rounds["solve-direct"]["layers"][0]
    assert direct["bn.bn_step.calls"] > 0 and direct["bcn.apply_control.calls"] > 0
    assert all(value == 0 for name, value in direct.items() if name.startswith("boolp."))
    embed = rounds["embed"]["layers"][0]
    assert embed["boolp.successors.calls"] > 0
    assert embed["bn.bn_step.calls"] == 0
    assert embed["bcn.apply_control.calls"] == 0


def test_wrong_expected_verdict_counts_as_failure():
    workdir = run.WORK / "test-wrong-verdict"
    try:
        ops = workloads.build("embed", run.DEFAULT_SEED, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    canonical = next(op for op in ops if op.name == "check-syn-canonical")
    wrong = dataclasses.replace(canonical, check=workloads._expect_fail_at(0))
    record = run.run_rounds([wrong], [wrong.prepare()], 0, None, lambda line: None)
    assert (record["attempted"], record["failed"]) == (1, 1)


def test_run_fails_without_the_program():
    bare = run.WORK / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(run.__file__).parent, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "embed", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout == ""
