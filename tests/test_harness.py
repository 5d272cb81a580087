"""The benchmark's tracer (bench/tracer.py) patches package functions by name;
renaming one must fail here, not only in the benchmark's own tests."""

import importlib.util
import inspect
import re
from pathlib import Path

import pytest

from boolps import equivalence

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_function_still_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [
        name
        for name, (owner, attribute, _hot) in tracer.TARGETS.items()
        if not callable(vars(owner).get(attribute))
    ]
    assert not missing


KERNEL_ENTRY_POINTS = (
    "rule_mask", "rule_set", "fold", "moves", "successors", "applicable_mask",
    "applicable_masks", "resolved", "_bit", "truth_patterns", "fold_truth_table",
    "truth_bitmask", "truth_columns", "step_table", "_moved",
)


@pytest.mark.parametrize("function", ["_expected_moves", "_spelled_index", "reaction_result"])
def test_expected_side_names_no_kernel_entry_point(function):
    """The simulation checks compare the kernel's masks with masks the
    expected side builds under its own index; that side must not read the
    kernel's index, moves or truth tables, or a kernel fault would show on
    both sides."""
    source = inspect.getsource(getattr(equivalence, function))
    named = [name for name in KERNEL_ENTRY_POINTS if re.search(rf"\b{name}\b", source)]
    assert named == []
