"""The benchmark's tracer (bench/tracer.py) patches package functions by name;
renaming one must fail here, not only in the benchmark's own tests."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import oracles
import pytest
import test_cofase

import boolps
from boolps import cofase, equivalence

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
    "truth_bitmask", "truth_columns", "_moved", "control_classes", "_input_groups",
    "_table_node", "_step_set", "apply_moves",
)


# the expected sides in `src/`, then every function and class of the tests'
# oracle module, so that an oracle is guarded as soon as it is written there
EXPECTED_SIDES = (
    (equivalence, "_expected_moves"),
    (equivalence, "_spelled_index"),
    (equivalence, "reaction_result"),
    (cofase, "check_solution"),
) + tuple(
    (oracles, name) for name, value in vars(oracles).items()
    if (inspect.isfunction(value) or inspect.isclass(value))
    and value.__module__ == oracles.__name__
)


@pytest.mark.parametrize(
    "owner, function", EXPECTED_SIDES, ids=[function for _owner, function in EXPECTED_SIDES]
)
def test_expected_side_names_no_kernel_entry_point(owner, function):
    """The simulation checks compare the kernel's masks with masks the
    expected side builds under its own index, and the direct engine's
    oracles step networks from `apply_control` with `bn_step`; an expected
    side must not read the kernel's index, moves, truth tables or control
    classes, or a kernel fault would show on both sides."""
    source = inspect.getsource(getattr(owner, function))
    named = [name for name in KERNEL_ENTRY_POINTS if re.search(rf"\b{name}\b", source)]
    assert named == []


def test_the_composite_oracle_asks_successors_at_each_configuration():
    """`test_cofase.heap_composite_solve`, which the composite engine is
    compared with, steps each configuration through `successors`; reading
    the applicability table and the moves as the engine does would share
    a fault of that path."""
    source = inspect.getsource(test_cofase.heap_composite_solve)
    assert re.search(r"\bsuccessors\(view, config\)", source)
    table_path = ("applicable_masks", "apply_moves", "resolved", "moves")
    assert [name for name in table_path if re.search(rf"\b{name}\b", source)] == []


def _package_functions():
    """Every function and method defined in a module of `boolps`."""
    for info in pkgutil.iter_modules(boolps.__path__):
        module = importlib.import_module(f"boolps.{info.name}")
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                yield f"{module.__name__}.{name}", value
            elif inspect.isclass(value):
                for attribute, member in vars(value).items():
                    member = getattr(member, "__func__", member)  # static and class methods
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attribute}", member


def test_no_function_takes_a_cap():
    """`limits.var_cap` is the one reader of the variable cap; callers set
    it with `limits.capped`, not with an argument."""
    functions = dict(_package_functions())
    assert "boolps.limits.check_enumerable" in functions
    assert "boolps.boolp.BooleanPSystem.applicable_masks" in functions
    taking = [name for name, function in functions.items()
              if "cap" in inspect.signature(function).parameters]
    assert taking == []


def test_no_function_takes_a_mode_beside_its_system():
    """A `ModeView` carries the system it was derived for; a function that
    takes both could be handed a mode of another system.  The package uses
    postponed annotations, so parameters are matched by annotation text."""

    def annotated(function, name):
        return [parameter for parameter in inspect.signature(function).parameters.values()
                if re.search(rf"\b{name}\b", str(parameter.annotation))]

    functions = dict(_package_functions())
    assert annotated(functions["boolps.equivalence._compare_moves"], "ModeView")
    assert annotated(functions["boolps.boolp.derive_mode"], "BooleanPSystem")
    taking = [name for name, function in functions.items()
              if annotated(function, "ModeView") and annotated(function, "BooleanPSystem")]
    assert taking == []


def test_only_limits_reads_the_environment():
    package = Path(boolps.__file__).resolve().parent
    reading = sorted(path.name for path in package.glob("*.py") if "os.environ" in path.read_text())
    assert reading == ["limits.py"]


def test_only_phase_reads_its_tables():
    """A class's truth `tables` are read in `cofase` inside `_Phase` alone,
    so how a phase's images come from them is that class's concern."""
    readers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Attribute) and child.attr == "tables":
                readers.append(".".join(scope))
            visit(child, inner)

    visit(ast.parse(inspect.getsource(cofase)), ())
    assert readers
    assert {reader.split(".")[0] for reader in readers} == {"_Phase"}
