"""The benchmark's tracer (bench/tracer.py) patches package functions by name;
renaming one must fail here, not only in the benchmark's own tests."""

import importlib.util
from pathlib import Path

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
