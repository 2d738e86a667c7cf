"""The traced benchmark wraps library names listed in ``benchmarks/tracer.py``.

Deleting or renaming one of them breaks ``run.py --trace 1``; this test
makes that a tier-1 failure instead of a smoke-test one.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_benchmark_entry_points_exist():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.ENTRY_POINTS.items():
        module = importlib.import_module(f"qobdd.{layer}")
        for name in names:
            owner, _, method = name.rpartition(".")
            if owner:
                # the tracer replaces methods through the class's own dict
                assert method in vars(getattr(module, owner)), f"{layer}.{name}"
            else:
                assert inspect.isfunction(getattr(module, name, None)), f"{layer}.{name}"
