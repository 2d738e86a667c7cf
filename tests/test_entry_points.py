"""The traced benchmark wraps library names listed in ``benchmarks/tracer.py``.

Deleting or renaming one of them breaks ``run.py --trace 1``; these tests
make that a tier-1 failure instead of a smoke-test one.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from qobdd.families import quparity_decomposition
from qobdd.obdd import CompleteObdd, Manager, VarOrder

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_entry_points_exist():
    for layer, names in load_tracer().ENTRY_POINTS.items():
        module = importlib.import_module(f"qobdd.{layer}")
        for name in names:
            owner, _, method = name.rpartition(".")
            if owner:
                # the tracer replaces methods through the class's own dict
                assert method in vars(getattr(module, owner)), f"{layer}.{name}"
            else:
                assert inspect.isfunction(getattr(module, name, None)), f"{layer}.{name}"


def test_the_tracer_hooks_read_fields_the_results_have():
    # the hooks count the states of each complete diagram and the width of
    # each path decomposition, off the results of the calls they wrap
    tracer = load_tracer()
    spans = {
        tracer.span_name(layer, name)
        for layer, names in tracer.ENTRY_POINTS.items()
        for name in names
    }
    recorder = tracer.Tracer()
    assert set(recorder._hooks) <= spans
    assert "size" in vars(CompleteObdd)
    m = Manager(VarOrder([1, 2]))
    recorder._hooks["obdd.complete"](m.complete(m.clause([1])))
    recorder._hooks["graphs.path_decomposition"](quparity_decomposition(2))
    assert recorder.counts["obdd.complete.states"] == 5  # x1, then 0 and 1 twice
    assert recorder.counts["graphs.decomp_width_sum"] == quparity_decomposition(2).width
