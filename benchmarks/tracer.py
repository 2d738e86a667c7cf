"""Outside-in span recorder for the qobdd pipeline.

The tracer wraps the public entry points of each qobdd module from outside
the package; nothing under ``src/`` knows it exists.  Module functions are
replaced in every qobdd module namespace that holds them (``solver`` calls
``primal_graph`` through its own import of it), and ``Manager`` methods are
replaced on the class, so calls made inside the library are caught too.

A span is a name, a start, an end, the span that was open when it started
and the id of the pipeline instance it belongs to.  Spans are kept in flat
arrays in memory and written out once the run ends.  Only the outermost
entry of a re-entrant method opens a span: ``negate`` recursing through
``self.negate`` stays one span, while ``exists`` calling ``restrict`` and
``apply`` gets those two as children.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import gzip
from contextlib import contextmanager
import time
from array import array
from collections import defaultdict

# Public entry points per layer.  "Class.method" entries are replaced on
# the class; plain names are module functions.
ENTRY_POINTS = {
    "families": (
        "gen_quparity",
        "gen_eqprime",
        "gen_ipg_qbf",
        "quparity_decomposition",
        "eqprime_decomposition",
    ),
    "pcnf": ("emit_qdimacs", "parse_qdimacs", "primal_graph"),
    "graphs": ("path_decomposition", "order_from_decomposition", "random_dregular"),
    "obdd": (
        "Manager.apply",
        "Manager.exists",
        "Manager.forall",
        "Manager.restrict",
        "Manager.negate",
        "Manager.complete",
        "Manager.size",
        "Manager.support",
        "Manager.clause",
        "Manager.evaluate",
        "serialize",
        "deserialize",
    ),
    "solver": ("solve", "default_order"),
    "proof": ("check_trace", "emit_trace", "parse_trace", "formula_hash"),
    "strategy": (
        "extract",
        "emit_strategy",
        "parse_strategy",
        "verify_winning",
        "to_rectangle_list",
        "and_protocol_run",
        "DecisionList.width_bound",
    ),
    "rectangles": (
        "check_rectanglesmall",
        "induced_matching",
        "ip_truth_table",
        "max_mono_rectangle",
    ),
}

STAGE = "stage"  # span-name prefix of the benchmark's own pipeline stages


def span_name(layer: str, entry: str) -> str:
    """``obdd.apply`` for ``Manager.apply``; ``solver.solve`` for ``solve``."""
    if entry.startswith("Manager."):
        entry = entry.split(".", 1)[1]
    return f"{layer}.{entry}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.instance = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._open: set[str] = set()
        self.instance_id = -1
        # extra counts gathered at span boundaries, e.g. completed states
        self.counts: dict[str, int] = defaultdict(int)
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _push(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.instance.append(self.instance_id)
        self._stack.append(idx)
        self._open.add(name)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _pop(self, idx: int, name: str) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._open.discard(name)

    def wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in tracer._open:
                return fn(*args, **kwargs)
            idx = tracer._push(name)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                tracer._pop(idx, name)

        return traced

    @contextmanager
    def stage(self, name: str):
        """A span for one of the benchmark's own stages; yields its index."""
        name = f"{STAGE}.{name}"
        idx = self._push(name)
        try:
            yield idx
        finally:
            self._pop(idx, name)

    # -- installation ------------------------------------------------------

    def install(self, lib) -> None:
        """Wrap every entry point of the already imported ``lib`` modules."""
        modules = [lib.package] + [getattr(lib, layer) for layer in ENTRY_POINTS]
        for layer, entries in ENTRY_POINTS.items():
            mod = getattr(lib, layer)
            for entry in entries:
                name = span_name(layer, entry)
                on_result = self._hooks.get(name)
                if "." in entry:
                    cls_name, meth = entry.split(".")
                    cls = getattr(mod, cls_name)
                    self._replace(cls, meth, self.wrap(name, vars(cls)[meth], on_result))
                    continue
                original = getattr(mod, entry)
                wrapped = self.wrap(name, original, on_result)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._replace(m, key, wrapped)

    def _replace(self, owner, attr: str, value) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every replaced entry point back."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _count_states(self, complete) -> None:
        self.counts["obdd.complete.states"] += complete.size

    def _count_width(self, decomposition) -> None:
        self.counts["graphs.decompositions"] += 1
        self.counts["graphs.decomp_width_sum"] += decomposition.width

    @property
    def _hooks(self) -> dict:
        """Counts read off results, inside the span that produced them."""
        return {
            "obdd.complete": self._count_states,
            "graphs.path_decomposition": self._count_width,
            "families.quparity_decomposition": self._count_width,
            "families.eqprime_decomposition": self._count_width,
        }

    # -- analysis ----------------------------------------------------------

    def durations(self) -> tuple[list[float], list[float]]:
        """Per-span (duration, self time) in seconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, [dur[i] - child[i] for i in range(n)]

    def aggregate(self) -> dict:
        """Per span name: calls, total and self seconds; plus per stage.

        ``by_stage[stage][name]`` is the self time of ``name`` spans that
        ran inside ``stage`` (``stage_calls`` their number); a stage's own
        entry is the benchmark's glue.
        """
        dur, self_t = self.durations()
        names = self.names
        is_stage = [n.startswith(STAGE + ".") for n in names]
        stage_of = [-1] * len(dur)
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        selft: dict[str, float] = defaultdict(float)
        by_stage: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        stage_calls: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        stage_total: dict[str, float] = defaultdict(float)
        for i in range(len(dur)):
            nid = self.name[i]
            p = self.parent[i]
            stage_of[i] = i if is_stage[nid] else (stage_of[p] if p >= 0 else -1)
            name = names[nid]
            calls[name] += 1
            total[name] += dur[i]
            selft[name] += self_t[i]
            s = stage_of[i]
            if s >= 0:
                stage = names[self.name[s]]
                by_stage[stage][name] += self_t[i]
                stage_calls[stage][name] += 1
                if s == i:
                    stage_total[stage] += dur[i]
        return {
            "calls": dict(calls),
            "total_s": dict(total),
            "self_s": dict(selft),
            "by_stage": {k: dict(v) for k, v in by_stage.items()},
            "stage_calls": {k: dict(v) for k, v in stage_calls.items()},
            "stage_total_s": dict(stage_total),
        }

    def write(self, path) -> int:
        """Write spans as gzip TSV: id, parent, instance, name, start, end."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt") as out:
            out.write("id\tparent\tinstance\tname\tstart_us\tend_us\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.instance[i]}\t"
                    f"{self.names[self.name[i]]}\t"
                    f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\n"
                )
        return len(self.start)

