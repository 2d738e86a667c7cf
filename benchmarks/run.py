"""Pipeline benchmark for qobdd: per-stage end-to-end metrics, or a traced
run that attributes self time and calls to each library layer.

    python3 benchmarks/run.py --workload narrow-families --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable summary.  A report with every sample (and, when
tracing, the spans) is written under ``benchmarks/out/``.  See
``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402
from tracer import ENTRY_POINTS, Tracer  # noqa: E402

SETUP_REPEATS = 5
TAIL_LADDER = (99, 95, 90, 75, 50)


def tail_percentile(w: wl.Workload) -> int:
    """Highest ladder percentile with at least ten samples beyond it in the
    shortest run (one pass); fixed per workload so that a faster program,
    which completes more passes, reports the same one.  Passes of fewer than
    20 instances (tiny test workloads) fall back to p50."""
    n = w.pass_size
    return next((p for p in TAIL_LADDER if n * (100 - p) >= 10 * 100), 50)


def percentile(values: list[float], p: int) -> float:
    """Harrell-Davis estimate of the p-th percentile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density over their
    ranks.  It moves less from seed to seed than the one or two order
    statistics a plain sample percentile uses."""
    x = sorted(values)
    n = len(x)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16  # midpoint rule inside each rank interval [i/n, (i+1)/n]
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log(1 - t))
        weights.append(w)
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


# -- speed calibration ----------------------------------------------------------
#
# The machines this runs on share their cores, and their speed drifts by
# tens of percent within minutes.  Before every instance (and every set-up)
# the benchmark times a fixed pure-Python kernel that never touches the
# library, and scales each measured time by REFERENCE_KERNEL_S over the
# median kernel time around it.  A reported time is thus the time on the
# reference machine, the one whose kernel time is REFERENCE_KERNEL_S.  The
# raw times are kept in the report.

REFERENCE_KERNEL_S = 0.010
KERNEL_WINDOW = 3  # kernel samples on each side of an instance


def calibration_kernel() -> int:
    """Memoized binary recursion over tuple keys, the shape of the OBDD
    apply and restrict kernels: Python calls, tuple keys, dict probes."""
    memo: dict[tuple[int, int], int] = {}

    def f(a: int, b: int) -> int:
        if a <= 1 or b <= 1:
            return a ^ b
        key = (a, b)
        r = memo.get(key)
        if r is None:
            r = (f(a - 1, b >> 1) + f(a >> 1, b - 1)) & 0xFFFF
            memo[key] = r
        return r

    acc = 0
    for _ in range(3):
        memo.clear()
        for s in range(60, 140):
            acc ^= f(s, 3 * s)
    return acc


def time_kernel() -> float:
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


# -- set-up ----------------------------------------------------------------------


def import_library() -> SimpleNamespace:
    """A fresh import of qobdd from the checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "qobdd" or m.startswith("qobdd.")]:
        del sys.modules[name]
    package = importlib.import_module("qobdd")
    if Path(package.__file__).resolve().parent != SRC / "qobdd":
        raise ImportError(f"qobdd imported from {package.__file__}, not {SRC}")
    lib = SimpleNamespace(package=package)
    for layer in ENTRY_POINTS:
        setattr(lib, layer, importlib.import_module(f"qobdd.{layer}"))
    return lib


def use_checkout_sources() -> bool:
    """Put the checkout's ``src/`` first on the import path, if it is there."""
    if not (SRC / "qobdd" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def plan(w: wl.Workload, seed: int, pass_index: int) -> list[wl.Instance]:
    return wl.plan_pass(w, seed, pass_index, pass_index * w.pass_size)


def setup(w: wl.Workload, seed: int):
    """Import the library and generate the inputs of the first pass.

    Repeated SETUP_REPEATS times; returns the last library and pass and
    the median time, calibrated.
    """
    times = []
    kernel = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        kernel.append(time_kernel())
        t0 = time.perf_counter()
        lib = import_library()
        first = plan(w, seed, 0)
        for inst in first:
            wl.generate(lib, inst)
        times.append(time.perf_counter() - t0)
    kernel.append(time_kernel())
    return lib, first, statistics.median(times) * REFERENCE_KERNEL_S / statistics.median(kernel)


# -- running -----------------------------------------------------------------


class Run:
    """Samples of one run: stage times, counts and a speed factor per
    instance, from one calibration kernel sample before each instance and
    one after the last."""

    def __init__(self, w: wl.Workload):
        self.w = w
        self.rows: list[dict] = []
        self.kernel_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.digest_texts: list[str] = []

    def instance(self, lib, inst: wl.Instance, clock: wl.Clock, keep_texts: bool) -> float:
        """Run one instance; return its raw wall time."""
        gc.collect()
        self.kernel_s.append(time_kernel())
        t0 = time.perf_counter()
        try:
            rec = wl.run_instance(lib, self.w, inst, clock)
        except Exception:  # noqa: BLE001 - one broken instance must not end the run
            traceback.print_exc(file=sys.stderr)
            rec = None
        wall = time.perf_counter() - t0
        if rec is None:
            self.attempted += 1
            self.failed += 1
            self.failures["exception"] = self.failures.get("exception", 0) + 1
            return wall
        for name, ok in rec.checks:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures[name] = self.failures.get(name, 0) + 1
        if keep_texts:
            self.digest_texts += rec.texts
        self.rows.append(
            {
                "index": inst.index,
                "family": inst.family,
                "size": inst.size,
                "kernel_index": len(self.kernel_s) - 1,
                "wall_ms": wall * 1e3,
                "stages_ms": {k: v * 1e3 for k, v in rec.stages.items()},
                "counts": rec.counts,
                "protocol_rounds": rec.protocol_rounds,
            }
        )
        return wall

    def finish(self) -> None:
        """Take the closing kernel sample and each instance's speed factor."""
        self.kernel_s.append(time_kernel())
        for row in self.rows:
            i = row["kernel_index"]
            window = self.kernel_s[max(0, i - KERNEL_WINDOW + 1) : i + KERNEL_WINDOW + 1]
            row["factor"] = REFERENCE_KERNEL_S / statistics.median(window)

    def calibrated(self, stage: str) -> list[float]:
        """Calibrated times of one stage, in ms, over the instances that ran it."""
        return [
            row["stages_ms"][stage] * row["factor"]
            for row in self.rows
            if stage in row["stages_ms"]
        ]


def run_untraced(lib, w, seed, seconds, first):
    """Pass 0, then further passes while each still fits in ``seconds``."""
    run = Run(w)
    clock = wl.Clock()
    busy = 0.0
    t_begin = time.perf_counter()
    insts, k = first, 0
    while True:
        t_pass = time.perf_counter()
        for inst in insts:
            busy += run.instance(lib, inst, clock, keep_texts=k == 0)
        k += 1
        now = time.perf_counter()
        if (now - t_begin) + (now - t_pass) > seconds:
            break
        insts = plan(w, seed, k)
        for inst in insts:
            wl.generate(lib, inst)
    run.finish()
    return run, busy, k


def end_to_end(w, run: Run, busy: float, setup_s: float) -> tuple[dict, dict]:
    p_tail = tail_percentile(w)
    stage = {s: run.calibrated(s) for s in wl.STAGES}
    nodes = sum(row["counts"]["trace_nodes"] for row in run.rows)
    busy_calibrated = sum(row["wall_ms"] * row["factor"] for row in run.rows) / 1e3
    m = {
        "setup_s": (setup_s, "s"),
        "instances_per_s": (len(run.rows) / busy_calibrated, "1/s"),
        "solve_ms.p50": (percentile(stage["solve"], 50), "ms"),
        "solve_ms.tail": (percentile(stage["solve"], p_tail), "ms"),
        "check_ms.p50": (percentile(stage["check"], 50), "ms"),
        "check_ms.tail": (percentile(stage["check"], p_tail), "ms"),
        "order_ms.p50": (percentile(stage["order"], 50), "ms"),
        "extract_ms.p50": (percentile(stage["extract"], 50), "ms"),
        "verify_ms.p50": (percentile(stage["verify"], 50), "ms"),
        "rect_ms.p50": (percentile(stage["rect"], 50), "ms"),
        "solve_us_per_node": (sum(stage["solve"]) * 1e3 / nodes, "us"),
        "check_us_per_node": (sum(stage["check"]) * 1e3 / nodes, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "tail_percentile": p_tail,
        "samples": len(run.rows),
        "raw_instances_per_s": len(run.rows) / busy,
        "speed_factor_p50": statistics.median(row["factor"] for row in run.rows),
        "stage_p50_ms": {s: percentile(v, 50) for s, v in stage.items() if v},
    }
    return m, notes


# -- traced run ----------------------------------------------------------------


def run_traced(lib, w, seed):
    """Pass 0 under the tracer.

    Each instance also runs untraced just before its traced run, so that
    the tracing overhead compares the same inputs at nearly the same
    moment.
    """
    # the wrappers add a frame to every level of self-recursive entry
    # points such as Manager.negate
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 10000))
    tracer = Tracer()
    tracer.install(lib)
    first = plan(w, seed, 0)
    for inst in first:
        tracer.instance_id = inst.index
        with tracer.stage("gen"):
            wl.generate(lib, inst)
    ref = Run(w)
    run = Run(w)
    clock = wl.Clock(tracer)
    untraced = traced = 0.0
    for inst in first:
        tracer.uninstall()
        untraced += ref.instance(lib, inst, wl.Clock(), False)
        tracer.install(lib)
        tracer.instance_id = inst.index
        traced += run.instance(lib, inst, clock, keep_texts=True)
    tracer.uninstall()
    tracer.instance_id = -1
    run.finish()
    return tracer, run, 100.0 * (traced / untraced - 1.0)


def per_layer(tracer: Tracer, run: Run, overhead_pct: float) -> tuple[dict, dict]:
    """Layer metrics over the traced pass; times are calibrated with the
    run's median speed factor."""
    agg = tracer.aggregate()
    self_s, calls, total = agg["self_s"], agg["calls"], agg["total_s"]
    factor = statistics.median(row["factor"] for row in run.rows)

    def self_ms(*names):
        return 1e3 * factor * sum(self_s.get(n, 0.0) for n in names)

    def layer_ms(layer):
        return 1e3 * factor * sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    def count(key):
        return sum(row["counts"].get(key, 0) for row in run.rows)

    plays = count("verify_plays")
    rounds = [x for row in run.rows for x in row["protocol_rounds"]]
    decomps = tracer.counts["graphs.decompositions"]
    m = {
        "families.gen_ms": (
            self_ms("families.gen_quparity", "families.gen_eqprime", "families.gen_ipg_qbf"),
            "ms",
        ),
        "pcnf.emit_ms": (self_ms("pcnf.emit_qdimacs"), "ms"),
        "pcnf.parse_ms": (self_ms("pcnf.parse_qdimacs"), "ms"),
        "pcnf.primal_graph_ms": (self_ms("pcnf.primal_graph"), "ms"),
        "pcnf.clauses": (count("clauses"), "count"),
        "graphs.decomp_ms": (self_ms("graphs.path_decomposition"), "ms"),
        "graphs.order_ms": (self_ms("graphs.order_from_decomposition"), "ms"),
        "graphs.decomp_width": (
            tracer.counts["graphs.decomp_width_sum"] / decomps if decomps else 0.0,
            "vertices",
        ),
    }
    for op in OBDD_OPS:
        m[f"obdd.{op}.calls"] = (calls.get(f"obdd.{op}", 0), "count")
        if op != "forall":
            m[f"obdd.{op}.self_ms"] = (self_ms(f"obdd.{op}"), "ms")
    m.update(
        {
            "obdd.complete.states": (tracer.counts["obdd.complete.states"], "count"),
            "obdd.check_store_nodes": (count("check_store_nodes"), "count"),
            "obdd.strategy_store_nodes": (count("strategy_store_nodes"), "count"),
            "solver.self_ms": (layer_ms("solver"), "ms"),
            "solver.lines": (count("lines"), "count"),
            "solver.trace_nodes": (count("trace_nodes"), "count"),
            "solver.max_width": (max(row["counts"]["max_width"] for row in run.rows), "count"),
            "solver.eliminations": (count("eliminations"), "count"),
            "proof.emit_ms": (self_ms("proof.emit_trace"), "ms"),
            "proof.parse_ms": (self_ms("proof.parse_trace"), "ms"),
            "proof.trace_bytes": (count("trace_bytes"), "bytes"),
            "proof.check_self_ms": (self_ms("proof.check_trace"), "ms"),
            "proof.mutants_rejected": (count("mutants_rejected"), "count"),
            "strategy.extract_self_ms": (self_ms("strategy.extract"), "ms"),
            "strategy.emit_ms": (self_ms("strategy.emit_strategy"), "ms"),
            "strategy.parse_ms": (self_ms("strategy.parse_strategy"), "ms"),
            "strategy.list_entries": (count("list_entries"), "count"),
            "strategy.verify_plays": (plays, "count"),
            "strategy.verify_us_per_play": (
                1e6 * factor * total.get("strategy.verify_winning", 0.0) / plays,
                "us",
            ),
            "strategy.rect_list_len": (count("rect_list_len"), "count"),
            "strategy.protocol_rounds.p50": (statistics.median(rounds), "count"),
            "rectangles.truth_table_ms": (self_ms("rectangles.ip_truth_table"), "ms"),
            "rectangles.oracle_ms": (self_ms("rectangles.max_mono_rectangle"), "ms"),
            "rectangles.oracle_max": (count("oracle_max"), "count"),
            "tracing.overhead_pct": (overhead_pct, "%"),
        }
    )
    return m, agg


OBDD_OPS = (
    "apply", "exists", "forall", "restrict", "negate",
    "complete", "size", "support", "clause", "evaluate",
)


def layer_table(agg: dict) -> list[str]:
    """Readable per-stage breakdown of self time by layer and span name."""
    out = []
    for stage, parts in sorted(agg["by_stage"].items()):
        total = agg["stage_total_s"][stage]
        by_layer: dict[str, float] = {}
        for name, s in parts.items():
            layer = name.split(".", 1)[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + s
        out.append(f"{stage:<22} {total * 1e3:10.1f} ms")
        for layer, s in sorted(by_layer.items(), key=lambda kv: -kv[1]):
            out.append(f"  {layer:<20} {s * 1e3:10.1f} ms {100 * s / total:6.1f}%")
        for name, s in sorted(parts.items(), key=lambda kv: -kv[1])[:6]:
            calls = agg["stage_calls"][stage][name]
            out.append(
                f"    {name:<30} {s * 1e3:10.1f} ms {100 * s / total:6.1f}% {calls:9d} calls"
            )
    return out


def additivity_error(agg: dict) -> float:
    """Largest relative gap between a stage's time and its parts' self times."""
    worst = 0.0
    for stage, parts in agg["by_stage"].items():
        total = agg["stage_total_s"][stage]
        if total > 0:
            worst = max(worst, abs(sum(parts.values()) - total) / total)
    return worst


# -- main ----------------------------------------------------------------------


def run_workload(w: wl.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result line plus the report."""
    lib, first, setup_s = setup(w, seed)
    report: dict = {"workload": w.name, "seed": seed, "trace": int(trace)}
    if trace:
        tracer, run, overhead = run_traced(lib, w, seed)
        metrics, agg = per_layer(tracer, run, overhead)
        report["layers"] = agg
        report["stage_additivity_error"] = additivity_error(agg)
        report["table"] = layer_table(agg)
        report["tracer"] = tracer
    else:
        run, busy, npasses = run_untraced(lib, w, seed, seconds, first)
        metrics, notes = end_to_end(w, run, busy, setup_s)
        report.update(notes, passes=npasses, busy_s=busy)
    report["digest"] = wl.digest(run.digest_texts)
    report["instances"] = run.rows
    report["failures"] = run.failures
    report["result"] = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report


def summary(report: dict) -> list[str]:
    res = report["result"]
    lines = [f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}"]
    if not report["trace"]:
        lines.append(
            f"passes {report['passes']}  instances {report['samples']}  "
            f"tail = p{report['tail_percentile']} over {report['samples']} samples"
        )
    for name, m in res["metrics"].items():
        lines.append(f"  {name:<34} {m['value']:>14.4f} {m['unit']}")
    lines.append(
        f"checks attempted {res['attempted']}  failed {res['failed']}  "
        f"failed_share {res['failed'] / max(res['attempted'], 1):.4f}  {report['failures']}"
    )
    lines.append(f"output digest (pass 0) sha256 {report['digest']}")
    if report["trace"]:
        lines.append(f"stage additivity error {report['stage_additivity_error']:.2e}")
        lines += report["table"]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not use_checkout_sources():
        print(f"error: no qobdd sources under {SRC}", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    report = run_workload(w, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    tracer = report.pop("tracer", None)
    if tracer is not None:
        report["spans"] = tracer.write(OUT / f"{stem}.spans.tsv.gz")
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))
    print("\n".join(summary(report)))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
