"""Command-line entry point.

Exit codes are fixed for scripting: 0 success; 1 bad arguments or option
files (``--order given:``, ``--partition``); 2 any malformed or rejected
input file (formula, trace, strategy, proof, edge list; rejected trace,
losing strategy); 3 expectation mismatch; 4 the budget ran out (nodes,
or for ``rect analyze`` the rows the rectangle oracle scans), or memory
did, which prints the one line ``BUDGET memory`` and no traceback.
Nothing recurses once per layer of the order, so deep orders need no
exit code of their own.  ``main`` is the one place that maps errors to
these codes: ``UsageError`` to 1, the budget's ``BudgetExceededError``
and ``MemoryError`` to 4, and every other ``QobddError``, the base of the
library's errors, to 2.  With a fixed seed every run is reproducible;
timing fields are only emitted on request so that outputs are
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import families, graphs, proof, qures, rectangles, solver, strategy
from .obdd import DEFAULT_NODE_BUDGET, BudgetExceededError, OrderError, QobddError, VarOrder
from .pcnf import Pcnf, emit_qdimacs, parse_qdimacs

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK = 2
EXIT_EXPECT = 3
EXIT_BUDGET = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def _load_formula(path: str) -> Pcnf:
    return parse_qdimacs(_read(path))


def _resolve_order(f: Pcnf, spec: str) -> VarOrder:
    if spec == "pathwidth":
        return solver.default_order(f)
    if spec == "prefix":
        return solver.prefix_order(f)
    if spec.startswith("given:"):
        tokens = _read(spec[len("given:") :]).split()
        try:
            order = VarOrder(int(t) for t in tokens)
        except (ValueError, OrderError) as exc:
            raise UsageError(f"bad order file: {exc}") from None
        if set(order.vars) != set(f.variables):
            raise UsageError("order file must list exactly the formula's variables")
        return order
    raise UsageError(f"unknown order policy {spec!r}")


FAMILIES = {"quparity": families.gen_quparity, "eqprime": families.gen_eqprime}


def _gen_family(family: str, n: int) -> Pcnf:
    """A sized family instance; a size the family refuses is a bad argument."""
    try:
        return FAMILIES[family](n)
    except families.FamilyError as exc:
        raise UsageError(str(exc)) from None


def build_parser() -> _Parser:
    p = _Parser(prog="qobdd", description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help="node budget per manager; for rect analyze, the "
                   "rows the rectangle oracle may scan")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for bench")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock fields in reports")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="emit a generated family instance")
    g.add_argument("family", choices=[*FAMILIES, "ipg"])
    g.add_argument("param", help="n for quparity/eqprime, edge-list file for ipg")
    g.add_argument("-o", "--output", default=None)

    s = sub.add_parser("solve", help="decide a QDIMACS file")
    s.add_argument("input")
    s.add_argument("--order", default="pathwidth",
                   help="pathwidth | prefix | given:<file>")
    s.add_argument("--proof", default=None, help="write the derivation trace here")
    s.add_argument("--stats", default=None, help="write a JSON stats report here")
    s.add_argument("--expect", choices=["true", "false"], default=None)

    c = sub.add_parser("check", help="replay a trace against its formula")
    c.add_argument("input")
    c.add_argument("trace")
    c.add_argument("--allow-derivation", action="store_true",
                   help="accept derivations that do not end in 0")

    e = sub.add_parser("extract", help="extract a strategy from a refutation")
    e.add_argument("input")
    e.add_argument("trace")
    e.add_argument("-o", "--output", default=None)

    v = sub.add_parser("verify", help="verify a strategy file wins")
    v.add_argument("input")
    v.add_argument("strategy")
    v.add_argument("--samples", type=int, default=100000)

    t = sub.add_parser("translate", help="turn a QU-resolution refutation into a trace")
    t.add_argument("input")
    t.add_argument("proof")
    t.add_argument("-o", "--output", default=None)

    b = sub.add_parser("bench", help="family scaling table")
    b.add_argument("--family", choices=list(FAMILIES), required=True)
    b.add_argument("--n", required=True, help="range as lo:hi[:step]")
    b.add_argument("--orders", default="pathwidth",
                   help="comma-separated policies as in solve --order")

    r = sub.add_parser("rect", help="rectangle bound analysis")
    rsub = r.add_subparsers(dest="rect_command", required=True)
    ra = rsub.add_parser("analyze")
    ra.add_argument("--graph", required=True, help="edge-list file")
    ra.add_argument("--partition", required=True,
                    help="<file> | pairs | random:<seed>")
    ra.add_argument("--report", default=None, help="write the JSON report here")
    return p


# -- commands ---------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.family == "ipg":
        g = graphs.parse_edge_list(_read(args.param))
        f = families.gen_ipg_qbf(g)
    else:
        try:
            n = int(args.param)
        except ValueError:
            raise UsageError(f"expected an integer size, got {args.param!r}") from None
        f = _gen_family(args.family, n)
    _write(args.output, emit_qdimacs(f))
    return EXIT_OK


def cmd_solve(args) -> int:
    f = _load_formula(args.input)
    order = _resolve_order(f, args.order)
    result = solver.solve(f, order=order, node_budget=args.budget)
    verdict = "TRUE" if result.value else "FALSE"
    if args.proof:
        _write(args.proof, proof.emit_trace(result.trace))
    if args.stats:
        _write(args.stats, json.dumps(result.stats.as_dict(args.timings), indent=2) + "\n")
    if args.json:
        print(json.dumps(result.stats.as_dict(args.timings)))
    else:
        print(verdict)
    if args.expect is not None and (args.expect == "true") != result.value:
        print(f"expected {args.expect.upper()}, got {verdict}", file=sys.stderr)
        return EXIT_EXPECT
    return EXIT_OK


def _check(f: Pcnf, trace: proof.ProofTrace, budget: int, require_refutation: bool):
    """Replay ``trace`` under ``budget``: a budget hit exits 4, a rejection 2."""
    result = proof.check_trace(
        f, trace, node_budget=budget, require_refutation=require_refutation
    )
    v = result.verdict
    if not result.accepted:
        where = "" if v.line is None else f"line {v.line}: "
        raise proof.TraceError(where + v.reason)
    return result


def cmd_check(args) -> int:
    f = _load_formula(args.input)
    trace = proof.parse_trace(_read(args.trace))
    result = _check(f, trace, args.budget, require_refutation=not args.allow_derivation)
    kind = "refutation" if result.refutation else "derivation"
    if args.json:
        print(json.dumps({"accepted": True, "refutation": result.refutation}))
    else:
        print(f"ACCEPTED {kind}")
    return EXIT_OK


def cmd_extract(args) -> int:
    f = _load_formula(args.input)
    trace = proof.parse_trace(_read(args.trace))
    checked = _check(f, trace, args.budget, require_refutation=True)
    family = strategy.extract(f, trace, checked)
    _write(args.output, strategy.emit_strategy(family))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    f = _load_formula(args.input)
    family = strategy.parse_strategy(_read(args.strategy), f, node_budget=args.budget)
    verdict = strategy.verify_winning(f, family, samples=args.samples, seed=args.seed)
    if args.json:
        print(json.dumps({
            "winning": verdict.winning,
            "exhaustive": verdict.exhaustive,
            "checked": verdict.checked,
            "counterexample": verdict.counterexample,
        }))
    elif verdict.winning:
        # a sampled verdict is evidence, not a proof
        print("WINNING" if verdict.exhaustive else f"WINNING (sampled, {verdict.checked} plays)")
    else:
        lits = " ".join(
            f"{v}={verdict.counterexample[v]}" for v in sorted(verdict.counterexample)
        )
        print(f"COUNTEREXAMPLE {lits}")
    return EXIT_OK if verdict.winning else EXIT_CHECK


def cmd_translate(args) -> int:
    f = _load_formula(args.input)
    trace = qures.simulate_qures(
        f, qures.parse_qures(_read(args.proof)), node_budget=args.budget
    )
    _write(args.output, proof.emit_trace(trace))
    return EXIT_OK


def _parse_range(spec: str) -> list[int]:
    """``n``, ``lo:hi`` or ``lo:hi:step``: a step of at least 1, lo <= hi."""
    try:
        nums = [int(p) for p in spec.split(":")]
    except ValueError:
        raise UsageError(f"bad range {spec!r}") from None
    if len(nums) == 1:
        nums *= 2
    if len(nums) == 2:
        nums.append(1)
    if len(nums) != 3 or nums[2] < 1 or nums[0] > nums[1]:
        raise UsageError(f"bad range {spec!r}")
    return list(range(nums[0], nums[1] + 1, nums[2]))


def _bench_one(family: str, n: int, policy: str, budget: int) -> dict:
    f = _gen_family(family, n)
    result = solver.solve(f, order=_resolve_order(f, policy), node_budget=budget)
    return {"family": family, "n": n, "order": policy, **result.stats.as_dict()}


BENCH_COLUMNS = ["family", "n", "order", "value", "max_width",
                 "trace_nodes", "eliminations"]


def cmd_bench(args) -> int:
    ns = _parse_range(args.n)
    policies = [p.strip() for p in args.orders.split(",") if p.strip()]
    if not policies:
        raise UsageError("--orders names no order policy")
    jobs = [(args.family, n, pol, args.budget) for n in ns for pol in policies]
    # a pool forks all its workers at the first submit: never more than jobs
    workers = min(args.threads, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_one, *zip(*jobs)))
    else:
        rows = [_bench_one(*job) for job in jobs]
    cols = BENCH_COLUMNS + (["wall_time_ms"] if args.timings else [])
    if args.json:
        print(json.dumps([{k: r[k] for k in cols} for r in rows], indent=2))
    else:
        print("\t".join(cols))
        for r in rows:
            print("\t".join(str(r[k]) for k in cols))
    return EXIT_OK


def _resolve_partition(spec: str, g, seed: int):
    verts = list(g.vertices)
    if spec == "pairs":
        x1 = [v for v in verts if v % 2 == 1]
        x2 = [v for v in verts if v % 2 == 0]
    elif spec.startswith("random:"):
        try:
            rng = random.Random(int(spec.split(":", 1)[1]))
        except ValueError:
            raise UsageError(f"bad partition spec {spec!r}") from None
        shuffled = verts[:]
        rng.shuffle(shuffled)
        half = len(shuffled) // 2
        x1, x2 = sorted(shuffled[:half]), sorted(shuffled[half:])
    elif spec == "random":
        return _resolve_partition(f"random:{seed}", g, seed)
    else:
        lines = [ln for ln in _read(spec).splitlines() if ln.strip()]
        if len(lines) != 2:
            raise UsageError("partition file needs two lines of vertex ids")
        try:
            x1, x2 = ([int(t) for t in ln.split()] for ln in lines)
        except ValueError:
            raise UsageError("partition file holds a non-integer vertex id") from None
        if sorted(x1 + x2) != sorted(verts):  # each vertex exactly once
            raise UsageError("partition file must split the graph's vertices")
    return x1, x2


def cmd_rect(args) -> int:
    g = graphs.parse_edge_list(_read(args.graph))
    part = _resolve_partition(args.partition, g, args.seed)
    report = rectangles.check_rectanglesmall(g, part, args.budget)
    text = json.dumps(report, indent=2) + "\n"
    if args.report:
        _write(args.report, text)
    if args.json or not args.report:
        sys.stdout.write(text)
    return EXIT_CHECK if not report["ok"] else EXIT_OK


COMMANDS = {
    "gen": cmd_gen,
    "solve": cmd_solve,
    "check": cmd_check,
    "extract": cmd_extract,
    "verify": cmd_verify,
    "translate": cmd_translate,
    "bench": cmd_bench,
    "rect": cmd_rect,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.budget < 0:
            raise UsageError("--budget must be at least 0")
        if args.threads < 1:
            raise UsageError("--threads must be at least 1")
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:  # before QobddError, its base
        print(f"BUDGET {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except proof.TraceParseError as exc:
        print(f"check failed: {exc.reason}: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except QobddError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except MemoryError:
        pass
    # only a MemoryError gets here; the traceback, and with it the frames
    # holding the diagrams, is gone once the handler ends
    sys.stderr.write("BUDGET memory\n")
    return EXIT_BUDGET


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
