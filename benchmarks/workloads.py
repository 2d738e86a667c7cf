"""Seeded workloads and the per-instance pipeline the benchmark times.

A run processes passes.  A pass is one stratified, antithetic draw of
instances: each family's size range is cut into equal slices, one per two
instances of the family in a pass; the seed picks a size n in each slice
[a, b], and the slice contributes n and its mirror a + b - n.  The pass is
then shuffled.  Every pass has the same shape and is balanced about the
slice centres, so its medians move little from seed to seed, while each
seed still gives other inputs.

The two families of a workload get unequal shares (2:1).  Their stage costs
differ by up to 100x (eqprime has n universals, quparity two), and with
equal shares every median would fall in the gap between the two clusters.

The library receives only generated formulas, as QDIMACS text; the
benchmark keeps the generator parameters (and, for ``ipg-rect``, the
graph) to know the answer and to run the rectangle oracle.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    families: tuple[tuple[str, int], ...]  # (family, instances per pass; even)
    sizes: tuple[int, ...]  # (lo, hi) size range, or the vertex counts for "ipg"
    order: str  # "family": hand-written decomposition; "default": solver.default_order
    mutants: bool = False

    @property
    def is_ipg(self) -> bool:
        return self.families[0][0] == "ipg"

    @property
    def pass_size(self) -> int:
        count = sum(c for _, c in self.families)
        return count * len(self.sizes) if self.is_ipg else count


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="narrow-families",
            why=(
                "hand-written family orders keep diagrams narrow (width <= 5) and "
                "traces long, so solver bookkeeping and per-call kernel overhead dominate"
            ),
            families=(("quparity", 28), ("eqprime", 14)),
            sizes=(24, 88),
            order="family",
        ),
        Workload(
            name="default-order",
            why=(
                "the order qobdd solve picks: O(V^2) order search, load moves into "
                "apply/exists; the checker runs its accept and reject paths"
            ),
            families=(("quparity", 28), ("eqprime", 14)),
            sizes=(16, 72),
            order="default",
            mutants=True,
        ),
        Workload(
            name="ipg-rect",
            why=(
                "graph inner products: wide diagrams, short traces; the only workload "
                "where the rectangle lab and the brute-force oracle do real work"
            ),
            families=(("ipg", 30),),
            sizes=(8, 10, 12, 14, 16),
            order="default",
        ),
    )
}


VERIFY_PLAYS = 64  # every instance has over 16 existentials, so verify samples
PROTOCOL_PLAYS = 8  # protocol runs per rectangle list
ORACLE_MAX_VERTICES = 10  # the brute-force oracle takes seconds from 12 vertices


# -- inputs ------------------------------------------------------------------


@dataclass
class Instance:
    index: int  # position within the run, used as the trace instance id
    family: str
    size: int  # n for the families, vertex count for "ipg"
    seed: int  # per-instance seed: graph, mutant kind, plays
    qdimacs: str = ""
    graph: object = None


def plan_pass(w: Workload, seed: int, pass_index: int, first_index: int) -> list[Instance]:
    """The instances of one pass; the same (seed, pass) gives the same list."""
    rng = random.Random(f"{w.name}/{seed}/{pass_index}")
    out = []
    if w.is_ipg:
        (_, count), = w.families
        out = [("ipg", nv) for nv in w.sizes for _ in range(count)]
    else:
        lo, hi = w.sizes
        span = hi - lo + 1
        for fam, count in w.families:
            strata = count // 2
            for k in range(strata):
                a = lo + k * span // strata
                b = max(a, lo + (k + 1) * span // strata - 1)
                n = rng.randint(a, b)
                out += [(fam, n), (fam, a + b - n)]
    rng.shuffle(out)
    return [
        Instance(first_index + i, fam, size, rng.getrandbits(32))
        for i, (fam, size) in enumerate(out)
    ]


def generate(lib, inst: Instance) -> None:
    """Build the instance's formula and store it as QDIMACS text."""
    fam = lib.families
    if inst.family == "quparity":
        f = fam.gen_quparity(inst.size)
    elif inst.family == "eqprime":
        f = fam.gen_eqprime(inst.size)
    else:
        inst.graph = lib.graphs.random_dregular(inst.size, 3, seed=inst.seed)
        f = fam.gen_ipg_qbf(inst.graph)
    inst.qdimacs = lib.pcnf.emit_qdimacs(f)


# -- trace mutants ----------------------------------------------------------


MUTANT_KINDS = (
    "wrong-operand",
    "non-rightmost-ured",
    "false-entail",
    "axiom-mismatch",
    "bad-hash",
    "truncation",
)


def mutant(lib, f, trace, kind: str):
    """One corrupted trace (or, for truncation, trace text) and its reason code.

    The same six kinds the acceptance suite kills, re-implemented here so
    the benchmark does not import the test package.
    """
    proof = lib.proof
    lines = list(trace.lines)

    def with_lines(new):
        return proof.ProofTrace(trace.formula_hash, trace.order, tuple(new))

    if kind == "wrong-operand":
        lines[-1] = proof.ProofLine(lines[-1].id, proof.Conj(1, 2))
        return with_lines(lines), proof.NOT_REFUTATION
    if kind == "non-rightmost-ured":
        idx, ured = next(
            (i, l) for i, l in enumerate(lines) if isinstance(l.rule, proof.URed)
        )
        other = next(u for u in f.universals if u != ured.rule.var)
        lines[idx] = proof.ProofLine(
            ured.id, proof.URed(other, ured.rule.value, ured.rule.premise)
        )
        return with_lines(lines), proof.URED_NOT_RIGHTMOST
    if kind == "false-entail":
        mgr = lib.obdd.Manager(trace.order)
        bogus = lib.obdd.serialize(mgr, mgr.ZERO)
        lines.append(proof.ProofLine(lines[-1].id + 1, proof.Entail((1,), bogus)))
        return with_lines(lines), proof.ENTAILMENT_FAILED
    if kind == "axiom-mismatch":
        lines[0] = proof.ProofLine(lines[0].id, proof.Axiom(2))
        return with_lines(lines), proof.AXIOM_MISMATCH
    if kind == "bad-hash":
        return proof.ProofTrace("0" * 64, trace.order, trace.lines), proof.HASH_MISMATCH
    text = proof.emit_trace(trace).splitlines()
    return "\n".join(text[: len(text) * 3 // 4]), proof.TRUNCATED


def check_mutant(lib, f, trace, kind: str) -> tuple[str | None, str]:
    """Build one mutant; return the reason it is rejected for and the
    reason expected.  Truncated text goes to the parser, the rest to the
    checker."""
    proof = lib.proof
    m, expected = mutant(lib, f, trace, kind)
    if isinstance(m, str):
        try:
            proof.parse_trace(m)
        except proof.TraceParseError as exc:
            return exc.reason, expected
        return None, expected
    out = proof.check_trace(f, m, require_refutation=True)
    return (None if out.accepted else out.verdict.reason), expected


# -- the pipeline -------------------------------------------------------------


STAGES = (
    "parse",
    "order",
    "solve",
    "trace_io",
    "check",
    "mutant",
    "extract",
    "strategy_io",
    "verify",
    "rect",
)


@dataclass
class Record:
    """What one instance produced: stage seconds, counts and check outcomes."""

    stages: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    checks: list[tuple[str, bool]] = field(default_factory=list)
    protocol_rounds: list[int] = field(default_factory=list)
    texts: list[str] = field(default_factory=list)  # trace, then strategy

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))


class Clock:
    """Times stages; when tracing, each stage is also a span."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def run(self, rec: Record, stage: str, fn, *args, **kwargs):
        if self.tracer is None:
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            rec.stages[stage] = time.perf_counter() - t0
            return out
        with self.tracer.stage(stage) as idx:
            out = fn(*args, **kwargs)
        rec.stages[stage] = self.tracer.end[idx] - self.tracer.start[idx]
        return out


def _order(lib, w: Workload, inst: Instance, f):
    if w.order == "default":
        return lib.solver.default_order(f)
    make = (
        lib.families.quparity_decomposition
        if inst.family == "quparity"
        else lib.families.eqprime_decomposition
    )
    return _complete_order(lib, f, lib.graphs.order_from_decomposition(make(inst.size)))


def _complete_order(lib, f, order):
    """Append prefix variables missing from the decomposition, as ``qobdd bench`` does."""
    have = set(order.vars)
    return lib.obdd.VarOrder(list(order.vars) + [v for v in f.variables if v not in have])


def _rect(lib, w: Workload, inst: Instance, f, family, rec: Record, rng):
    """Rectangle lists at the middle cut for the outermost and innermost
    universal, protocol plays on seeded assignments, and the brute-force
    oracle on small graphs."""
    st = lib.strategy
    order = family.manager.order
    cut = len(order) // 2
    universals = f.universals
    for u in dict.fromkeys((universals[0], universals[-1])):
        dl = family.lists[u]
        rdl = st.to_rectangle_list(dl, cut)
        rec.counts["rect_list_len"] = rec.counts.get("rect_list_len", 0) + len(rdl)
        rec.check("rect-list-bound", len(rdl) <= dl.width_bound() * (len(dl) - 1) + 1)
        x1, x2 = rdl.partition
        for _ in range(PROTOCOL_PLAYS):
            full = {v: rng.getrandbits(1) for v in order.vars}
            run = st.and_protocol_run(
                rdl, {v: full[v] for v in x1}, {v: full[v] for v in x2}
            )
            rec.protocol_rounds.append(run.rounds)
            rec.check("protocol-value", run.value == dl.evaluate(full))
    if inst.graph is not None and inst.size <= ORACLE_MAX_VERTICES:
        verts = list(inst.graph.vertices)
        rng.shuffle(verts)
        half = len(verts) // 2
        report = lib.rectangles.check_rectanglesmall(
            inst.graph, (sorted(verts[:half]), sorted(verts[half:]))
        )
        rec.counts["oracle_max"] = report["oracle_max"]
        rec.check("rectangle-bound", report["ok"])


def run_instance(lib, w: Workload, inst: Instance, clock: Clock) -> Record:
    """Parse -> order -> solve -> trace emit/parse -> check [-> mutant]
    -> extract -> strategy emit/parse -> verify -> rect, checking each
    result against what is known about the instance."""
    rec = Record()
    rng = random.Random(inst.seed)
    run = clock.run
    f = run(rec, "parse", lib.pcnf.parse_qdimacs, inst.qdimacs)
    rec.counts["clauses"] = len(f.clauses)
    order = run(rec, "order", _order, lib, w, inst, f)

    res = run(rec, "solve", lib.solver.solve, f, order=order)
    stats = res.stats
    rec.counts.update(
        lines=stats.line_count,
        trace_nodes=stats.trace_nodes,
        max_width=stats.max_width,
        eliminations=len(stats.eliminations),
    )
    # every family and IPG formula is false by construction
    rec.check("verdict-false", res.value is False)

    def trace_io():
        text = lib.proof.emit_trace(res.trace)
        return text, lib.proof.parse_trace(text)

    text, trace = run(rec, "trace_io", trace_io)
    rec.texts.append(text)
    rec.counts["trace_bytes"] = len(text)
    rec.check("trace-roundtrip", trace == res.trace)

    chk = run(rec, "check", lib.proof.check_trace, f, trace, require_refutation=True)
    rec.check("genuine-accepted", chk.accepted and chk.refutation)
    rec.counts["check_store_nodes"] = len(chk.manager)

    if w.mutants:
        kind = rng.choice(MUTANT_KINDS)
        reason, expected = run(rec, "mutant", check_mutant, lib, f, trace, kind)
        rec.check(f"mutant-{kind}", reason == expected)
        rec.counts["mutants_rejected"] = int(reason == expected)

    # extract audits the decision lists itself and raises if they fail
    family = run(rec, "extract", lib.strategy.extract, f, trace, chk)
    rec.counts["list_entries"] = sum(len(dl) for dl in family.lists.values())

    def strategy_io():
        stext = lib.strategy.emit_strategy(family)
        return stext, lib.strategy.parse_strategy(stext, f)

    stext, parsed = run(rec, "strategy_io", strategy_io)
    rec.texts.append(stext)

    verdict = run(
        rec, "verify", lib.strategy.verify_winning, f, parsed,
        samples=VERIFY_PLAYS, seed=inst.seed,
    )
    rec.check("winning", verdict.winning)
    rec.counts["verify_plays"] = verdict.checked
    rec.counts["strategy_store_nodes"] = len(parsed.manager)

    run(rec, "rect", _rect, lib, w, inst, f, family, rec, rng)
    return rec


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()
