"""Symbolic quantifier elimination by bucket processing, with trace output.

Clause diagrams are grouped into buckets by their rightmost prefix
variable.  Variables are eliminated innermost-first: conjoin the bucket,
quantify the variable out, and drop the result into the bucket of its new
rightmost variable.  Reaching the constant 0 anywhere ends the run with
FALSE and a derivation of 0; surviving every elimination means TRUE.

Every step is logged as a trace line: conjunctions directly, existential
elimination as a projection, and universal elimination as two constant
substitutions joined by a conjunction (for a rightmost variable x,
forall x. L  =  L[x/0] and L[x/1], so the log stays within the checker's
rule set).  An existential bucket of two or more entries takes its last
conjunction L, which ``SolveStats`` measures, and exists x. L from one
``Manager.conj_exists`` walk, and emits them as the ``C`` and ``P`` lines;
a single-entry bucket projects with ``Manager.exists``.  A universal's
three lines come from one ``Manager.forall_split`` walk over L.  One
``emit`` in ``solve`` writes every line, axioms included.
An axiom's size, width and rightmost prefix position are read off its
clause, the position from a literal-to-prefix-position table built once
per solve.  Every other line's come from one ``Manager._shape`` walk, the
unchecked walk behind ``Manager.shape``: its ref is this solve's and its
rank-to-prefix-position list is built once, so each line pays for the walk
alone.  The walk expands the line's nodes in rank order and reads each
layer's width when its rank comes up: off a heap of the nodes while no
layer is wider than 8, in O(size * log width) heap steps, and past that
off one list per rank, in O(size) dict steps.  It keeps no support set
and no count per layer, and its cost does not grow with the variable
count.  The checker and the translator read reduction's side condition
off the same walk, and a bucket's conjunctions go straight to the ``and``
kernel ``Manager._apply``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

from .graphs import narrow_order
from .obdd import DEFAULT_NODE_BUDGET, OPS, Manager, OrderError, VarOrder
from .pcnf import EXISTS, Clause, Pcnf, primal_graph
from .proof import Axiom, Conj, Proj, ProofLine, ProofTrace, URed, formula_hash


@dataclass
class SolveStats:
    """Counts of one run, each stored once: ``widths`` holds every trace
    line's complete width, so line count and largest width derive from it,
    and ``eliminations`` the variable of each bucket processed, innermost first."""

    value: bool | None = None
    widths: list[int] = field(default_factory=list)
    trace_nodes: int = 0  # sum of line diagram sizes
    eliminations: list[int] = field(default_factory=list)
    wall_time_ms: float = 0.0

    @property
    def line_count(self) -> int:
        return len(self.widths)

    @property
    def max_width(self) -> int:
        return max(self.widths, default=0)

    def as_dict(self, with_timing: bool = True) -> dict:
        out = {
            "value": self.value,
            "max_width": self.max_width,
            "trace_nodes": self.trace_nodes,
            "lines": self.line_count,
            "eliminations": len(self.eliminations),
        }
        if with_timing:
            out["wall_time_ms"] = round(self.wall_time_ms, 3)
        return out


@dataclass
class SolveResult:
    value: bool
    trace: ProofTrace
    stats: SolveStats


def default_order(f: Pcnf) -> VarOrder:
    """``graphs.narrow_order`` of the primal graph, extended to the prefix."""
    return extend_order(f, narrow_order(primal_graph(f)))


def extend_order(f: Pcnf, leading: Sequence[int]) -> VarOrder:
    """``leading`` first, then the prefix variables it misses, in prefix order."""
    have = set(leading)
    return VarOrder([*leading, *(v for v in f.variables if v not in have)])


def prefix_order(f: Pcnf) -> VarOrder:
    return VarOrder(f.variables)


# A trace line as the eliminator sees it: (ref, line id, size, rightmost
# prefix position); the position is None for constants, which never enter
# a bucket.
Entry = tuple[int, int, int, int | None]
_by_size = itemgetter(2, 1)  # a bucket's entries, smallest diagram first
_AND = OPS["and"]


def solve(
    f: Pcnf,
    order: VarOrder | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SolveResult:
    """Decide the PCNF formula; FALSE runs yield a checkable refutation.

    TRUE runs still return their derivation log (never a refutation).
    An order that does not cover exactly the formula variables raises
    ``obdd.OrderError``.  Exceeding the node budget raises
    ``obdd.BudgetExceededError``; a budget hit is never a verdict.
    """
    start = time.perf_counter()
    if order is None:
        order = default_order(f)
    if set(order.vars) != set(f.variables):
        raise OrderError("order must cover exactly the formula variables")
    mgr = Manager(order, node_budget=node_budget)
    # prefix position of each literal, and of each rank's variable
    where = {l: p for p, (_, v) in enumerate(f.prefix) for l in (v, -v)}
    positions = [where[v] for v in order.vars]
    last = order.vars[-1] if order.vars else None
    walk = mgr._shape
    lines: list[ProofLine] = []
    widths: list[int] = []
    sizes: list[int] = []

    def emit(rule, ref: int, known: tuple | None = None) -> Entry:
        size, width, right = walk(ref, positions) if known is None else known
        lines.append(ProofLine(len(lines) + 1, rule))
        widths.append(width)
        sizes.append(size)
        return (ref, len(lines), size, right)

    def axiom(i: int, c: Clause) -> Entry:
        # Pcnf clauses are canonical, so one of k >= 1 literals is a chain
        # of k nodes over both sinks: width 2, or 1 for a unit on the
        # order's last variable; the empty clause is the constant ZERO
        ref = mgr.clause(c)
        if ref <= 1:
            return emit(Axiom(i), ref)
        width = 1 if len(c) == 1 and abs(c[0]) == last else 2
        return emit(Axiom(i), ref, (len(c) + 2, width, max(map(where.__getitem__, c))))

    axioms = [axiom(i, c) for i, c in enumerate(f.clauses, start=1)]
    eliminations: list[int] = []
    value = _eliminate_all(f, mgr, axioms, emit, eliminations)
    wall_ms = (time.perf_counter() - start) * 1000.0
    stats = SolveStats(value, widths, sum(sizes), eliminations, wall_ms)
    return SolveResult(value, ProofTrace(formula_hash(f), order, tuple(lines)), stats)


def _eliminate_all(f, mgr, axioms, emit, eliminations) -> bool:
    """Bucket elimination, innermost variable first; False once 0 appears.

    An empty clause refutes at once.  Each other clause diagram enters its
    rightmost variable's bucket at its first axiom line: equal diagrams end
    at one position, so one set keeps every repeat out."""
    buckets: list[list[Entry]] = [[] for _ in f.prefix]
    placed: set[int] = set()
    for entry in axioms:
        ref, lid, _, pos = entry
        if ref == mgr.ZERO:
            emit(Conj(lid, lid), ref)
            return False
        if pos is not None and ref not in placed:
            placed.add(ref)
            buckets[pos].append(entry)
    for pos in range(len(f.prefix) - 1, -1, -1):
        entries = buckets[pos]
        if not entries:
            continue
        q, var = f.prefix[pos]
        entries.sort(key=_by_size)
        cur, proj = entries[0], None
        for i, nxt in enumerate(entries[1:], start=2):
            if q == EXISTS and i == len(entries):
                ref, proj = mgr.conj_exists(cur[0], nxt[0], var)
            else:
                ref = mgr._apply(_AND, cur[0], nxt[0], {})
            cur = emit(Conj(cur[1], nxt[1]), ref)
            if ref == mgr.ZERO:
                return False
        ref, lid, _, right = cur
        # every entry here ends at pos, so their conjunction ends at pos or
        # before; it ends at pos exactly when var is still in its support
        if right == pos:
            if q == EXISTS:
                cur = emit(Proj(var, lid), mgr.exists(ref, var) if proj is None else proj)
            else:
                r0, r1, both = mgr.forall_split(ref, var)
                lid0 = emit(URed(var, 0, lid), r0)[1]
                lid1 = emit(URed(var, 1, lid), r1)[1]
                cur = emit(Conj(lid0, lid1), both)
        ref, _, _, new_pos = cur
        eliminations.append(var)
        if ref == mgr.ZERO:
            return False
        if ref == mgr.ONE:
            continue
        assert new_pos < pos
        buckets[new_pos].append(cur)
    return True
