"""Universal winning strategies as per-variable OBDD decision lists.

From a checked refutation, a single scan of its lines builds one decision
list per universal variable u: for every reduction line L_i = L_j[u/c],
the entry with guard not L_i and value c is appended, and a constant-true
guard with value 1 closes the list.  Guards are held as their lines: a
list stores the pair (L_i, c), references into the checker's manager, and
an entry fires where its line is 0.  The complement's diagram is the
line's with the sinks swapped, node for node, so it has the same support
and shape, and each reader takes the negation at the sinks: evaluation
tests for 0, strategy files write and read the sinks swapped, and the
rectangle covers keep the line's cut states that are not ONE and negate
only those.  So extraction creates no node, and the scan costs the trace
length plus the audit's walk of the lines.

A guard built this way only mentions variables left of u in the prefix, so
responses can be computed one universal at a time, outermost first, and
the strategy is a well-defined function of the existential assignment.

``verify_winning`` plays the family against existential assignments in
chunks, one bit per play: each variable's values over a chunk form one int
column, ``Manager.evaluate_bits`` computes each line node once per chunk
on those columns, an entry fires on the complement of its line's column,
and the matrix is one AND of clause ORs.  Only the first losing play, if
any, is replayed with the scalar ``respond``.
``strategy_range_size`` answers its plays with the same columns.

The second half of this module converts a decision list into a rectangle
decision list along a cut of the manager's order: one record holding the
partition (X1, X2) = (first ``cut`` variables, the rest) and first-match
``(r1, r2, value)`` entries, where r1 reads only X1 and r2 only X2.  Each
guard contributes the cover ``CompleteObdd.covers`` reads off its line: the
cut states come from the line's layered diagram, so only ``obdd`` knows the
layered format, and every r1 from one bottom-up sweep of sparse maps over
the store nodes above the cut, the maps shared by the whole list.  The
two-player conjunction protocol is the list's one evaluator.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import obdd
from .obdd import BlockFormatError, Manager, OrderError, Row, VarOrder, transpose
from .pcnf import FORALL, Pcnf
from .proof import CheckResult, ProofTrace, check_trace


class StrategyError(obdd.QobddError):
    pass


EXHAUSTIVE_PLAYS = 2**16  # verify_winning always enumerates 16 existentials
_CHUNK_PLAYS = 4096  # plays per bit-parallel pass of verify_winning
RANGE_LIMIT = 20  # strategy_range_size enumerates at most 20 existentials


@dataclass
class DecisionList:
    """First-match entries, each held as (line, bit): the entry fires where
    its line is 0, so its guard is the line's complement.  The last line is
    constant false, that is, the last guard constant true."""

    manager: Manager
    lines: list[tuple[int, int]]  # (line ref, value)

    def __post_init__(self):
        if not self.lines or self.lines[-1][0] != self.manager.ZERO:
            raise StrategyError("decision list must end in a constant-true guard")
        for _, value in self.lines:
            if type(value) is not int or not 0 <= value <= 1:
                raise StrategyError(f"entry value {value!r} is not the int 0 or 1")

    def __len__(self) -> int:
        return len(self.lines)

    def evaluate(self, assignment: Mapping[int, int]) -> int:
        for line, value in self.lines:
            if not self.manager.evaluate(line, assignment):
                return value
        raise AssertionError("unreachable: terminal line is constant false")

    def width_bound(self) -> int:
        """Largest complete width over the guards, read off their lines."""
        return max(self.manager.shape(line).width for line, _ in self.lines)


@dataclass
class DecisionListFamily:
    """One decision list per universal, audited when built: a family
    exists only if each guard reads just the variables left of its universal."""

    formula: Pcnf
    manager: Manager
    lists: dict[int, DecisionList]

    def __post_init__(self):
        self.audit()

    def audit(self) -> None:
        """Each guard may only mention variables left of its universal; one
        walk of the prefix, which reports the outermost offending universal.
        Every universal has a list, and no list is for an unquantified
        variable.

        The support walks share one visited set, so each node is read once
        per family: a node accepted for an outer universal is accepted for
        every inner one, whose set of variables to the left only grows.  So
        the variables of a list's unread nodes outside ``left`` are all of
        its support outside ``left``."""
        support, seen = self.manager.support, set()
        left: set[int] = set()
        for _, v in self.formula.prefix:
            if v in self.lists:
                extra = support(*(line for line, _ in self.lists[v].lines), seen=seen) - left
                if extra:
                    raise StrategyError(
                        f"guards for {v} depend on non-preceding variables {sorted(extra)}"
                    )
            left.add(v)
        unquantified = self.lists.keys() - left
        if unquantified:
            raise StrategyError(f"lists for unquantified variables {sorted(unquantified)}")
        missing = [u for u in self.formula.universals if u not in self.lists]
        if missing:
            raise StrategyError(f"no decision list for universals {missing}")

    def respond(self, tau: Mapping[int, int]) -> dict[int, int]:
        """Extend an existential assignment with the strategy's responses."""
        full = dict(tau)
        for q, v in self.formula.prefix:
            if q == FORALL:
                full[v] = self.lists[v].evaluate(full)
        return full


def extract(
    f: Pcnf, trace: ProofTrace, check: CheckResult | None = None
) -> DecisionListFamily:
    """Decision lists from a refutation, in one pass over its lines; each
    list holds its reduction lines as they are, so no node is created.  A
    reduction's value, which the checker took as equal to 0 or 1, enters
    its list as that int, so a bool becomes its digit."""
    if check is None:
        check = check_trace(f, trace, require_refutation=True)
    if not check.accepted:
        v = check.verdict
        raise StrategyError(f"trace rejected at line {v.line}: {v.reason}")
    if not check.refutation:
        raise StrategyError("strategy extraction needs a refutation")
    mgr = check.manager
    assert mgr is not None and check.functions is not None
    pairs: dict[int, list[tuple[int, int]]] = {u: [] for u in f.universals}
    for lid, var, value in check.reductions:
        pairs[var].append((check.functions[lid], int(value)))
    lists = {
        u: DecisionList(mgr, entries + [(mgr.ZERO, 1)])
        for u, entries in pairs.items()
    }
    return DecisionListFamily(f, mgr, lists)


@dataclass(frozen=True)
class WinningVerdict:
    winning: bool
    counterexample: dict[int, int] | None
    checked: int
    exhaustive: bool

    def __bool__(self) -> bool:
        return self.winning


def verify_winning(
    f: Pcnf,
    family: DecisionListFamily,
    samples: int = 100000,
    seed: int = 0,
) -> WinningVerdict:
    """Does the family falsify the matrix against every existential play?

    Plays every existential assignment when there are at most
    max(``samples``, ``EXHAUSTIVE_PLAYS``) of them, and ``samples`` seeded
    random assignments otherwise; the verdict's ``exhaustive`` says which.
    A counterexample is reported in the verdict, never raised; the family
    was audited when built, and must be built for ``f``.

    Plays go in chunks of ``_CHUNK_PLAYS``, one bit per play: each
    variable's values form one int column, each universal's response
    column comes from ``Manager.evaluate_bits`` on its lines, an entry
    firing where its line is 0 and the first match winning, and the matrix
    column is the AND of the clause ORs.  One memo per chunk serves every
    line, so each line node is computed once per chunk.  The first play
    whose matrix bit is set is the counterexample, and ``checked`` counts
    the plays up to and including it.
    """
    if samples < 1:
        raise StrategyError(f"samples must be at least 1, got {samples}")
    if family.formula != f:
        raise StrategyError("strategy family was built for another formula")
    evars = f.existentials
    width = len(evars)
    total = 1 << width
    exhaustive = total <= max(samples, EXHAUSTIVE_PLAYS)
    if not exhaustive:
        rng = random.Random(seed)
        total = samples
    for start in range(0, total, _CHUNK_PLAYS):
        size = min(_CHUNK_PLAYS, total - start)
        if exhaustive:
            plays: Sequence[int] = range(start, start + size)
        else:
            plays = [rng.getrandbits(width) for _ in range(size)]
        full = (1 << size) - 1
        columns = dict(zip(evars, transpose(plays, width)))
        _respond_bits(family, columns, full)
        sat = full
        for c in f.clauses:
            col = 0
            for lit in c:
                x = columns[abs(lit)]
                col |= x if lit > 0 else full ^ x
            sat &= col
            if not sat:
                break
        if sat:
            j = (sat & -sat).bit_length() - 1
            bits = plays[j]
            tau = {v: (bits >> i) & 1 for i, v in enumerate(evars)}
            return WinningVerdict(False, family.respond(tau), start + j + 1, exhaustive)
    return WinningVerdict(True, None, total, exhaustive)


def _respond_bits(family: DecisionListFamily, columns: dict[int, int], full: int) -> None:
    """Add each universal's response column to ``columns``, outermost
    first: bit j is set where the first entry firing in play j, the first
    whose line is 0 there, has value 1.  ``full`` has one bit per play; one
    memo serves every line."""
    mgr = family.manager
    evaluate_bits = mgr.evaluate_bits
    memo = {mgr.ZERO: 0, mgr.ONE: full}
    for u in family.formula.universals:
        resp = decided = 0
        for line, value in family.lists[u].lines:
            fire = (full ^ evaluate_bits(line, columns, memo)) & ~decided
            if value:
                resp |= fire
            decided |= fire
            if decided == full:
                break
        columns[u] = resp


def strategy_range_size(family: DecisionListFamily) -> int:
    """Number of distinct universal response vectors across existential plays.

    Responses only depend on existential variables appearing in some guard,
    so enumeration runs over that subset, of at most ``RANGE_LIMIT``; the
    others are never read.  The subset comes from one support walk over
    every list's lines with one visited set, as in the family audit.  The
    plays go in chunks of ``_CHUNK_PLAYS``, one bit per play, answered as
    in ``verify_winning``, and each play's response vector is one int, bit
    i the i-th universal's response, read across the universals' columns
    by ``obdd.transpose``.  The family was audited when built.
    """
    f = family.formula
    lines = [line for dl in family.lists.values() for line, _ in dl.lines]
    relevant = sorted(family.manager.support(*lines) & set(f.existentials))
    if len(relevant) > RANGE_LIMIT:
        raise StrategyError(
            f"{len(relevant)} relevant existentials exceed limit {RANGE_LIMIT}"
        )
    universals = f.universals
    if not universals:
        return 1  # every play answers with the empty vector
    total = 1 << len(relevant)
    seen: set[int] = set()
    for start in range(0, total, _CHUNK_PLAYS):
        size = min(_CHUNK_PLAYS, total - start)
        columns = dict(zip(relevant, transpose(range(start, start + size), len(relevant))))
        _respond_bits(family, columns, (1 << size) - 1)
        # transposed back: the universals' columns are the rows, and
        # play j's column is its response vector
        seen.update(transpose([columns[u] for u in universals], size))
    return len(seen)


# -- rectangles ------------------------------------------------------------


@dataclass
class RectangleDecisionList:
    """First-match ``(r1, r2, value)`` entries over one partition (X1, X2).

    Each ``r1`` reads only X1 and each ``r2`` only X2, both refs of
    ``manager``; the last entry is the full rectangle (ONE, ONE, b).
    """

    manager: Manager
    partition: tuple[tuple[int, ...], tuple[int, ...]]
    entries: list[tuple[int, int, int]]

    def __post_init__(self):
        one = self.manager.ONE
        if not self.entries or self.entries[-1][:2] != (one, one):
            raise StrategyError("terminal rectangle must be full")

    def __len__(self) -> int:
        return len(self.entries)

    def evaluate(self, assignment: Mapping[int, int]) -> int:
        return and_protocol_run(self, assignment, assignment).value


def to_rectangle_list(dl: DecisionList, cut: int) -> RectangleDecisionList:
    """Expand each guard into its cover at the cut, preserving order and
    values; the cut must be a prefix length of the manager's order, and is
    checked before any line is completed.

    A guard's cover is its line's ``Manager.complete(line, cut).covers(cut,
    ONE, reach)``, whose layers stop at the cut, with each state negated:
    an assignment reaches a state of the line exactly where it reaches that
    state's complement in the guard.  One map memo ``reach`` and one
    negation memo serve the whole list, so a node shared by several lines
    is swept and negated once.  For a list of length s whose guards have
    complete width at most w, the result has length at most w*(s-1) + 1
    and computes the same function.
    """
    mgr = dl.manager
    order = mgr.order.vars
    if not 0 <= cut <= len(order):
        raise StrategyError(f"cut {cut} not a prefix length of the order")
    negate, memo, reach = mgr.negate, {}, {}
    entries = [
        (r1, negate(state, memo), value)
        for line, value in dl.lines[:-1]
        for r1, state in mgr.complete(line, cut).covers(cut, mgr.ONE, reach)
    ]
    entries.append((mgr.ONE, mgr.ONE, dl.lines[-1][1]))
    return RectangleDecisionList(mgr, (order[:cut], order[cut:]), entries)


@dataclass(frozen=True)
class ProtocolRun:
    value: int
    rounds: int


def and_protocol_run(
    rdl: RectangleDecisionList,
    a1: Mapping[int, int],
    a2: Mapping[int, int],
) -> ProtocolRun:
    """Two players evaluate the list; a referee broadcasts bit conjunctions.

    Each round the left player sends r1(a1) and the right player r2(a2) for
    the current rectangle; the first round whose conjunction is 1 fixes the
    output.  The round count is the index of the first firing rectangle;
    a round whose r1 is 0 is decided without r2.
    """
    x1_vars, x2_vars = rdl.partition
    if not (all(map(a1.__contains__, x1_vars)) and all(map(a2.__contains__, x2_vars))):
        raise StrategyError("assignments do not cover their partition sides")
    evaluate = rdl.manager.evaluate
    for rounds, (r1, r2, value) in enumerate(rdl.entries, start=1):
        if evaluate(r1, a1) and evaluate(r2, a2):
            return ProtocolRun(value, rounds)
    raise AssertionError("unreachable: terminal rectangle is full")


# -- strategy files ---------------------------------------------------------
#
#   p qobdd-strategy
#   u <var> <s>
#   entry <0|1>
#   <ObddBlock>          (one per entry, guard of that entry)
#   ...
#
# Comments and blank lines follow the block format's rule (see obdd).  A
# list holds lines, not guards, so each block is written and read with its
# sinks swapped.


def emit_strategy(family: DecisionListFamily) -> str:
    out = ["p qobdd-strategy"]
    for u in family.formula.universals:
        dl = family.lists[u]
        out.append(f"u {u} {len(dl)}")
        for line, value in dl.lines:
            out.append(f"entry {value}")
            out.append(obdd.serialize(family.manager, line, negated=True))
    return "\n".join(out) + "\n"


def _infer_order(blocks: list[list[Row]], extra_vars: Iterable[int]) -> VarOrder:
    """Smallest-first topological order of every block's parent/child pairs."""
    succ: dict[int, set[int]] = {v: set() for v in extra_vars}
    for rows in blocks:
        for var, lo, hi in rows:
            if var is not None:
                kids = succ.get(var)
                if kids is None:
                    succ[var] = kids = set()
                # children precede parents, so their variables are known
                w = rows[lo][0]
                if w is not None:
                    kids.add(w)
                w = rows[hi][0]
                if w is not None:
                    kids.add(w)
    indeg = {v: 0 for v in succ}
    for kids in succ.values():
        for w in kids:
            indeg[w] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    out: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        out.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(out) != len(succ):
        raise StrategyError("strategy guards admit no common variable order")
    return VarOrder(out)


def parse_strategy(
    text: str, f: Pcnf, node_budget: int = obdd.DEFAULT_NODE_BUDGET
) -> DecisionListFamily:
    """Read a strategy file into an audited family over one manager; its
    guards may build at most ``node_budget`` nodes, else
    ``obdd.BudgetExceededError``.  The manager's order is inferred from the
    guards' rows, which ``obdd.build_rows`` then builds."""
    reader = obdd.TextReader(text)
    raw: dict[int, list[tuple[int, list[Row]]]] = {}
    try:
        if reader.line() != "p qobdd-strategy":
            raise StrategyError("bad strategy header")
        while not reader.at_end():
            head = reader.line()
            parts = head.split()
            if len(parts) != 3 or parts[0] != "u":
                raise StrategyError(f"expected `u <var> <s>`, got {head!r}")
            var, count = int(parts[1]), int(parts[2])
            if var in raw:
                raise StrategyError(f"universal {var} listed twice")
            raw[var] = [_parse_entry(reader) for _ in range(count)]
    except (BlockFormatError, ValueError) as exc:
        raise StrategyError(f"bad strategy file: {exc}") from None
    if set(raw) != set(f.universals):
        raise StrategyError("strategy file does not cover the universal variables")
    blocks = [rows for entries in raw.values() for _, rows in entries]
    try:
        order = _infer_order(blocks, f.variables)
    except OrderError as exc:  # a row's variable below 1
        raise StrategyError(f"bad strategy file: {exc}") from None
    mgr = Manager(order, node_budget=node_budget)
    lists = {
        var: DecisionList(mgr, [(obdd.build_rows(rows, mgr), v) for v, rows in entries])
        for var, entries in raw.items()
    }
    return DecisionListFamily(f, mgr, lists)


def _parse_entry(reader: obdd.TextReader) -> tuple[int, list[Row]]:
    """The entry's value and the rows of its line: the guard's block with
    the sinks swapped."""
    parts = reader.line().split()
    if len(parts) != 2 or parts[0] != "entry" or parts[1] not in ("0", "1"):
        raise StrategyError("expected `entry <0|1>`")
    rows = [row if row[0] is not None else (None, None, 1 - row[2]) for row in reader.block()]
    return int(parts[1]), rows
