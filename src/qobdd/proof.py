"""Derivation traces over OBDD lines, and an independent replay checker.

A trace is pure syntax: rule applications referring to earlier line ids.
The checker rebuilds every line in a fresh manager, so accepting a trace
never trusts the producer's diagrams.  Rules:

* ``A i``     -- axiom, the OBDD of matrix clause i (lines 1..m, in order);
* ``C j k``   -- conjunction of lines j and k;
* ``P x j``   -- existential projection of x out of line j (plain
  weakening, so x need not occur in line j);
* ``U x c j`` -- universal reduction: substitute constant c for x, which
  must be universal and rightmost in the prefix among line j's variables;
* ``E j.. 0`` -- entailment, with the claimed OBDD embedded as a block
  (the only rule whose conclusion is not determined by its premises).

A trace refutes its formula when the last line denotes the constant 0.

The checker replays some lines together, as the solver made them: a
universal's two reductions and their conjunction in one walk, and a
conjunction read by nothing but one projection (an existential bucket's
``C j k`` then ``P x l``) in one ``Manager.and_exists`` walk that never
builds the conjunction above x.  Such a fused ``C`` line has no entry in
the accepted result's functions; every other line has its own.  A
reduction's side test reads the rightmost position off ``Manager.shape``.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import Union

from . import obdd
from .obdd import BlockFormatError, BudgetExceededError, Manager, OrderError, VarOrder
from .pcnf import Pcnf, emit_qdimacs

# rejection reason codes
HASH_MISMATCH = "formula-hash-mismatch"
ORDER_MISMATCH = "order-mismatch"
AXIOM_MISMATCH = "axiom-mismatch"
BAD_REFERENCE = "bad-reference"
URED_NOT_UNIVERSAL = "ured-not-universal"
URED_NOT_RIGHTMOST = "ured-not-rightmost"
ENTAILMENT_FAILED = "entailment-failed"
MALFORMED_BLOCK = "malformed-block"
NOT_REFUTATION = "not-a-refutation"
TRUNCATED = "truncated"
MALFORMED = "malformed"


class TraceError(obdd.QobddError):
    pass


class TraceParseError(TraceError):
    def __init__(self, message: str, reason: str = MALFORMED):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class Axiom:
    clause_index: int  # 1-based index into the matrix


@dataclass(frozen=True)
class Conj:
    left: int
    right: int


@dataclass(frozen=True)
class Proj:
    var: int
    premise: int


@dataclass(frozen=True)
class URed:
    var: int
    value: int
    premise: int


@dataclass(frozen=True)
class Entail:
    premises: tuple[int, ...]
    block: str


Rule = Union[Axiom, Conj, Proj, URed, Entail]


@dataclass(frozen=True)
class ProofLine:
    id: int
    rule: Rule


@dataclass(frozen=True)
class ProofTrace:
    formula_hash: str
    order: VarOrder
    lines: tuple[ProofLine, ...]

    def referenced(self, rule: Rule) -> tuple[int, ...]:
        if isinstance(rule, Conj):
            return (rule.left, rule.right)
        if isinstance(rule, (Proj, URed)):
            return (rule.premise,)
        if isinstance(rule, Entail):
            return rule.premises
        return ()


def formula_hash(f: Pcnf) -> str:
    return hashlib.sha256(emit_qdimacs(f).encode()).hexdigest()


# -- verdicts ------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    line: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


@dataclass
class CheckResult:
    verdict: Verdict
    manager: Manager | None = None
    functions: dict[int, int] | None = None  # line id -> node ref
    last_ref: int | None = None

    @property
    def accepted(self) -> bool:
        return self.verdict.accepted

    @property
    def refutation(self) -> bool:
        return self.accepted and self.last_ref == Manager.ZERO


def check_trace(
    f: Pcnf,
    trace: ProofTrace,
    node_budget: int = obdd.DEFAULT_NODE_BUDGET,
    require_refutation: bool = False,
) -> CheckResult:
    """Replay a trace against its formula in a fresh manager.

    Returns an accepting result carrying the replayed line functions, or a
    rejection naming the offending line and a reason code.  Two reductions
    of one premise on one variable to opposite constants, when some ``Conj``
    line joins them, are replayed at the pair's first reduction line: its
    side test and one ``Manager.forall_split`` walk give both reductions and
    their conjunction, which the pair's other lines and that ``Conj`` read.
    A ``Conj`` line that joins no such pair, and whose only referrer is a
    ``Proj`` line on it projecting a variable of the order, is fused: at
    its own line one ``Manager.and_exists`` walk gives the projection of
    the conjunction, held until that ``Proj`` line reads it, and
    ``functions`` has no entry for it (``strategy.extract`` reads only the
    reduction lines).  Every other line is replayed on its own.  Verdicts
    and reason codes are those of a replay of every line on its own; a
    reduction to a constant other than 0 or 1 is ``malformed``.

    A budget hit is never a verdict: running out of ``node_budget`` raises
    ``obdd.BudgetExceededError("line <id>")``, naming the line whose replay
    ran out (for a joined pair, its first reduction line; for a fused
    conjunction, its ``Conj`` line).  ``solver.solve`` raises the same error
    without a line.
    """

    def reject(line_id: int | None, reason: str) -> CheckResult:
        return CheckResult(Verdict(False, line_id, reason))

    if trace.formula_hash != formula_hash(f):
        return reject(None, HASH_MISMATCH)
    if set(trace.order.vars) != set(f.variables):
        return reject(None, ORDER_MISMATCH)
    mgr = Manager(trace.order, node_budget=node_budget)
    positions = [f.prefix_position(v) for v in trace.order.vars]  # by rank
    funcs: dict[int, int] = {}
    joined, fused = _replay_hints(trace)
    held: dict[int, int] = {}  # fused Conj line -> its projection, until read
    splits: dict[tuple[int, int], tuple[int, int, int]] = {}  # of joined pairs
    reductions: dict[int, URed] = {}  # replayed reduction lines by id
    m = len(f.clauses)
    last_id = 0
    ref = mgr.ONE
    try:
        for pos, line in enumerate(trace.lines):
            if line.id <= last_id:
                return reject(line.id, BAD_REFERENCE)
            rule = line.rule
            if pos < m:
                if not isinstance(rule, Axiom) or rule.clause_index != pos + 1:
                    return reject(line.id, AXIOM_MISMATCH)
            elif isinstance(rule, Axiom):
                return reject(line.id, AXIOM_MISMATCH)
            for j in trace.referenced(rule):
                if j not in funcs and j not in held:
                    return reject(line.id, BAD_REFERENCE)
            if isinstance(rule, (Proj, URed)) and rule.var not in trace.order:
                return reject(line.id, BAD_REFERENCE)
            if isinstance(rule, URed) and rule.value not in (0, 1):
                return reject(line.id, MALFORMED)
            if isinstance(rule, Axiom):
                ref = mgr.clause(f.clauses[rule.clause_index - 1])
            elif isinstance(rule, Conj):
                var = fused.get(line.id)
                if var is not None:
                    ref = mgr.and_exists(funcs[rule.left], funcs[rule.right], var)
                else:
                    split = splits.get(_pair(reductions.get(rule.left), reductions.get(rule.right)))
                    ref = split[2] if split else mgr.apply(funcs[rule.left], funcs[rule.right], "and")
            elif isinstance(rule, Proj):
                if rule.premise in held:
                    ref = held.pop(rule.premise)
                else:
                    ref = mgr.exists(funcs[rule.premise], rule.var)
            elif isinstance(rule, URed):
                key = (rule.premise, rule.var)
                if key not in splits:
                    if not f.is_universal(rule.var):
                        return reject(line.id, URED_NOT_UNIVERSAL)
                    # also rejects a premise whose support misses rule.var
                    right = mgr.shape(funcs[rule.premise], positions).rightmost
                    if right != f.prefix_position(rule.var):
                        return reject(line.id, URED_NOT_RIGHTMOST)
                    if key in joined:
                        splits[key] = mgr.forall_split(funcs[rule.premise], rule.var)
                if key in splits:
                    ref = splits[key][rule.value]
                else:
                    ref = mgr.restrict(funcs[rule.premise], rule.var, rule.value)
                reductions[line.id] = rule
            elif isinstance(rule, Entail):
                try:
                    claimed = obdd.deserialize(rule.block, mgr)
                except (BlockFormatError, OrderError):
                    return reject(line.id, MALFORMED_BLOCK)
                conj = mgr.ONE
                for j in rule.premises:
                    conj = mgr.apply(conj, funcs[j], "and")
                if mgr.apply(conj, claimed, "implies") != mgr.ONE:
                    return reject(line.id, ENTAILMENT_FAILED)
                ref = claimed
            else:
                return reject(line.id, MALFORMED)
            if line.id in fused:
                held[line.id] = ref
            else:
                funcs[line.id] = ref
            last_id = line.id
    except BudgetExceededError:
        raise BudgetExceededError(f"line {line.id}") from None
    if len(trace.lines) < m:
        # every derivation opens with one axiom per matrix clause
        return reject(last_id if trace.lines else None, AXIOM_MISMATCH)
    if not trace.lines:
        return reject(None, MALFORMED)
    if require_refutation and ref != mgr.ZERO:
        return reject(last_id, NOT_REFUTATION)
    return CheckResult(Verdict(True), mgr, funcs, ref)


def _pair(a: URed | None, b: URed | None) -> tuple[int, int] | None:
    """(premise, var) if ``a`` and ``b`` reduce one premise on one variable
    to opposite constants, whose conjunction is the universal projection."""
    if a and b and (a.premise, a.var) == (b.premise, b.var) and a.value != b.value:
        return (a.premise, a.var)
    return None


def _replay_hints(trace: ProofTrace) -> tuple[set[tuple[int, int]], dict[int, int]]:
    """One pass over the trace for the replay's two hints: the ``_pair`` of
    each ``Conj`` line's operands, where they are one, and the fused
    ``Conj`` lines, each with the variable its projection takes out.  A
    ``Conj`` line whose operands are no pair is fused when its only
    referrer is a ``Proj`` line on it whose variable is in the order.  Only
    hints: the replay pairs the lines it accepted again, and a fused line's
    projection reaches nothing but its ``Proj`` line."""
    ureds: dict[int, URed] = {}
    joined: set[tuple[int, int]] = set()
    unpaired: list[int] = []  # Conj lines whose operands are no pair
    readers: Counter[int] = Counter()  # line id -> references to it
    projected: dict[int, int] = {}  # premise -> variable of a Proj line on it
    for line in trace.lines:
        rule = line.rule
        readers.update(trace.referenced(rule))
        if isinstance(rule, URed):
            ureds[line.id] = rule
        elif isinstance(rule, Conj):
            pair = _pair(ureds.get(rule.left), ureds.get(rule.right))
            if pair:
                joined.add(pair)
            else:
                unpaired.append(line.id)
        elif isinstance(rule, Proj) and rule.var in trace.order:
            projected[rule.premise] = rule.var
    fused = {c: projected[c] for c in unpaired if readers[c] == 1 and c in projected}
    return joined, fused


# -- text format ----------------------------------------------------------
#
#   p qobdd-trace <nvars> <nlines>
#   h <formula-sha256>
#   o <v1> ... <vn>
#   <id> A <clause-index>
#   <id> C <j> <k>
#   <id> P <var> <j>
#   <id> U <var> <0|1> <j>
#   <id> E <j1> ... <jk> 0
#   <ObddBlock for the preceding E line>
#
# Comments and blank lines follow the block format's rule (see obdd).


def emit_trace(trace: ProofTrace) -> str:
    out = [f"p qobdd-trace {len(trace.order)} {len(trace.lines)}"]
    out.append(f"h {trace.formula_hash}")
    out.append("o " + " ".join(str(v) for v in trace.order.vars))
    for line in trace.lines:
        r = line.rule
        if isinstance(r, Axiom):
            out.append(f"{line.id} A {r.clause_index}")
        elif isinstance(r, Conj):
            out.append(f"{line.id} C {r.left} {r.right}")
        elif isinstance(r, Proj):
            out.append(f"{line.id} P {r.var} {r.premise}")
        elif isinstance(r, URed):
            out.append(f"{line.id} U {r.var} {r.value} {r.premise}")
        elif isinstance(r, Entail):
            out.append(f"{line.id} E " + " ".join(str(j) for j in r.premises) + " 0")
            out.append(r.block)
        else:
            raise TraceError(f"unknown rule {r!r}")
    return "\n".join(out) + "\n"


def parse_trace(text: str) -> ProofTrace:
    """Read trace text; entailment blocks are framed here, parsed by the checker."""
    reader = obdd.TextReader(text)
    try:
        head = reader.line().split()
        if len(head) != 4 or head[:2] != ["p", "qobdd-trace"]:
            raise TraceParseError(f"bad trace header {' '.join(head)!r}")
        nvars, nlines = int(head[2]), int(head[3])
        hline = reader.line().split()
        if len(hline) != 2 or hline[0] != "h":
            raise TraceParseError("missing formula hash line")
        oline = reader.line().split()
        if len(oline) != nvars + 1 or oline[0] != "o":
            raise TraceParseError("bad order line")
        order = VarOrder(int(v) for v in oline[1:])
        proof_lines = tuple(_parse_line(reader) for _ in range(nlines))
        if not reader.at_end():
            raise TraceParseError("trailing content after declared lines")
    except BlockFormatError as exc:
        reason = TRUNCATED if exc.truncated else MALFORMED
        raise TraceParseError(str(exc), reason) from None
    except (ValueError, OrderError) as exc:
        raise TraceParseError(f"bad trace: {exc}") from None
    return ProofTrace(hline[1], order, proof_lines)


def _parse_line(reader: obdd.TextReader) -> ProofLine:
    text = reader.line()
    parts = text.split()
    try:
        lid, args = int(parts[0]), [int(p) for p in parts[2:]]
    except ValueError:
        raise TraceParseError(f"bad trace line {text!r}") from None
    tag = parts[1] if len(parts) > 1 else None
    rule: Rule
    if tag == "A" and len(args) == 1:
        rule = Axiom(args[0])
    elif tag == "C" and len(args) == 2:
        rule = Conj(args[0], args[1])
    elif tag == "P" and len(args) == 2:
        rule = Proj(args[0], args[1])
    elif tag == "U" and len(args) == 3 and args[1] in (0, 1):
        rule = URed(args[0], args[1], args[2])
    elif tag == "E" and args and parts[-1] == "0":
        rule = Entail(tuple(args[:-1]), "\n".join(reader.block_lines()))
    else:
        raise TraceParseError(f"bad trace line {text!r}")
    return ProofLine(lid, rule)
