"""Derivation traces over OBDD lines, and an independent replay checker.

A trace is pure syntax: rule applications referring to earlier line ids.
The checker rebuilds the lines in a fresh manager, so accepting a trace
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

The checker reads the trace once, with one rule: a ``C`` or ``U`` line's
diagram is built when a later line first reads it.  So a projection of a
conjunction (an existential bucket's ``C j k`` then ``P x l``) is one
``Manager.and_exists`` walk that never builds the conjunction above x, and
a conjunction of a universal's two reductions is one
``Manager.forall_split`` walk.  A reduction's side test reads the
rightmost position off ``Manager.shape``.
"""

from __future__ import annotations

import hashlib
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
    """Replay a trace against its formula in a fresh manager, in one pass.

    Returns an accepting result carrying the replayed line functions, or a
    rejection naming the offending line and a reason code.  Each line is
    checked at its place, but a ``Conj`` or ``URed`` line's diagram is
    built when a later line first reads it; at the end the last line and
    every reduction line (``strategy.extract`` reads them) are built.  A
    ``Proj`` line on an unbuilt conjunction takes ``Manager.and_exists``
    over its operands; a ``Conj`` line on two unbuilt reductions of one
    diagram on one variable to opposite constants takes all three results
    from one ``Manager.forall_split`` walk; any other reader builds the line
    with ``apply`` or ``restrict``.  So ``functions`` has no entry for a
    non-last ``Conj`` line that only ``Proj`` lines read, or no line.
    Verdicts and reason codes are those of a replay of every line on its
    own; a reduction to a constant other than 0 or 1 is ``malformed``.

    A budget hit is never a verdict: running out of ``node_budget`` raises
    ``obdd.BudgetExceededError("line <id>")``, naming the line whose
    diagram was being built (for an ``and_exists`` walk the conjunction,
    for a ``forall_split`` walk the pair's first reduction line).
    ``solver.solve`` raises the same error without a line.
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
    # line id -> (left ref, right ref) of a Conj, (premise ref, var, value) of a URed
    unbuilt: dict[int, tuple[int, ...]] = {}
    tested: set[tuple[int, int]] = set()  # (premise ref, var) past the side test

    def read(j: int) -> int:
        # line j's diagram, built now if no line has read it yet
        nonlocal at
        args = unbuilt.pop(j, None)
        if args is not None:
            outer, at = at, j
            funcs[j] = mgr.restrict(*args) if len(args) == 3 else mgr.apply(*args, "and")
            at = outer
        return funcs[j]

    m = len(f.clauses)
    last_id = 0
    try:
        for pos, line in enumerate(trace.lines):
            at = line.id  # the line whose diagram is being built
            if line.id <= last_id:
                return reject(line.id, BAD_REFERENCE)
            rule = line.rule
            if pos < m:
                if not isinstance(rule, Axiom) or rule.clause_index != pos + 1:
                    return reject(line.id, AXIOM_MISMATCH)
            elif isinstance(rule, Axiom):
                return reject(line.id, AXIOM_MISMATCH)
            for j in trace.referenced(rule):
                if j not in funcs and j not in unbuilt:
                    return reject(line.id, BAD_REFERENCE)
            if isinstance(rule, (Proj, URed)) and rule.var not in trace.order:
                return reject(line.id, BAD_REFERENCE)
            if isinstance(rule, URed) and rule.value not in (0, 1):
                return reject(line.id, MALFORMED)
            if isinstance(rule, Axiom):
                funcs[line.id] = mgr.clause(f.clauses[rule.clause_index - 1])
            elif isinstance(rule, Conj):
                a, b = rule.left, rule.right
                if a > b:  # operands are built in line order
                    a, b = b, a
                u, v = unbuilt.get(a, ()), unbuilt.get(b, ())
                if len(u) == len(v) == 3 and u[:2] == v[:2] and u[2] != v[2]:
                    at = a
                    split = mgr.forall_split(u[0], u[1])
                    del unbuilt[a], unbuilt[b]
                    funcs[a], funcs[b] = split[u[2]], split[v[2]]
                    funcs[line.id] = split[2]
                else:
                    unbuilt[line.id] = (read(a), read(b))
            elif isinstance(rule, Proj):
                args = unbuilt.get(rule.premise, ())
                if len(args) == 2:
                    at = rule.premise
                    funcs[line.id] = mgr.and_exists(args[0], args[1], rule.var)
                else:
                    funcs[line.id] = mgr.exists(read(rule.premise), rule.var)
            elif isinstance(rule, URed):
                premise = read(rule.premise)
                if (premise, rule.var) not in tested:
                    if not f.is_universal(rule.var):
                        return reject(line.id, URED_NOT_UNIVERSAL)
                    # also rejects a premise whose support misses rule.var
                    if mgr.shape(premise, positions).rightmost != f.prefix_position(rule.var):
                        return reject(line.id, URED_NOT_RIGHTMOST)
                    tested.add((premise, rule.var))
                unbuilt[line.id] = (premise, rule.var, rule.value)
            elif isinstance(rule, Entail):
                premises = [read(j) for j in rule.premises]
                try:
                    claimed = obdd.deserialize(rule.block, mgr)
                except (BlockFormatError, OrderError):
                    return reject(line.id, MALFORMED_BLOCK)
                conj = mgr.ONE
                for ref in premises:
                    conj = mgr.apply(conj, ref, "and")
                if mgr.apply(conj, claimed, "implies") != mgr.ONE:
                    return reject(line.id, ENTAILMENT_FAILED)
                funcs[line.id] = claimed
            else:
                return reject(line.id, MALFORMED)
            last_id = line.id
        for j in [j for j, args in unbuilt.items() if len(args) == 3]:
            read(j)
        ref = read(last_id) if last_id else mgr.ONE
    except BudgetExceededError:
        raise BudgetExceededError(f"line {at}") from None
    if len(trace.lines) < m:
        # every derivation opens with one axiom per matrix clause
        return reject(last_id or None, AXIOM_MISMATCH)
    if require_refutation and ref != mgr.ZERO:
        return reject(last_id or None, NOT_REFUTATION)
    return CheckResult(Verdict(True), mgr, funcs, ref)


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
    """The trace's text; a reduction to a value other than 0 or 1, which
    ``parse_trace`` would refuse, raises ``TraceError`` naming its line."""
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
            if r.value not in (0, 1):
                raise TraceError(f"line {line.id}: reduction to {r.value!r}, not to 0 or 1")
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
        if nvars < 0 or nlines < 0:
            raise TraceParseError(f"bad trace header {' '.join(head)!r}")
        hline = reader.line().split()
        if len(hline) != 2 or hline[0] != "h":
            raise TraceParseError("missing formula hash line")
        oline = reader.line().split()
        if len(oline) != nvars + 1 or oline[0] != "o":
            raise TraceParseError("bad order line")
        order = VarOrder(int(v) for v in oline[1:])
        proof_lines = _parse_lines(reader, nlines)
        if not reader.at_end():
            raise TraceParseError("trailing content after declared lines")
    except BlockFormatError as exc:
        reason = TRUNCATED if exc.truncated else MALFORMED
        raise TraceParseError(str(exc), reason) from None
    except (ValueError, OrderError) as exc:
        raise TraceParseError(f"bad trace: {exc}") from None
    return ProofTrace(hline[1], order, proof_lines)


def _parse_lines(reader: obdd.TextReader, count: int) -> tuple[ProofLine, ...]:
    """The next ``count`` trace lines, read from ``reader.lines`` in one
    loop; an ``E`` line's block is framed by the reader."""
    lines, pos = reader.lines, reader.pos
    out: list[ProofLine] = []
    for _ in range(count):
        if pos == len(lines):
            raise BlockFormatError("unexpected end of input", truncated=True)
        text = lines[pos]
        pos += 1
        parts = text.split()
        try:
            lid, args = int(parts[0]), [int(p) for p in parts[2:]]
        except ValueError:
            raise TraceParseError(f"bad trace line {text!r}") from None
        tag = parts[1] if len(parts) > 1 else None
        n = len(args)
        rule: Rule
        if tag == "C" and n == 2:
            rule = Conj(args[0], args[1])
        elif tag == "A" and n == 1:
            rule = Axiom(args[0])
        elif tag == "P" and n == 2:
            rule = Proj(args[0], args[1])
        elif tag == "U" and n == 3 and args[1] in (0, 1):
            rule = URed(args[0], args[1], args[2])
        elif tag == "E" and args and parts[-1] == "0":
            reader.pos = pos
            rule = Entail(tuple(args[:-1]), "\n".join(reader.block_lines()))
            pos = reader.pos
        else:
            raise TraceParseError(f"bad trace line {text!r}")
        out.append(ProofLine(lid, rule))
    reader.pos = pos
    return tuple(out)
