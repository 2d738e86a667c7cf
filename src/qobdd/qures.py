"""QU-Resolution refutations: parsing, validation, and translation.

QU-Resolution here is the plain variant: resolution on existential *or*
universal pivots, tautological resolvents forbidden, plus universal
reduction (dropping a universal literal from a clause that has no
existential variable to its right).

``simulate_qures`` turns a valid QU-Resolution refutation into a checkable
OBDD trace over the prefix order.  Each resolution becomes a conjunction
and a projection of the pivot, from one ``Manager.and_exists`` walk that
never builds the conjunction, which nothing else reads.  Each reduction
becomes a run of constant substitutions: the substituted constant
falsifies the corresponding clause literal, working inward from the
rightmost remaining variable (``Manager.shape``) so the side condition of
the reduction rule holds at every step.  The translated lines may be
logically stronger than their clauses (never weaker), which preserves the
final empty line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .obdd import DEFAULT_NODE_BUDGET, Manager, QobddError
from .pcnf import Clause, Pcnf, PcnfError, clause
from .proof import Axiom, Conj, Proj, ProofLine, ProofTrace, URed, formula_hash
from .solver import prefix_order


class QuResError(QobddError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line id {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class QAxiom:
    clause: Clause


@dataclass(frozen=True)
class QResolve:
    left: int
    right: int
    pivot: int  # variable id; positive in left premise, negative in right


@dataclass(frozen=True)
class QReduce:
    premise: int
    literal: int


QuResRule = Union[QAxiom, QResolve, QReduce]


@dataclass(frozen=True)
class QuResLine:
    id: int
    rule: QuResRule


@dataclass(frozen=True)
class QuResProof:
    lines: tuple[QuResLine, ...]


def parse_qures(text: str) -> QuResProof:
    """Lines: `<id> A <lits> 0`, `<id> R <j> <k> <pivot>`, `<id> U <j> <lit>`."""
    out: list[QuResLine] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        ln = raw.strip()
        if not ln or ln.startswith("c"):
            continue
        parts = ln.split()
        try:
            lid = int(parts[0])
            tag = parts[1]
            if tag == "A":
                if parts[-1] != "0":
                    raise QuResError(f"axiom not 0-terminated at line {lineno}")
                try:
                    rule: QuResRule = QAxiom(clause(int(t) for t in parts[2:-1]))
                except PcnfError as exc:
                    raise QuResError(f"bad axiom at line {lineno}: {exc}") from None
            elif tag == "R" and len(parts) == 5:
                rule = QResolve(int(parts[2]), int(parts[3]), int(parts[4]))
            elif tag == "U" and len(parts) == 4:
                rule = QReduce(int(parts[2]), int(parts[3]))
            else:
                raise QuResError(f"bad proof line {ln!r} at line {lineno}")
        except (ValueError, IndexError):
            raise QuResError(f"bad proof line {ln!r} at line {lineno}") from None
        out.append(QuResLine(lid, rule))
    if not out:
        raise QuResError("empty proof")
    return QuResProof(tuple(out))


def emit_qures(proof: QuResProof) -> str:
    out = []
    for line in proof.lines:
        r = line.rule
        if isinstance(r, QAxiom):
            out.append(f"{line.id} A " + " ".join(str(l) for l in r.clause) + " 0")
        elif isinstance(r, QResolve):
            out.append(f"{line.id} R {r.left} {r.right} {r.pivot}")
        else:
            out.append(f"{line.id} U {r.premise} {r.literal}")
    return "\n".join(out) + "\n"


def validate_qures(f: Pcnf, proof: QuResProof) -> dict[int, Clause]:
    """Check well-formedness and return the clause derived on each line."""
    derived: dict[int, Clause] = {}
    matrix = set(f.clauses)
    last = 0
    for line in proof.lines:
        if line.id <= last:
            raise QuResError("non-increasing line id", line.id)
        r = line.rule
        if isinstance(r, QAxiom):
            if r.clause not in matrix:
                raise QuResError("axiom clause not in the matrix", line.id)
            derived[line.id] = r.clause
        elif isinstance(r, QResolve):
            if r.left not in derived or r.right not in derived:
                raise QuResError("unknown premise", line.id)
            if r.pivot <= 0:
                raise QuResError("pivot must be a positive variable id", line.id)
            cl, cr = derived[r.left], derived[r.right]
            if r.pivot not in cl or -r.pivot not in cr:
                raise QuResError(
                    "pivot must occur positively left, negatively right", line.id
                )
            merged = set(cl) | set(cr)
            merged -= {r.pivot, -r.pivot}
            if any(-l in merged for l in merged):
                raise QuResError("tautological resolvent", line.id)
            derived[line.id] = clause(merged)
        else:
            if r.premise not in derived:
                raise QuResError("unknown premise", line.id)
            c = derived[r.premise]
            if r.literal not in c:
                raise QuResError("reduced literal not in clause", line.id)
            u = abs(r.literal)
            if not f.is_universal(u):
                raise QuResError("reduced variable is not universal", line.id)
            upos = f.prefix_position(u)
            for l in c:
                v = abs(l)
                if not f.is_universal(v) and f.prefix_position(v) > upos:
                    raise QuResError(
                        "existential variable right of the reduced literal", line.id
                    )
            derived[line.id] = clause(set(c) - {r.literal})
        last = line.id
    return derived


def simulate_qures(
    f: Pcnf, proof: QuResProof, node_budget: int = DEFAULT_NODE_BUDGET
) -> ProofTrace:
    """Translate a valid QU-Resolution refutation into an OBDD trace.

    The trace is over the prefix order, checks under ``check_trace`` and
    ends in the constant 0; its total node count stays within a small
    constant of |proof| * (number of variables).  Building more than
    ``node_budget`` nodes raises ``obdd.BudgetExceededError``.
    """
    derived = validate_qures(f, proof)
    if not proof.lines or derived[proof.lines[-1].id] != ():
        raise QuResError("proof does not derive the empty clause")
    mgr = Manager(prefix_order(f), node_budget=node_budget)
    lines: list[ProofLine] = []
    refs: dict[int, int | None] = {}  # None for a conjunction never built

    def emit(rule, ref) -> int:
        lid = len(lines) + 1
        lines.append(ProofLine(lid, rule))
        refs[lid] = ref
        return lid

    axiom_of: dict[Clause, int] = {}
    for i, c in enumerate(f.clauses, start=1):
        lid = emit(Axiom(i), mgr.clause(c))
        axiom_of.setdefault(c, lid)

    tid: dict[int, int] = {}  # qu-res line id -> trace line id
    for line in proof.lines:
        r = line.rule
        if isinstance(r, QAxiom):
            tid[line.id] = axiom_of[r.clause]
        elif isinstance(r, QResolve):
            lj, lk = tid[r.left], tid[r.right]
            cid = emit(Conj(lj, lk), None)
            tid[line.id] = emit(Proj(r.pivot, cid), mgr.and_exists(refs[lj], refs[lk], r.pivot))
        else:
            # strip every universal literal at or right of the reduced one,
            # rightmost first, so each substitution is on a rightmost variable
            premise_clause = derived[r.premise]
            upos = f.prefix_position(abs(r.literal))
            cur_id = tid[r.premise]
            cur = refs[cur_id]
            while (right := mgr.shape(cur).rightmost) is not None and right >= upos:
                v = f.prefix[right][1]
                if v in premise_clause:
                    c_val = 0
                elif -v in premise_clause:
                    c_val = 1
                else:
                    raise QuResError(
                        "derived line mentions a variable outside its clause",
                        line.id,
                    )
                cur = mgr.restrict(cur, v, c_val)
                cur_id = emit(URed(v, c_val, cur_id), cur)
            tid[line.id] = cur_id

    final = tid[proof.lines[-1].id]
    if refs[final] != mgr.ZERO:
        raise QuResError("translation did not reach the constant 0")
    if final != lines[-1].id:
        # the empty line predates the trace end; restate it as the last line
        final = emit(Conj(final, final), mgr.ZERO)
    return ProofTrace(formula_hash(f), mgr.order, tuple(lines))
