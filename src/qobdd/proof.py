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
rightmost position off the unchecked walk ``Manager._shape``.  The trace
header's formula hash is compared with ``formula_hash(f)``, the SHA-256 of
``f``'s canonical QDIMACS, which ``Pcnf.digest`` computes once per formula
object: a solve, its check and every later check of that object share one
digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Union

from . import obdd
from .obdd import BlockFormatError, BudgetExceededError, Manager, OrderError, VarOrder
from .pcnf import Pcnf

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

_AND = obdd.OPS["and"]


class TraceError(obdd.QobddError):
    pass


class TraceParseError(TraceError):
    def __init__(self, message: str, reason: str = MALFORMED):
        super().__init__(message)
        self.reason = reason


class _Record:
    """Base of ``ProofLine`` and the rule records: immutable values, equal
    when of one type with equal fields (``Conj(1, 2) != Proj(1, 2)``),
    hashed by their fields.

    A frozen dataclass sets each field through ``object.__setattr__``; a
    record's ``__init__`` assigns each field once to a private slot, which
    builds it in a third to a half of the time.  The field's name is a
    read-only property over its slot, made here for each subclass from its
    ``__slots__``; this module's own loops read the slots.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _key: Callable[[_Record], object]  # the field values, read off a record

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(slot[1:] for slot in cls.__slots__)
        for name, slot in zip(cls._fields, cls.__slots__):
            setattr(cls, name, property(attrgetter(slot)))
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Axiom(_Record):
    __slots__ = ("_clause_index",)
    clause_index: int  # 1-based index into the matrix

    def __init__(self, clause_index: int):
        self._clause_index = clause_index


class Conj(_Record):
    __slots__ = ("_left", "_right")
    left: int
    right: int

    def __init__(self, left: int, right: int):
        self._left = left
        self._right = right


class Proj(_Record):
    __slots__ = ("_var", "_premise")
    var: int
    premise: int

    def __init__(self, var: int, premise: int):
        self._var = var
        self._premise = premise


class URed(_Record):
    __slots__ = ("_var", "_value", "_premise")
    var: int
    value: int
    premise: int

    def __init__(self, var: int, value: int, premise: int):
        self._var = var
        self._value = value
        self._premise = premise


class Entail(_Record):
    __slots__ = ("_premises", "_block")
    premises: tuple[int, ...]
    block: str

    def __init__(self, premises: tuple[int, ...], block: str):
        self._premises = premises
        self._block = block


Rule = Union[Axiom, Conj, Proj, URed, Entail]


class ProofLine(_Record):
    __slots__ = ("_id", "_rule")
    id: int
    rule: Rule

    def __init__(self, id: int, rule: Rule):
        self._id = id
        self._rule = rule


@dataclass(frozen=True)
class ProofTrace:
    formula_hash: str
    order: VarOrder
    lines: tuple[ProofLine, ...]


def formula_hash(f: Pcnf) -> str:
    """The SHA-256 of ``f``'s canonical QDIMACS, computed once per formula
    object (``Pcnf.digest``)."""
    return f.digest()


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
    # (line id, variable, value) of each reduction line, in line order
    reductions: list[tuple[int, int, int]] = field(default_factory=list)

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
    postponed until a later line first reads it; at the end the last line
    and every reduction line are built.  ``strategy.extract`` reads the
    reduction lines from ``reductions``, (line id, variable, value) of
    each in line order, collected as the pass accepts them.  A ``Conj``
    line on two unbuilt reductions of one diagram on one variable to
    opposite constants takes all three results from one
    ``Manager.forall_split`` walk.  A ``Proj`` line is one
    ``Manager.and_exists`` walk, over an unbuilt conjunction's operands or
    over its premise and ONE.  Any other reader builds a postponed line in
    one place, the local ``build``: by ``restrict`` for a reduction, by
    the ``and`` kernel ``Manager._apply`` for a conjunction, as the
    solver's bucket conjunctions are.  So ``functions`` has no entry for a
    non-last ``Conj`` line that only ``Proj`` lines read, or no line.
    Verdicts and reason codes are those of a replay of every line on its
    own; a reduction to a constant other than 0 or 1 is ``malformed``.

    A budget hit is never a verdict: running out of ``node_budget`` raises
    ``obdd.BudgetExceededError("line <id>")``, naming the line whose
    diagram was being built: a postponed line that ``build`` builds, the
    conjunction of an ``and_exists`` walk over one, the pair's first
    reduction line of a ``forall_split`` walk, and otherwise the line
    being checked.  ``solver.solve`` raises the same error without a line.

    The loop branches once per line on the rule's type and keeps its
    state in plain locals; the formula's digest is computed once per
    formula object (``formula_hash``), so a check after a solve of the same
    ``f`` does not hash it again.
    """

    def reject(line_id: int | None, reason: str) -> CheckResult:
        return CheckResult(Verdict(False, line_id, reason))

    if trace.formula_hash != formula_hash(f):
        return reject(None, HASH_MISMATCH)
    order = trace.order
    if set(order.vars) != set(f.variables):
        return reject(None, ORDER_MISMATCH)
    mgr = Manager(order, node_budget=node_budget)
    clause, apply, restrict, and_exists = mgr.clause, mgr.apply, mgr.restrict, mgr.and_exists
    conjoin = mgr._apply  # unchecked: ``build`` passes refs of this manager
    in_order = order.position
    positions = [f.prefix_position(v) for v in order.vars]  # by rank
    funcs: dict[int, int] = {}
    # line id -> (left ref, right ref) of a Conj, (premise ref, var, value)
    # of a URed, until a line reads it: then its diagram moves to funcs
    unbuilt: dict[int, tuple[int, ...]] = {}
    reductions: list[tuple[int, int, int]] = []
    tested: set[tuple[int, int]] = set()  # (premise ref, var) past the side test
    clauses = f.clauses
    m = len(clauses)
    last_id = at = 0  # at: the line whose diagram is being built

    def build(j: int) -> int:
        """Line j's diagram, built now if it was postponed."""
        nonlocal at
        args = unbuilt.pop(j, None)
        if args is not None:
            at = j
            funcs[j] = restrict(*args) if len(args) == 3 else conjoin(_AND, *args, {})
        return funcs[j]

    try:
        for pos, line in enumerate(trace.lines):
            lid, rule = line._id, line._rule
            if lid <= last_id:
                return reject(lid, BAD_REFERENCE)
            at, kind = lid, type(rule)
            if pos < m:
                if kind is not Axiom or rule._clause_index != pos + 1:
                    return reject(lid, AXIOM_MISMATCH)
                funcs[lid] = clause(clauses[pos])
            elif kind is Conj:
                a, b = rule._left, rule._right
                if a > b:  # operands are built in line order
                    a, b = b, a
                u, v = unbuilt.get(a), unbuilt.get(b)
                if (u is None and a not in funcs) or (v is None and b not in funcs):
                    return reject(lid, BAD_REFERENCE)
                if u and v and len(u) == len(v) == 3 and u[:2] == v[:2] and u[2] != v[2]:
                    # two unbuilt reductions of one diagram on one variable
                    # to opposite constants: both, and this line, in one walk
                    at = a
                    split = mgr.forall_split(u[0], u[1])
                    del unbuilt[a], unbuilt[b]
                    funcs[a], funcs[b] = split[u[2]], split[v[2]]
                    funcs[lid] = split[2]
                else:
                    unbuilt[lid] = (build(a), build(b))
            elif kind is Proj:
                j, x = rule._premise, rule._var
                args = unbuilt.get(j)
                if (args is None and j not in funcs) or x not in in_order:
                    return reject(lid, BAD_REFERENCE)
                if args is not None and len(args) == 2:
                    at = j  # the conjunction, never built above x
                else:
                    args = (build(j), mgr.ONE)
                    at = lid
                funcs[lid] = and_exists(args[0], args[1], x)
            elif kind is URed:
                j, x, c = rule._premise, rule._var, rule._value
                if (j not in funcs and j not in unbuilt) or x not in in_order:
                    return reject(lid, BAD_REFERENCE)
                if c not in (0, 1):
                    return reject(lid, MALFORMED)
                premise = build(j)
                if (premise, x) not in tested:
                    if not f.is_universal(x):
                        return reject(lid, URED_NOT_UNIVERSAL)
                    # also rejects a premise whose support misses x
                    if mgr._shape(premise, positions)[2] != f.prefix_position(x):
                        return reject(lid, URED_NOT_RIGHTMOST)
                    tested.add((premise, x))
                unbuilt[lid] = (premise, x, c)
                reductions.append((lid, x, c))
            elif kind is Entail:
                if any(j not in funcs and j not in unbuilt for j in rule._premises):
                    return reject(lid, BAD_REFERENCE)
                premises = [build(j) for j in rule._premises]
                at = lid
                try:
                    claimed = obdd.deserialize(rule._block, mgr)
                except (BlockFormatError, OrderError):
                    return reject(lid, MALFORMED_BLOCK)
                conj = mgr.ONE
                for ref in premises:
                    conj = apply(conj, ref, "and")
                if apply(conj, claimed, "implies") != mgr.ONE:
                    return reject(lid, ENTAILMENT_FAILED)
                funcs[lid] = claimed
            elif kind is Axiom:
                return reject(lid, AXIOM_MISMATCH)
            else:
                return reject(lid, MALFORMED)
            last_id = lid
        # every reduction line (strategy.extract reads them), then the last
        # line, which the loop put into unbuilt last
        for j in [j for j, args in unbuilt.items() if len(args) == 3 or j == last_id]:
            build(j)
        ref = funcs[last_id] if last_id else mgr.ONE
    except BudgetExceededError:
        raise BudgetExceededError(f"line {at}") from None
    if len(trace.lines) < m:
        # every derivation opens with one axiom per matrix clause
        return reject(last_id or None, AXIOM_MISMATCH)
    if require_refutation and ref != mgr.ZERO:
        return reject(last_id or None, NOT_REFUTATION)
    return CheckResult(Verdict(True), mgr, funcs, ref, reductions)


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
    """The trace's text, each field of a line written by ``%d``, so a bool
    as its digit, which reads back equal.  A value that would not read back
    equal raises ``TraceError``: a formula hash that is not one word, and,
    naming its line, a field that is not an int, a reduction to other than
    0 or 1, premises that are not a tuple and an ``E`` block that is not
    text framed exactly as ``parse_trace`` frames it."""
    h = trace.formula_hash
    if type(h) is not str or h.split() != [h]:
        raise TraceError(f"formula hash {h!r} is not one word")
    out = [f"p qobdd-trace {len(trace.order)} {len(trace.lines)}", f"h {h}"]
    out.append("o " + " ".join(str(v) for v in trace.order.vars))
    append = out.append
    for line in trace.lines:
        lid, r = line._id, line._rule
        kind = type(r)
        # ``%d`` also writes a float, truncated: each field is an int, or
        # else goes through ``_ints``, which lets only a bool pass
        if kind is Conj:
            a, b = r._left, r._right
            if type(lid) is not int or type(a) is not int or type(b) is not int:
                _ints(lid, r, a, b)
            append("%d C %d %d" % (lid, a, b))
        elif kind is Axiom:
            a = r._clause_index
            if type(lid) is not int or type(a) is not int:
                _ints(lid, r, a)
            append("%d A %d" % (lid, a))
        elif kind is Proj:
            a, b = r._var, r._premise
            if type(lid) is not int or type(a) is not int or type(b) is not int:
                _ints(lid, r, a, b)
            append("%d P %d %d" % (lid, a, b))
        elif kind is URed:
            a, c, b = r._var, r._value, r._premise
            if c not in (0, 1):
                raise TraceError(f"line {lid!r}: reduction to {c!r}, not to 0 or 1")
            if (type(lid) is not int or type(a) is not int or type(c) is not int
                    or type(b) is not int):
                _ints(lid, r, a, c, b)
            append("%d U %d %d %d" % (lid, a, c, b))
        elif kind is Entail:
            premises, block = r._premises, r._block
            if not isinstance(premises, tuple):
                raise TraceError(f"line {lid!r}: premises {premises!r} are not a tuple")
            _ints(lid, r, *premises)
            if type(block) is not str or _framed(block) != block:
                raise TraceError(f"line {lid!r}: block {block!r} would not read back as written")
            append("%d E " % lid + "".join(["%d " % j for j in premises]) + "0")
            append(block)
        else:
            raise TraceError(f"unknown rule {r!r}")
    return "\n".join(out) + "\n"


def _ints(lid: object, rule: Rule, *fields: object) -> None:
    """Refuse line ``lid`` unless it and each of its rule's ``fields`` is
    an int; a bool is one, and reads back equal."""
    if not all(isinstance(v, int) for v in (lid, *fields)):
        raise TraceError(f"line {lid!r}: {rule!r} has a field that is not an int")


def _framed(block: str) -> str | None:
    """``block`` as ``parse_trace`` reads it back after an ``E`` line: its
    one block, framed by a ``TextReader``; None if it is not one block."""
    reader = obdd.TextReader(block)
    try:
        framed = "\n".join(reader.block_lines())
    except BlockFormatError:
        return None
    return framed if reader.at_end() else None


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
