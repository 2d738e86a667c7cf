"""Reduced ordered binary decision diagrams over a fixed variable order.

A ``Manager`` owns an append-only node store and hands out node references
(plain ints).  Nodes are hash-consed at creation, so the diagram for a given
Boolean function is unique within its manager: structural equality is
reference equality.  The two terminals are ``Manager.ZERO`` and
``Manager.ONE``.  A node is the triple (rank, lo, hi): under the manager's
one order its rank names its variable, ``order.vars[rank]``.  Each triple
is stored once, one tuple that is both the node and its unique-table key.

The kernels (apply, negate, the bit-parallel ``evaluate_bits``,
``and_exists``, the relational product exists x. (f and g),
``forall_split``, both cofactors of a universal and their conjunction, and
``conj_exists``, a conjunction and its projection for the solver, which
measures the conjunction) walk with explicit stacks, so a deep variable
order never reaches Python's recursion limit.  ``shape`` expands nodes in
rank order instead: from a heap, in O(size * log width) heap steps, until
a layer is wider than 8, and from then on a rank's nodes together from a
list per rank, in O(size) dict steps.
``exists`` is the relational product with ONE, ``restrict`` the one with
x's literal, and ``forall`` the third part of ``forall_split``.  The
rightmost position of ``shape`` is the one prefix rule of universal
reduction.
Every kernel memoizes per operation (a quantification's cofactor
conjunctions share its memo, and a caller may share one negation memo, or
one cover map memo at a fixed cut, across several roots): hits come from
inside one walk, and a repeat finds its nodes in the unique table, so no
memo outlives the calls it was passed to.
References, variables and ``apply`` ops are validated at the public entry
points only; the kernels and the node constructor ``_mk`` trust them.
The solver, whose refs, ``and`` code and position list are its own, calls
``_apply`` for its bucket conjunctions, as the checker does for the
conjunctions it builds, and ``_shape``, the unchecked walk behind
``shape``, for each line it derives, as the checker's reduction side test
does.

A manager and its references belong to one logical thread at a time; hand a
manager off between threads if you like, but never share one concurrently.

Every module of the package imports this one, so it also holds what they
share: ``QobddError``, the base of every error the library raises,
``DEFAULT_NODE_BUDGET``, the node budget of every manager unless the
caller gives one, and ``transpose``, the bit-matrix transposition that
strategy verification and the rectangle oracle both call.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

DEFAULT_NODE_BUDGET = 10**7

# ``Manager._shape`` takes a diagram's reached nodes from one heap of their
# records until a layer is wider than this, and from then on one rank's
# nodes at a time from a list per rank.  The walk alone over every derived
# solver line of one seed-1 benchmark pass (best of 11 interleaved runs,
# CPython 3.11 on a shared Xeon), against the heap alone: narrow-families,
# no line wider than 5, reads 1.45x with the switch past width 2, 1.04x
# past 4 and 0.99x past 8; ipg-rect reads 0.65-0.68x past 4 to 12, 0.77x
# past 16.
_SHAPE_HEAP_WIDTH = 8


class QobddError(Exception):
    """Base of every error the library raises on bad input or exhausted budget."""


class ObddError(QobddError):
    pass


class OrderError(ObddError):
    """Variable unknown to the order, or a child outranks its parent."""


class BudgetExceededError(ObddError):
    """The manager's node budget was exhausted."""


class BlockFormatError(ObddError):
    """Block, trace or strategy text could not be parsed.

    ``truncated`` records whether the text ended before it was complete.
    """

    def __init__(self, message: str, truncated: bool = False):
        super().__init__(message)
        self.truncated = truncated


def transpose(words: Sequence[int], width: int) -> list[int]:
    """The columns of a bit matrix given by rows: bit j of ``out[i]`` is
    bit i of ``words[j]``, for each i below ``width``; every word must be
    below 2**width.  Each word is written as a fixed-width binary string,
    last word first, so column i is every width-th character."""
    text = "".join([format(w, f"0{width}b") for w in reversed(words)])
    return [int(text[width - 1 - i :: width], 2) for i in range(width)]


def _variable_type_error(var: object) -> OrderError:
    """Variables are ints, and a bool, which would pass for 0 or 1, is not one."""
    return OrderError(f"variable must be an int, not {type(var).__name__}")


def _budget_error(budget: int) -> BudgetExceededError:
    """The error of a store that would pass ``budget`` inner nodes, raised
    by each loop that makes nodes before it appends the one too many."""
    return BudgetExceededError(f"node budget {budget} exceeded")


class VarOrder:
    """An ordering pi of integer variable ids; rank 0 is tested first.  An
    id is an int of at least 1, as in QDIMACS text."""

    __slots__ = ("vars", "position")

    def __init__(self, variables: Iterable[int]):
        self.vars = tuple(variables)
        if {*map(type, self.vars)} - {int}:
            raise _variable_type_error(next(v for v in self.vars if type(v) is not int))
        if self.vars and min(self.vars) < 1:
            raise OrderError(f"bad variable id {next(v for v in self.vars if v < 1)}")
        self.position = {v: i for i, v in enumerate(self.vars)}
        if len(self.position) != len(self.vars):
            raise OrderError("duplicate variable in order")

    def rank(self, var: int) -> int:
        if type(var) is not int:
            raise _variable_type_error(var)
        try:
            return self.position[var]
        except KeyError:
            raise OrderError(f"variable {var} not in order") from None

    def __len__(self) -> int:
        return len(self.vars)

    def __contains__(self, var: int) -> bool:
        return var in self.position

    def __iter__(self) -> Iterator[int]:
        return iter(self.vars)

    def __eq__(self, other) -> bool:
        return isinstance(other, VarOrder) and self.vars == other.vars

    def __hash__(self) -> int:
        return hash(self.vars)

    def __repr__(self) -> str:
        return f"VarOrder({list(self.vars)!r})"


# The sixteen binary Boolean operations, encoded as 4-bit truth tables.
# Bit index (a << 1) | b holds op(a, b).
OPS = {
    "false": 0b0000,
    "nor": 0b0001,
    "less": 0b0010,       # ~a & b
    "notleft": 0b0011,    # ~a
    "greater": 0b0100,    # a & ~b
    "notright": 0b0101,   # ~b
    "xor": 0b0110,
    "nand": 0b0111,
    "and": 0b1000,
    "xnor": 0b1001,
    "right": 0b1010,      # b
    "implies": 0b1011,    # a -> b
    "left": 0b1100,       # a
    "impliedby": 0b1101,  # b -> a
    "or": 0b1110,
    "true": 0b1111,
}


def _op_code(op) -> int:
    """A name from ``OPS`` or a truth-table code: an int (not a bool) in 0..15."""
    if isinstance(op, str):
        if op in OPS:
            return OPS[op]
    elif isinstance(op, int) and not isinstance(op, bool):
        if 0 <= op <= 15:
            return op
        raise ObddError(f"op code out of range: {op!r}")
    raise ObddError(f"unknown binary op {op!r}")


def _sink_rules(code: int) -> tuple[bool, tuple[int, int], tuple[int, int]]:
    """Whether op ``code`` is symmetric, op(0, 1) == op(1, 0), and the op
    with a sink f, and with a sink g, by the sink: bit 0 is the result when
    the other operand is 0, bit 1 when it is 1, so 0b00 is ZERO, 0b11 ONE,
    0b10 the other operand and 0b01 its negation, which ``_apply`` takes
    through its apply memo, the negation's int keys beside the pairs."""
    left = (code & 3, (code >> 2) & 3)
    right = ((code & 1) | ((code >> 1) & 2), ((code >> 1) & 1) | ((code >> 2) & 2))
    return not (code ^ (code >> 1)) & 2, left, right


_SINK_RULES = [_sink_rules(code) for code in range(16)]  # read by ``_apply``


class Shape(NamedTuple):
    """Size, complete width and rightmost position of one diagram
    (``Manager.shape``); the position is None for a constant."""

    size: int
    width: int
    rightmost: int | None


class Manager:
    """Hash-consed OBDD store for one variable order.

    Node references are indices into ``_nodes``, a list of (rank, lo, hi)
    tuples; 0 and 1 are the sinks, (|X|, -1, -1).  Each inner node's tuple
    is the very object that keys it in the unique table, so no (rank, lo,
    hi) triple is stored twice, and no node ever has equal children:
    diagrams are fully reduced by construction.  There is no garbage
    collection: managers are meant to be short-lived, one per solve or
    check, and each raises ``BudgetExceededError`` past ``node_budget``
    inner nodes.  The store and its unique table are all it keeps between
    calls: every operation memoizes per call.

    A loop that makes many nodes makes each in place, without a call: the
    join steps of ``_apply``, ``and_exists``, ``conj_exists`` and
    ``forall_split``, the chain of ``clause`` and the rows of
    ``build_rows``.  Each does what ``_mk`` does, with the store, the
    unique table and the budget bound once per call, so a budget runs out
    at the same node with the same error either way.  ``_mk`` serves the
    callers that make a single node: ``node``, the literal of ``restrict``,
    the node of x's rank in ``conj_exists``, ``CompleteObdd.covers`` and
    ``_negate``.
    """

    ZERO = 0
    ONE = 1

    def __init__(self, order: VarOrder, node_budget: int = DEFAULT_NODE_BUDGET):
        self.order = order
        self.node_budget = node_budget
        # ref -> (rank, lo, hi); the sinks rank past the order
        self._nodes: list[tuple[int, int, int]] = [(len(order), -1, -1)] * 2
        self._unique: dict[tuple[int, int, int], int] = {}

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def _check_ref(self, ref: int) -> None:
        if not isinstance(ref, int) or not 0 <= ref < len(self._nodes):
            raise ObddError(f"invalid node reference {ref!r} for this manager")

    # -- construction ------------------------------------------------------

    def const(self, bit: int) -> int:
        return self.ONE if bit else self.ZERO

    def node(self, var: int, lo: int, hi: int) -> int:
        """Canonical node for (var, lo, hi); collapses redundant tests."""
        self._check_ref(lo)
        self._check_ref(hi)
        if type(var) is not int:
            raise _variable_type_error(var)
        if lo == hi:
            return lo
        rank = self.order.rank(var)
        if self._nodes[lo][0] <= rank or self._nodes[hi][0] <= rank:
            raise OrderError(f"variable {var} (rank {rank}) does not precede its children")
        return self._mk(rank, lo, hi)

    def _mk(self, rank: int, lo: int, hi: int) -> int:
        """The node (rank, lo, hi), unchecked: ``rank`` is in 0..|X|-1 and
        ``lo``, ``hi`` are refs of this manager that rank past it.  Equal
        children collapse; else the unique table is probed with the key,
        and on a miss the budget is checked and the key appended as the new
        node's store entry, one tuple for both.  For the callers that make
        a single node; the loops that make many do this in place."""
        if lo == hi:
            return lo
        key = (rank, lo, hi)
        found = self._unique.get(key)
        if found is not None:
            return found
        ref = len(self._nodes)
        if ref - 2 >= self.node_budget:
            raise _budget_error(self.node_budget)
        self._nodes.append(key)
        self._unique[key] = ref
        return ref

    def clause(self, literals: Iterable[int]) -> int:
        """OBDD of a disjunction of signed DIMACS-style literals.

        Built from one list of (rank, literal) pairs sorted deepest first:
        equal ranks are adjacent in it, so a repeated literal and a variable
        of both signs (the clause is ONE) are read off before any node is
        made, and the chain is built bottom-up.  A literal is a nonzero
        ``int`` (a bool is not one) on a variable of the order.
        """
        lits = literals if type(literals) is tuple else tuple(literals)
        if 0 in lits:
            raise ObddError("0 is not a literal")
        position = self.order.position
        try:
            ranked = [(position[l if l > 0 else -l], l) for l in lits if type(l) is int]
        except KeyError:
            raise self._clause_error(lits) from None
        if len(ranked) != len(lits):
            raise self._clause_error(lits)
        ranked.sort(reverse=True)
        prev, last = -1, 0
        for rank, lit in ranked:
            if rank == prev and lit != last:
                return self.ONE
            prev, last = rank, lit
        # each link is made in place, as ``_mk`` would: the chain below it
        # is ZERO or a node, never ONE, so its two children differ
        nodes, unique, budget = self._nodes, self._unique, self.node_budget
        find, append = unique.get, nodes.append
        acc, prev = self.ZERO, -1
        for rank, lit in ranked:
            if rank != prev:  # else a repeat of the literal just built
                key = (rank, acc, 1) if lit > 0 else (rank, 1, acc)
                acc = find(key)
                if acc is None:
                    acc = len(nodes)
                    if acc - 2 >= budget:
                        raise _budget_error(budget)
                    append(key)
                    unique[key] = acc
                prev = rank
        return acc

    def _clause_error(self, lits: tuple) -> ObddError:
        """The error of a clause with a literal that is not an int or not on
        a variable of the order: the first such literal of ``lits``, or the
        first variable off the order in set iteration order."""
        for l in lits:
            if type(l) is not int:
                return ObddError(f"literal must be an int, not {type(l).__name__}")
        position = self.order.position
        missing = next(abs(l) for l in set(lits) if abs(l) not in position)
        return OrderError(f"variable {missing} not in order")

    # -- boolean combination -----------------------------------------------
    #
    # Each kernel walks with an explicit stack, so no order is too deep for
    # it, and descends in place: a subproblem it splits pushes its join and
    # its hi subproblem, and the walk goes on with the lo subproblem in its
    # own variables.  A stack entry is told apart by the sign of its first
    # element: in ``_apply``, ``and_exists`` and ``conj_exists`` a pending
    # pair (f, g) or the join (~rank, key) of the pair ``key``'s node, in
    # ``_negate`` and ``forall_split`` a pending ref f >= 0 or the join ~f.
    # When a result is ready, the joins on top of the stack fold it at once,
    # each with the lo result it pops from ``out``, until a pending
    # subproblem comes up: the result waits on ``out`` as the lo sibling of
    # that subproblem, which the walk descends into next.  So the lo
    # subproblem is finished before the hi one starts and nodes are created
    # in depth-first, lo-first post-order, as a recursive walk would.  A pair
    # with a sink operand decides itself without a call unless its result
    # is the other operand's negation, and the quantifying walks decide a
    # cofactor conjunction with a sink operand, and the ``or`` of a sink or
    # of two equal results, in line as well, so a sink operand seldom
    # reaches ``_apply`` at its top and needs no path of its own there.
    # A join makes its node in place, as ``_mk`` would: equal children
    # collapse, else the (rank, lo, hi) key is looked up in the unique
    # table, and a miss checks the budget, appends the key to the store and
    # inserts it.  In ``and_exists`` and ``conj_exists`` a skewed pair, one
    # whose operands start at different ranks, takes the operand below the
    # top rank as both of its cofactors.

    def apply(self, f: int, g: int, op) -> int:
        """Combine two diagrams with a binary Boolean operation.

        ``op`` is a name from ``OPS`` or a 4-bit truth-table code.  The walk
        over pairs of subdiagrams is memoized for this call, with argument
        swapping for symmetric operations.
        """
        self._check_ref(f)
        self._check_ref(g)
        return self._apply(_op_code(op), f, g, {})

    def _apply(self, code: int, f: int, g: int, memo: dict[tuple[int, int], int]) -> int:
        nodes, unique, budget = self._nodes, self._unique, self.node_budget
        find, append = unique.get, nodes.append
        symmetric, left, right = _SINK_RULES[code]
        out: list[int] = []
        stack: list[tuple] = []
        while True:
            if f <= 1 or g <= 1:
                if f <= 1:
                    p, other = left[f], g
                else:
                    p, other = right[g], f
                if p == 0b10:
                    res = other
                elif p == 0b01:
                    res = self._negate(other, memo)
                else:
                    res = p >> 1
            else:
                if symmetric and f > g:
                    f, g = g, f
                key = (f, g)
                res = memo.get(key)
                if res is None:
                    rf, f0, f1 = nodes[f]
                    r, g0, g1 = nodes[g]
                    if rf < r:
                        r, g0, g1 = rf, g, g
                    elif r < rf:
                        f0 = f1 = f
                    stack.append((~r, key))
                    stack.append((f1, g1))
                    f, g = f0, g0
                    continue
            while stack:  # fold the joins the result completes
                f, g = stack.pop()
                if f >= 0:
                    break
                lo = out.pop()
                if lo != res:
                    key = (~f, lo, res)
                    res = find(key)
                    if res is None:
                        res = len(nodes)
                        if res - 2 >= budget:
                            raise _budget_error(budget)
                        append(key)
                        unique[key] = res
                memo[g] = res
            else:
                return res
            out.append(res)

    def negate(self, f: int, memo: dict[int, int] | None = None) -> int:
        """Complement by sink swap; size-preserving and involutive.

        ``memo`` maps refs to their complements, both ways; pass one dict
        to several calls on this manager to negate their shared nodes once.
        Without it the memo lasts this call.
        """
        self._check_ref(f)
        return self._negate(f, {} if memo is None else memo)

    def _negate(self, f: int, cache: dict) -> int:
        nodes, mk = self._nodes, self._mk
        out: list[int] = []
        stack: list[int] = []
        while True:
            if f <= 1:
                res = 1 - f
            else:
                res = cache.get(f)
                if res is None:
                    stack.append(~f)
                    _, f, h = nodes[f]
                    stack.append(h)
                    continue
            while stack:
                f = stack.pop()
                if f >= 0:
                    break
                f = ~f
                res = mk(nodes[f][0], out.pop(), res)
                cache[f] = res
                cache[res] = f
            else:
                return res
            out.append(res)

    def restrict(self, f: int, var: int, bit: int) -> int:
        """Fix ``var`` to ``bit``; the variable is absent from the result.
        The relational product with ``var``'s literal of polarity ``bit``,
        which is the one node this may add beyond ``f``'s rebuilt nodes."""
        self._check_ref(f)
        if bit not in (0, 1):
            raise ObddError(f"restrict bit must be 0 or 1, not {bit!r}")
        at = self.order.rank(var)
        literal = self._mk(at, 0, 1) if bit else self._mk(at, 1, 0)
        return self.and_exists(f, literal, var)

    def exists(self, f: int, var: int) -> int:
        """Existential projection of ``var``: the relational product with ONE."""
        return self.and_exists(f, self.ONE, var)

    def forall(self, f: int, var: int) -> int:
        """Universal projection of ``var``: the third part of ``forall_split``."""
        return self.forall_split(f, var)[2]

    def forall_split(self, f: int, var: int) -> tuple[int, int, int]:
        """``(f[var/0], f[var/1], forall var. f)`` in one walk over ``f``.

        The three are images of the same nodes above ``var``'s rank (the
        Shannon cofactors and their conjunction), so each such node is
        rebuilt three ways at once, the walk descending into its lo child
        in place; a node of ``var``'s rank gives its lo, its hi and their
        conjunction, decided in line when a cofactor is a sink and else by
        the ``and`` kernel, the conjunctions sharing one memo.  Equal to
        ``restrict(f, var, 0)``, ``restrict(f, var, 1)`` and the
        conjunction of the two, and leaves the store with the same nodes in
        the same order, except for the literals of ``var`` that
        ``restrict`` builds.
        """
        self._check_ref(f)
        at = self.order.rank(var)
        nodes, unique, budget = self._nodes, self._unique, self.node_budget
        find, append = unique.get, nodes.append
        apply, code, conj_memo = self._apply, OPS["and"], {}
        memo: dict[int, tuple[int, int, int]] = {}
        out: list[tuple[int, int, int]] = []
        stack: list[int] = []
        while True:
            node = nodes[f]
            rf = node[0]
            if rf > at:
                res = (f, f, f)
            elif rf == at:
                _, f0, f1 = node
                a, b = (f0, f1) if f0 < f1 else (f1, f0)
                res = (f0, f1, (b if a else 0) if a <= 1 else apply(code, a, b, conj_memo))
            else:
                res = memo.get(f)
                if res is None:
                    stack.append(~f)
                    _, f, f1 = node
                    stack.append(f1)
                    continue
            while stack:
                f = stack.pop()
                if f >= 0:
                    break
                f = ~f
                h0, h1, h = res
                l0, l1, l = out.pop()
                r = nodes[f][0]
                if l0 != h0:
                    key = (r, l0, h0)
                    l0 = find(key)
                    if l0 is None:
                        l0 = len(nodes)
                        if l0 - 2 >= budget:
                            raise _budget_error(budget)
                        append(key)
                        unique[key] = l0
                if l1 != h1:
                    key = (r, l1, h1)
                    l1 = find(key)
                    if l1 is None:
                        l1 = len(nodes)
                        if l1 - 2 >= budget:
                            raise _budget_error(budget)
                        append(key)
                        unique[key] = l1
                if l != h:
                    key = (r, l, h)
                    l = find(key)
                    if l is None:
                        l = len(nodes)
                        if l - 2 >= budget:
                            raise _budget_error(budget)
                        append(key)
                        unique[key] = l
                res = (l0, l1, l)
                memo[f] = res
            else:
                return res
            out.append(res)

    def and_exists(self, f: int, g: int, var: int) -> int:
        """``exists var. (f and g)`` in one walk over the pairs of ``f`` and
        ``g``, without building the conjunction above ``var``'s rank.

        A pair topped above that rank is split on its top variable, the walk
        descending into its lo pair in place, and rebuilt over its two
        results; a pair of that rank gives the ``or`` of its cofactor pairs'
        conjunctions, and a pair below it their conjunction.  Only a ZERO
        operand ends a pair early above the rank, since ONE and g must still
        be projected.  At the rank a cofactor conjunction with a sink
        operand, and an ``or`` with a sink operand or of two equal results,
        is decided in line; the ``and`` and ``or`` kernels take the rest, the
        conjunctions sharing one memo and the disjunctions another.  Equal
        to the ``or`` of the conjunction's two cofactors at ``var``: the
        relational product, built node for node in the same order.
        """
        self._check_ref(f)
        self._check_ref(g)
        at = self.order.rank(var)
        nodes, unique, budget, apply = self._nodes, self._unique, self.node_budget, self._apply
        find, append = unique.get, nodes.append
        conj, disj, conj_memo, disj_memo = OPS["and"], OPS["or"], {}, {}
        memo: dict[tuple[int, int], int] = {}
        out: list[int] = []
        stack: list[tuple] = []
        while True:
            if f > g:
                f, g = g, f  # so a sink operand is f
            if f == 0:
                res = 0
            else:
                nf, ng = nodes[f], nodes[g]
                rf, rg = nf[0], ng[0]
                r = rf if rf <= rg else rg
                if r > at:
                    res = g if f == 1 else apply(conj, f, g, conj_memo)
                else:
                    key = (f, g)
                    res = memo.get(key)
                    if res is None:
                        _, f0, f1 = nf
                        _, g0, g1 = ng
                        if rf < rg:
                            g0 = g1 = g
                        elif rg < rf:
                            f0 = f1 = f
                        if r < at:
                            stack.append((~r, key))
                            stack.append((f1, g1))
                            f, g = f0, g0
                            continue
                        if f0 > g0:
                            f0, g0 = g0, f0
                        res = (g0 if f0 else 0) if f0 <= 1 else apply(conj, f0, g0, conj_memo)
                        if res != 1:
                            if f1 > g1:
                                f1, g1 = g1, f1
                            c1 = (g1 if f1 else 0) if f1 <= 1 else apply(conj, f1, g1, conj_memo)
                            if res == 0 or res == c1:
                                res = c1
                            elif c1 <= 1:
                                res = res if c1 == 0 else 1
                            else:
                                res = apply(disj, res, c1, disj_memo)
                        memo[key] = res
            while stack:
                f, g = stack.pop()
                if f >= 0:
                    break
                lo = out.pop()
                if lo != res:
                    key = (~f, lo, res)
                    res = find(key)
                    if res is None:
                        res = len(nodes)
                        if res - 2 >= budget:
                            raise _budget_error(budget)
                        append(key)
                        unique[key] = res
                memo[g] = res
            else:
                return res
            out.append(res)

    def conj_exists(self, f: int, g: int, var: int) -> tuple[int, int]:
        """``(f and g, exists var. (f and g))`` in one walk over the pairs of
        ``f`` and ``g``.

        A pair topped above ``var``'s rank is split on its top variable, the
        walk descending into its lo pair in place, and rebuilt over its two
        results twice, as its conjunction and as its projection.  A pair of
        that rank gives the node over its cofactor pairs' conjunctions c0
        and c1 and their ``or``, and a pair below it their conjunction,
        which is its own projection.  A conjunction with a sink operand, and
        an ``or`` with a sink operand or of c0 == c1, is decided in line;
        the ``and`` and ``or`` kernels take the rest, the conjunctions
        sharing one memo and the disjunctions another.  Equal to
        ``apply(f, g, "and")`` and ``exists`` of it, and leaves the store
        with the same nodes in the same order.
        """
        self._check_ref(f)
        self._check_ref(g)
        at = self.order.rank(var)
        nodes, unique, budget, apply = self._nodes, self._unique, self.node_budget, self._apply
        find, append, mk = unique.get, nodes.append, self._mk
        conj, disj, conj_memo, disj_memo = OPS["and"], OPS["or"], {}, {}
        memo: dict[tuple[int, int], tuple[int, int]] = {}
        out: list[tuple[int, int]] = []
        stack: list[tuple] = []
        while True:
            if f > g:
                f, g = g, f  # so a sink operand is f
            if f == 0:
                res = (0, 0)
            else:
                nf, ng = nodes[f], nodes[g]
                rf, rg = nf[0], ng[0]
                r = rf if rf <= rg else rg
                if r > at:
                    c = g if f == 1 else apply(conj, f, g, conj_memo)
                    res = (c, c)
                else:
                    key = (f, g)
                    res = memo.get(key)
                    if res is None:
                        _, f0, f1 = nf
                        _, g0, g1 = ng
                        if rf < rg:
                            g0 = g1 = g
                        elif rg < rf:
                            f0 = f1 = f
                        if r < at:
                            stack.append((~r, key))
                            stack.append((f1, g1))
                            f, g = f0, g0
                            continue
                        if f0 > g0:
                            f0, g0 = g0, f0
                        if f1 > g1:
                            f1, g1 = g1, f1
                        c0 = (g0 if f0 else 0) if f0 <= 1 else apply(conj, f0, g0, conj_memo)
                        c1 = (g1 if f1 else 0) if f1 <= 1 else apply(conj, f1, g1, conj_memo)
                        c = mk(at, c0, c1)
                        if c0 == 0 or c0 == c1:
                            res = (c, c1)
                        elif c1 == 0:
                            res = (c, c0)
                        elif c0 == 1 or c1 == 1:
                            res = (c, 1)
                        else:
                            res = (c, apply(disj, c0, c1, disj_memo))
                        memo[key] = res
            while stack:
                f, g = stack.pop()
                if f >= 0:
                    break
                r = ~f
                h, hp = res
                l, lp = out.pop()
                if l != h:
                    key = (r, l, h)
                    l = find(key)
                    if l is None:
                        l = len(nodes)
                        if l - 2 >= budget:
                            raise _budget_error(budget)
                        append(key)
                        unique[key] = l
                if lp != hp:
                    key = (r, lp, hp)
                    lp = find(key)
                    if lp is None:
                        lp = len(nodes)
                        if lp - 2 >= budget:
                            raise _budget_error(budget)
                        append(key)
                        unique[key] = lp
                res = (l, lp)
                memo[g] = res
            else:
                return res
            out.append(res)

    # -- inspection ----------------------------------------------------------

    def support(self, *refs: int, seen: set[int] | None = None) -> set[int]:
        """Variables read by any of ``refs``: one walk with one visited set,
        so a node shared by several roots is read once.  Pass ``seen`` to
        share that set across calls: the walk skips the nodes in it, and so
        everything below them, and adds the nodes it reads."""
        for f in refs:
            self._check_ref(f)
        vars_, nodes = self.order.vars, self._nodes
        if seen is None:
            seen = set()
        out: set[int] = set()
        # an inner node is marked when pushed, so it is pushed and read once
        stack = [r for r in refs if r > 1 and r not in seen]
        seen.update(stack)
        mark, push = seen.add, stack.append
        while stack:
            k, lo, hi = nodes[stack.pop()]
            out.add(vars_[k])
            if lo > 1 and lo not in seen:
                mark(lo)
                push(lo)
            if hi > 1 and hi not in seen:
                mark(hi)
                push(hi)
        return out

    def size(self, f: int) -> int:
        """Number of reachable nodes, sinks included."""
        self._check_ref(f)
        return len(self._postorder(f))

    def _postorder(self, f: int) -> list[int]:
        # nodes reachable from f, sinks included, children before parents
        # and the lo subtree first; ~r on the stack emits r
        nodes = self._nodes
        out: list[int] = []
        seen: set[int] = set()
        stack = [f]
        while stack:
            r = stack.pop()
            if r < 0:
                out.append(~r)
            elif r not in seen:
                seen.add(r)
                stack.append(~r)
                if r > 1:
                    _, lo, hi = nodes[r]
                    stack += (hi, lo)
        return out

    def shape(self, f: int, positions: Sequence[int] | None = None) -> Shape:
        """Size, complete width and rightmost position of ``f`` in one walk.

        The walk expands the reached nodes in rank order.  The states of a
        layer k are the reached nodes of rank k or more, sinks included,
        with a parent above k (the root with none).  It takes each node
        from a heap of their (rank, lo, hi) records: when the first node of
        a new rank comes up, every node above it has been expanded, so the
        heap, that node and the sinks reached are the states of its layer,
        and of the layers back to the last rank with nodes.  The first time
        such a count passes ``_SHAPE_HEAP_WIDTH`` (8), the walk moves the
        heap's records into one list per rank, behind a heap of the
        distinct ranks, and from then on expands a rank's list whole: the
        states of its layer are the reached nodes not yet expanded, sinks
        included.  The width is the largest of these counts, and at least 2
        if the sinks' layer, past the deepest rank d, lies in the order.  A
        diagram no wider than 8 costs O(size * log w) heap steps at width
        w, as before; a wider one, O(size) dict steps past the switch plus
        a heap step per rank, so the cost per node no longer grows with the
        width.  No state is kept per layer.
        ``positions[k]`` places the rank-k variable in an outer order, such
        as a PCNF prefix, one position per rank, and the rightmost position
        is the largest over the ranks with nodes; without ``positions`` it
        is d.  A constant has size 1, width 1 (0 on an empty order) and
        position None.  Equal to ``size(f)``, the largest layer of
        ``complete(f)`` and the largest position over ``support(f)``.

        This checks its arguments and wraps ``_shape``, the one walk, whose
        plain tuple the solver's ``emit`` and the checker's reduction side
        test read directly: their refs and list are their own, so the checks
        and the record would only add a fixed cost to every line.
        """
        self._check_ref(f)
        n = len(self.order)
        if positions is None:
            positions = range(n)
        elif len(positions) != n:
            raise ObddError(f"{len(positions)} positions for an order of {n} variables")
        return Shape(*self._shape(f, positions))

    def _shape(self, f: int, positions: Sequence[int]) -> tuple[int, int, int | None]:
        # Unchecked: ``f`` is a ref here, ``positions`` one entry per rank.
        # The rank-ordered walk of ``shape``: inner nodes are popped from
        # the heap as their records, and a sink is counted, never pushed.
        n = len(self.order)
        if f <= 1:
            return (1, 1 if n else 0, None)
        nodes = self._nodes
        heap = [nodes[f]]
        seen = {f}
        mark, pop, push = seen.add, heappop, heappush
        width = others = 1  # the states off the heap: the node popped, the sinks
        at, right = -1, positions[heap[0][0]]
        while heap:
            k, lo, hi = pop(heap)
            if k != at:
                at = k
                if len(heap) + others > width:
                    width = len(heap) + others
                    if width > _SHAPE_HEAP_WIDTH:
                        heap.append((k, lo, hi))
                        break
                if positions[k] > right:
                    right = positions[k]
            if lo not in seen:
                mark(lo)
                if lo > 1:
                    push(heap, nodes[lo])
                else:
                    others += 1
            if hi not in seen:
                mark(hi)
                if hi > 1:
                    push(heap, nodes[hi])
                else:
                    others += 1
        else:
            if at + 1 < n and width < 2:
                width = 2  # the two sinks' layer lies in the order
            return (len(seen), width, right)
        # Layer k passed the switch width: the node popped goes back, and
        # the records go to one list per rank behind a heap of the distinct
        # ranks, which hands out each rank's list whole.  A layer's states
        # are then the reached nodes not yet expanded, sinks included: all
        # seen but the ``done`` ones, ``width`` of them at layer k.
        layers: dict[int, list[tuple[int, int, int]]] = {}
        for node in heap:
            layer = layers.get(node[0])
            if layer is None:
                layers[node[0]] = [node]
            else:
                layer.append(node)
        ranks = list(layers)
        heapify(ranks)
        done = len(seen) - width
        while ranks:
            k = pop(ranks)
            layer = layers.pop(k)
            if len(seen) - done > width:
                width = len(seen) - done
            if positions[k] > right:
                right = positions[k]
            done += len(layer)
            for _, lo, hi in layer:
                if lo not in seen:
                    mark(lo)
                    if lo > 1:
                        node = nodes[lo]
                        below = layers.get(node[0])
                        if below is None:
                            layers[node[0]] = [node]
                            push(ranks, node[0])
                        else:
                            below.append(node)
                if hi not in seen:
                    mark(hi)
                    if hi > 1:
                        node = nodes[hi]
                        below = layers.get(node[0])
                        if below is None:
                            layers[node[0]] = [node]
                            push(ranks, node[0])
                        else:
                            below.append(node)
        return (len(seen), width, right)

    def evaluate(self, f: int, assignment: Mapping[int, int]) -> int:
        self._check_ref(f)
        vars_, nodes = self.order.vars, self._nodes
        try:
            while f > 1:
                node = nodes[f]
                f = node[2] if assignment[vars_[node[0]]] else node[1]
        except KeyError:
            raise ObddError(f"assignment lacks variable {vars_[nodes[f][0]]}") from None
        return f

    def evaluate_bits(self, f: int, columns: Mapping[int, int], memo: dict[int, int]) -> int:
        """``f`` on many plays at once, one bit per play.

        Bit j of ``columns[v]`` is v's value in play j, and bit j of the
        result is ``f`` in play j.  ``memo`` maps refs to their result
        columns and must start as ``{ZERO: 0, ONE: all-ones}`` over the
        plays; share it across every root evaluated on the same columns, so
        that each node is computed once: ``lo ^ (x & (lo ^ hi))``.  A column
        added later must not change a memoized node, so add it only for a
        variable no memoized node reads.  One post-order walk with an
        explicit stack, as in ``_postorder``.
        """
        self._check_ref(f)
        if self.ZERO not in memo or self.ONE not in memo:
            raise ObddError("memo must start with both sinks")
        vars_, nodes = self.order.vars, self._nodes
        stack = [f]
        while stack:
            r = stack.pop()
            if r < 0:
                r = ~r
                k, lo, hi = nodes[r]
                a = memo[lo]
                try:
                    x = columns[vars_[k]]
                except KeyError:
                    raise ObddError(f"columns lack variable {vars_[k]}") from None
                memo[r] = a ^ (x & (a ^ memo[hi]))
            elif r not in memo:
                _, lo, hi = nodes[r]
                stack += (~r, hi, lo)
        return memo[f]

    def audit(self) -> None:
        """Structural self-check: reduced, deduplicated, order-respecting."""
        nodes, unique, n = self._nodes, self._unique, len(self.order)
        if len(unique) != len(nodes) - 2:
            raise ObddError("unique table out of sync with node store")
        if nodes[0][0] != n or nodes[1][0] != n:
            raise ObddError("sinks do not rank past the order")
        for ref in range(2, len(nodes)):
            r, l, h = node = nodes[ref]
            if not 0 <= r < n:
                raise ObddError(f"node {ref} has rank {r} outside the order")
            if l == h:
                raise ObddError(f"node {ref} has equal children")
            if unique.get(node) != ref:
                raise ObddError(f"node {ref} missing from unique table")
            if nodes[l][0] <= r or nodes[h][0] <= r:
                raise ObddError(f"node {ref} violates the variable order")

    # -- completion ----------------------------------------------------------

    def complete(self, f: int, depth: int | None = None) -> "CompleteObdd":
        """Equivalent complete OBDD over the manager's full variable set,
        built through the layer after the first ``depth`` variables.

        States at each layer are the distinct subfunctions on the remaining
        variables; since diagrams are canonical, distinctness is reference
        inequality.  A state that does not test a layer's variable passes
        to the next layer unchanged, so the states are refs of this store
        and the result has at most (|X|+1) * size(f) of them.  It serves
        ``CompleteObdd.covers``, which at a cut of ``cut`` variables reads
        the states of layer ``cut`` and their order, so ``complete(f, cut)``
        is all it needs; the default ``depth`` is the whole order, sinks
        included.  The width alone comes from ``shape`` without a layered
        copy.
        """
        self._check_ref(f)
        n = len(self.order)
        if depth is None:
            depth = n
        elif not 0 <= depth <= n:
            raise ObddError(f"depth {depth} not a prefix length of the order")
        nodes = self._nodes
        layers: list[list[int]] = []
        states = [f]
        for i in range(depth):
            layers.append(states)
            nxt: dict[int, None] = {}  # insertion-ordered set
            for s in states:
                node = nodes[s]
                if node[0] == i:
                    nxt[node[1]] = None
                    nxt[node[2]] = None
                elif node[0] < i:
                    raise ObddError("state below its layer; store corrupt")
                else:
                    nxt[s] = None
            states = list(nxt)
        if depth < n:
            layers.append(states)
            return CompleteObdd(self, layers, None)
        if any(s > 1 for s in states):
            raise ObddError("non-terminal state past the last layer")
        return CompleteObdd(self, layers, states)


class CompleteObdd:
    """Layered view of a function testing every variable on every path.

    ``layers[i]`` holds the distinct subfunctions entering the test of the
    i-th order variable, as refs of ``manager``, and ``sinks`` are the
    terminals after the last variable; so the states after a prefix of
    ``cut`` variables are ``layers[cut]``, or ``sinks`` when the cut is the
    whole order.  A state's successors are its own ``lo``/``hi`` in the
    store when it tests the layer's variable, and itself otherwise.
    ``size`` counts the states.  Built through a shorter prefix
    (``Manager.complete(f, depth)``), it holds the layers 0..depth,
    ``sinks`` is None, and ``size`` counts only those layers.
    ``covers`` takes the cut layer's states, in order, from the layers and
    sweeps the reduced nodes above the cut in the store.
    """

    def __init__(
        self, manager: Manager, layers: list[list[int]], sinks: list[int] | None
    ):
        self.manager = manager
        self.layers = layers
        self.sinks = sinks

    @property
    def size(self) -> int:
        return sum(len(layer) for layer in self.layers) + len(self.sinks or ())

    @property
    def root(self) -> int:
        return self.layers[0][0] if self.layers else self.sinks[0]

    def covers(
        self, cut: int, drop: int, memo: dict[int, dict[int, int]] | None = None
    ) -> list[tuple[int, int]]:
        """Rectangle cover along the prefix cut of ``cut`` variables.

        One ``(r1, r2)`` pair per state of the cut layer (the sinks when
        the cut is the whole order) other than the sink ``drop``, in layer
        order: ``r1`` accepts the assignments to the first ``cut`` variables
        that reach the state, ``r2`` is the state itself, a function of the
        remaining variables.  With ``drop`` = ZERO the disjunction of the
        products r1 and r2 is the original function; with ``drop`` = ONE,
        the same disjunction over the complemented states is its
        complement, as the complement's diagram is this one with the sinks
        swapped.  Their number is at most the width.  Degenerate cuts (0 or
        all variables) give one-sided pairs.  A cut outside 0..|X|, or past
        the layers built, raises ``ObddError``.

        The r1s come from one bottom-up sweep over the store nodes above
        the cut: each node t gets the sparse map ``{s: r1}`` over the cut
        states s it reaches, r1 accepting the assignments to the variables
        from t's rank to the cut that lead from t to s, each entry one
        ``_mk`` over the children's entries (ZERO where a child misses s).
        A node at or past the cut is its own state, ``{s: ONE}``, and the
        sink ``drop`` reaches nothing, ``{}``.  A node's map depends only on
        the node, the cut and ``drop``, so ``memo`` (node -> map) may be
        shared by every call with the same cut and ``drop``, which then
        sweeps a node shared by several roots once.
        """
        mgr = self.manager
        if not 0 <= cut <= len(mgr.order):
            raise ObddError(f"cut {cut} not a prefix length of the order")
        if cut < len(self.layers):
            states = self.layers[cut]
        elif self.sinks is not None:
            states = self.sinks
        else:
            raise ObddError(f"cut {cut} past the {len(self.layers)} layers built")
        if memo is None:
            memo = {}
        nodes, mk = mgr._nodes, mgr._mk
        # post-order with an explicit stack, as in ``_negate``: ~t on the
        # stack joins the maps of t's children
        stack = [self.root]
        while stack:
            t = stack.pop()
            if t < 0:
                t = ~t
                r, lo, hi = nodes[t]
                m0, m1 = memo[lo], memo[hi]
                reach = {s: mk(r, a, m1.get(s, 0)) for s, a in m0.items()}
                for s, b in m1.items():
                    if s not in m0:
                        reach[s] = mk(r, 0, b)
                memo[t] = reach
            elif t not in memo:
                r, lo, hi = nodes[t]
                if r >= cut:
                    memo[t] = {} if t == drop else {t: 1}
                else:
                    stack += (~t, hi, lo)
        reach = memo[self.root]
        return [(reach[s], s) for s in states if s != drop]


# -- serialization -----------------------------------------------------------
#
# Text block format, also embedded in trace and strategy files:
#
#   obdd <k>
#   <idx> <var|T0|T1> <lo-idx> <hi-idx>
#
# Sinks use T0/T1 with `-` children.  Indices are local to the block and
# topologically ordered (children before parents); the root is the last
# index.  Variables are the 1-based ids used in the QDIMACS input.  In
# block, trace and strategy text alike, blank lines and lines starting
# with `c ` are comments and are skipped wherever they occur.


def serialize(manager: Manager, f: int, negated: bool = False) -> str:
    """The block of ``f``; with ``negated``, the block of its complement,
    which is ``f``'s with the sinks swapped, row for row.  Each node's
    block index is made a string once, for its own row and its parents'."""
    manager._check_ref(f)
    vars_, nodes = manager.order.vars, manager._nodes
    post = manager._postorder(f)
    index = dict(zip(post, map(str, range(len(post)))))
    rows = [
        f"{index[r]} {vars_[k]} {index[lo]} {index[hi]}" if r > 1
        else f"{index[r]} T{r ^ negated} - -"
        for r in post
        for k, lo, hi in (nodes[r],)
    ]
    return f"obdd {len(rows)}\n" + "\n".join(rows)


Row = tuple[int | None, int | None, int | None]


class TextReader:
    """Line reader shared by the block, trace and strategy text formats.

    Blank lines and ``c `` comment lines are skipped everywhere, inside
    blocks too; every other line is kept stripped in ``lines``, and ``pos``
    is the index of the next one to read.  A reader may take its lines
    from ``lines`` itself and move ``pos`` past them.  Reading past the
    last line raises a ``BlockFormatError`` marked ``truncated``.
    """

    def __init__(self, text: str):
        self.lines = list(filter(None, map(str.strip, text.splitlines())))
        if "c " in text:  # else no stripped line can start with it
            self.lines = [ln for ln in self.lines if not ln.startswith("c ")]
        self.pos = 0

    def at_end(self) -> bool:
        return self.pos == len(self.lines)

    def line(self) -> str:
        if self.pos == len(self.lines):
            raise BlockFormatError("unexpected end of input", truncated=True)
        self.pos += 1
        return self.lines[self.pos - 1]

    def _rows(self) -> list[str]:
        """The next block's row lines, one slice, after its header."""
        head = self.line()
        parts = head.split()
        if len(parts) != 2 or parts[0] != "obdd" or not parts[1].isdecimal():
            raise BlockFormatError(f"bad block header: {head!r}")
        k = int(parts[1])
        if k < 1:
            raise BlockFormatError(f"block declares {k} nodes")
        start = self.pos
        if len(self.lines) - start < k:
            raise BlockFormatError("unexpected end of input", truncated=True)
        self.pos = start + k
        return self.lines[start : start + k]

    def block_lines(self) -> list[str]:
        """The next block, header first, framed but with its rows unparsed."""
        rows = self._rows()
        return [f"obdd {len(rows)}"] + rows

    def block(self) -> list[Row]:
        """Raw (var, lo, hi) rows of the next block; sinks are (None, None, bit)."""
        rows: list[Row] = []
        append = rows.append
        for i, ln in enumerate(self._rows()):
            try:
                n, v, a, b = ln.split()
            except ValueError:
                raise BlockFormatError(f"bad block line {i}: {ln!r}") from None
            if n != str(i):
                raise BlockFormatError(f"bad block line {i}: {ln!r}")
            if v in ("T0", "T1"):
                if a != "-" or b != "-":
                    raise BlockFormatError(f"sink with children: {ln!r}")
                append((None, None, int(v[1])))
                continue
            try:
                var, lo, hi = int(v), int(a), int(b)
            except ValueError:
                raise BlockFormatError(f"bad block line {i}: {ln!r}") from None
            if not (0 <= lo < i and 0 <= hi < i):
                raise BlockFormatError(f"children must precede parents: {ln!r}")
            append((var, lo, hi))
        return rows


def build_rows(rows: list[Row], manager: Manager) -> int:
    """Rebuild parsed block rows in ``manager``; returns the root reference.

    Each row gets the checks of ``Manager.node``, read off the order's
    positions and the store's ranks directly: equal children collapse to
    that child, and otherwise the row's variable must be in the order, else
    ``OrderError("variable <v> not in order")``, and rank above both
    children, else ``OrderError("... does not precede its children")``.
    Each row's node is made in place, as in the kernels' join steps, a new
    row's key tuple appended as its store entry: the store gets the nodes,
    and a budget hit the error, that ``Manager.node`` row by row would
    give.  ``deserialize`` and ``strategy.parse_strategy`` build every
    block through here.
    """
    position, budget = manager.order.position, manager.node_budget
    nodes, unique = manager._nodes, manager._unique
    refs: list[int] = []
    append = refs.append
    for var, lo, hi in rows:
        if var is None:
            append(manager.const(hi))
            continue
        lo, hi = refs[lo], refs[hi]
        if lo == hi:
            append(lo)
            continue
        r = position.get(var)
        if r is None:
            raise OrderError(f"variable {var} not in order")
        if nodes[lo][0] <= r or nodes[hi][0] <= r:
            raise OrderError(f"variable {var} (rank {r}) does not precede its children")
        key = (r, lo, hi)
        ref = unique.get(key)
        if ref is None:
            ref = len(nodes)
            if ref - 2 >= budget:
                raise _budget_error(budget)
            nodes.append(key)
            unique[key] = ref
        append(ref)
    return refs[-1]


def deserialize(text: str, manager: Manager) -> int:
    """Rebuild the one block of ``text`` in ``manager``, canonical there.

    Raises ``BlockFormatError`` on malformed text or content after the
    block, and ``OrderError`` when the block's edges are inconsistent with
    the manager's variable order.
    """
    reader = TextReader(text)
    rows = reader.block()
    if not reader.at_end():
        raise BlockFormatError("trailing content after block")
    return build_rows(rows, manager)
