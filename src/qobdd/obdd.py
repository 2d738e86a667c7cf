"""Reduced ordered binary decision diagrams over a fixed variable order.

A ``Manager`` owns an append-only node store and hands out node references
(plain ints).  Nodes are hash-consed at creation, so the diagram for a given
Boolean function is unique within its manager: structural equality is
reference equality.  The two terminals are ``Manager.ZERO`` and
``Manager.ONE``.

The kernels (apply, negate, restrict, the one-pass quantifiers, the
bit-parallel ``evaluate_bits``, ``forall_split``, both cofactors of a
universal and their conjunction, ``and_exists``, the relational product
that the checker and the translator project with, and ``conj_exists``, a
conjunction and its projection for the solver, which measures the
conjunction) walk with explicit stacks, so a deep variable order never
reaches Python's recursion limit, and those that build nodes read each
node's rank from an array kept beside the store.  The rightmost position
of ``shape`` is the one prefix rule of universal reduction.
Every kernel memoizes per operation (a quantification's cofactor
conjunctions share its memo, and a caller may share one negation memo, or
one cover map memo at a fixed cut, across several roots): hits come from
inside one walk, and a repeat finds its nodes in the unique table, so no
memo outlives the calls it was passed to.
References, variables and ``apply`` ops are validated at the public entry
points only; the kernels and the node constructor they share trust them.

A manager and its references belong to one logical thread at a time; hand a
manager off between threads if you like, but never share one concurrently.

Every module of the package imports this one, so it also holds what they
share: ``QobddError``, the base of every error the library raises,
``DEFAULT_NODE_BUDGET``, the node budget of every manager unless the
caller gives one, and ``transpose``, the bit-matrix transposition that
strategy verification and the rectangle oracle both call.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

DEFAULT_NODE_BUDGET = 10**7


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


class VarOrder:
    """An ordering pi of integer variable ids; rank 0 is tested first."""

    __slots__ = ("vars", "position")

    def __init__(self, variables: Iterable[int]):
        self.vars = tuple(variables)
        self.position = {v: i for i, v in enumerate(self.vars)}
        if len(self.position) != len(self.vars):
            raise OrderError("duplicate variable in order")

    def rank(self, var: int) -> int:
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


def _is_symmetric(code: int) -> bool:
    return ((code >> 1) & 1) == ((code >> 2) & 1)


class Shape(NamedTuple):
    """Size, complete width and rightmost position of one diagram
    (``Manager.shape``); the position is None for a constant."""

    size: int
    width: int
    rightmost: int | None


class Manager:
    """Hash-consed OBDD store for one variable order.

    Node references are indices into the store; 0 and 1 are the sinks.  No
    node ever has equal children and no triple is stored twice, so diagrams
    are fully reduced by construction.  There is no garbage collection:
    managers are meant to be short-lived, one per solve or check, and each
    raises ``BudgetExceededError`` past ``node_budget`` inner nodes.  The
    store and its unique table are all it keeps between calls: every
    operation memoizes per call.
    """

    ZERO = 0
    ONE = 1

    def __init__(self, order: VarOrder, node_budget: int = DEFAULT_NODE_BUDGET):
        self.order = order
        self.node_budget = node_budget
        n = len(order)
        self._terminal_rank = n
        # parallel arrays; slots 0/1 are the sinks, which rank past the order
        self._var: list[int | None] = [None, None]
        self._lo: list[int] = [-1, -1]
        self._hi: list[int] = [-1, -1]
        self._rank: list[int] = [n, n]
        self._unique: dict[tuple[int, int, int], int] = {}

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._var)

    def _check_ref(self, ref: int) -> None:
        if not isinstance(ref, int) or not 0 <= ref < len(self._var):
            raise ObddError(f"invalid node reference {ref!r} for this manager")

    # -- construction ------------------------------------------------------

    def const(self, bit: int) -> int:
        return self.ONE if bit else self.ZERO

    def node(self, var: int, lo: int, hi: int) -> int:
        """Canonical node for (var, lo, hi); collapses redundant tests."""
        self._check_ref(lo)
        self._check_ref(hi)
        if lo == hi:
            return lo
        rank = self.order.rank(var)
        if self._rank[lo] <= rank or self._rank[hi] <= rank:
            raise OrderError(
                f"variable {var} (rank {rank}) does not precede its children"
            )
        return self._mk(var, rank, lo, hi)

    def _mk(self, var: int, rank: int, lo: int, hi: int) -> int:
        # Unchecked: callers pass refs of this manager whose ranks exceed
        # ``rank``, the rank of ``var``.
        if lo == hi:
            return lo
        key = (var, lo, hi)
        found = self._unique.get(key)
        if found is not None:
            return found
        if len(self._var) - 2 >= self.node_budget:
            raise BudgetExceededError(
                f"node budget {self.node_budget} exceeded"
            )
        ref = len(self._var)
        self._var.append(var)
        self._lo.append(lo)
        self._hi.append(hi)
        self._rank.append(rank)
        self._unique[key] = ref
        return ref

    def literal(self, var: int, positive: bool = True) -> int:
        if positive:
            return self.node(var, self.ZERO, self.ONE)
        return self.node(var, self.ONE, self.ZERO)

    def clause(self, literals: Iterable[int]) -> int:
        """OBDD of a disjunction of signed DIMACS-style literals."""
        lits = set(literals)
        if 0 in lits:
            raise ObddError("0 is not a literal")
        position = self.order.position
        try:
            ranked = sorted([(position[abs(l)], l) for l in lits], reverse=True)
        except KeyError as exc:
            raise OrderError(f"variable {exc.args[0]} not in order") from None
        # the literals are distinct, so equal adjacent ranks are x and not x
        for i in range(1, len(ranked)):
            if ranked[i][0] == ranked[i - 1][0]:
                return self.ONE
        acc = self.ZERO
        for rank, lit in ranked:
            if lit > 0:
                acc = self._mk(lit, rank, acc, self.ONE)
            else:
                acc = self._mk(-lit, rank, self.ONE, acc)
        return acc

    # -- boolean combination -----------------------------------------------
    #
    # Each kernel walks with an explicit stack, so no order is too deep for
    # it.  A stack entry is either a subproblem or the step that joins the
    # two results on top of ``out`` into one node: in ``_apply``,
    # ``and_exists`` and ``conj_exists`` a pair (f, g) or a triple (key,
    # var, rank), in ``_negate``, ``_rebuild_above`` and ``forall_split`` a
    # ref f >= 0 or its complement ~f.  The lo subproblem is pushed last, so
    # it is finished before the hi one starts and nodes are created in
    # depth-first, lo-first post-order, as a recursive walk would.

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
        # a sink operand decides the call in one unary step, before the setup
        # (most of a quantification's cofactor pairs hold a sink)
        if f <= 1:
            return self._unary((code >> (f << 1)) & 3, g, memo)
        if g <= 1:
            return self._unary(((code >> g) & 1) | ((code >> (1 + g)) & 2), f, memo)
        var, lo, hi, rank = self._var, self._lo, self._hi, self._rank
        mk, unary = self._mk, self._unary
        symmetric = _is_symmetric(code)
        out: list[int] = []
        stack: list[tuple] = [(f, g)]
        while stack:
            task = stack.pop()
            if len(task) == 3:
                key, v, r = task
                h = out.pop()
                res = mk(v, r, out.pop(), h)
                memo[key] = res
                out.append(res)
                continue
            f, g = task
            if f <= 1:
                out.append(unary((code >> (f << 1)) & 3, g, memo))
                continue
            if g <= 1:
                out.append(unary(((code >> g) & 1) | ((code >> (1 + g)) & 2), f, memo))
                continue
            if symmetric and f > g:
                f, g = g, f
            key = (f, g)
            found = memo.get(key)
            if found is not None:
                out.append(found)
                continue
            rf, rg = rank[f], rank[g]
            if rf <= rg:
                v, r, f0, f1 = var[f], rf, lo[f], hi[f]
            else:
                v, r, f0, f1 = var[g], rg, f, f
            if rg <= rf:
                g0, g1 = lo[g], hi[g]
            else:
                g0, g1 = g, g
            stack.append((key, v, r))
            stack.append((f1, g1))
            stack.append((f0, g0))
        return out[0]

    def _unary(self, pair: int, g: int, memo: dict) -> int:
        # bit 0: the result when g = 0; bit 1: the result when g = 1.  A
        # negation keeps its int keys in the apply memo, beside the pairs.
        if pair == 0b00:
            return self.ZERO
        if pair == 0b11:
            return self.ONE
        if pair == 0b10:
            return g
        return self._negate(g, memo)

    def negate(self, f: int, memo: dict[int, int] | None = None) -> int:
        """Complement by sink swap; size-preserving and involutive.

        ``memo`` maps refs to their complements, both ways; pass one dict
        to several calls on this manager to negate their shared nodes once.
        Without it the memo lasts this call.
        """
        self._check_ref(f)
        return self._negate(f, {} if memo is None else memo)

    def _negate(self, f: int, cache: dict) -> int:
        var, lo, hi, rank, mk = self._var, self._lo, self._hi, self._rank, self._mk
        out: list[int] = []
        stack = [f]
        while stack:
            f = stack.pop()
            if f < 0:
                f = ~f
                h = out.pop()
                res = mk(var[f], rank[f], out.pop(), h)
                cache[f] = res
                cache[res] = f
                out.append(res)
            elif f <= 1:
                out.append(1 - f)
            else:
                found = cache.get(f)
                if found is not None:
                    out.append(found)
                else:
                    stack += (~f, hi[f], lo[f])
        return out[0]

    def restrict(self, f: int, var: int, bit: int) -> int:
        """Fix ``var`` to ``bit``; the variable is absent from the result."""
        self._check_ref(f)
        if bit not in (0, 1):
            raise ObddError(f"restrict bit must be 0 or 1, not {bit!r}")
        child = self._hi if bit else self._lo
        return self._rebuild_above(f, self.order.rank(var), child.__getitem__)

    def exists(self, f: int, var: int) -> int:
        """Existential projection of ``var``, in one pass over ``f``."""
        self._check_ref(f)
        return self._quantify(OPS["or"], f, self.order.rank(var))

    def forall(self, f: int, var: int) -> int:
        """Universal projection of ``var``, in one pass over ``f``."""
        self._check_ref(f)
        return self._quantify(OPS["and"], f, self.order.rank(var))

    def _quantify(self, code: int, f: int, at: int) -> int:
        lo, hi, apply, memo = self._lo, self._hi, self._apply, {}
        return self._rebuild_above(f, at, lambda r: apply(code, lo[r], hi[r], memo))

    def forall_split(self, f: int, var: int) -> tuple[int, int, int]:
        """``(f[var/0], f[var/1], forall var. f)`` in one walk over ``f``.

        The three are images of the same nodes above ``var``'s rank (the
        Shannon cofactors and their conjunction), so each such node is
        rebuilt three ways at once; a node of ``var``'s rank gives its lo,
        its hi and their conjunction, the conjunctions sharing one memo.
        Equal to ``restrict(f, var, 0)``, ``restrict(f, var, 1)`` and
        ``forall(f, var)``, and leaves the store with the same nodes.
        """
        self._check_ref(f)
        at = self.order.rank(var)
        var_, lo, hi, rank, mk = self._var, self._lo, self._hi, self._rank, self._mk
        apply, code, conj_memo = self._apply, OPS["and"], {}
        memo: dict[int, tuple[int, int, int]] = {}
        out: list[tuple[int, int, int]] = []
        stack = [f]
        while stack:
            f = stack.pop()
            if f < 0:
                f = ~f
                h0, h1, h = out.pop()
                l0, l1, l = out.pop()
                v, r = var_[f], rank[f]
                res = (mk(v, r, l0, h0), mk(v, r, l1, h1), mk(v, r, l, h))
                memo[f] = res
                out.append(res)
                continue
            rf = rank[f]
            if rf > at:
                out.append((f, f, f))
            elif rf == at:
                f0, f1 = lo[f], hi[f]
                out.append((f0, f1, apply(code, f0, f1, conj_memo)))
            else:
                found = memo.get(f)
                if found is not None:
                    out.append(found)
                else:
                    stack += (~f, hi[f], lo[f])
        return out[0]

    def and_exists(self, f: int, g: int, var: int) -> int:
        """``exists var. (f and g)`` in one walk over the pairs of ``f`` and
        ``g``, without building the conjunction above ``var``'s rank.

        A pair topped above that rank is split on its top variable and
        rebuilt over its two results; a pair of that rank gives the ``or``
        of its cofactor pairs' conjunctions, and a pair below it their
        conjunction.  Only a ZERO operand ends a pair early above the rank,
        since ONE and g must still be projected.  The conjunctions share one
        memo and the disjunctions another.  Equal to
        ``exists(apply(f, g, "and"), var)``: the relational product.
        """
        self._check_ref(f)
        self._check_ref(g)
        at = self.order.rank(var)
        var_, lo, hi, rank, mk, apply = self._var, self._lo, self._hi, self._rank, self._mk, self._apply
        conj, disj, conj_memo, disj_memo = OPS["and"], OPS["or"], {}, {}
        memo: dict[tuple[int, int], int] = {}
        out: list[int] = []
        stack: list[tuple] = [(f, g)]
        while stack:
            task = stack.pop()
            if len(task) == 3:
                key, v, r = task
                h = out.pop()
                res = mk(v, r, out.pop(), h)
                memo[key] = res
                out.append(res)
                continue
            f, g = task
            if f > g:
                f, g = g, f  # so a sink operand is f
            if f == 0:
                out.append(0)
                continue
            rf, rg = rank[f], rank[g]
            r = rf if rf <= rg else rg
            if r > at:
                out.append(g if f == 1 else apply(conj, f, g, conj_memo))
                continue
            key = (f, g)
            found = memo.get(key)
            if found is not None:
                out.append(found)
                continue
            f0, f1 = (lo[f], hi[f]) if rf == r else (f, f)
            g0, g1 = (lo[g], hi[g]) if rg == r else (g, g)
            if r == at:
                res = apply(conj, f0, g0, conj_memo)
                if res != 1:
                    res = apply(disj, res, apply(conj, f1, g1, conj_memo), disj_memo)
                memo[key] = res
                out.append(res)
                continue
            stack.append((key, var_[f] if rf == r else var_[g], r))
            stack.append((f1, g1))
            stack.append((f0, g0))
        return out[0]

    def conj_exists(self, f: int, g: int, var: int) -> tuple[int, int]:
        """``(f and g, exists var. (f and g))`` in one walk over the pairs of
        ``f`` and ``g``.

        A pair topped above ``var``'s rank is split on its top variable and
        rebuilt over its two results twice, as its conjunction and as its
        projection.  A pair of that rank gives the node over its cofactor
        pairs' conjunctions c0 and c1 and their ``or`` (c0 itself when
        c0 == c1), and a pair below it their conjunction, which is its own
        projection.  The conjunctions share one memo and the disjunctions
        another.  Equal to ``apply(f, g, "and")`` and ``exists`` of it, and
        leaves the store with the same nodes.
        """
        self._check_ref(f)
        self._check_ref(g)
        at = self.order.rank(var)
        var_, lo, hi, rank, mk, apply = self._var, self._lo, self._hi, self._rank, self._mk, self._apply
        conj, disj, conj_memo, disj_memo = OPS["and"], OPS["or"], {}, {}
        memo: dict[tuple[int, int], tuple[int, int]] = {}
        out: list[tuple[int, int]] = []
        stack: list[tuple] = [(f, g)]
        while stack:
            task = stack.pop()
            if len(task) == 3:
                key, v, r = task
                h, hp = out.pop()
                l, lp = out.pop()
                res = (mk(v, r, l, h), mk(v, r, lp, hp))
                memo[key] = res
                out.append(res)
                continue
            f, g = task
            if f > g:
                f, g = g, f  # so a sink operand is f
            if f == 0:
                out.append((0, 0))
                continue
            rf, rg = rank[f], rank[g]
            r = rf if rf <= rg else rg
            if r > at:
                c = g if f == 1 else apply(conj, f, g, conj_memo)
                out.append((c, c))
                continue
            key = (f, g)
            found = memo.get(key)
            if found is not None:
                out.append(found)
                continue
            f0, f1 = (lo[f], hi[f]) if rf == r else (f, f)
            g0, g1 = (lo[g], hi[g]) if rg == r else (g, g)
            if r == at:
                c0, c1 = apply(conj, f0, g0, conj_memo), apply(conj, f1, g1, conj_memo)
                res = (mk(var, at, c0, c1), c0 if c0 == c1 else apply(disj, c0, c1, disj_memo))
                memo[key] = res
                out.append(res)
                continue
            stack.append((key, var_[f] if rf == r else var_[g], r))
            stack.append((f1, g1))
            stack.append((f0, g0))
        return out[0]

    def _rebuild_above(self, f: int, at: int, at_rank: Callable[[int], int]) -> int:
        # ``f`` with every node of rank ``at`` replaced by ``at_rank(node)``:
        # nodes above rank ``at`` are rebuilt over their new children and
        # those below it are kept.
        var, lo, hi, rank, mk = self._var, self._lo, self._hi, self._rank, self._mk
        memo: dict[int, int] = {}
        out: list[int] = []
        stack = [f]
        while stack:
            f = stack.pop()
            if f < 0:
                f = ~f
                h = out.pop()
                res = mk(var[f], rank[f], out.pop(), h)
                memo[f] = res
                out.append(res)
                continue
            rf = rank[f]
            if rf > at:
                out.append(f)
            elif rf == at:
                out.append(at_rank(f))
            else:
                found = memo.get(f)
                if found is not None:
                    out.append(found)
                else:
                    stack += (~f, hi[f], lo[f])
        return out[0]

    # -- inspection ----------------------------------------------------------

    def support(self, *refs: int, seen: set[int] | None = None) -> set[int]:
        """Variables read by any of ``refs``: one walk with one visited set,
        so a node shared by several roots is read once.  Pass ``seen`` to
        share that set across calls: the walk skips the nodes in it, and so
        everything below them, and adds the nodes it reads."""
        for f in refs:
            self._check_ref(f)
        var, lo, hi = self._var, self._lo, self._hi
        if seen is None:
            seen = set()
        out: set[int] = set()
        stack = list(refs)
        while stack:
            r = stack.pop()
            if r <= 1 or r in seen:
                continue
            seen.add(r)
            out.add(var[r])
            stack.append(lo[r])
            stack.append(hi[r])
        return out

    def size(self, f: int) -> int:
        """Number of reachable nodes, sinks included."""
        self._check_ref(f)
        return len(self._postorder(f))

    def _postorder(self, f: int) -> list[int]:
        # nodes reachable from f, sinks included, children before parents
        # and the lo subtree first; ~r on the stack emits r
        lo, hi = self._lo, self._hi
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
                    stack += (hi[r], lo[r])
        return out

    def shape(self, f: int, positions: Sequence[int] | None = None) -> Shape:
        """Size, complete width and rightmost position of ``f`` in one walk.

        A reached node, sinks included, is a state of the complete diagram
        on the layers from its smallest parent rank + 1 (0 for the root) up
        to min(its rank, |X| - 1).  Above the root's rank the root is the
        only state, and past the deepest inner rank d only the reached
        sinks are, so a difference array over the ranks rank(f) .. d + 1
        gives every layer size that can be the largest, in O(size); the
        width is the largest, layer d + 1 counting only if it is in the
        order.  ``positions[k]`` places the rank-k variable in an outer
        order, such as a PCNF prefix, one position per rank, and the
        rightmost position is the largest over the nodes; without
        ``positions`` it is d.  A constant has size 1, width 1 (0 on an
        empty order) and position None.  Equal to ``size(f)``,
        ``complete(f).width`` and the largest position over ``support(f)``.
        """
        self._check_ref(f)
        n = self._terminal_rank
        if positions is None:
            positions = range(n)
        elif len(positions) != n:
            raise ObddError(f"{len(positions)} positions for an order of {n} variables")
        if f <= 1:
            return Shape(1, 1 if n else 0, None)
        lo, hi, rank = self._lo, self._hi, self._rank
        top = deep = rank[f]
        right = positions[top]
        first = {f: top}  # reached node -> first layer (from top) it is a state on
        stack = [f]  # inner nodes only
        while stack:
            r = stack.pop()
            k = rank[r]
            if k > deep:
                deep = k
            p = positions[k]
            if p > right:
                right = p
            k += 1
            c = lo[r]
            start = first.get(c)
            if start is None:
                first[c] = k
                if c > 1:
                    stack.append(c)
            elif k < start:
                first[c] = k
            c = hi[r]
            start = first.get(c)
            if start is None:
                first[c] = k
                if c > 1:
                    stack.append(c)
            elif k < start:
                first[c] = k
        size = len(first)
        # a non-constant diagram reaches both sinks, states to the order's end
        sinks = (first.pop(self.ZERO), first.pop(self.ONE))
        diff = [0] * (deep - top + 2)
        for r, start in first.items():
            diff[start - top] += 1
            diff[rank[r] + 1 - top] -= 1
        for start in sinks:
            diff[start - top] += 1
        layers = list(accumulate(diff))
        if deep + 1 == n:
            layers.pop()  # the sinks' layer lies past the order
        return Shape(size, max(layers), right)

    def evaluate(self, f: int, assignment: Mapping[int, int]) -> int:
        self._check_ref(f)
        try:
            while f > 1:
                f = self._hi[f] if assignment[self._var[f]] else self._lo[f]
        except KeyError:
            raise ObddError(f"assignment lacks variable {self._var[f]}") from None
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
        var, lo, hi = self._var, self._lo, self._hi
        stack = [f]
        while stack:
            r = stack.pop()
            if r < 0:
                r = ~r
                a = memo[lo[r]]
                try:
                    x = columns[var[r]]
                except KeyError:
                    raise ObddError(f"columns lack variable {var[r]}") from None
                memo[r] = a ^ (x & (a ^ memo[hi[r]]))
            elif r not in memo:
                stack += (~r, hi[r], lo[r])
        return memo[f]

    def audit(self) -> None:
        """Structural self-check: reduced, deduplicated, order-respecting."""
        if len(self._unique) != len(self._var) - 2:
            raise ObddError("unique table out of sync with node store")
        if len(self._rank) != len(self._var):
            raise ObddError("rank array out of sync with node store")
        if self._rank[:2] != [self._terminal_rank] * 2:
            raise ObddError("sinks do not rank past the order")
        for ref in range(2, len(self._var)):
            var, lo, hi = self._var[ref], self._lo[ref], self._hi[ref]
            if lo == hi:
                raise ObddError(f"node {ref} has equal children")
            if self._unique.get((var, lo, hi)) != ref:
                raise ObddError(f"node {ref} missing from unique table")
            rank = self.order.rank(var)
            if self._rank[ref] != rank:
                raise ObddError(f"node {ref} has a stale rank")
            if self._rank[lo] <= rank or self._rank[hi] <= rank:
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
        var, lo, hi, rank = self._var, self._lo, self._hi, self._rank
        layers: list[list[int]] = []
        states = [f]
        for i, v in enumerate(self.order.vars[:depth]):
            layers.append(states)
            nxt: dict[int, None] = {}  # insertion-ordered set
            for s in states:
                if s > 1 and var[s] == v:
                    nxt[lo[s]] = None
                    nxt[hi[s]] = None
                elif rank[s] < i:
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
    ``width`` is the largest layer and ``size`` counts the states.  Built
    through a shorter prefix (``Manager.complete(f, depth)``), it holds the
    layers 0..depth, ``sinks`` is None, and both count only those layers.
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
    def width(self) -> int:
        return max(map(len, self.layers), default=0)

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
        var, lo, hi, rank, mk = mgr._var, mgr._lo, mgr._hi, mgr._rank, mgr._mk
        # post-order with an explicit stack, as in ``_negate``: ~t on the
        # stack joins the maps of t's children
        stack = [self.root]
        while stack:
            t = stack.pop()
            if t < 0:
                t = ~t
                v, r = var[t], rank[t]
                m0, m1 = memo[lo[t]], memo[hi[t]]
                reach = {s: mk(v, r, a, m1.get(s, 0)) for s, a in m0.items()}
                for s, b in m1.items():
                    if s not in m0:
                        reach[s] = mk(v, r, 0, b)
                memo[t] = reach
            elif t not in memo:
                if rank[t] >= cut:
                    memo[t] = {} if t == drop else {t: 1}
                else:
                    stack += (~t, hi[t], lo[t])
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
    which is ``f``'s with the sinks swapped, row for row."""
    manager._check_ref(f)
    var, lo, hi = manager._var, manager._lo, manager._hi
    index: dict[int, int] = {}
    lines: list[str] = []
    for ref in manager._postorder(f):
        idx = len(index)
        index[ref] = idx
        if ref <= 1:
            lines.append(f"{idx} T{ref ^ negated} - -")
        else:
            lines.append(f"{idx} {var[ref]} {index[lo[ref]]} {index[hi[ref]]}")
    return "\n".join([f"obdd {len(lines)}"] + lines)


Row = tuple[int | None, int | None, int | None]


class TextReader:
    """Line reader shared by the block, trace and strategy text formats.

    Blank lines and ``c `` comment lines are skipped everywhere, inside
    blocks too; every other line is handed out stripped.  Reading past the
    last line raises a ``BlockFormatError`` marked ``truncated``.
    """

    def __init__(self, text: str):
        stripped = (raw.strip() for raw in text.splitlines())
        self._lines = [ln for ln in stripped if ln and not ln.startswith("c ")]
        self._pos = 0

    def at_end(self) -> bool:
        return self._pos == len(self._lines)

    def line(self) -> str:
        if self.at_end():
            raise BlockFormatError("unexpected end of input", truncated=True)
        self._pos += 1
        return self._lines[self._pos - 1]

    def block_lines(self) -> list[str]:
        """The next block, header first, framed but with its rows unparsed."""
        head = self.line()
        parts = head.split()
        if len(parts) != 2 or parts[0] != "obdd" or not parts[1].isdecimal():
            raise BlockFormatError(f"bad block header: {head!r}")
        k = int(parts[1])
        if k < 1:
            raise BlockFormatError(f"block declares {k} nodes")
        return [f"obdd {k}"] + [self.line() for _ in range(k)]

    def block(self) -> list[Row]:
        """Raw (var, lo, hi) rows of the next block; sinks are (None, None, bit)."""
        rows: list[Row] = []
        for i, ln in enumerate(self.block_lines()[1:]):
            parts = ln.split()
            if len(parts) != 4 or parts[0] != str(i):
                raise BlockFormatError(f"bad block line {i}: {ln!r}")
            if parts[1] in ("T0", "T1"):
                if parts[2:] != ["-", "-"]:
                    raise BlockFormatError(f"sink with children: {ln!r}")
                rows.append((None, None, int(parts[1][1])))
                continue
            try:
                var, lo, hi = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise BlockFormatError(f"bad block line {i}: {ln!r}") from None
            if not (0 <= lo < i and 0 <= hi < i):
                raise BlockFormatError(f"children must precede parents: {ln!r}")
            rows.append((var, lo, hi))
        return rows


def build_rows(rows: list[Row], manager: Manager) -> int:
    """Rebuild parsed block rows in ``manager``; returns the root reference."""
    refs: list[int] = []
    for var, lo, hi in rows:
        if var is None:
            refs.append(manager.const(hi))
        else:
            refs.append(manager.node(var, refs[lo], refs[hi]))
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
