"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the code paths it checks:
truth tables come from exhaustive evaluation, widths from cofactor
counting, separation widths and min-degree orders from rescanning every
prefix or every remaining vertex, the three-candidate order rule that
predates universal-first orders from ``narrow_order_oracle``, primal
graphs from ``primal_graph_oracle``, one clause at a time, rectangle
maxima from double-subset enumeration (sizes) or a full closure scan per
candidate (witnesses),
inner-product tables from ``cellwise_ip_truth_table``, one ``eval_ipg``
call per cell,
PCNF truth values from the game-tree recursions
``qbf_value`` and ``qbf_value_fn`` here, which work on the clause list or
a matrix predicate and never build a diagram (exponential in the number
of variables; keep inputs small), strategy verdicts and range sizes
from ``verify_winning_oracle`` and ``strategy_range_size_oracle``, which
play one assignment at a time, and strategy files and rectangle lists from
``emit_strategy_oracle`` and ``rectangle_list_oracle``, which negate each
line into its guard and read the guard itself, its covers from
``covers_oracle``, one sweep of the layered copy per cut state.  Trace
verdicts come from ``check_trace_reference``, which replays every line on
its own.  Strategy files and blocks are also read by
``parse_strategy_reference`` and ``deserialize_reference``, which take a
block's rows one ``TextReader.line()`` call at a time, rebuild each row
through the public ``Manager.node`` and infer a strategy's order from
per-row sets of child variables.

Clause diagrams are built by ``clause_reference``, the set-based
algorithm that ``Manager.clause`` replaced, and the pair kernels' results
by ``apply_reference``, ``negate_reference``, ``and_exists_reference``,
``conj_exists_reference`` and ``forall_split_reference``, plain recursions
without memos that build through the public ``Manager.node`` in lo-first
post-order, so a kernel must leave the same store node for node.

Oracles and writers that only tests call live here too: the graph inner
product ``eval_ipg``, the cell-by-cell table ``truth_table_from_function``,
the largest layer of a layered copy ``layer_width``, the line ids a trace
rule reads ``referenced``, and ``emit_qures`` and ``emit_edge_list``,
which write what ``qures.parse_qures`` and ``graphs.parse_edge_list``
read.
"""

from __future__ import annotations

import heapq
import random
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

from qobdd import obdd, proof
from qobdd.graphs import Graph, _bfs_order
from qobdd.obdd import (
    DEFAULT_NODE_BUDGET,
    OPS,
    BlockFormatError,
    BudgetExceededError,
    CompleteObdd,
    Manager,
    ObddError,
    OrderError,
    VarOrder,
    deserialize,
    serialize,
)
from qobdd.pcnf import EXISTS, FORALL, Pcnf, clause
from qobdd.qures import QAxiom, QResolve, QuResProof
from qobdd.rectangles import MAX_ORACLE_ROWS, MonoRectangle, RectangleLabError, TruthTable
from qobdd.strategy import (
    EXHAUSTIVE_PLAYS,
    DecisionList,
    DecisionListFamily,
    StrategyError,
    WinningVerdict,
)


def assignments(variables):
    """All assignments of the given variables, as dicts."""
    for bits in product((0, 1), repeat=len(variables)):
        yield dict(zip(variables, bits))


def truth_table_of(mgr: Manager, ref: int, variables) -> tuple[int, ...]:
    return tuple(mgr.evaluate(ref, a) for a in assignments(variables))


def obdd_from_table(mgr: Manager, variables, table) -> int:
    """Shannon expansion of an explicit truth table, topmost variable first.

    ``table`` lists f over assignments in ``assignments(variables)`` order,
    i.e. the first variable is the most significant index bit.
    """
    memo: dict[tuple, int] = {}

    def build(vs, tab):
        if not vs:
            return mgr.const(tab[0])
        key = (len(vs), tab)
        if key in memo:
            return memo[key]
        half = len(tab) // 2
        lo = build(vs[1:], tab[:half])
        hi = build(vs[1:], tab[half:])
        res = lo if lo == hi else mgr.node(vs[0], lo, hi)
        memo[key] = res
        return res

    return build(tuple(variables), tuple(table))


def cube(mgr: Manager, assignment) -> int:
    """OBDD of the conjunction of literals fixing each given variable."""
    acc = mgr.ONE
    for var in sorted(assignment, key=mgr.order.rank, reverse=True):
        lo, hi = (mgr.ZERO, acc) if assignment[var] else (acc, mgr.ZERO)
        acc = mgr.node(var, lo, hi)
    return acc


def random_table(rng: random.Random, nvars: int) -> tuple[int, ...]:
    return tuple(rng.randint(0, 1) for _ in range(1 << nvars))


def cofactor_tables(mgr: Manager, ref: int) -> list[set[tuple[int, ...]]]:
    """Distinct subfunctions per layer, by exhaustive evaluation.

    Independent oracle for complete OBDDs: for each prefix length i of the
    manager's order, 0..|X|, the set of truth tables of f over ``order[i:]``
    (in ``assignments`` order) with the first i variables fixed in every
    possible way.  Since the first variable is the most significant index
    bit, these are the 2**i slices of f's table over the whole order.
    """
    order = mgr.order.vars
    table = truth_table_of(mgr, ref, order)
    out = []
    for i in range(len(order) + 1):
        step = 1 << (len(order) - i)
        out.append({table[k : k + step] for k in range(0, len(table), step)})
    return out


def cofactor_counts(mgr: Manager, ref: int) -> list[int]:
    """Distinct-subfunction count per layer (prefix lengths 0..|X|-1), the
    complete-OBDD widths, from ``cofactor_tables``."""
    return [len(tables) for tables in cofactor_tables(mgr, ref)[:-1]]


def layer_width(co: CompleteObdd) -> int:
    """Width of a complete diagram: its largest layer, sinks not counted."""
    return max(map(len, co.layers), default=0)


def separation_width_oracle(g, order) -> int:
    """Vertex separation of an order by counting each prefix's frontier.

    At position i the bag is order[i] plus every earlier vertex that still
    has a neighbour at i or later; the width is the largest bag minus one.
    O(V^2) on purpose: it rescans the prefix at every position.
    """
    pos = {v: i for i, v in enumerate(order)}
    width = 0
    for i, v in enumerate(order):
        bag = 1 + sum(
            1
            for u in order[: i + 1]
            if u != v and any(pos[w] >= i for w in g.adj[u])
        )
        width = max(width, bag)
    return width - 1


def min_degree_order_oracle(g) -> list[int]:
    """Min-degree elimination by scanning every remaining vertex per step."""
    adj = {v: set(g.adj[v]) for v in g.vertices}
    order = []
    remaining = set(g.vertices)
    while remaining:
        v = min(remaining, key=lambda u: (len(adj[u] & remaining), u))
        order.append(v)
        nbrs = adj[v] & remaining
        for a in nbrs:
            adj[a].update(nbrs - {a})
        remaining.remove(v)
    return order


def narrow_order_oracle(g) -> list[int]:
    """The three-candidate rule ``graphs.narrow_order`` applied before its
    universal-first candidate: the first of the identity, breadth-first and
    min-degree orders of smallest width, widths by rescanning."""
    candidates = [list(g.vertices), _bfs_order(g), min_degree_order_oracle(g)]
    widths = [separation_width_oracle(g, order) for order in candidates]
    return candidates[widths.index(min(widths))]


def primal_graph_oracle(f: Pcnf) -> Graph:
    """The primal graph built clause by clause: every pair of each clause's
    variables added as an edge through the checked ``Graph`` constructor."""
    edges = set()
    for c in f.clauses:
        vs = sorted({abs(l) for l in c})
        for i, u in enumerate(vs):
            for w in vs[i + 1 :]:
                edges.add((u, w))
    return Graph(sorted(f.matrix_variables()), sorted(edges))


def random_pcnf(rng: random.Random, max_vars=14, max_clauses=30) -> Pcnf:
    """Random small PCNF with 2-4 alternating quantifier blocks."""
    n = rng.randint(3, max_vars)
    nblocks = rng.randint(2, 4)
    q = rng.choice([EXISTS, FORALL])
    cuts = sorted(rng.sample(range(1, n), min(nblocks - 1, n - 1)))
    prefix = []
    b = 0
    for v in range(1, n + 1):
        if b < len(cuts) and v > cuts[b]:
            b += 1
            q = EXISTS if q == FORALL else FORALL
        prefix.append((q, v))
    m = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(m):
        k = rng.randint(1, min(4, n))
        vs = rng.sample(range(1, n + 1), k)
        clauses.append(clause([v if rng.random() < 0.5 else -v for v in vs]))
    return Pcnf(tuple(prefix), tuple(clauses))


def naive_max_mono(rows: tuple[int, ...], ncols: int) -> int:
    """Maximum monochromatic rectangle by double-subset enumeration.

    Every (row subset, column subset) pair is visited; a pair is
    monochromatic when the selected cells are all ones (the AND of the
    selected rows covers the columns) or all zeroes (their OR misses them).
    """
    nrows = len(rows)
    full = (1 << ncols) - 1
    best = 0
    for amask in range(1, 1 << nrows):
        na = amask.bit_count()
        if na * ncols <= best:
            continue
        and_rows, or_rows = full, 0
        for i in range(nrows):
            if amask >> i & 1:
                and_rows &= rows[i]
                or_rows |= rows[i]
        for bmask in range(1, 1 << ncols):
            if bmask & ~and_rows == 0 or bmask & or_rows == 0:
                size = na * bmask.bit_count()
                if size > best:
                    best = size
    return best


def eval_ipg(g: Graph, assignment: Mapping[int, int]) -> int:
    """Graph inner product: parity of edges with both endpoints set to 1."""
    acc = 0
    try:
        for u, w in g.edges():
            acc ^= assignment[u] & assignment[w]
    except KeyError as exc:
        raise RectangleLabError(f"assignment lacks vertex {exc.args[0]}") from None
    return acc


def truth_table_from_function(
    fn: Callable[[Mapping[int, int]], int], x1_vars: Sequence[int], x2_vars: Sequence[int]
) -> TruthTable:
    """``fn`` on every cell of the split: bit j of row i is fn of the i-th
    X1 and the j-th X2 assignment, each side's first variable the least
    significant bit, as in ``TruthTable``."""
    x1, x2 = tuple(x1_vars), tuple(x2_vars)
    rows = []
    for i in range(1 << len(x1)):
        a = {v: (i >> k) & 1 for k, v in enumerate(x1)}
        row = 0
        for j in range(1 << len(x2)):
            a.update({v: (j >> k) & 1 for k, v in enumerate(x2)})
            if fn(a):
                row |= 1 << j
        rows.append(row)
    return TruthTable(x1, x2, tuple(rows))


def cellwise_ip_truth_table(
    g: Graph, partition: tuple[Sequence[int], Sequence[int]]
) -> TruthTable:
    """Reference inner-product table: ``eval_ipg`` on every cell, after the
    partition check that ``rectangles.ip_truth_table`` makes first."""
    x1, x2 = partition
    if (
        set(x1) | set(x2) != set(g.vertices)
        or set(x1) & set(x2)
        or len(x1) + len(x2) != len(g.vertices)
    ):
        raise RectangleLabError("partition must split the vertex set")
    return truth_table_from_function(lambda a: eval_ipg(g, a), x1, x2)


def closure_scan_max_mono(tt: TruthTable) -> MonoRectangle:
    """Reference maximum monochromatic rectangle: the same depth-first
    closed-set enumeration as ``rectangles.max_mono_rectangle``, with the
    looser bound |c2| * nrows and a full closure scan of every candidate.

    Kept as the oracle was before its exact bound and early rejection, so
    that both must return the same witness, not just the same size.
    """
    nrows, ncols = tt.nrows, tt.ncols
    transposed = False
    rows = tt.rows
    if nrows > ncols:
        transposed = True
        rows = tuple(
            sum(((tt.rows[i] >> j) & 1) << i for i in range(nrows))
            for j in range(ncols)
        )
        nrows, ncols = ncols, nrows
    if nrows > MAX_ORACLE_ROWS:
        raise RectangleLabError(
            f"oracle limited to {MAX_ORACLE_ROWS} rows on the shorter side"
        )
    full_cols = (1 << ncols) - 1
    best = 0
    best_wit: tuple[int, int, int] | None = None  # (color, row mask, col mask)

    for color in (0, 1):
        masks = [r ^ full_cols if color == 0 else r for r in rows]

        def closure(colmask: int) -> int:
            amask = 0
            for i in range(nrows):
                if masks[i] & colmask == colmask:
                    amask |= 1 << i
            return amask

        def visit(amask: int, colmask: int) -> None:
            nonlocal best, best_wit
            size = amask.bit_count() * colmask.bit_count()
            if size > best:
                best = size
                best_wit = (color, amask, colmask)

        def grow(amask: int, colmask: int, start: int) -> None:
            for i in range(start, nrows):
                if amask >> i & 1:
                    continue
                c2 = colmask & masks[i]
                if c2 == 0 or c2.bit_count() * nrows <= best:
                    continue
                a2 = closure(c2)
                if a2 & ((1 << i) - 1) & ~amask:
                    continue  # canonical generation: no new earlier row
                visit(a2, c2)
                grow(a2, c2, i + 1)

        a0 = closure(full_cols)
        visit(a0, full_cols)
        grow(a0, full_cols, 0)

    if best_wit is None:
        return MonoRectangle(0, 0, (), ())
    color, amask, colmask = best_wit
    rows_idx = tuple(i for i in range(nrows) if amask >> i & 1)
    cols_idx = tuple(j for j in range(ncols) if colmask >> j & 1)
    if transposed:
        rows_idx, cols_idx = cols_idx, rows_idx
    return MonoRectangle(best, color, rows_idx, cols_idx)


def qbf_value(f: Pcnf) -> bool:
    """Game-tree truth value with early cutoffs on settled clauses."""
    clauses = [list(c) for c in f.clauses]
    if not clauses:
        return True
    occ: dict[int, list[tuple[int, bool]]] = {v: [] for _, v in f.prefix}
    for ci, c in enumerate(clauses):
        for lit in c:
            occ[abs(lit)].append((ci, lit > 0))
    false_lits = [0] * len(clauses)  # literals assigned false
    true_lits = [0] * len(clauses)  # literals assigned true
    falsified = 0
    unsatisfied = len(clauses)  # clauses with no true literal yet
    sizes = [len(c) for c in clauses]
    prefix = f.prefix

    def assign(var: int, value: int, sign: int):
        nonlocal falsified, unsatisfied
        for ci, positive in occ[var]:
            if positive == bool(value):
                true_lits[ci] += sign
                if sign > 0 and true_lits[ci] == 1:
                    unsatisfied -= 1
                elif sign < 0 and true_lits[ci] == 0:
                    unsatisfied += 1
            else:
                false_lits[ci] += sign
                if sign > 0 and false_lits[ci] == sizes[ci]:
                    falsified += 1
                elif sign < 0 and false_lits[ci] == sizes[ci] - 1:
                    falsified -= 1

    def play(i: int) -> bool:
        if falsified:
            return False
        if not unsatisfied or i == len(prefix):
            # on a full assignment every clause is settled one way or the other
            return True
        q, var = prefix[i]
        want_any = q == EXISTS
        for value in (0, 1):
            assign(var, value, +1)
            res = play(i + 1)
            assign(var, value, -1)
            if res == want_any:
                return want_any
        return not want_any

    return play(0)


def qbf_value_fn(
    prefix: Sequence[tuple[str, int]], matrix: Callable[[Mapping[int, int]], int]
) -> bool:
    """Game value for an arbitrary matrix predicate over full assignments."""
    assignment: dict[int, int] = {}

    def play(i: int) -> bool:
        if i == len(prefix):
            return bool(matrix(assignment))
        q, var = prefix[i]
        want_any = q == EXISTS
        for value in (0, 1):
            assignment[var] = value
            res = play(i + 1)
            del assignment[var]
            if res == want_any:
                return want_any
        return not want_any

    return play(0)


# -- strategies ---------------------------------------------------------------


def guard_list(m: Manager, entries: Iterable[tuple[int, int]]) -> DecisionList:
    """A decision list from first-match (guard, value) pairs, the last
    guard constant true: each guard is stored as its negation, the line
    whose zeros fire the entry."""
    return DecisionList(m, [(m.negate(guard), value) for guard, value in entries])


def random_family(rng: random.Random, f: Pcnf) -> DecisionListFamily:
    """Zero to three random guards per universal, each a random table over
    up to four variables left of it, then the constant-true guard."""
    m = Manager(VarOrder(f.variables))
    lists: dict[int, DecisionList] = {}
    left: list[int] = []
    for q, v in f.prefix:
        if q == FORALL:
            entries = []
            for _ in range(rng.randint(0, 3)):
                vs = sorted(rng.sample(left, min(len(left), rng.randint(0, 4))))
                guard = obdd_from_table(m, vs, random_table(rng, len(vs)))
                entries.append((guard, rng.getrandbits(1)))
            lists[v] = guard_list(m, entries + [(m.ONE, rng.getrandbits(1))])
        left.append(v)
    return DecisionListFamily(f, m, lists)


def flipped_entry(
    rng: random.Random, family: DecisionListFamily
) -> DecisionListFamily:
    """The family with one random entry's value flipped."""
    u = rng.choice(family.formula.universals)
    entries = oracle_guards(family.lists[u])
    i = rng.randrange(len(entries))
    guard, value = entries[i]
    entries[i] = (guard, 1 - value)
    lists = {**family.lists, u: guard_list(family.manager, entries)}
    return DecisionListFamily(family.formula, family.manager, lists)


def oracle_guards(dl: DecisionList) -> list[tuple[int, int]]:
    """(guard, value) pairs, each line negated on its own with a fresh
    memo."""
    return [(dl.manager.negate(line), value) for line, value in dl.lines]


def emit_strategy_oracle(family: DecisionListFamily) -> str:
    """``strategy.emit_strategy`` from the negated guards, each block
    serialized as it is."""
    out = ["p qobdd-strategy"]
    for u in family.formula.universals:
        dl = family.lists[u]
        out.append(f"u {u} {len(dl)}")
        for guard, value in oracle_guards(dl):
            out += [f"entry {value}", serialize(family.manager, guard)]
    return "\n".join(out) + "\n"


def block_reference(reader: obdd.TextReader) -> list[obdd.Row]:
    """``TextReader.block`` one ``line()`` call per row: the header, then
    each row read and checked on its own."""
    head = reader.line()
    parts = head.split()
    if len(parts) != 2 or parts[0] != "obdd" or not parts[1].isdecimal():
        raise BlockFormatError(f"bad block header: {head!r}")
    k = int(parts[1])
    if k < 1:
        raise BlockFormatError(f"block declares {k} nodes")
    lines = [reader.line() for _ in range(k)]
    rows: list[obdd.Row] = []
    for i, ln in enumerate(lines):
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


def clause_reference(mgr: Manager, literals: Iterable[int]) -> int:
    """``Manager.clause`` by the set-based algorithm it replaced: the
    literals deduplicated through a set, ranked, sorted deepest first,
    scanned for equal adjacent ranks (x and not x), then chained with
    ``Manager._mk``; an unknown variable is named in set iteration order."""
    lits = set(literals)
    if 0 in lits:
        raise ObddError("0 is not a literal")
    position = mgr.order.position
    try:
        ranked = sorted([(position[abs(l)], l) for l in lits], reverse=True)
    except KeyError as exc:
        raise OrderError(f"variable {exc.args[0]} not in order") from None
    for i in range(1, len(ranked)):
        if ranked[i][0] == ranked[i - 1][0]:
            return mgr.ONE
    acc = mgr.ZERO
    for rank, lit in ranked:
        if lit > 0:
            acc = mgr._mk(rank, acc, mgr.ONE)
        else:
            acc = mgr._mk(rank, mgr.ONE, acc)
    return acc


def _bit(code: int, a: int, b: int) -> int:
    """op(a, b) from a 4-bit ``OPS`` truth-table code."""
    return (code >> ((a << 1) | b)) & 1


def negate_reference(mgr: Manager, f: int) -> int:
    """``Manager.negate`` as the plain recursion: each node rebuilt through
    the public ``Manager.node`` over its negated children, lo child first."""
    vars_, nodes = mgr.order.vars, mgr._nodes

    def rec(f):
        if f <= 1:
            return 1 - f
        r, lo, hi = nodes[f]
        return mgr.node(vars_[r], rec(lo), rec(hi))

    return rec(f)


def _cofactors(mgr: Manager, f: int, r: int) -> tuple[int, int]:
    """f's two cofactors at rank r, where f ranks at or past r."""
    rank, lo, hi = mgr._nodes[f]
    return (lo, hi) if rank == r else (f, f)


def apply_reference(mgr: Manager, f: int, g: int, code: int) -> int:
    """``Manager._apply`` as the plain recursion over pairs, with no memo:
    a sink operand leaves a constant, the other operand or its negation,
    read off the truth table bit by bit, and any other pair is split on
    its top variable and rebuilt through the public ``Manager.node``, lo
    pair first.  A memo hit only returns nodes the store already holds, so
    this makes the kernel's nodes in the kernel's order."""
    vars_, nodes = mgr.order.vars, mgr._nodes

    def by_sink(other, r0, r1):  # the result as the other operand goes 0, 1
        if r0 == r1:
            return r0
        return other if r1 else negate_reference(mgr, other)

    def rec(f, g):
        if f <= 1:
            return by_sink(g, _bit(code, f, 0), _bit(code, f, 1))
        if g <= 1:
            return by_sink(f, _bit(code, 0, g), _bit(code, 1, g))
        r = min(nodes[f][0], nodes[g][0])
        (f0, f1), (g0, g1) = _cofactors(mgr, f, r), _cofactors(mgr, g, r)
        return mgr.node(vars_[r], rec(f0, g0), rec(f1, g1))

    return rec(f, g)


def and_exists_reference(mgr: Manager, f: int, g: int, var: int) -> int:
    """``Manager.and_exists`` as the plain recursion: ZERO ends a pair, a
    pair past x's rank is its conjunction, a pair of that rank the ``or``
    of its cofactor conjunctions (ONE when the first is ONE, without the
    second), and a pair above it is rebuilt over its two pairs' results."""
    vars_, nodes, at = mgr.order.vars, mgr._nodes, mgr.order.rank(var)
    conj, disj = OPS["and"], OPS["or"]

    def rec(f, g):
        if f == 0 or g == 0:
            return 0
        r = min(nodes[f][0], nodes[g][0])
        if r > at:
            return apply_reference(mgr, f, g, conj)
        (f0, f1), (g0, g1) = _cofactors(mgr, f, r), _cofactors(mgr, g, r)
        if r == at:
            c0 = apply_reference(mgr, f0, g0, conj)
            if c0 == 1:
                return 1
            return apply_reference(mgr, c0, apply_reference(mgr, f1, g1, conj), disj)
        return mgr.node(vars_[r], rec(f0, g0), rec(f1, g1))

    return rec(f, g)


def conj_exists_reference(mgr: Manager, f: int, g: int, var: int) -> tuple[int, int]:
    """``Manager.conj_exists`` as the plain recursion: ZERO ends a pair, a
    pair past x's rank is its conjunction twice, a pair of that rank the
    node over its cofactor conjunctions c0 and c1, then their ``or``, and a
    pair above it is rebuilt twice over its two pairs' results, conjunction
    first."""
    vars_, nodes, at = mgr.order.vars, mgr._nodes, mgr.order.rank(var)
    conj, disj = OPS["and"], OPS["or"]

    def rec(f, g):
        if f == 0 or g == 0:
            return 0, 0
        r = min(nodes[f][0], nodes[g][0])
        if r > at:
            c = apply_reference(mgr, f, g, conj)
            return c, c
        (f0, f1), (g0, g1) = _cofactors(mgr, f, r), _cofactors(mgr, g, r)
        if r == at:
            c0 = apply_reference(mgr, f0, g0, conj)
            c1 = apply_reference(mgr, f1, g1, conj)
            both = mgr.node(var, c0, c1)
            return both, apply_reference(mgr, c0, c1, disj)
        (l, lp), (h, hp) = rec(f0, g0), rec(f1, g1)
        return mgr.node(vars_[r], l, h), mgr.node(vars_[r], lp, hp)

    return rec(f, g)


def forall_split_reference(mgr: Manager, f: int, var: int) -> tuple[int, int, int]:
    """``Manager.forall_split`` as the plain recursion: a node past x's
    rank is its own three images, a node of that rank gives its children
    and their conjunction, and a node above it is rebuilt three times over
    its children's images, lo child first."""
    vars_, nodes, at = mgr.order.vars, mgr._nodes, mgr.order.rank(var)

    def rec(f):
        r, lo, hi = nodes[f]
        if r > at:
            return f, f, f
        if r == at:
            return lo, hi, apply_reference(mgr, lo, hi, OPS["and"])
        low, high, v = rec(lo), rec(hi), vars_[r]
        return tuple(mgr.node(v, a, b) for a, b in zip(low, high))

    return rec(f)


def build_rows_reference(rows: list[obdd.Row], manager: Manager) -> int:
    """``obdd.build_rows`` through the public ``Manager.node``, row by row."""
    refs: list[int] = []
    for var, lo, hi in rows:
        if var is None:
            refs.append(manager.const(hi))
        else:
            refs.append(manager.node(var, refs[lo], refs[hi]))
    return refs[-1]


def deserialize_reference(text: str, manager: Manager) -> int:
    """``obdd.deserialize`` from ``block_reference`` and
    ``build_rows_reference``."""
    reader = obdd.TextReader(text)
    rows = block_reference(reader)
    if not reader.at_end():
        raise BlockFormatError("trailing content after block")
    return build_rows_reference(rows, manager)


def infer_order_reference(blocks: list[list[obdd.Row]], extra_vars) -> VarOrder:
    """The strategy reader's order inference, one set of child variables
    and one set difference per row."""
    succ: dict[int, set[int]] = {v: set() for v in extra_vars}
    for rows in blocks:
        for var, lo, hi in rows:
            if var is not None:
                kids = {rows[c][0] for c in (lo, hi)} - {None}
                succ.setdefault(var, set()).update(kids)
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


def parse_strategy_reference(
    text: str, f: Pcnf, node_budget: int = DEFAULT_NODE_BUDGET
) -> DecisionListFamily:
    """``strategy.parse_strategy`` from ``block_reference``,
    ``infer_order_reference`` and ``build_rows_reference``: the same
    family, or the same error."""
    reader = obdd.TextReader(text)
    raw: dict[int, list[tuple[int, list[obdd.Row]]]] = {}

    def entry() -> tuple[int, list[obdd.Row]]:
        parts = reader.line().split()
        if len(parts) != 2 or parts[0] != "entry" or parts[1] not in ("0", "1"):
            raise StrategyError("expected `entry <0|1>`")
        rows = [
            (var, lo, hi) if var is not None else (None, None, 1 - hi)
            for var, lo, hi in block_reference(reader)
        ]
        return int(parts[1]), rows

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
            raw[var] = [entry() for _ in range(count)]
    except (BlockFormatError, ValueError) as exc:
        raise StrategyError(f"bad strategy file: {exc}") from None
    if set(raw) != set(f.universals):
        raise StrategyError("strategy file does not cover the universal variables")
    blocks = [rows for entries in raw.values() for _, rows in entries]
    try:
        order = infer_order_reference(blocks, f.variables)
    except OrderError as exc:
        raise StrategyError(f"bad strategy file: {exc}") from None
    mgr = Manager(order, node_budget=node_budget)
    lists = {
        var: DecisionList(mgr, [(build_rows_reference(rows, mgr), v) for v, rows in entries])
        for var, entries in raw.items()
    }
    return DecisionListFamily(f, mgr, lists)


def family_nodes(family: DecisionListFamily) -> tuple:
    """A family's manager node for node (order and ``_nodes``) and every
    list's (line ref, value) entries."""
    m = family.manager
    lists = {u: dl.lines for u, dl in family.lists.items()}
    return m.order.vars, m._nodes, lists


def outcome(fn: Callable, *args) -> tuple:
    """``("ok", result)`` or ``(exception type, message)`` of one call."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, not handled
        return type(exc), str(exc)


def covers_oracle(co: CompleteObdd, cut: int, drop: int) -> list[tuple[int, int]]:
    """``CompleteObdd.covers`` by one sweep of the layered copy per cut
    state s: from the cut back to the root, each state that tests its
    layer's variable gets the function of the variables before its layer
    that leads it to s, every other state passing its layer unchanged."""
    m = co.manager
    order = m.order.vars
    if not 0 <= cut <= len(order):
        raise ObddError(f"cut {cut} not a prefix length of the order")
    if cut < len(co.layers):
        states = co.layers[cut]
    elif co.sinks is not None:
        states = co.sinks
    else:
        raise ObddError(f"cut {cut} past the {len(co.layers)} layers built")
    sweep = []
    for i in range(cut - 1, -1, -1):
        v = order[i]
        tests = [(t, *m._nodes[t][1:]) for t in co.layers[i] if m._nodes[t][0] == i]
        sweep.append((v, i, tests))
    rects = []
    for s in states:
        if s == drop:
            continue
        reach = dict.fromkeys(states, m.ZERO)
        reach[s] = m.ONE
        for v, rank, tests in sweep:
            for t, t0, t1 in tests:
                reach[t] = m.node(v, reach[t0], reach[t1])
        rects.append((reach[co.root], s))
    return rects


def rectangle_list_oracle(dl: DecisionList, cut: int) -> list[tuple[int, int, int]]:
    """``strategy.to_rectangle_list`` entries from the negated guards: each
    guard's cover by ``covers_oracle``, dropping its ZERO states, then the
    full rectangle."""
    m = dl.manager
    guards = oracle_guards(dl)
    entries = [
        (r1, r2, value)
        for guard, value in guards[:-1]
        for r1, r2 in covers_oracle(m.complete(guard), cut, m.ZERO)
    ]
    return entries + [(m.ONE, m.ONE, guards[-1][1])]


def _matrix_satisfied(f: Pcnf, assignment: Mapping[int, int]) -> bool:
    return all(
        any((lit > 0) == bool(assignment[abs(lit)]) for lit in c) for c in f.clauses
    )


def verify_winning_oracle(
    f: Pcnf, family: DecisionListFamily, samples: int = 100000, seed: int = 0
) -> WinningVerdict:
    """``strategy.verify_winning`` one play at a time: the same plays in
    the same order, each answered by ``family.respond`` and checked clause
    by clause."""
    evars = f.existentials
    total = 1 << len(evars)
    exhaustive = total <= max(samples, EXHAUSTIVE_PLAYS)
    if exhaustive:
        space: Iterable[int] = range(total)
    else:
        rng = random.Random(seed)
        space = (rng.getrandbits(len(evars)) for _ in range(samples))
        total = samples
    checked = 0
    for bits in space:
        tau = {v: (bits >> i) & 1 for i, v in enumerate(evars)}
        full = family.respond(tau)
        checked += 1
        if _matrix_satisfied(f, full):
            return WinningVerdict(False, full, checked, exhaustive)
    return WinningVerdict(True, None, total, exhaustive)


def strategy_range_size_oracle(family: DecisionListFamily) -> int:
    """``strategy.strategy_range_size`` one play at a time: every
    assignment of all existentials, relevant to a guard or not, answered
    by ``family.respond``; no relevance limit (keep formulas small)."""
    f = family.formula
    seen: set[tuple[int, ...]] = set()
    for tau in assignments(f.existentials):
        full = family.respond(tau)
        seen.add(tuple(full[u] for u in f.universals))
    return len(seen)


# -- traces -------------------------------------------------------------------


def eliminate_all_reference(
    f: Pcnf, mgr: Manager, axioms, emit, eliminations, buckets: list | None = None
) -> bool:
    """``solver._eliminate_all`` with every ``C`` line its own ``apply`` and
    every existential elimination its own ``exists`` on it, so no bucket's
    last conjunction shares a walk with its projection.  Takes the same
    arguments and emits the same lines; ``buckets``, if given, collects
    ``(quantifier, entries, last conjunction reached)`` for each bucket
    processed."""
    bucket_entries: list[list] = [[] for _ in f.prefix]
    placed: set[int] = set()
    for entry in axioms:
        ref, lid, _, pos = entry
        if ref == mgr.ZERO:
            emit(proof.Conj(lid, lid), ref)
            return False
        if pos is not None and ref not in placed:
            placed.add(ref)
            bucket_entries[pos].append(entry)
    for pos in range(len(f.prefix) - 1, -1, -1):
        entries = bucket_entries[pos]
        if not entries:
            continue
        q, var = f.prefix[pos]
        entries.sort(key=lambda e: (e[2], e[1]))
        if buckets is not None:
            buckets.append([q, len(entries), len(entries) == 1])
        cur = entries[0]
        for i, nxt in enumerate(entries[1:], start=2):
            if buckets is not None and i == len(entries):
                buckets[-1][2] = True
            cur = emit(proof.Conj(cur[1], nxt[1]), mgr.apply(cur[0], nxt[0], "and"))
            if cur[0] == mgr.ZERO:
                return False
        ref, lid, _, right = cur
        if right == pos:
            if q == EXISTS:
                cur = emit(proof.Proj(var, lid), mgr.exists(ref, var))
            else:
                lid0 = emit(proof.URed(var, 0, lid), mgr.restrict(ref, var, 0))[1]
                lid1 = emit(proof.URed(var, 1, lid), mgr.restrict(ref, var, 1))[1]
                cur = emit(proof.Conj(lid0, lid1), mgr.forall(ref, var))
        ref, _, _, new_pos = cur
        eliminations.append(var)
        if ref == mgr.ZERO:
            return False
        if ref == mgr.ONE:
            continue
        bucket_entries[new_pos].append(cur)
    return True


def referenced(rule: proof.Rule) -> tuple[int, ...]:
    """The line ids a trace rule reads."""
    if isinstance(rule, proof.Conj):
        return (rule.left, rule.right)
    if isinstance(rule, (proof.Proj, proof.URed)):
        return (rule.premise,)
    if isinstance(rule, proof.Entail):
        return rule.premises
    return ()


def check_trace_reference(
    f: Pcnf, trace: proof.ProofTrace, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[proof.Verdict, Manager | None, dict[int, int]]:
    """``proof.check_trace`` one line at a time: every reduction line runs
    its own side test and ``restrict``, and every ``Conj`` its own
    ``apply``, so no line reads another line's walk.  Returns the verdict,
    the manager and the replayed functions by line id; a budget hit raises
    ``BudgetExceededError("line <id>")`` for the line that ran out."""
    lines = trace.lines

    def reject(line_id, reason):
        return proof.Verdict(False, line_id, reason), None, {}

    if trace.formula_hash != proof.formula_hash(f):
        return reject(None, proof.HASH_MISMATCH)
    if set(trace.order.vars) != set(f.variables):
        return reject(None, proof.ORDER_MISMATCH)
    mgr = Manager(trace.order, node_budget=node_budget)
    funcs: dict[int, int] = {}
    m = len(f.clauses)
    last_id = 0
    for pos, line in enumerate(lines):
        rule = line.rule
        if line.id <= last_id:
            return reject(line.id, proof.BAD_REFERENCE)
        if (pos < m) != isinstance(rule, proof.Axiom) or (
            pos < m and rule.clause_index != pos + 1
        ):
            return reject(line.id, proof.AXIOM_MISMATCH)
        if any(j not in funcs for j in referenced(rule)):
            return reject(line.id, proof.BAD_REFERENCE)
        if isinstance(rule, (proof.Proj, proof.URed)) and rule.var not in trace.order:
            return reject(line.id, proof.BAD_REFERENCE)
        if isinstance(rule, proof.URed) and rule.value not in (0, 1):
            return reject(line.id, proof.MALFORMED)
        try:
            if isinstance(rule, proof.Axiom):
                ref = mgr.clause(f.clauses[rule.clause_index - 1])
            elif isinstance(rule, proof.Conj):
                ref = mgr.apply(funcs[rule.left], funcs[rule.right], "and")
            elif isinstance(rule, proof.Proj):
                ref = mgr.exists(funcs[rule.premise], rule.var)
            elif isinstance(rule, proof.URed):
                if not f.is_universal(rule.var):
                    return reject(line.id, proof.URED_NOT_UNIVERSAL)
                positions = [f.prefix_position(v) for v in mgr.support(funcs[rule.premise])]
                if max(positions, default=None) != f.prefix_position(rule.var):
                    return reject(line.id, proof.URED_NOT_RIGHTMOST)
                ref = mgr.restrict(funcs[rule.premise], rule.var, rule.value)
            elif isinstance(rule, proof.Entail):
                try:
                    claimed = deserialize(rule.block, mgr)
                except (BlockFormatError, OrderError):
                    return reject(line.id, proof.MALFORMED_BLOCK)
                conj = mgr.ONE
                for j in rule.premises:
                    conj = mgr.apply(conj, funcs[j], "and")
                if mgr.apply(conj, claimed, "implies") != mgr.ONE:
                    return reject(line.id, proof.ENTAILMENT_FAILED)
                ref = claimed
            else:
                return reject(line.id, proof.MALFORMED)
        except BudgetExceededError:
            raise BudgetExceededError(f"line {line.id}") from None
        funcs[line.id] = ref
        last_id = line.id
    if len(lines) < m:
        return reject(last_id or None, proof.AXIOM_MISMATCH)
    return proof.Verdict(True), mgr, funcs


def emit_qures(proof: QuResProof) -> str:
    """A QU-resolution proof in the text format ``qures.parse_qures`` reads."""
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


def emit_edge_list(g: Graph) -> str:
    """``g`` in the edge-list format ``graphs.parse_edge_list`` reads."""
    return "\n".join(f"{u} {w}" for u, w in g.edges()) + "\n"
