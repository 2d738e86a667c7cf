"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the code paths it checks:
truth tables come from exhaustive evaluation, widths from cofactor
counting, separation widths and min-degree orders from rescanning every
prefix or every remaining vertex, rectangle maxima from double-subset
enumeration (sizes) or a full closure scan per candidate (witnesses),
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
its own.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

from qobdd import proof
from qobdd.graphs import Graph
from qobdd.obdd import (
    DEFAULT_NODE_BUDGET,
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
from qobdd.rectangles import (
    MAX_ORACLE_ROWS,
    MonoRectangle,
    RectangleLabError,
    TruthTable,
    eval_ipg,
)
from qobdd.strategy import (
    EXHAUSTIVE_PLAYS,
    DecisionList,
    DecisionListFamily,
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
    return TruthTable.from_function(lambda a: eval_ipg(g, a), x1, x2)


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
        tests = [(t, m._lo[t], m._hi[t]) for t in co.layers[i] if t > 1 and m._var[t] == v]
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
        if any(j not in funcs for j in trace.referenced(rule)):
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
        return reject(last_id if lines else None, proof.AXIOM_MISMATCH)
    if not lines:
        return reject(None, proof.MALFORMED)
    return proof.Verdict(True), mgr, funcs
