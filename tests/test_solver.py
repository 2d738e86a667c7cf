import random
from collections import Counter

import pytest

from qobdd import solver
from qobdd.families import (
    eqprime_decomposition,
    gen_eqprime,
    gen_ipg_qbf,
    gen_quparity,
    quparity_decomposition,
)
from qobdd.graphs import order_from_decomposition, path_decomposition, random_dregular
from qobdd.obdd import BudgetExceededError, Manager, OrderError, VarOrder
from qobdd.pcnf import EXISTS, FORALL, Pcnf, clause, primal_graph
from qobdd.proof import Conj, Proj, URed, check_trace
from qobdd.solver import default_order, extend_order, prefix_order, solve

from .helpers import (
    check_trace_reference,
    eliminate_all_reference,
    layer_width,
    qbf_value,
    random_pcnf,
)


def test_default_order_is_the_decomposition_route():
    # default_order reads no decomposition; the order it gives must be the
    # one read back from the validated decomposition of the primal graph
    rng = random.Random(23)
    formulas = [gen(n) for n in range(2, 41) for gen in (gen_quparity, gen_eqprime)]
    formulas += [gen_ipg_qbf(random_dregular(v, 3, seed=s)) for v in (6, 10, 14) for s in range(3)]
    formulas += [random_pcnf(rng) for _ in range(60)]
    formulas.append(  # prefix variables 2 and 5 are missing from the matrix
        Pcnf(tuple(zip((EXISTS, FORALL) * 3, range(1, 6))), (clause([3, -1]), clause([4, 3])))
    )
    formulas.append(Pcnf(((EXISTS, 2), (FORALL, 1)), ()))
    for f in formulas:
        pd = path_decomposition(primal_graph(f))
        expected = extend_order(f, order_from_decomposition(pd).vars)
        assert default_order(f) == expected
        assert sorted(expected.vars) == sorted(f.variables)


def test_extend_order_appends_missing_prefix_variables_in_prefix_order():
    f = Pcnf(((EXISTS, 4), (FORALL, 1), (EXISTS, 3), (FORALL, 2)), (clause([1, 3]),))
    assert extend_order(f, [3]).vars == (3, 4, 1, 2)
    assert extend_order(f, []) == prefix_order(f)
    assert extend_order(f, [2, 1, 3, 4]).vars == (2, 1, 3, 4)


def test_single_existential_true():
    f = Pcnf(((EXISTS, 1),), (clause([1]),))
    res = solve(f)
    assert res.value is True
    assert res.trace is not None
    chk = check_trace(f, res.trace)
    assert chk.accepted and not chk.refutation


def test_contradiction_early_exit():
    f = Pcnf(((EXISTS, 1),), (clause([1]), clause([-1])))
    res = solve(f)
    assert res.value is False
    assert check_trace(f, res.trace, require_refutation=True).refutation


def test_universal_singleton_bucket():
    f = Pcnf(((FORALL, 1),), (clause([1]),))
    res = solve(f)
    assert res.value is False
    assert check_trace(f, res.trace, require_refutation=True).refutation
    assert any(isinstance(l.rule, URed) for l in res.trace.lines)


def test_empty_input_clause():
    f = Pcnf(((EXISTS, 1),), (clause([1]), ()))
    res = solve(f)
    assert res.value is False
    assert check_trace(f, res.trace, require_refutation=True).refutation


def test_bucket_placement_read_off_the_trace():
    # each distinct clause diagram enters the bucket of its rightmost
    # variable once, at its first axiom line; a universal's two U lines on
    # one premise are one use of it
    rng = random.Random(11)
    formulas = [random_pcnf(rng, 10, 20) for _ in range(300)] + [gen_eqprime(5), gen_quparity(5)]
    trues = 0
    for f in formulas:
        res = solve(f)
        assert check_trace(f, res.trace).accepted
        _, mgr, fn = check_trace_reference(f, res.trace)
        uses: Counter[int] = Counter()
        reductions = set()
        for line in res.trace.lines:
            r = line.rule
            if isinstance(r, Conj):
                uses.update((r.left, r.right))
            elif isinstance(r, Proj):
                uses[r.premise] += 1
                support = mgr.support(fn[r.premise])
                assert max(f.prefix_position(v) for v in support) == f.prefix_position(r.var)
            elif isinstance(r, URed) and (r.var, r.premise) not in reductions:
                reductions.add((r.var, r.premise))
                uses[r.premise] += 1
        placed = set()
        for line in res.trace.lines[: len(f.clauses)]:
            ref = fn[line.id]
            if ref in (mgr.ZERO, mgr.ONE):
                continue
            if ref in placed:
                assert uses[line.id] == 0, (f, line)
            else:
                placed.add(ref)
                assert uses[line.id] == 1 if res.value else uses[line.id] <= 1, (f, line)
        trues += res.value
    assert trues


def test_elimination_matches_direct_quantification():
    f = gen_eqprime(3)
    order = order_from_decomposition(eqprime_decomposition(3))
    res = solve(f, order=order)
    # recompute without buckets: conjoin everything, quantify inside out
    mgr = Manager(order)
    acc = mgr.ONE
    for c in f.clauses:
        acc = mgr.apply(acc, mgr.clause(c), "and")
    for q, var in reversed(f.prefix):
        acc = mgr.exists(acc, var) if q == EXISTS else mgr.forall(acc, var)
    assert (acc == mgr.ONE) == res.value


def test_verdicts_match_oracle_on_random_instances():
    rng = random.Random(2024)
    for _ in range(60):
        f = random_pcnf(rng, max_vars=12, max_clauses=24)
        res = solve(f)
        assert res.value == qbf_value(f)
        chk = check_trace(f, res.trace, require_refutation=not res.value)
        assert chk.accepted


def test_order_policies_agree():
    rng = random.Random(31)
    for _ in range(15):
        f = random_pcnf(rng, max_vars=10, max_clauses=15)
        assert solve(f, order=prefix_order(f)).value == solve(f, order=default_order(f)).value


def test_random_orders_keep_verdicts_and_traces_valid():
    rng = random.Random(47)
    for _ in range(20):
        f = random_pcnf(rng, max_vars=9, max_clauses=14)
        want = qbf_value(f)
        shuffled = list(f.variables)
        rng.shuffle(shuffled)
        res = solve(f, order=VarOrder(shuffled))
        assert res.value == want
        assert check_trace(f, res.trace, require_refutation=not want).accepted


def test_order_must_cover_variables():
    f = gen_eqprime(2)
    with pytest.raises(OrderError):  # a QobddError, like all bad input
        solve(f, order=VarOrder([1, 2]))


def test_budget_raises_instead_of_answering():
    f = gen_eqprime(6)
    with pytest.raises(BudgetExceededError):
        solve(f, node_budget=20)


def test_stats_widths_and_nodes():
    f = gen_eqprime(4)
    res = solve(f, order=order_from_decomposition(eqprime_decomposition(4)))
    s = res.stats
    assert s.value is False
    assert s.max_width == max(s.widths)
    assert s.line_count == len(res.trace.lines)
    assert s.trace_nodes >= s.line_count  # every line has at least one node
    # the variable of each bucket processed, innermost first
    pos = [f.prefix_position(v) for v in s.eliminations]
    assert pos and pos == sorted(set(pos), reverse=True)
    d = s.as_dict()
    assert {"value", "max_width", "trace_nodes", "lines", "eliminations"} <= set(d)


def test_solve_never_completes_a_diagram(monkeypatch):
    # line widths come from one walk per line, not from a layered copy
    def refuse(self, f):
        raise AssertionError("solve built a complete diagram")

    monkeypatch.setattr(Manager, "complete", refuse)
    for gen, dec in ((gen_quparity, quparity_decomposition), (gen_eqprime, eqprime_decomposition)):
        f = gen(6)
        for order in (order_from_decomposition(dec(6)), default_order(f)):
            assert solve(f, order=order).value is False


def test_solve_reads_no_support(monkeypatch):
    # bucket positions come from the walk's rank-to-position list and, for
    # axioms, from the clause, and the checker's side test of each reduction
    # reads the same walk; no support set is built or scanned
    def refuse(*args, **kwargs):
        raise AssertionError("a support set was read")

    monkeypatch.setattr(Manager, "support", refuse)
    for gen, dec in ((gen_quparity, quparity_decomposition), (gen_eqprime, eqprime_decomposition)):
        f = gen(6)
        for order in (order_from_decomposition(dec(6)), default_order(f)):
            res = solve(f, order=order)
            assert res.value is False
            assert any(isinstance(line.rule, URed) for line in res.trace.lines)
            assert check_trace(f, res.trace, require_refutation=True).refutation


def test_line_numbers_match_the_checkers_oracles(monkeypatch):
    # every line's size, width and bucket position, read off the clause for
    # an axiom and from one walk otherwise, against the checker's fresh
    # manager: Manager.size, the complete width and the largest prefix
    # position over the support
    eliminate_all = solver._eliminate_all

    def checked(f, order):
        # the eliminator's entry (ref, line id, size, position) of each line
        entries = []

        def spy(f, mgr, axioms, emit, eliminations):
            def recording(*args):
                entries.append(emit(*args))
                return entries[-1]

            entries.extend(axioms)
            return eliminate_all(f, mgr, axioms, recording, eliminations)

        monkeypatch.setattr(solver, "_eliminate_all", spy)
        res = solve(f, order=order)
        assert [e[1] for e in entries] == [line.id for line in res.trace.lines]
        assert check_trace(f, res.trace).accepted
        _, m, funcs = check_trace_reference(f, res.trace)
        got = [(size, width, right) for (_, _, size, right), width in zip(entries, res.stats.widths)]
        want = []
        for g in (funcs[line.id] for line in res.trace.lines):
            right = max((f.prefix_position(v) for v in m.support(g)), default=None)
            want.append((m.size(g), layer_width(m.complete(g)), right))
        assert got == want, (f, order)
        assert res.stats.trace_nodes == sum(size for size, _, _ in got)
        return got

    rng = random.Random(41)
    for _ in range(15):
        f = random_pcnf(rng, max_vars=10, max_clauses=18)
        shuffled = list(f.variables)
        rng.shuffle(shuffled)
        for order in (None, prefix_order(f), VarOrder(shuffled)):
            checked(f, order)
    # the benchmark's families, whose lines the solver's walk measures
    # under both the hand-written family order and the default one
    for gen, dec in ((gen_quparity, quparity_decomposition), (gen_eqprime, eqprime_decomposition)):
        for n in range(4, 9):
            f = gen(n)
            for order in (order_from_decomposition(dec(n)), default_order(f)):
                assert checked(f, order)[-1][0] == 1  # a refutation ends at 0
    # a unit clause on the order's last variable is a width-1 axiom
    f = Pcnf(((EXISTS, 1), (FORALL, 2)), (clause([1, 2]), clause([2]), clause([-1])))
    assert checked(f, VarOrder([1, 2]))[:3] == [(4, 2, 1), (3, 1, 1), (3, 2, 0)]
    # an empty clause is ZERO: one node, no position, refuted at once
    f = Pcnf(((EXISTS, 1), (FORALL, 2)), (clause([1, -2]), ()))
    assert checked(f, None)[1:] == [(1, 1, None)] * 2
    # with no variables the empty order has no layer, so no width
    assert checked(Pcnf((), ((),)), None) == [(1, 0, None)] * 2


def _pcnf_cases(seed, count):
    # seeded random formulas, each under its prefix order and a shuffled one
    rng = random.Random(seed)
    for _ in range(count):
        f = random_pcnf(rng, max_vars=10, max_clauses=18)
        shuffled = list(f.variables)
        rng.shuffle(shuffled)
        yield f, prefix_order(f)
        yield f, VarOrder(shuffled)


def test_fused_elimination_matches_the_reference_eliminator(monkeypatch):
    # each existential bucket's last conjunction and its projection come
    # from one walk; the trace and the stats must equal those of separate
    # apply and exists calls
    cases = list(_pcnf_cases(2302, 150))
    cases += [(gen(6), None) for gen in (gen_eqprime, gen_quparity)]
    got = [solve(f, order=order) for f, order in cases]
    monkeypatch.setattr(solver, "_eliminate_all", eliminate_all_reference)
    for (f, order), res in zip(cases, got):
        want = solve(f, order=order)
        assert res.trace == want.trace, (f, order)
        assert res.stats.as_dict(False) == want.stats.as_dict(False)
        assert res.stats.widths == want.stats.widths


def test_fused_elimination_runs_once_per_existential_bucket(monkeypatch):
    # conj_exists serves every existential bucket whose last conjunction is
    # reached, once, and exists only the single-entry ones; the reference
    # eliminator, which takes apply and exists, records the buckets
    eliminate_all = solver._eliminate_all
    calls: Counter[str] = Counter()
    for name in ("conj_exists", "exists"):
        def counted(self, *args, _kernel=getattr(Manager, name), _name=name):
            calls[_name] += 1
            return _kernel(self, *args)

        monkeypatch.setattr(Manager, name, counted)
    fused = 0
    for f, order in _pcnf_cases(2303, 60):
        buckets: list = []
        monkeypatch.setattr(
            solver, "_eliminate_all", lambda *args: eliminate_all_reference(*args, buckets)
        )
        want = solve(f, order=order)
        monkeypatch.setattr(solver, "_eliminate_all", eliminate_all)
        calls.clear()
        assert solve(f, order=order).trace == want.trace
        existential = [(k, reached) for q, k, reached in buckets if q == EXISTS]
        assert calls["conj_exists"] == sum(k >= 2 and reached for k, reached in existential)
        assert calls["exists"] == sum(k == 1 for k, _ in existential)
        fused += calls["conj_exists"]
    assert fused


def test_line_widths_match_the_checkers_complete_diagrams():
    # the checker replays in a fresh manager; diagrams are canonical under
    # one order, so its complete widths must equal the solver's line widths.
    # The IPG's lines are wide: the solver's walk holds up to 32 states of a
    # layer at once
    rng = random.Random(5)
    ipg = gen_ipg_qbf(random_dregular(10, 3, seed=0))
    cases = [
        (gen_eqprime(4), order_from_decomposition(eqprime_decomposition(4))),
        (gen_quparity(5), None),
        (ipg, None),
    ]
    cases += [(random_pcnf(rng, max_vars=10, max_clauses=18), None) for _ in range(8)]
    for f, order in cases:
        res = solve(f, order=order)
        if f is ipg:
            assert res.stats.max_width == 32
        assert check_trace(f, res.trace).accepted
        _, m, funcs = check_trace_reference(f, res.trace)
        widths = [layer_width(m.complete(funcs[line.id])) for line in res.trace.lines]
        assert widths == res.stats.widths


def test_clause_diagram_width_at_most_two():
    f = gen_quparity(4)
    res = solve(f, order=order_from_decomposition(quparity_decomposition(4)))
    m = len(f.clauses)
    assert all(w <= 2 for w in res.stats.widths[:m])


def test_quparity_widths_within_pinned_constant():
    # regression: measured once, must not drift upward
    for n in range(2, 13):
        res = solve(gen_quparity(n), order=order_from_decomposition(quparity_decomposition(n)))
        assert res.stats.max_width <= 5, (n, res.stats.max_width)


def test_width_within_tower_bound_when_finite():
    # the paper's width bound is the tower of height q + 1 over the
    # pathwidth k; at k = 1 and q = 2 blocks it is 2 ** 2 ** 1 = 4, while
    # larger cases are astronomically large
    f = Pcnf(((EXISTS, 1), (FORALL, 2)), (clause([1, 2]),))
    res = solve(f, order=prefix_order(f))
    assert res.stats.max_width <= 4
