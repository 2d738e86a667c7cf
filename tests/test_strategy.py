import json
import random

import pytest

from qobdd.families import (
    eqprime_decomposition,
    gen_eqprime,
    gen_ipg_qbf,
    gen_quparity,
    quparity_decomposition,
)
from qobdd.graphs import Graph, order_from_decomposition, random_dregular
from qobdd.obdd import BudgetExceededError, Manager, VarOrder, deserialize, serialize
from qobdd.pcnf import EXISTS, FORALL, Pcnf, clause
from qobdd.proof import (
    Axiom,
    ProofLine,
    ProofTrace,
    URed,
    check_trace,
    formula_hash,
)
from qobdd.solver import solve
from qobdd.strategy import (
    _CHUNK_PLAYS,
    DecisionList,
    DecisionListFamily,
    RectangleDecisionList,
    StrategyError,
    and_protocol_run,
    emit_strategy,
    extract,
    parse_strategy,
    strategy_range_size,
    to_rectangle_list,
    verify_winning,
)

from .helpers import (
    assignments,
    covers_oracle,
    deserialize_reference,
    emit_strategy_oracle,
    eval_ipg,
    family_nodes,
    flipped_entry,
    guard_list,
    layer_width,
    obdd_from_table,
    oracle_guards,
    outcome,
    parse_strategy_reference,
    random_family,
    random_pcnf,
    random_table,
    rectangle_list_oracle,
    strategy_range_size_oracle,
    truth_table_of,
    verify_winning_oracle,
)


def solve_family(gen, dec, n):
    f = gen(n)
    order = order_from_decomposition(dec(n))
    res = solve(f, order=order)
    assert res.value is False
    return f, res.trace


def test_extract_one_variable_reduction():
    # hand trace for forall u. (u) and (~u): one reduction closes it
    f = Pcnf(((FORALL, 1),), (clause([1]), clause([-1])))
    t = ProofTrace(
        formula_hash(f),
        VarOrder([1]),
        (
            ProofLine(1, Axiom(1)),
            ProofLine(2, Axiom(2)),
            ProofLine(3, URed(1, 0, 1)),  # (u)[u/0] = 0
        ),
    )
    fam = extract(f, t)
    dl = fam.lists[1]
    # first guard fires everywhere and plays 0, falsifying clause (u)
    assert len(dl) == 2
    assert dl.evaluate({}) == 0
    assert verify_winning(f, fam).winning


def test_extract_requires_refutation():
    f = Pcnf(((EXISTS, 1),), (clause([1]),))
    res = solve(f)
    with pytest.raises(StrategyError):
        extract(f, res.trace)
    derivation = check_trace(f, res.trace)
    assert derivation.accepted and not derivation.refutation
    with pytest.raises(StrategyError, match="needs a refutation"):
        extract(f, res.trace, derivation)


def test_extract_creates_no_node():
    # each list holds the checker's reduction lines as they are
    runs = [
        solve_family(gen_eqprime, eqprime_decomposition, 4),
        solve_family(gen_quparity, quparity_decomposition, 4),
    ]
    ipg = gen_ipg_qbf(random_dregular(8, 3, seed=2))
    runs.append((ipg, solve(ipg).trace))
    for f, trace in runs:
        chk = check_trace(f, trace, require_refutation=True)
        size = len(chk.manager)
        fam = extract(f, trace, chk)
        assert fam.manager is chk.manager and len(chk.manager) == size
        reductions = [line for line in trace.lines if isinstance(line.rule, URed)]
        assert reductions
        assert sorted(ref for dl in fam.lists.values() for ref, _ in dl.lines[:-1]) == sorted(
            chk.functions[line.id] for line in reductions
        )


def test_eqprime_strategy_is_identity():
    for n in (2, 3, 4):
        f, trace = solve_family(gen_eqprime, eqprime_decomposition, n)
        fam = extract(f, trace)
        for bits in range(1 << n):
            tau = {i + 1: (bits >> i) & 1 for i in range(n)}
            full = fam.respond(tau)
            assert all(full[n + i] == tau[i] for i in range(1, n + 1))


def test_respond_fills_universals_in_prefix_order():
    f, trace = solve_family(gen_eqprime, eqprime_decomposition, 3)
    fam = extract(f, trace)
    tau = {1: 1, 2: 0, 3: 1}
    full = fam.respond(tau)
    assert set(full) >= set(tau) | set(f.universals)


def test_decision_list_evaluate_terminal_only_and_two_entry():
    m = Manager(VarOrder([1]))
    const = guard_list(m, [(m.ONE, 1)])
    assert const.evaluate({}) == 1
    two = guard_list(m, [(m.clause([1]), 0), (m.ONE, 1)])
    # held as lines: an entry fires where its line is 0
    assert two.lines == [(m.clause([-1]), 0), (m.ZERO, 1)]
    assert oracle_guards(two) == [(m.clause([1]), 0), (m.ONE, 1)]
    assert two.evaluate({1: 1}) == 0
    assert two.evaluate({1: 0}) == 1
    with pytest.raises(StrategyError):
        guard_list(m, [(m.clause([1]), 0)])  # missing terminal


def test_family_audit_rejects_dependency_violation():
    f = Pcnf(((FORALL, 1), (EXISTS, 2)), (clause([1, 2]), clause([1, -2])))
    m = Manager(VarOrder([1, 2]))
    with pytest.raises(StrategyError, match=r"non-preceding variables \[2\]"):
        DecisionListFamily(f, m, {1: guard_list(m, [(m.clause([2]), 0), (m.ONE, 1)])})
    with pytest.raises(StrategyError, match=r"unquantified variables \[3\]"):
        DecisionListFamily(f, m, {3: guard_list(m, [(m.ONE, 1)])})


def test_a_strategy_row_naming_a_variable_below_1_is_a_strategy_error():
    # the order inferred from the rows would hold it; it is refused there
    f = gen_eqprime(2)
    text = emit_strategy(extract(f, solve(f).trace))
    lines = text.splitlines()
    row = next(i for i, ln in enumerate(lines) if len(ln.split()) == 4 and ln.split()[1][0] != "T")
    for bad in ("0", "-2"):
        idx, _, lo, hi = lines[row].split()
        mutant = lines[:row] + [f"{idx} {bad} {lo} {hi}"] + lines[row + 1 :]
        with pytest.raises(StrategyError, match=f"^bad strategy file: bad variable id {bad}$"):
            parse_strategy("\n".join(mutant) + "\n", f)


def test_family_audit_reads_each_node_once_and_names_the_same_variables(monkeypatch):
    # guards over random variables, sharing nodes across lists: the audit
    # must reject exactly where the per-list support says so, naming the
    # same universal and variables, and read no node twice
    rng = random.Random(4242)
    outcomes = set()
    for _ in range(80):
        f = random_pcnf(rng, max_vars=8, max_clauses=4)
        if not f.universals:
            continue
        m = Manager(VarOrder(rng.sample(f.variables, len(f.variables))))
        pool = []
        for _ in range(4):
            vs = sorted(rng.sample(f.variables, rng.randint(1, 3)), key=m.order.rank)
            pool.append(obdd_from_table(m, vs, random_table(rng, len(vs))))
        lists = {
            u: guard_list(m, [(rng.choice(pool), rng.getrandbits(1)) for _ in range(2)] + [(m.ONE, 1)])
            for u in f.universals
        }
        want = None
        left: set[int] = set()
        for _, v in f.prefix:
            if v in lists:
                extra = m.support(*(line for line, _ in lists[v].lines)) - left
                if extra:
                    want = f"guards for {v} depend on non-preceding variables {sorted(extra)}"
                    break
            left.add(v)
        reads = []
        support = Manager.support

        def counting_support(self, *refs, seen=None):
            before = set(seen)
            out = support(self, *refs, seen=seen)
            reads.extend(seen - before)
            return out

        monkeypatch.setattr(Manager, "support", counting_support)
        try:
            DecisionListFamily(f, m, lists)
            got = None
        except StrategyError as exc:
            got = str(exc)
        monkeypatch.undo()
        assert got == want
        assert len(reads) == len(set(reads))
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_verify_winning_counterexample_for_constant_strategy():
    f = gen_eqprime(2)
    m = Manager(VarOrder(f.variables))
    fam = DecisionListFamily(
        f, m, {u: guard_list(m, [(m.ONE, 0)]) for u in f.universals}
    )
    verdict = verify_winning(f, fam)
    assert not verdict.winning
    assert verdict.counterexample is not None
    # the reported play indeed satisfies the matrix
    a = verdict.counterexample
    assert all(any((l > 0) == bool(a[abs(l)]) for l in c) for c in f.clauses)


def test_verify_winning_sampled_mode():
    # eqprime(6) has 17 existentials, past the 2**16 plays always enumerated
    f, trace = solve_family(gen_eqprime, eqprime_decomposition, 6)
    fam = extract(f, trace)
    verdict = verify_winning(f, fam, samples=500, seed=7)
    assert verdict.winning and not verdict.exhaustive
    assert verdict.checked == 500


def test_verify_winning_enumerates_when_samples_cover_every_play():
    # 17 existentials and samples >= 2**17: every play, each one once
    f = Pcnf(tuple((EXISTS, v) for v in range(1, 18)) + ((FORALL, 18),), ((18,),))
    m = Manager(VarOrder(f.variables))
    fam = DecisionListFamily(f, m, {18: guard_list(m, [(m.ONE, 0)])})
    verdict = verify_winning(f, fam, samples=2**17)
    assert verdict.winning and verdict.exhaustive
    assert verdict.checked == 2**17


def test_verify_winning_rejects_samples_below_one():
    f, trace = solve_family(gen_eqprime, eqprime_decomposition, 20)
    fam = extract(f, trace)
    for samples in (0, -5):
        with pytest.raises(StrategyError):
            verify_winning(f, fam, samples=samples)


def test_family_audit_rejects_a_universal_without_a_list():
    f, trace = solve_family(gen_eqprime, eqprime_decomposition, 3)
    fam = extract(f, trace)
    lists = {u: dl for u, dl in fam.lists.items() if u != 4}
    with pytest.raises(StrategyError, match=r"no decision list for universals \[4\]"):
        DecisionListFamily(f, fam.manager, lists)


def test_verify_winning_rejects_a_family_of_another_formula():
    f3, t3 = solve_family(gen_eqprime, eqprime_decomposition, 3)
    f4, t4 = solve_family(gen_eqprime, eqprime_decomposition, 4)
    for f, other in ((f4, extract(f3, t3)), (f3, extract(f4, t4))):
        with pytest.raises(StrategyError, match="built for another formula"):
            verify_winning(f, other)


def assert_matches_oracle(f, fam, samples, seed=0):
    got = verify_winning(f, fam, samples=samples, seed=seed)
    want = verify_winning_oracle(f, fam, samples=samples, seed=seed)
    assert (got.winning, got.exhaustive, got.checked) == (
        want.winning, want.exhaustive, want.checked,
    )
    # through json.dumps, so the counterexample's key order counts too
    assert json.dumps(got.counterexample) == json.dumps(want.counterexample)
    return got


def test_verify_winning_matches_the_per_play_oracle():
    rng = random.Random(15)
    every = (1, 5, 300, 100000)
    cases = []
    for _ in range(80):
        f = random_pcnf(rng, max_vars=10)
        cases += [(f, random_family(rng, f), every) for _ in range(2)]
        res = solve(f)
        if res.value is False:
            genuine = extract(f, res.trace)
            cases += [(f, genuine, every), (f, flipped_entry(rng, genuine), every)]
    # eqprime(6) has 17 existentials, so it is sampled; the oracle takes
    # seconds over 100,000 winning samples, so only its genuine family
    # plays the default
    for gen, dec, n, mutant_samples in (
        (gen_eqprime, eqprime_decomposition, 3, every),
        (gen_eqprime, eqprime_decomposition, 6, every[:-1]),
        (gen_quparity, quparity_decomposition, 4, every),
        (gen_quparity, quparity_decomposition, 6, every),
    ):
        f, trace = solve_family(gen, dec, n)
        genuine = extract(f, trace)
        cases.append((f, genuine, every))
        cases += [(f, flipped_entry(rng, genuine), mutant_samples) for _ in range(6)]
    outcomes = set()
    for f, fam, samples_list in cases:
        for samples in samples_list:
            verdict = assert_matches_oracle(f, fam, samples, seed=rng.randrange(100))
            outcomes.add((verdict.winning, verdict.exhaustive))
    assert outcomes == {(w, e) for w in (True, False) for e in (True, False)}


@pytest.mark.parametrize("index", [_CHUNK_PLAYS - 1, _CHUNK_PLAYS])
@pytest.mark.parametrize("width", [13, 20])
def test_verify_winning_finds_a_lone_losing_play_at_a_chunk_edge(width, index):
    # The matrix holds on one existential play only, the play at `index`:
    # the last play of the first chunk, or the first of the second.  With
    # 13 existentials play i is the number i; with 20 it is the i-th draw
    # of the sampler's stream.
    evars = range(1, width + 1)
    u = width + 1
    if width <= 16:
        play = index
    else:
        rng = random.Random(7)
        draws = [rng.getrandbits(width) for _ in range(index + 1)]
        play = draws[-1]
        assert play not in draws[:-1]
    cube = [v if (play >> i) & 1 else -v for i, v in enumerate(evars)]
    f = Pcnf(
        tuple((EXISTS, v) for v in evars) + ((FORALL, u),),
        tuple(clause([lit]) for lit in cube) + (clause([cube[0], u]),),
    )
    m = Manager(VarOrder(f.variables))
    fam = DecisionListFamily(f, m, {u: guard_list(m, [(m.ONE, 0)])})
    verdict = assert_matches_oracle(f, fam, 100000, seed=7)
    assert not verdict.winning and verdict.exhaustive == (width <= 16)
    assert verdict.checked == index + 1
    assert verdict.counterexample == {abs(lit): int(lit > 0) for lit in cube} | {u: 0}


def test_flipped_entries_lose_exactly_where_they_change_a_response():
    # eqprime's universals must copy the x's, so a mutant wins only if it
    # responds as the genuine family on every x
    rng = random.Random(31)
    n = 4
    f, trace = solve_family(gen_eqprime, eqprime_decomposition, n)
    genuine = extract(f, trace)
    xs = list(assignments(range(1, n + 1)))
    changed = []
    for _ in range(16):
        mutant = flipped_entry(rng, genuine)
        changed.append(any(mutant.respond(x) != genuine.respond(x) for x in xs))
        assert verify_winning(f, mutant).winning is not changed[-1]
    assert any(changed)


def test_strategy_range_eqprime():
    # 13 relevant existentials are two chunks of plays
    for n in (2, 3, 4, 13):
        f, trace = solve_family(gen_eqprime, eqprime_decomposition, n)
        fam = extract(f, trace)
        assert strategy_range_size(fam) == 2**n


def test_strategy_range_matches_the_per_play_oracle():
    rng = random.Random(29)
    families = []
    for _ in range(60):
        f = random_pcnf(rng, max_vars=10)
        families += [random_family(rng, f) for _ in range(2)]
        res = solve(f)
        if res.value is False:
            genuine = extract(f, res.trace)
            families += [genuine, flipped_entry(rng, genuine)]
    f = Pcnf(((EXISTS, 1), (EXISTS, 2)), (clause([1, 2]),))
    families.append(DecisionListFamily(f, Manager(VarOrder(f.variables)), {}))
    sizes = [strategy_range_size(fam) for fam in families]
    assert sizes == [strategy_range_size_oracle(fam) for fam in families]
    assert sizes[-1] == 1 and max(sizes) > 2


def test_strategy_range_constant_and_limit():
    f = gen_eqprime(2)
    m = Manager(VarOrder(f.variables))
    fam = DecisionListFamily(
        f, m, {u: guard_list(m, [(m.ONE, 1)]) for u in f.universals}
    )
    assert strategy_range_size(fam) == 1
    # eqprime(21) has 21 relevant existentials, one past the limit
    f2, trace = solve_family(gen_eqprime, eqprime_decomposition, 21)
    fam2 = extract(f2, trace)
    with pytest.raises(StrategyError, match="21 relevant existentials exceed limit 20"):
        strategy_range_size(fam2)


def test_strategy_range_single_edge_ip():
    g = Graph([1, 2], [(1, 2)])
    f = gen_ipg_qbf(g)
    res = solve(f)
    fam = extract(f, res.trace)
    assert strategy_range_size(fam) == 2


def test_quparity_extraction_winning():
    for n in (2, 4, 6):
        f, trace = solve_family(gen_quparity, quparity_decomposition, n)
        fam = extract(f, trace)
        assert verify_winning(f, fam).winning


def test_ipg_extraction_matches_complement():
    for edges in ([(1, 2)], [(1, 2), (3, 4)], [(1, 2), (2, 3)]):
        nv = max(max(e) for e in edges)
        g = Graph(range(1, nv + 1), edges)
        f = gen_ipg_qbf(g)
        res = solve(f)
        fam = extract(f, res.trace)
        z = nv + 1
        others = {v: 0 for v in f.existentials if v > z}
        for a in assignments(range(1, nv + 1)):
            full = fam.respond({**a, **others})
            assert full[z] == 1 - eval_ipg(g, a)


def test_extraction_from_translated_qures_refutation():
    from qobdd.qures import parse_qures, simulate_qures

    f = Pcnf(
        ((FORALL, 1), (EXISTS, 2)),
        (clause([1, 2]), clause([1, -2]), clause([-1, 2]), clause([-1, -2])),
    )
    p = parse_qures("1 A 1 2 0\n2 A 1 -2 0\n3 R 1 2 2\n4 U 3 1\n")
    trace = simulate_qures(f, p)
    fam = extract(f, trace)
    assert verify_winning(f, fam).winning


def test_extraction_from_entailment_refutation():
    import qobdd.obdd as obdd_mod

    f = Pcnf(
        ((FORALL, 1), (EXISTS, 2)),
        (clause([1, 2]), clause([1, -2]), clause([-1, 2]), clause([-1, -2])),
    )
    mgr = Manager(VarOrder([1, 2]))
    u_block = obdd_mod.serialize(mgr, mgr.clause([1]))
    nu_block = obdd_mod.serialize(mgr, mgr.clause([-1]))
    from qobdd.proof import Entail, Conj

    t = ProofTrace(
        formula_hash(f),
        VarOrder([1, 2]),
        (
            ProofLine(1, Axiom(1)),
            ProofLine(2, Axiom(2)),
            ProofLine(3, Axiom(3)),
            ProofLine(4, Axiom(4)),
            ProofLine(5, Entail((1, 2), u_block)),
            ProofLine(6, Entail((3, 4), nu_block)),
            ProofLine(7, Conj(5, 6)),
        ),
    )
    assert check_trace(f, t, require_refutation=True).refutation
    fam = extract(f, t)  # no reductions: the default constant-1 response
    assert oracle_guards(fam.lists[1]) == [(fam.manager.ONE, 1)]
    assert verify_winning(f, fam).winning


# -- rectangles -------------------------------------------------------------


def ip2_manager():
    m = Manager(VarOrder([1, 2, 3, 4]))  # order x1 y1 x2 y2
    p1 = m.apply(m.clause([1]), m.clause([2]), "and")
    p2 = m.apply(m.clause([3]), m.clause([4]), "and")
    return m, m.apply(p1, p2, "xor")


def test_rectangles_cut_zero_degenerate():
    m, ip = ip2_manager()
    assert m.complete(ip).covers(0, m.ZERO) == [(m.ONE, ip)]
    assert m.complete(ip).covers(4, m.ZERO) == [(ip, m.ONE)]
    assert m.complete(m.ZERO).covers(0, m.ZERO) == []
    rdl = to_rectangle_list(guard_list(m, [(ip, 1), (m.ONE, 0)]), 0)
    assert rdl.partition == ((), (1, 2, 3, 4))
    assert rdl.entries == [(m.ONE, ip, 1), (m.ONE, m.ONE, 0)]


def test_rectangles_of_ip_two_pairs():
    m, ip = ip2_manager()
    rects = m.complete(ip).covers(2, m.ZERO)
    assert len(rects) == 2
    union = m.ZERO
    for r1, r2 in rects:
        union = m.apply(union, m.apply(r1, r2, "and"), "or")
    assert union == ip
    for a in assignments([1, 2, 3, 4]):
        fired = max(m.evaluate(r1, a) & m.evaluate(r2, a) for r1, r2 in rects)
        assert fired == m.evaluate(ip, a)


def test_rectangle_count_bounded_by_width():
    rng = random.Random(8)
    m = Manager(VarOrder(range(1, 9)))
    for _ in range(15):
        f = obdd_from_table(m, range(1, 9), random_table(rng, 8))
        co = m.complete(f)
        cut = rng.randint(0, 8)
        rects = co.covers(cut, m.ZERO)
        assert len(rects) <= layer_width(co)
        union = m.ZERO
        for r1, r2 in rects:
            union = m.apply(union, m.apply(r1, r2, "and"), "or")
        assert union == f


def test_rectangle_models_and_balance():
    m, ip = ip2_manager()
    rdl = to_rectangle_list(guard_list(m, [(ip, 1), (m.ONE, 0)]), 2)
    x1, x2 = rdl.partition
    assert len(x1) == len(x2) == 2  # the middle cut is balanced
    total = sum(
        sum(truth_table_of(m, r1, x1)) * sum(truth_table_of(m, r2, x2))
        for r1, r2, _ in rdl.entries[:-1]
    )
    ones = sum(truth_table_of(m, ip, [1, 2, 3, 4]))
    assert total == ones  # rectangles partition the models along the cut


def test_to_rectangle_list_terminal_only():
    m = Manager(VarOrder([1, 2]))
    dl = guard_list(m, [(m.ONE, 1)])
    rdl = to_rectangle_list(dl, 1)
    assert len(rdl) == 1
    assert rdl.entries == [(m.ONE, m.ONE, 1)]
    assert rdl.evaluate({1: 0, 2: 1}) == 1


def test_to_rectangle_list_checks_the_cut_before_anything_else():
    m = Manager(VarOrder([1, 2, 3]))
    dl = guard_list(m, [(m.ONE, 1)])  # no guard reaches Manager.complete
    for cut in (-1, len(m.order) + 1, 7):
        with pytest.raises(StrategyError, match=f"cut {cut} "):
            to_rectangle_list(dl, cut)
    for cut in range(len(m.order) + 1):
        assert to_rectangle_list(dl, cut).partition == ((1, 2, 3)[:cut], (1, 2, 3)[cut:])


def test_rectangle_list_must_end_in_the_full_rectangle():
    m, ip = ip2_manager()
    part = ((1, 2), (3, 4))
    for entries in ([], [(m.ONE, ip, 1)], [(ip, m.ONE, 0)], [(m.ONE, m.ONE, 1), (m.ZERO, m.ONE, 0)]):
        with pytest.raises(StrategyError):
            RectangleDecisionList(m, part, entries)
    assert len(RectangleDecisionList(m, part, [(m.ONE, ip, 1), (m.ONE, m.ONE, 0)])) == 2


def assert_rectangle_list_properties(dl, cut, plays):
    """Entries are the per-guard covers in list order; r1 reads X1 and r2
    X2; each guard's r1 and r2 products join to the guard; the protocol
    stops at the first entry that fires, with the list's value."""
    m = dl.manager
    rdl = to_rectangle_list(dl, cut)
    x1, x2 = map(set, rdl.partition)
    assert rdl.partition == (m.order.vars[:cut], m.order.vars[cut:])
    expected = []
    guards = oracle_guards(dl)
    for guard, value in guards[:-1]:
        cover = m.complete(guard).covers(cut, m.ZERO)
        union = m.ZERO
        for r1, r2 in cover:
            assert m.support(r1) <= x1 and m.support(r2) <= x2
            union = m.apply(union, m.apply(r1, r2, "and"), "or")
            expected.append((r1, r2, value))
        assert union == guard
    expected.append((m.ONE, m.ONE, guards[-1][1]))
    assert rdl.entries == expected
    for a in plays:
        first = next(
            i
            for i, (r1, r2, _) in enumerate(rdl.entries, 1)
            if m.evaluate(r1, a) & m.evaluate(r2, a)
        )
        run = and_protocol_run(rdl, a, a)
        assert run.rounds == first
        assert run.value == rdl.entries[first - 1][2] == dl.evaluate(a)


def test_rectangle_lists_of_random_functions_at_every_cut():
    rng = random.Random(21)
    for trial in range(60):
        k = 1 + trial % 8
        order = list(range(1, k + 1))
        rng.shuffle(order)
        m = Manager(VarOrder(order))
        guards = [obdd_from_table(m, order, random_table(rng, k)) for _ in range(3)]
        dl = guard_list(m, [(g, rng.randint(0, 1)) for g in guards] + [(m.ONE, rng.randint(0, 1))])
        plays = list(assignments(order))
        for cut in range(k + 1):
            assert_rectangle_list_properties(dl, cut, plays)


def test_rectangle_lists_of_extracted_strategies_at_every_cut():
    rng = random.Random(22)
    runs = [
        solve_family(gen, dec, n)
        for gen, dec in ((gen_eqprime, eqprime_decomposition), (gen_quparity, quparity_decomposition))
        for n in (2, 3)
    ]
    ipg = gen_ipg_qbf(random_dregular(6, 3, seed=4))
    res = solve(ipg)
    assert res.value is False
    runs.append((ipg, res.trace))
    for f, trace in runs:
        fam = extract(f, trace)
        order = fam.manager.order.vars
        plays = [{v: rng.getrandbits(1) for v in order} for _ in range(24)]
        for dl in fam.lists.values():
            for cut in range(len(order) + 1):
                assert_rectangle_list_properties(dl, cut, plays)


def test_to_rectangle_list_semantics_and_length():
    for n in (2, 3):
        f, trace = solve_family(gen_eqprime, eqprime_decomposition, n)
        fam = extract(f, trace)
        mgr = fam.manager
        for u, dl in fam.lists.items():
            w = dl.width_bound()
            s = len(dl)
            for cut in (0, len(mgr.order) // 2, len(mgr.order)):
                rdl = to_rectangle_list(dl, cut)
                assert len(rdl) <= w * (s - 1) + 1
                for a in assignments(mgr.order.vars[:11]):
                    full = {**{v: 0 for v in mgr.order.vars}, **a}
                    assert rdl.evaluate(full) == dl.evaluate(full)


def test_and_protocol_matches_evaluation():
    f, trace = solve_family(gen_eqprime, eqprime_decomposition, 2)
    fam = extract(f, trace)
    mgr = fam.manager
    dl = fam.lists[f.universals[0]]
    cut = len(mgr.order) // 2
    rdl = to_rectangle_list(dl, cut)
    x1, x2 = rdl.partition
    for a in assignments(mgr.order.vars):
        run = and_protocol_run(rdl, {v: a[v] for v in x1}, {v: a[v] for v in x2})
        assert run.value == dl.evaluate(a)
        assert 1 <= run.rounds <= len(rdl)
        fired = [
            i
            for i, (r1, r2, _) in enumerate(rdl.entries, 1)
            if mgr.evaluate(r1, a) & mgr.evaluate(r2, a)
        ]
        assert run.rounds == fired[0]


def test_and_protocol_terminal_only_single_round():
    m = Manager(VarOrder([1, 2]))
    rdl = to_rectangle_list(guard_list(m, [(m.ONE, 0)]), 1)
    run = and_protocol_run(rdl, {1: 1}, {2: 0})
    assert run == type(run)(value=0, rounds=1)


def test_and_protocol_partition_mismatch():
    m = Manager(VarOrder([1, 2]))
    rdl = to_rectangle_list(guard_list(m, [(m.ONE, 0)]), 1)
    with pytest.raises(StrategyError):
        and_protocol_run(rdl, {}, {2: 0})
    with pytest.raises(StrategyError):
        and_protocol_run(rdl, {1: 0}, {1: 0})
    assert and_protocol_run(rdl, {1: 0}, {2: 0}).value == 0


def test_reference_lists_match_the_negated_guard_oracle():
    # strategy files, the guard view and rectangle lists at every cut, from
    # lists that hold lines, equal those read off each line negated alone
    rng = random.Random(41)
    families = []
    while len(families) < 30:
        f = random_pcnf(rng, max_vars=9)
        res = solve(f)
        if res.value is False:
            families.append(extract(f, res.trace))
            families.append(random_family(rng, f))
    assert any(len(dl) > 2 for fam in families for dl in fam.lists.values())
    for fam in families:
        assert emit_strategy(fam) == emit_strategy_oracle(fam)
        for dl in fam.lists.values():
            for cut in range(len(fam.manager.order) + 1):
                assert to_rectangle_list(dl, cut).entries == rectangle_list_oracle(dl, cut)


def test_covers_match_the_per_state_sweep_and_build_its_nodes():
    # random functions and extracted lists, at every cut and with either
    # sink dropped, one map memo shared by all the lines: the same pairs in
    # the same order, from exactly the nodes the per-state sweep builds (a
    # twin store, made the same way, takes the oracle alone); then the
    # rectangle lists equal their oracle
    rng = random.Random(73)
    makers = []  # each makes the same decision lists in a fresh store
    for nv in (1, 3, 5, 7):
        order = list(range(1, nv + 1))
        rng.shuffle(order)
        tables = [random_table(rng, nv) for _ in range(4)]

        def make(order=order, tables=tables):
            m = Manager(VarOrder(order))
            lines = [(obdd_from_table(m, order, t), i & 1) for i, t in enumerate(tables)]
            return m, [DecisionList(m, lines + [(m.ZERO, 1)])]

        makers.append(make)
    while len(makers) < 12:
        f = random_pcnf(rng, max_vars=9)
        res = solve(f)
        if res.value is False:

            def make(f=f, trace=res.trace):
                fam = extract(f, trace)
                return fam.manager, list(fam.lists.values())

            makers.append(make)
    for make in makers:
        (a, lists), (b, _) = make(), make()
        assert len(a) == len(b)
        lines = [line for dl in lists for line, _ in dl.lines]
        for cut in range(len(a.order) + 1):
            for drop in (a.ZERO, a.ONE):
                memo: dict = {}
                got = [a.complete(r, cut).covers(cut, drop, memo) for r in lines]
                built = len(a)
                assert got == [covers_oracle(a.complete(r), cut, drop) for r in lines]
                assert len(a) == built
                for r in lines:
                    covers_oracle(b.complete(r), cut, drop)
                assert len(b) == built
        for dl in lists:
            for cut in range(len(a.order) + 1):
                assert to_rectangle_list(dl, cut).entries == rectangle_list_oracle(dl, cut)


# -- strategy files ----------------------------------------------------------


def test_strategy_file_roundtrip():
    f, trace = solve_family(gen_eqprime, eqprime_decomposition, 3)
    fam = extract(f, trace)
    text = emit_strategy(fam)
    loaded = parse_strategy(text, f)
    for bits in range(8):
        tau = {i + 1: (bits >> i) & 1 for i in range(3)}
        others = {v: 0 for v in f.existentials if v > 3}
        assert loaded.respond({**tau, **others}) == fam.respond({**tau, **others})
    assert verify_winning(f, loaded).winning


def test_strategy_file_rejects_garbage():
    f = gen_eqprime(2)
    with pytest.raises(StrategyError):
        parse_strategy("p qobdd-strategy\nu 3 1\nentry 1\n", f)  # missing block
    with pytest.raises(StrategyError):
        parse_strategy("not a strategy\n", f)


def test_strategy_file_rejects_entry_bits_other_than_0_and_1():
    f = gen_eqprime(2)
    const = (
        "p qobdd-strategy\n"
        "u 3 1\nentry {}\nobdd 1\n0 T1 - -\n"
        "u 4 1\nentry 1\nobdd 1\n0 T1 - -\n"
    )
    assert len(parse_strategy(const.format(0), f).lists) == 2
    for bit in ("7", "-1", "01", "x"):
        with pytest.raises(StrategyError):
            parse_strategy(const.format(bit), f)


def test_each_family_is_audited_once_when_built(monkeypatch):
    audited = []
    audit = DecisionListFamily.audit

    def counting_audit(family):
        audited.append(family)
        audit(family)

    monkeypatch.setattr(DecisionListFamily, "audit", counting_audit)
    f, trace = solve_family(gen_eqprime, eqprime_decomposition, 3)
    fam = extract(f, trace)
    assert len(audited) == 1 and audited[0] is fam
    parsed = parse_strategy(emit_strategy(fam), f)
    assert len(audited) == 2 and audited[1] is parsed
    assert verify_winning(f, parsed).winning
    assert strategy_range_size(parsed) == 8
    assert len(audited) == 2


@pytest.mark.parametrize(
    "guard, extra",
    [
        # reads its own universal 1
        ("obdd 3\n0 T0 - -\n1 T1 - -\n2 1 0 1\n", "[1]"),
        # reads the foreign variable 7
        ("obdd 3\n0 T0 - -\n1 T1 - -\n2 7 0 1\n", "[7]"),
        # reads the later variable 2 and the foreign variable 7
        ("obdd 4\n0 T0 - -\n1 T1 - -\n2 7 0 1\n3 2 0 2\n", "[2, 7]"),
    ],
)
def test_strategy_file_rejects_guards_on_later_or_foreign_variables(guard, extra):
    f = Pcnf(((FORALL, 1), (EXISTS, 2)), (clause([1, 2]), clause([1, -2])))
    text = f"p qobdd-strategy\nu 1 2\nentry 0\n{guard}entry 1\nobdd 1\n0 T1 - -\n"
    with pytest.raises(StrategyError) as exc:
        parse_strategy(text, f)
    assert str(exc.value) == f"guards for 1 depend on non-preceding variables {extra}"


def test_strategy_file_rejects_a_universal_listed_twice():
    f = gen_eqprime(2)
    entry = "entry 1\nobdd 1\n0 T1 - -\n"
    with pytest.raises(StrategyError):
        parse_strategy(f"p qobdd-strategy\nu 3 1\n{entry}u 3 1\n{entry}u 4 1\n{entry}", f)


def _strategy_files():
    """(name, formula, strategy text) of the golden instances that are
    false, the acceptance families at n = 2..10 and 24 under their
    decomposition orders, and false random formulas."""
    from .test_golden import _instances

    for name, f, order in _instances():
        res = solve(f, order=order)
        if res.value is False:
            yield name, f, emit_strategy(extract(f, res.trace))
    for gen, dec in ((gen_eqprime, eqprime_decomposition), (gen_quparity, quparity_decomposition)):
        for n in [*range(2, 11), 24]:
            f, trace = solve_family(gen, dec, n)
            yield f"{gen.__name__}({n})", f, emit_strategy(extract(f, trace))
    rng = random.Random(2510)
    found = 0
    while found < 12:
        f = random_pcnf(rng, 10, 18)
        res = solve(f)
        if res.value is False:
            found += 1
            yield f"random{found}", f, emit_strategy(extract(f, res.trace))


def test_strategy_reader_matches_the_per_row_reference_node_for_node():
    # the reader takes each block as one slice and rebuilds rows with local
    # order checks; the reference reads row by row through Manager.node and
    # infers the order from per-row sets; both must build the same store
    names = []
    for name, f, text in _strategy_files():
        got, want = parse_strategy(text, f), parse_strategy_reference(text, f)
        assert family_nodes(got) == family_nodes(want), name
        assert emit_strategy(got) == text, name
        names.append(name)
    assert len(names) >= 35


def test_strategy_reader_and_reference_fail_alike_on_bad_files():
    f = gen_eqprime(2)
    entry = "entry 1\nobdd 1\n0 T1 - -\n"
    cases = [
        "not a strategy\n",
        "p qobdd-strategy\nu 3 1\nentry 1\n",  # missing block
        "p qobdd-strategy\nu 3 1\nentry 1\nobdd 3\n0 T0 - -\n",  # truncated block
        f"p qobdd-strategy\nu 3 1\n{entry}u 3 1\n{entry}u 4 1\n{entry}",
        f"p qobdd-strategy\nu 3 1\n{entry}",  # universal 4 missing
        # a variable above itself, then 1 above 2 in one entry and 2 above 1
        # in the other: no common order either way
        "p qobdd-strategy\nu 3 1\nentry 1\nobdd 4\n0 T0 - -\n1 T1 - -\n2 3 0 1\n3 3 0 2\n"
        f"u 4 1\n{entry}",
        f"p qobdd-strategy\nu 3 1\n{entry}u 4 2\nentry 1\nobdd 4\n0 T0 - -\n1 T1 - -\n2 1 0 1\n"
        f"3 2 0 2\nentry 0\nobdd 4\n0 T0 - -\n1 T1 - -\n2 2 0 1\n3 1 0 2\n",
        f"p qobdd-strategy\nu 3 1\nentry 1\nobdd 2\n0 T0 - -\n1 x 0 0\nu 4 1\n{entry}",
        f"p qobdd-strategy\nu 3 1\nentry 1\nobdd 2\n0 T0 - -\n1 T1 0 -\nu 4 1\n{entry}",
    ]
    for text in cases:
        got = outcome(parse_strategy, text, f)
        assert got[0] is StrategyError, (text, got)
        assert got == outcome(parse_strategy_reference, text, f), text


def test_strategy_reader_and_reference_run_out_of_budget_alike():
    # the strategy reader and the block reader build rows with Manager._mk
    # inline; at every budget each builds what its reference builds through
    # Manager.node, or fails with its error
    f, trace = solve_family(gen_eqprime, eqprime_decomposition, 4)
    family = extract(f, trace)
    text = emit_strategy(family)
    inner = len(parse_strategy(text, f).manager) - 2

    def read(reader, budget):
        return family_nodes(reader(text, f, node_budget=budget))

    runs = []
    for budget in range(inner + 1):
        got = outcome(read, parse_strategy, budget)
        assert got == outcome(read, parse_strategy_reference, budget), budget
        runs.append(got[0])
    assert runs == [BudgetExceededError] * inner + ["ok"]

    # the largest line as one block, rebuilt in a fresh manager
    m = family.manager
    line = max((line for dl in family.lists.values() for line, _ in dl.lines), key=m.size)
    block = serialize(m, line)
    inner = len(block.splitlines()) - 1 - block.count(" T")
    assert inner >= 5

    def rebuild(reader, budget):
        mgr = Manager(m.order, node_budget=budget)
        return reader(block, mgr), mgr._nodes

    runs = []
    for budget in range(inner + 1):
        got = outcome(rebuild, deserialize, budget)
        assert got == outcome(rebuild, deserialize_reference, budget), budget
        runs.append(got[0])
    assert runs == [BudgetExceededError] * inner + ["ok"]
