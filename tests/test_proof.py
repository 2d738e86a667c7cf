import random
from collections import Counter
from itertools import count

import pytest

from qobdd import obdd
from qobdd.families import (
    eqprime_decomposition,
    gen_eqprime,
    gen_ipg_qbf,
    gen_quparity,
    quparity_decomposition,
)
from qobdd.graphs import order_from_decomposition, random_dregular
from qobdd.obdd import Manager, VarOrder
from qobdd.pcnf import EXISTS, FORALL, Pcnf, clause
from qobdd.proof import (
    AXIOM_MISMATCH,
    BAD_REFERENCE,
    ENTAILMENT_FAILED,
    HASH_MISMATCH,
    MALFORMED,
    NOT_REFUTATION,
    ORDER_MISMATCH,
    TRUNCATED,
    URED_NOT_RIGHTMOST,
    URED_NOT_UNIVERSAL,
    Axiom,
    Conj,
    Entail,
    Proj,
    ProofLine,
    ProofTrace,
    TraceParseError,
    URed,
    Verdict,
    check_trace,
    emit_trace,
    formula_hash,
    parse_trace,
)
from qobdd.solver import solve

from .helpers import check_trace_reference, qbf_value, qbf_value_fn, random_pcnf


def contradiction():
    return Pcnf(((EXISTS, 1),), (clause([1]), clause([-1])))


def trivial_refutation(f):
    return ProofTrace(
        formula_hash(f),
        VarOrder([1]),
        (
            ProofLine(1, Axiom(1)),
            ProofLine(2, Axiom(2)),
            ProofLine(3, Conj(1, 2)),
        ),
    )


def test_trivial_refutation_accepted():
    f = contradiction()
    t = trivial_refutation(f)
    result = check_trace(f, t, require_refutation=True)
    assert result.accepted and result.refutation
    plain = check_trace(f, t)
    assert plain.accepted and plain.refutation


def test_derivation_ending_in_literal_is_not_refutation():
    f = Pcnf(((EXISTS, 1), (EXISTS, 2)), (clause([1]), clause([1, 2])))
    t = ProofTrace(
        formula_hash(f),
        VarOrder([1, 2]),
        (ProofLine(1, Axiom(1)), ProofLine(2, Axiom(2)), ProofLine(3, Conj(1, 2))),
    )
    derived = check_trace(f, t)
    assert derived.accepted and not derived.refutation
    rejected = check_trace(f, t, require_refutation=True)
    assert rejected.verdict.reason == NOT_REFUTATION
    # an empty matrix still needs a line to derive anything
    empty = Pcnf(((EXISTS, 1),), ())
    verdict = check_trace(empty, ProofTrace(formula_hash(empty), VarOrder([1]), ())).verdict
    assert (verdict.accepted, verdict.line, verdict.reason) == (False, None, MALFORMED)


def test_ured_requires_rightmost():
    # an existential right of u blocks reduction of u
    f = Pcnf(
        ((FORALL, 1), (EXISTS, 2)),
        (clause([1, 2]), clause([1, -2])),
    )
    t = ProofTrace(
        formula_hash(f),
        VarOrder([1, 2]),
        (
            ProofLine(1, Axiom(1)),
            ProofLine(2, Axiom(2)),
            ProofLine(3, URed(1, 0, 1)),
        ),
    )
    result = check_trace(f, t)
    assert result.verdict.reason == URED_NOT_RIGHTMOST
    assert result.verdict.line == 3


@pytest.mark.parametrize("premise", [2, 4])
def test_ured_requires_the_variable_in_its_premise(premise):
    # u is innermost in the prefix but absent from line 2 = (e) and from
    # line 4 = (e) and (not e), the constant 0
    f = Pcnf(((EXISTS, 2), (FORALL, 1)), (clause([1, 2]), clause([2]), clause([-2])))
    t = ProofTrace(
        formula_hash(f),
        VarOrder([2, 1]),
        (
            ProofLine(1, Axiom(1)),
            ProofLine(2, Axiom(2)),
            ProofLine(3, Axiom(3)),
            ProofLine(4, Conj(2, 3)),
            ProofLine(5, URed(1, 0, premise)),
        ),
    )
    result = check_trace(f, t)
    assert result.verdict.reason == URED_NOT_RIGHTMOST
    assert result.verdict.line == 5


def test_ured_valid_on_rightmost():
    f = Pcnf(((EXISTS, 2), (FORALL, 1)), (clause([1, 2]), clause([1, -2])))
    t = ProofTrace(
        formula_hash(f),
        VarOrder([2, 1]),
        (
            ProofLine(1, Axiom(1)),
            ProofLine(2, Axiom(2)),
            ProofLine(3, URed(1, 0, 1)),  # (2 | 1)[1/0] = (2)
            ProofLine(4, URed(1, 0, 2)),
            ProofLine(5, Conj(3, 4)),
        ),
    )
    result = check_trace(f, t, require_refutation=True)
    assert result.accepted and result.refutation


@pytest.mark.parametrize("value", [2, -1])
def test_a_reduction_to_a_non_constant_is_malformed_at_its_line(value):
    # a U line built in code can hold any int; parse_trace reads only 0 and
    # 1, and both checkers reject any other value at its line, before its
    # replay: in a joined pair (before or after its partner, where the pair's
    # walk would hand out its conjunction) and alone (where restrict refuses)
    f = gen_eqprime(2)
    trace = solve(f).trace
    idx = next(i for i, line in enumerate(trace.lines) if isinstance(line.rule, URed))
    assert trace.lines[idx + 2].rule == Conj(trace.lines[idx].id, trace.lines[idx + 1].id)

    def bad(i):
        line = trace.lines[i]
        return ProofLine(line.id, URed(line.rule.var, value, line.rule.premise))

    for t, at in (
        (replace_line(trace, idx, bad(idx)), idx),
        (replace_line(trace, idx + 1, bad(idx + 1)), idx + 1),
        (ProofTrace(trace.formula_hash, trace.order, trace.lines[:idx] + (bad(idx),)), idx),
    ):
        want = Verdict(False, trace.lines[at].id, MALFORMED)
        assert check_trace(f, t).verdict == want
        assert check_trace_reference(f, t)[0] == want
        with pytest.raises(TraceParseError) as err:
            parse_trace(emit_trace(t))
        assert err.value.reason == MALFORMED


def test_projection_of_absent_variable_is_noop():
    f = Pcnf(((EXISTS, 1), (EXISTS, 2)), (clause([1]),))
    t = ProofTrace(
        formula_hash(f),
        VarOrder([1, 2]),
        (ProofLine(1, Axiom(1)), ProofLine(2, Proj(2, 1))),
    )
    result = check_trace(f, t)
    assert result.accepted
    assert result.functions[2] == result.functions[1]


def test_entailment_accepted_and_rejected():
    f = Pcnf(((EXISTS, 1), (EXISTS, 2)), (clause([1]), clause([2])))
    mgr = Manager(VarOrder([1, 2]))
    good = obdd.serialize(mgr, mgr.apply(mgr.literal(1), mgr.literal(2), "or"))
    bad = obdd.serialize(mgr, mgr.ZERO)
    base = (ProofLine(1, Axiom(1)), ProofLine(2, Axiom(2)))
    ok = ProofTrace(
        formula_hash(f), VarOrder([1, 2]), base + (ProofLine(3, Entail((1, 2), good)),)
    )
    assert check_trace(f, ok).accepted
    fail = ProofTrace(
        formula_hash(f), VarOrder([1, 2]), base + (ProofLine(3, Entail((1,), bad)),)
    )
    assert check_trace(f, fail).verdict.reason == ENTAILMENT_FAILED


def test_checker_budget():
    f = gen_eqprime(4)
    res = solve(f)
    # a budget hit is never a verdict: it raises, naming the line that ran out
    with pytest.raises(obdd.BudgetExceededError, match="^line 4$"):
        check_trace(f, res.trace, node_budget=10)


def test_roundtrip_text_format():
    f = contradiction()
    t = trivial_refutation(f)
    assert parse_trace(emit_trace(t)) == t
    # entailment blocks survive the round trip
    f2 = Pcnf(((EXISTS, 1), (EXISTS, 2)), (clause([1]), clause([2])))
    mgr = Manager(VarOrder([1, 2]))
    blk = obdd.serialize(mgr, mgr.literal(1))
    t2 = ProofTrace(
        formula_hash(f2),
        VarOrder([1, 2]),
        (
            ProofLine(1, Axiom(1)),
            ProofLine(2, Axiom(2)),
            ProofLine(3, Entail((1,), blk)),
        ),
    )
    assert parse_trace(emit_trace(t2)) == t2
    assert check_trace(f2, parse_trace(emit_trace(t2))).accepted


def test_truncated_file_rejected():
    f = gen_eqprime(2)
    res = solve(f)
    text = emit_trace(res.trace)
    lines = text.splitlines()
    with pytest.raises(TraceParseError) as err:
        parse_trace("\n".join(lines[: len(lines) // 2]))
    assert err.value.reason == TRUNCATED
    with pytest.raises(TraceParseError):
        parse_trace(text + "1 A 1\n")  # trailing garbage


# -- mutation harness: each reason fires on each family --------------------


def family_instances():
    fe = gen_eqprime(3)
    oe = order_from_decomposition(eqprime_decomposition(3))
    fq = gen_quparity(3)
    oq = order_from_decomposition(quparity_decomposition(3))
    for f, order in ((fe, oe), (fq, oq)):
        res = solve(f, order=order)
        assert res.value is False
        yield f, res.trace


def replace_line(trace, idx, line):
    lines = list(trace.lines)
    lines[idx] = line
    return ProofTrace(trace.formula_hash, trace.order, tuple(lines))


@pytest.mark.parametrize("family_idx", [0, 1])
def test_mutations_kill_each_reason(family_idx):
    f, trace = list(family_instances())[family_idx]
    m = len(f.clauses)

    # order-mismatch: drop a variable from the order line
    bad_order = ProofTrace(
        trace.formula_hash, VarOrder(trace.order.vars[:-1]), trace.lines
    )
    assert check_trace(f, bad_order).verdict.reason == ORDER_MISMATCH

    # axiom-mismatch: first axiom points at the wrong clause
    bad_ax = replace_line(trace, 0, ProofLine(trace.lines[0].id, Axiom(2)))
    assert check_trace(f, bad_ax).verdict.reason == AXIOM_MISMATCH

    # bad-reference: a conjunction referring to an unseen id
    idx, line = next(
        (i, l) for i, l in enumerate(trace.lines) if isinstance(l.rule, Conj)
    )
    dangling = replace_line(
        trace, idx, ProofLine(line.id, Conj(line.rule.left, 10**6))
    )
    assert check_trace(f, dangling).verdict.reason == BAD_REFERENCE

    # ured-not-universal / ured-not-rightmost
    idx, line = next(
        (i, l) for i, l in enumerate(trace.lines) if isinstance(l.rule, URed)
    )
    some_exist = f.existentials[0]
    not_univ = replace_line(
        trace, idx, ProofLine(line.id, URed(some_exist, line.rule.value, line.rule.premise))
    )
    assert check_trace(f, not_univ).verdict.reason == URED_NOT_UNIVERSAL
    other_univ = next(u for u in f.universals if u != line.rule.var)
    not_rightmost = replace_line(
        trace, idx, ProofLine(line.id, URed(other_univ, line.rule.value, line.rule.premise))
    )
    assert check_trace(f, not_rightmost).verdict.reason == URED_NOT_RIGHTMOST

    # entailment-failed: append a claim nothing entails
    mgr = Manager(trace.order)
    bogus = obdd.serialize(mgr, mgr.ZERO)
    last_id = trace.lines[-1].id
    false_entail = ProofTrace(
        trace.formula_hash,
        trace.order,
        trace.lines + (ProofLine(last_id + 1, Entail((1,), bogus)),),
    )
    assert check_trace(f, false_entail).verdict.reason == ENTAILMENT_FAILED

    # hash binding
    tampered = ProofTrace("0" * 64, trace.order, trace.lines)
    assert check_trace(f, tampered).verdict.reason == HASH_MISMATCH

    # missing axiom block
    short = ProofTrace(trace.formula_hash, trace.order, trace.lines[: m - 1])
    assert check_trace(f, short).verdict.reason == AXIOM_MISMATCH

    # an axiom after the matrix lines
    late_axiom = ProofTrace(
        trace.formula_hash, trace.order, trace.lines + (ProofLine(last_id + 1, Axiom(1)),)
    )
    verdict = check_trace(f, late_axiom).verdict
    assert (verdict.line, verdict.reason) == (last_id + 1, AXIOM_MISMATCH)


def test_conj_operand_mutation_rejected():
    f = gen_eqprime(2)
    res = solve(f, order=order_from_decomposition(eqprime_decomposition(2)))
    trace = res.trace
    idx, line = next(
        (i, l)
        for i, l in reversed(list(enumerate(trace.lines)))
        if isinstance(l.rule, Conj)
    )
    mutated = replace_line(trace, idx, ProofLine(line.id, Conj(1, 2)))
    result = check_trace(f, mutated, require_refutation=True)
    assert not result.accepted


def test_entailment_refutation_accepted_and_extractable():
    # contradictory premises entail the constant 0 directly
    f = contradiction()
    mgr = Manager(VarOrder([1]))
    zero_block = obdd.serialize(mgr, mgr.ZERO)
    t = ProofTrace(
        formula_hash(f),
        VarOrder([1]),
        (
            ProofLine(1, Axiom(1)),
            ProofLine(2, Axiom(2)),
            ProofLine(3, Entail((1, 2), zero_block)),
        ),
    )
    result = check_trace(f, t, require_refutation=True)
    assert result.accepted and result.refutation
    from qobdd.strategy import extract

    fam = extract(f, t, result)  # no universals, no reductions: empty family
    assert fam.lists == {}


def test_projection_of_unknown_variable_rejected():
    f = contradiction()
    t = ProofTrace(
        formula_hash(f),
        VarOrder([1]),
        (ProofLine(1, Axiom(1)), ProofLine(2, Axiom(2)), ProofLine(3, Proj(9, 1))),
    )
    assert check_trace(f, t).verdict.reason == BAD_REFERENCE


# -- soundness harnesses ----------------------------------------------------


def test_accepted_refutations_are_of_false_formulas():
    rng = random.Random(404)
    seen_false = 0
    for _ in range(40):
        f = random_pcnf(rng, max_vars=10, max_clauses=18)
        res = solve(f)
        chk = check_trace(f, res.trace)
        assert chk.accepted
        if chk.refutation:
            seen_false += 1
            assert not qbf_value(f)
    assert seen_false > 0


def test_per_line_soundness_on_true_formulas():
    # prefixes of an accepted derivation of a true formula stay true
    rng = random.Random(99)
    done = 0
    while done < 6:
        f = random_pcnf(rng, max_vars=9, max_clauses=10)
        if not qbf_value(f):
            continue
        done += 1
        res = solve(f)
        chk = check_trace(f, res.trace)
        assert chk.accepted and not chk.refutation
        # every line's function, fused conjunctions included
        _, mgr, funcs = check_trace_reference(f, res.trace)
        refs = [funcs[l.id] for l in res.trace.lines]
        for k in range(1, len(refs) + 1):
            prefix_refs = refs[:k]
            value = qbf_value_fn(
                f.prefix,
                lambda a: all(mgr.evaluate(r, a) for r in prefix_refs),
            )
            assert value, f"prefix of {k} lines flipped the formula"


# -- universal eliminations replayed in one walk ------------------------------


def fused_lines(trace):
    """The ``Conj`` lines of an accepted trace that the checker fuses with
    their projection: read by one ``Proj`` line alone, on a variable of the
    order, and not joining two reductions of one premise on one variable
    to opposite constants."""
    rules = {line.id: line.rule for line in trace.lines}
    readers = Counter(j for line in trace.lines for j in trace.referenced(line.rule))

    def joins_a_pair(c):
        a, b = rules[c.left], rules[c.right]
        return (
            isinstance(a, URed)
            and isinstance(b, URed)
            and (a.premise, a.var) == (b.premise, b.var)
            and a.value != b.value
        )

    return {
        r.premise
        for r in rules.values()
        if isinstance(r, Proj)
        and r.var in trace.order
        and readers[r.premise] == 1
        and isinstance(rules[r.premise], Conj)
        and not joins_a_pair(rules[r.premise])
    }


def assert_agrees_with_reference(f, trace):
    """Same verdict as the per-line reference; when accepted, the same
    function on every line but the fused conjunctions, which are the only
    lines missing, and a store no larger than the reference's."""
    want, ref_mgr, ref_funcs = check_trace_reference(f, trace)
    got = check_trace(f, trace)
    assert got.verdict == want
    if want.accepted:
        assert got.functions.keys() <= ref_funcs.keys()
        assert ref_funcs.keys() - got.functions.keys() == fused_lines(trace)
        for lid, ref in got.functions.items():
            assert obdd.serialize(got.manager, ref) == obdd.serialize(ref_mgr, ref_funcs[lid])
        assert len(got.manager) <= len(ref_mgr)
    return want


def renumbered(trace, keyed):
    """A trace of ``keyed`` (key, rule) pairs, whose rules refer to keys:
    ids 1.. in list order, every reference mapped along."""
    ids = {key: i for i, (key, _) in enumerate(keyed, start=1)}

    def mapped(rule):
        if isinstance(rule, Conj):
            return Conj(ids[rule.left], ids[rule.right])
        if isinstance(rule, Proj):
            return Proj(rule.var, ids[rule.premise])
        if isinstance(rule, URed):
            return URed(rule.var, rule.value, ids[rule.premise])
        if isinstance(rule, Entail):
            return Entail(tuple(ids[j] for j in rule.premises), rule.block)
        return rule

    lines = tuple(ProofLine(ids[key], mapped(rule)) for key, rule in keyed)
    return ProofTrace(trace.formula_hash, trace.order, lines)


def reshuffled_eliminations(rng, f, trace):
    """The solver's trace with each universal elimination (U x 0 j, U x 1 j,
    C of the two) rearranged at random: the reductions swapped, the
    conjunction's operands swapped, other lines between the reductions, a
    repeated reduction joined again, a reduction to the same constant or
    on another universal; then conjunctions of random pairs of reductions,
    of one premise or not."""
    keyed = [(line.id, line.rule) for line in trace.lines]
    fresh = count(-1, -1)
    out: list = []
    reductions: list[int] = []
    i = 0
    while i < len(keyed):
        key, rule = keyed[i]
        if not isinstance(rule, URed):
            out.append(keyed[i])
            i += 1
            continue
        (k0, u0), (k1, u1), (kc, _) = keyed[i : i + 3]
        if rng.random() < 0.5:
            (k0, u0), (k1, u1) = (k1, u1), (k0, u0)
        roll = rng.random()
        if roll < 0.1:
            u1 = URed(u1.var, u0.value, u1.premise)  # same constant twice
        elif roll < 0.2:
            others = [u for u in f.universals if u != u1.var]
            if others:
                u1 = URed(rng.choice(others), u1.value, u1.premise)
        out.append((k0, u0))
        for _ in range(rng.randint(0, 2)):
            a, b = rng.choice(out)[0], rng.choice(out)[0]
            out.append((next(fresh), Conj(a, b)))
        out.append((k1, u1))
        out.append((kc, Conj(k0, k1) if rng.random() < 0.5 else Conj(k1, k0)))
        if rng.random() < 0.5:
            again = next(fresh)
            out += [(again, u0), (next(fresh), Conj(k1, again))]
            reductions.append(again)
        reductions += [k0, k1]
        i += 3
    for _ in range(rng.randint(0, 4) if reductions else 0):
        a, b = rng.choice(reductions), rng.choice(reductions)
        out.append((next(fresh), Conj(a, b)))
    return renumbered(trace, out)


def test_checker_agrees_with_the_per_line_reference():
    rng = random.Random(1801)
    seen = {"pairs": 0, "accepted": 0, "rejected": 0}
    for _ in range(60):
        f = random_pcnf(rng, max_vars=10, max_clauses=18)
        order = VarOrder(rng.sample(f.variables, len(f.variables)))
        trace = solve(f, order).trace
        assert assert_agrees_with_reference(f, trace).accepted
        pairs = sum(isinstance(l.rule, URed) for l in trace.lines) // 2
        seen["pairs"] += pairs
        for _ in range(3 if pairs else 0):
            variant = reshuffled_eliminations(rng, f, trace)
            accepted = assert_agrees_with_reference(f, variant).accepted
            seen["accepted" if accepted else "rejected"] += 1
        # a lone reduction, its pair and conjunction cut off, is one restrict
        for k, line in enumerate(trace.lines):
            if isinstance(line.rule, URed):
                lone = ProofTrace(trace.formula_hash, trace.order, trace.lines[: k + 1])
                assert_agrees_with_reference(f, lone)
    assert min(seen.values()) >= 10, seen


def test_a_solver_trace_replays_each_elimination_in_one_walk(monkeypatch):
    f = gen_eqprime(4)
    trace = solve(f, order=order_from_decomposition(eqprime_decomposition(4))).trace
    calls = {"forall_split": 0}

    def counted(name):
        method = getattr(Manager, name)

        def wrapper(self, *args):
            calls[name] = calls.get(name, 0) + 1
            return method(self, *args)

        return wrapper

    for name in ("forall_split", "restrict", "apply", "and_exists", "exists"):
        monkeypatch.setattr(Manager, name, counted(name))
    assert check_trace(f, trace, require_refutation=True).refutation
    ureds = [l.rule for l in trace.lines if isinstance(l.rule, URed)]
    conjs = sum(isinstance(l.rule, Conj) for l in trace.lines)
    projs = sum(isinstance(l.rule, Proj) for l in trace.lines)
    fused = len(fused_lines(trace))
    assert calls["forall_split"] == len(ureds) // 2 == len(f.universals)
    assert "restrict" not in calls
    # an existential elimination's conjunction and projection are one walk
    assert calls["and_exists"] == fused > 0
    assert calls.get("exists", 0) == projs - fused
    # every other conjunction still goes through apply
    assert calls["apply"] == conjs - len(ureds) // 2 - fused


@pytest.mark.parametrize(
    "joined, fused",
    [
        ((4, 5), True),  # the pair, in order
        ((5, 4), True),  # the pair, swapped
        ((4, 6), False),  # the same constant twice
        ((4, 7), False),  # another premise
        ((4, 8), False),  # another variable
    ],
)
def test_only_a_pair_of_one_premise_and_variable_takes_the_walk(monkeypatch, joined, fused):
    # x1 is rightmost in lines 1 and 3, x2 in line 2
    f = Pcnf(
        ((EXISTS, 3), (FORALL, 1), (FORALL, 2)),
        (clause([3, 1]), clause([3, 2]), clause([-3, 1])),
    )
    lines = (
        ProofLine(1, Axiom(1)),
        ProofLine(2, Axiom(2)),
        ProofLine(3, Axiom(3)),
        ProofLine(4, URed(1, 0, 1)),
        ProofLine(5, URed(1, 1, 1)),
        ProofLine(6, URed(1, 0, 1)),
        ProofLine(7, URed(1, 1, 3)),
        ProofLine(8, URed(2, 1, 2)),
        ProofLine(9, Conj(*joined)),
    )
    trace = ProofTrace(formula_hash(f), VarOrder([3, 1, 2]), lines)
    splits = []
    original = Manager.forall_split
    monkeypatch.setattr(Manager, "forall_split", lambda self, *a: splits.append(a) or original(self, *a))
    assert assert_agrees_with_reference(f, trace).accepted
    assert bool(splits) == fused


def test_budget_inside_the_walk_names_the_pairs_first_reduction_line():
    f = gen_eqprime(4)
    trace = solve(f).trace
    lines = trace.lines
    found = 0

    def store(n):
        # the checker's nodes for the first n lines; the lines before a
        # pair fuse as they do in the whole trace, since a solver trace
        # puts each projection right after its conjunction
        return len(check_trace(f, ProofTrace(trace.formula_hash, trace.order, lines[:n])).manager)

    for k, line in enumerate(lines):
        if not (isinstance(line.rule, URed) and isinstance(lines[k + 1].rule, URed)):
            continue
        # cut before the pair's conjunction, the first reduction is one
        # restrict: a budget it fills exactly
        budget = store(k + 1) - 2
        if store(k + 3) == store(k + 1):
            continue  # the pair's other diagrams make no node here
        with pytest.raises(obdd.BudgetExceededError, match=f"^line {line.id}$"):
            check_trace(f, trace, node_budget=budget)
        found += 1
    assert found


# -- existential eliminations replayed in one walk -----------------------------


def projection_mutants(rng, f, trace):
    """(kind, trace) pairs: the solver's trace with one ``Proj`` line
    retargeted to another premise, or projecting a variable other than its
    bucket's pivot or one outside the order; with a second ``Conj`` or an
    ``E`` line also reading a fused conjunction; and cut after a joined
    reduction pair's ``Conj``, with a ``Proj`` on it."""
    keyed = [(line.id, line.rule) for line in trace.lines]
    rules = dict(keyed)
    fused = fused_lines(trace)
    fresh = count(-1, -1)
    outside = max(f.variables, default=0) + 1
    for i, (key, rule) in enumerate(keyed):
        before, after = keyed[:i], keyed[i + 1 :]
        if isinstance(rule, Proj):
            others = [k for k, _ in before if k != rule.premise]
            if others:
                moved = Proj(rule.var, rng.choice(others))
                yield "retargeted", before + [(key, moved)] + after
            pivots = [v for v in f.variables if v != rule.var]
            if pivots:
                yield "not-the-pivot", before + [(key, Proj(rng.choice(pivots), rule.premise))] + after
            yield "outside-the-order", before + [(key, Proj(outside, rule.premise))] + after
            if rule.premise in fused:
                c = rule.premise
                block = obdd.serialize(Manager(trace.order), rng.choice((Manager.ZERO, Manager.ONE)))
                reader = rng.choice((Conj(c, rng.choice(before)[0]), Entail((c,), block)))
                at = rng.randint(keyed.index((c, rules[c])) + 1, len(keyed))
                yield "read-twice", keyed[:at] + [(next(fresh), reader)] + keyed[at:]
        elif isinstance(rule, Conj) and isinstance(rules[rule.left], URed) and isinstance(rules[rule.right], URed):
            var = rng.choice(f.variables)
            yield "projected-pair", before + [(key, rule), (next(fresh), Proj(var, key))]


def test_the_fused_replay_agrees_with_the_per_line_reference():
    rng = random.Random(2207)
    seen: Counter = Counter()
    for _ in range(50):
        f = random_pcnf(rng, max_vars=10, max_clauses=18)
        for order in (VarOrder(f.variables), VarOrder(rng.sample(f.variables, len(f.variables)))):
            trace = solve(f, order).trace
            seen["fused"] += len(fused_lines(trace))
            assert assert_agrees_with_reference(f, trace).accepted
            for kind, keyed in projection_mutants(rng, f, trace):
                variant = renumbered(trace, keyed)
                seen[kind, assert_agrees_with_reference(f, variant).accepted] += 1
    for kind in ("retargeted", "not-the-pivot", "read-twice", "projected-pair"):
        assert seen[kind, True] >= 10, (kind, seen)
    for kind in ("retargeted", "not-the-pivot", "read-twice"):
        assert seen[kind, False], (kind, seen)
    # a variable outside the order is a bad reference, fused or not
    assert seen["outside-the-order", False] >= 10 and not seen["outside-the-order", True]
    assert seen["fused"] >= 50, seen


@pytest.mark.parametrize(
    "f",
    [
        gen_quparity(12),
        gen_ipg_qbf(random_dregular(14, 3, seed=3)),
    ],
    ids=["quparity-default-order", "ipg"],
)
def test_the_fused_replay_holds_fewer_nodes(f):
    trace = solve(f).trace
    got = check_trace(f, trace, require_refutation=True)
    _, ref_mgr, _ = check_trace_reference(f, trace)
    assert got.refutation
    assert fused_lines(trace)
    assert len(got.manager) < len(ref_mgr)
