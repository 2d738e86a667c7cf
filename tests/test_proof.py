import random

import pytest

from qobdd import obdd
from qobdd.families import eqprime_decomposition, gen_eqprime, gen_quparity, quparity_decomposition
from qobdd.graphs import order_from_decomposition
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
    check_trace,
    emit_trace,
    formula_hash,
    parse_trace,
)
from qobdd.solver import solve

from .helpers import qbf_value, qbf_value_fn, random_pcnf


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
        mgr = chk.manager
        refs = [chk.functions[l.id] for l in res.trace.lines]
        for k in range(1, len(refs) + 1):
            prefix_refs = refs[:k]
            value = qbf_value_fn(
                f.prefix,
                lambda a: all(mgr.evaluate(r, a) for r in prefix_refs),
            )
            assert value, f"prefix of {k} lines flipped the formula"
