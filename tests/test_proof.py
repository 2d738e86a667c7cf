import hashlib
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
from qobdd.pcnf import EXISTS, FORALL, Pcnf, clause, emit_qdimacs
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
    TraceError,
    TraceParseError,
    URed,
    Verdict,
    check_trace,
    emit_trace,
    formula_hash,
    parse_trace,
)
from qobdd.qures import parse_qures, simulate_qures
from qobdd.solver import solve

from .helpers import check_trace_reference, qbf_value, qbf_value_fn, random_pcnf, referenced
from .test_qures import THREE_BLOCK, THREE_BLOCK_PROOF


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
    # an empty matrix has the empty derivation, of ONE: no refutation
    empty = Pcnf(((EXISTS, 1),), ())
    t = ProofTrace(formula_hash(empty), VarOrder([1]), ())
    derived = check_trace(empty, t)
    assert derived.accepted and not derived.refutation
    verdict = check_trace(empty, t, require_refutation=True).verdict
    assert (verdict.accepted, verdict.line, verdict.reason) == (False, None, NOT_REFUTATION)


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
    # walk would hand out its conjunction) and alone (where restrict refuses).
    # emit_trace refuses to write such a line, naming it, and the text it
    # would have written is malformed to parse_trace
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
        line = trace.lines[at]
        want = Verdict(False, line.id, MALFORMED)
        assert check_trace(f, t).verdict == want
        assert check_trace_reference(f, t)[0] == want
        with pytest.raises(TraceError) as err:
            emit_trace(t)
        assert type(err.value) is TraceError
        assert str(err.value) == f"line {line.id}: reduction to {value}, not to 0 or 1"
        u = line.rule
        good = f"\n{line.id} U {u.var} {u.value} {u.premise}\n"
        text = emit_trace(trace)
        assert good in text
        with pytest.raises(TraceParseError) as err:
            parse_trace(text.replace(good, f"\n{line.id} U {u.var} {value} {u.premise}\n"))
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
    good = obdd.serialize(mgr, mgr.apply(mgr.clause([1]), mgr.clause([2]), "or"))
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
    blk = obdd.serialize(mgr, mgr.clause([1]))
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


RECORDS = [
    Axiom(3),
    Conj(1, 2),
    Proj(1, 2),
    URed(4, 1, 2),
    Entail((1, 2), "obdd 1\n0 T0 - -"),
    ProofLine(5, Conj(1, 2)),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable_values_compared_by_type_and_fields(record):
    cls = type(record)
    fields = [getattr(record, name) for name in cls._fields]
    twin = cls(*fields)  # positional, in field order
    assert twin == record and hash(twin) == hash(record) and twin is not record
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(cls._fields, fields)
    ) + ")"
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert [getattr(record, name) for name in cls._fields] == fields
    # type-aware: equal fields under another record type are another value
    assert all(other != record for other in RECORDS if type(other) is not cls)
    assert record != tuple(fields)


def test_records_keep_their_field_names():
    assert (Axiom._fields, Conj._fields, Proj._fields, URed._fields, Entail._fields) == (
        ("clause_index",),
        ("left", "right"),
        ("var", "premise"),
        ("var", "value", "premise"),
        ("premises", "block"),
    )
    assert ProofLine._fields == ("id", "rule")
    assert Conj(1, 2) != Proj(1, 2) and len({Conj(1, 2), Proj(1, 2), Conj(1, 2)}) == 2
    assert ProofLine(1, Conj(1, 2)) != ProofLine(1, Proj(1, 2))


def test_the_formula_digest_is_the_hash_of_the_qdimacs_computed_once():
    f = gen_eqprime(3)
    want = hashlib.sha256(emit_qdimacs(f).encode()).hexdigest()
    assert f._digest is None
    assert formula_hash(f) == want == f.digest()
    assert f._digest == want
    assert formula_hash(f) == want  # later calls read the kept digest
    # an equal formula built separately has its own digest, the same one
    g = gen_eqprime(3)
    assert g == f and g._digest is None and formula_hash(g) == want


def test_the_kept_digest_takes_no_part_in_equality_hash_or_repr():
    f, g = gen_eqprime(3), gen_eqprime(3)
    formula_hash(f)
    assert f._digest is not None and g._digest is None
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert "_digest" not in repr(f)


def test_a_trace_with_another_hash_is_rejected_after_solve_kept_the_digest():
    f = gen_eqprime(3)
    trace = solve(f).trace
    assert f._digest == trace.formula_hash  # solve computed and kept it
    h = trace.formula_hash
    flipped = h[:-1] + ("0" if h[-1] != "0" else "1")
    bad = ProofTrace(flipped, trace.order, trace.lines)
    assert check_trace(f, bad).verdict == Verdict(False, None, HASH_MISMATCH)
    assert check_trace(f, parse_trace(emit_trace(bad))).verdict.reason == HASH_MISMATCH
    assert check_trace(f, trace).accepted


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


def test_a_negative_count_in_the_header_is_malformed():
    # cut after its order line, a trace of -3 lines must not reach the
    # checker as a trace of none
    lines = emit_trace(trivial_refutation(contradiction())).splitlines()
    for header in ("p qobdd-trace 1 -3", "p qobdd-trace -1 3"):
        for body in (lines[1:], lines[1:3]):
            with pytest.raises(TraceParseError, match=f"bad trace header '{header}'") as err:
                parse_trace("\n".join([header, *body]) + "\n")
            assert err.value.reason == MALFORMED


def test_an_order_line_naming_a_variable_below_1_is_malformed():
    # `o 2 0` was read as an order; no QDIMACS text states a formula over 0
    lines = emit_trace(trivial_refutation(contradiction())).splitlines()
    for bad in ("0", "-1"):
        order = lines[2].split()
        order[-1] = bad
        text = "\n".join([lines[0], lines[1], " ".join(order), *lines[3:]]) + "\n"
        with pytest.raises(TraceParseError, match=f"^bad trace: bad variable id {bad}$") as err:
            parse_trace(text)
        assert err.value.reason == MALFORMED


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
    readers = Counter(j for line in trace.lines for j in referenced(line.rule))

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


def unread_lines(trace):
    """The non-last ``Conj`` lines of a trace that only ``Proj`` lines
    read, or no line: the only lines the checker may leave unbuilt."""
    readers = {line.id: [] for line in trace.lines}
    for line in trace.lines:
        for j in referenced(line.rule):
            readers[j].append(line.rule)
    return {
        line.id
        for line in trace.lines[:-1]
        if isinstance(line.rule, Conj) and all(isinstance(r, Proj) for r in readers[line.id])
    }


def assert_agrees_with_reference(f, trace):
    """Same verdict as the per-line reference; when accepted, the same
    function on every line present, every fused conjunction missing and
    no line missing that a line other than a projection reads, and a
    store no larger than the reference's."""
    want, ref_mgr, ref_funcs = check_trace_reference(f, trace)
    got = check_trace(f, trace)
    assert got.verdict == want
    if want.accepted:
        assert got.functions.keys() <= ref_funcs.keys()
        missing = ref_funcs.keys() - got.functions.keys()
        assert fused_lines(trace) <= missing <= unread_lines(trace)
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
    # every projection is one and_exists walk; an existential elimination's
    # takes its conjunction's operands, so the conjunction is never built
    assert calls["and_exists"] == projs and fused > 0
    assert "exists" not in calls
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


# -- budget hits name the line being built ------------------------------------

# For each refutation below: the final store size, and the line each
# budget from 0 up names, as (first budget, line) runs; None where the
# check passes.  The three solver refutations' runs were computed with the
# checker of commit 71dd75b, which pre-scanned the trace and built every
# line at its own place; the last two, a translation whose reductions are
# built by restrict and a hand-made trace with entailments, with the
# checker of commit 07b061e.
BUDGET_RUNS = {
    "quparity-bfs-order": (
        400,
        [
            (0, 1), (5, 2), (7, 3), (12, 4), (14, 5), (18, 6), (20, 7), (24, 8),
            (26, 9), (31, 10), (35, 11), (40, 12), (44, 13), (46, 14), (48, 15),
            (50, 16), (52, 17), (57, 18), (61, 19), (66, 20), (70, 21), (72, 22),
            (74, 23), (76, 24), (78, 25), (83, 26), (87, 27), (92, 28), (96, 29),
            (98, 30), (100, 31), (102, 32), (104, 33), (109, 34), (113, 35), (118, 36),
            (122, 37), (124, 38), (126, 39), (128, 40), (130, 41), (135, 42), (139, 43),
            (144, 44), (148, 45), (150, 46), (152, 47), (154, 48), (156, 49), (161, 50),
            (165, 51), (170, 52), (174, 53), (176, 54), (178, 55), (180, 56), (182, 57),
            (184, 58), (186, 59), (187, 62), (191, 63), (195, 64), (199, 65), (203, 67),
            (208, 69), (211, 70), (215, 71), (219, 72), (220, 73), (222, 74), (224, 75),
            (226, 76), (233, 78), (236, 79), (240, 80), (244, 81), (245, 82), (247, 83),
            (249, 84), (251, 85), (260, 87), (263, 88), (267, 89), (271, 90), (272, 91),
            (274, 92), (276, 93), (278, 94), (289, 96), (292, 97), (296, 98), (300, 99),
            (301, 100), (303, 101), (305, 102), (307, 103), (320, 105), (323, 106),
            (327, 107), (331, 108), (332, 109), (334, 110), (336, 111), (338, 112),
            (355, 114), (356, 115), (358, 116), (360, 117), (363, 118), (365, 119),
            (368, 120), (370, 121), (379, 123), (394, 126), (398, None),
        ],
    ),
    "eqprime": (
        238,
        [
            (0, 1), (3, 2), (5, 3), (8, 4), (11, 5), (14, 6), (17, 7), (20, 8), (23, 9),
            (26, 10), (29, 11), (32, 12), (35, 13), (37, 14), (40, 15), (43, 16),
            (46, 17), (49, 18), (51, 19), (53, 21), (55, 23), (57, 25), (59, 27),
            (60, 29), (62, 30), (67, 32), (69, 33), (76, 35), (78, 36), (84, 38),
            (86, 39), (91, 41), (93, 42), (97, 44), (98, 45), (101, 47), (145, 50),
            (180, 53), (206, 56), (223, 59), (234, 62), (236, None),
        ],
    ),
    "ipg": (
        909,
        [
            (0, 1), (2, 2), (3, 3), (6, 4), (8, 5), (9, 6), (12, 7), (14, 8), (15, 9),
            (18, 10), (20, 11), (21, 12), (24, 13), (26, 14), (27, 15), (30, 16),
            (32, 17), (33, 18), (36, 19), (38, 20), (39, 21), (42, 22), (44, 23),
            (45, 24), (48, 25), (50, 26), (51, 27), (54, 28), (56, 29), (58, 30),
            (61, 31), (63, 32), (65, 33), (68, 34), (70, 35), (72, 36), (75, 37),
            (78, 38), (80, 39), (83, 40), (85, 41), (88, 42), (90, 43), (93, 44),
            (95, 45), (98, 46), (100, 47), (103, 48), (105, 49), (108, 50), (110, 51),
            (113, 52), (115, 53), (117, 54), (119, 55), (121, 56), (123, 57), (126, 58),
            (129, 59), (131, 60), (133, 61), (136, 62), (138, 63), (141, 64), (143, 65),
            (145, 66), (147, 67), (149, 68), (151, 69), (154, 70), (157, 71), (159, 72),
            (161, 73), (164, 74), (167, 75), (169, 76), (171, 77), (174, 78), (177, 79),
            (179, 80), (181, 81), (183, 82), (184, 83), (186, 84), (189, 85), (192, 86),
            (194, 87), (197, 89), (199, 90), (200, 91), (202, 92), (207, 94), (209, 95),
            (210, 96), (212, 97), (219, 99), (220, 100), (222, 101), (224, 102),
            (237, 104), (238, 105), (240, 106), (242, 107), (255, 109), (256, 110),
            (258, 111), (260, 112), (275, 114), (276, 115), (278, 116), (280, 117),
            (297, 119), (298, 120), (300, 121), (302, 122), (321, 124), (322, 125),
            (324, 126), (326, 127), (345, 129), (346, 130), (348, 131), (350, 132),
            (371, 134), (373, 135), (374, 136), (387, 138), (388, 139), (390, 140),
            (415, 142), (416, 143), (418, 144), (459, 146), (460, 147), (462, 148),
            (513, 150), (514, 151), (516, 152), (539, 154), (540, 155), (542, 156),
            (577, 158), (578, 159), (580, 160), (631, 162), (632, 163), (634, 164),
            (687, 166), (688, 167), (690, 168), (743, 170), (744, 171), (746, 172),
            (765, 174), (766, 175), (768, 176), (833, 178), (834, 179), (836, 180),
            (907, None),
        ],
    ),
    "qures-three-block": (
        14,
        [(0, 1), (3, 2), (5, 3), (6, 4), (8, 7), (10, 6), (11, 9), (12, None)],
    ),
    "built-on-read": (
        17,
        [
            (0, 1), (3, 2), (5, 3), (6, 4), (7, 5), (8, 6), (12, 7), (13, 8),
            (14, 9), (15, None),
        ],
    ),
}


def solved(f, order=None):
    """``f`` and its solver refutation; None is the default order."""
    return f, solve(f, order=order).trace


# exists x1 x2 x3 forall u4, refuted by a hand-made trace: the reduction 6
# of the unbuilt conjunction 5 is built by restrict when the projection 7
# reads it, and the entailment 10 builds the unbuilt conjunction 9
BUILT_ON_READ = Pcnf(
    ((EXISTS, 1), (EXISTS, 2), (EXISTS, 3), (FORALL, 4)),
    (clause([1, 2, 4]), clause([-1, 3, 4]), clause([-2]), clause([-3])),
)
BUILT_ON_READ_LINES = (
    *(ProofLine(i, Axiom(i)) for i in range(1, 5)),
    ProofLine(5, Conj(1, 2)),  # (1 2 4)(-1 3 4)
    ProofLine(6, URed(4, 0, 5)),  # (1 2)(-1 3)
    ProofLine(7, Proj(1, 6)),  # (2 3)
    # (2 3 4)
    ProofLine(8, Entail((7,), "obdd 5\n0 T0 - -\n1 T1 - -\n2 4 0 1\n3 3 2 1\n4 2 3 1")),
    ProofLine(9, Conj(3, 4)),  # (-2)(-3)
    ProofLine(10, Entail((7, 9), "obdd 1\n0 T0 - -")),
)


BUDGET_INSTANCES = {  # formula and trace
    # the breadth-first order the default picked before universal vertices
    # went first, given here so that the pinned table still applies
    "quparity-bfs-order": lambda: solved(
        gen_quparity(8),
        VarOrder((1, 2, 9, 10, 11, 3, 4, 5, 6, 7, 8, 12, 13, 14, 15, 16, 17)),
    ),
    "eqprime": lambda: solved(gen_eqprime(6)),
    "ipg": lambda: solved(gen_ipg_qbf(random_dregular(8, 3, seed=1))),
    # reductions built by restrict, each read by a conjunction
    "qures-three-block": lambda: (
        THREE_BLOCK,
        simulate_qures(THREE_BLOCK, parse_qures(THREE_BLOCK_PROOF)),
    ),
    "built-on-read": lambda: (
        BUILT_ON_READ,
        ProofTrace(formula_hash(BUILT_ON_READ), VarOrder([1, 2, 3, 4]), BUILT_ON_READ_LINES),
    ),
}


@pytest.mark.parametrize("name", list(BUDGET_RUNS))
def test_every_budget_names_the_line_it_named_before(name):
    f, trace = BUDGET_INSTANCES[name]()
    size, want = BUDGET_RUNS[name]
    assert len(check_trace(f, trace, require_refutation=True).manager) == size
    runs = []
    for budget in range(size + 1):
        try:
            check_trace(f, trace, node_budget=budget)
            named = None
        except obdd.BudgetExceededError as exc:
            named = int(str(exc).removeprefix("line "))
        if not runs or runs[-1][1] != named:
            runs.append((budget, named))
    assert runs == want
