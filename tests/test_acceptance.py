"""Acceptance suite: one test per shipping criterion.

Run with `pytest tests/test_acceptance.py -s` to see one status line per
criterion.  Regression constants (family widths) were pinned on the first
green run and are asserted exactly thereafter.
"""

import random
import time
from itertools import product

import pytest

from qobdd import obdd
from qobdd.families import (
    eqprime_decomposition,
    gen_eqprime,
    gen_ipg_qbf,
    gen_quparity,
    quparity_decomposition,
)
from qobdd.graphs import Graph, order_from_decomposition
from qobdd.obdd import OPS, Manager, VarOrder
from qobdd.pcnf import Pcnf
from qobdd.proof import (
    AXIOM_MISMATCH,
    ENTAILMENT_FAILED,
    HASH_MISMATCH,
    NOT_REFUTATION,
    TRUNCATED,
    URED_NOT_RIGHTMOST,
    Axiom,
    Conj,
    Entail,
    ProofLine,
    ProofTrace,
    TraceParseError,
    URed,
    check_trace,
    emit_trace,
    parse_trace,
)
from qobdd.qures import parse_qures, simulate_qures
from qobdd.rectangles import check_rectanglesmall, ip_truth_table, max_mono_rectangle
from qobdd.solver import solve
from qobdd.strategy import and_protocol_run, extract, strategy_range_size, to_rectangle_list, verify_winning

from .helpers import (
    assignments,
    check_trace_reference,
    cofactor_tables,
    eval_ipg,
    obdd_from_table,
    qbf_value,
    random_pcnf,
    random_table,
    truth_table_from_function,
    truth_table_of,
)

# pinned on first green run; the family widths must not drift
PINNED_MAX_WIDTH = {"eqprime": 4, "quparity": 5}

FAMILIES = {
    "eqprime": (gen_eqprime, eqprime_decomposition),
    "quparity": (gen_quparity, quparity_decomposition),
}


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def solve_family(name: str, n: int):
    gen, dec = FAMILIES[name]
    f = gen(n)
    order = order_from_decomposition(dec(n))
    return f, solve(f, order=order)


@pytest.fixture(scope="module")
def family_runs():
    runs = {}
    for name in FAMILIES:
        for n in range(2, 11):
            f, res = solve_family(name, n)
            runs[name, n] = (f, res)
    return runs


@pytest.fixture(scope="module")
def random_runs():
    rng = random.Random(20240807)
    start = time.perf_counter()
    out = []
    for _ in range(200):
        f = random_pcnf(rng, max_vars=14, max_clauses=30)
        out.append((f, solve(f)))
    return out, time.perf_counter() - start


def ipg_instances(max_vertices=4):
    graphs = [
        Graph([1, 2], [(1, 2)]),
        Graph([1, 2, 3], [(1, 2), (2, 3)]),
        Graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)]),
    ]
    if max_vertices >= 4:
        graphs.append(Graph([1, 2, 3, 4], [(1, 2), (3, 4)]))
    return graphs


def test_criterion_1_oracle_agreement(random_runs, family_runs):
    instances, solve_seconds = random_runs
    start = time.perf_counter() - solve_seconds
    mismatches = 0
    checked = 0
    for f, res in instances:
        checked += 1
        if res.value != qbf_value(f):
            mismatches += 1
    for name in FAMILIES:
        for n in (2, 3):
            f, res = family_runs[name, n]
            checked += 1
            if res.value != qbf_value(f):
                mismatches += 1
    for g in ipg_instances():
        f = gen_ipg_qbf(g)
        res = solve(f)
        checked += 1
        if res.value != qbf_value(f):
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: solver verdicts match game-tree oracle",
        mismatches == 0 and elapsed < 60.0,
        f"{checked} instances, {mismatches} mismatches, {elapsed:.1f}s incl. solving",
    )


def _mutants(f: Pcnf, trace: ProofTrace):
    """Six mutant kinds with their expected rejection reasons."""
    lines = list(trace.lines)

    def with_lines(new):
        return ProofTrace(trace.formula_hash, trace.order, tuple(new))

    # wrong conjunction operands: final line no longer derives 0
    wrong = list(lines)
    wrong[-1] = ProofLine(lines[-1].id, Conj(1, 2))
    yield "wrong-operand", with_lines(wrong), NOT_REFUTATION

    # universal reduction on a non-rightmost universal
    idx, ured = next((i, l) for i, l in enumerate(lines) if isinstance(l.rule, URed))
    other = next(u for u in f.universals if u != ured.rule.var)
    bad = list(lines)
    bad[idx] = ProofLine(ured.id, URed(other, ured.rule.value, ured.rule.premise))
    yield "non-rightmost-ured", with_lines(bad), URED_NOT_RIGHTMOST

    # entailment of an unsupported claim
    mgr = Manager(trace.order)
    bogus = obdd.serialize(mgr, mgr.ZERO)
    extended = lines + [ProofLine(lines[-1].id + 1, Entail((1,), bogus))]
    yield "false-entail", with_lines(extended), ENTAILMENT_FAILED

    # first axiom bound to the wrong clause
    ax = list(lines)
    ax[0] = ProofLine(lines[0].id, Axiom(2))
    yield "axiom-mismatch", with_lines(ax), AXIOM_MISMATCH

    # corrupted formula hash
    yield "bad-hash", ProofTrace("0" * 64, trace.order, trace.lines), HASH_MISMATCH

    # truncated file
    text = emit_trace(trace).splitlines()
    yield "truncation", "\n".join(text[: len(text) * 3 // 4]), TRUNCATED


def test_criterion_2_proof_pipeline(family_runs):
    accepted = 0
    for name in FAMILIES:
        for n in range(2, 11):
            f, res = family_runs[name, n]
            assert res.value is False
            chk = check_trace(f, res.trace, require_refutation=True)
            assert chk.accepted and chk.refutation, (name, n, chk.verdict)
            accepted += 1
            roundtrip = parse_trace(emit_trace(res.trace))
            assert roundtrip == res.trace
    killed = 0
    for name in FAMILIES:
        f, res = family_runs[name, 3]
        for kind, mutant, expected in _mutants(f, res.trace):
            if isinstance(mutant, str):
                try:
                    parse_trace(mutant)
                    raise AssertionError(f"{name} {kind}: parsed")
                except TraceParseError as exc:
                    assert exc.reason == expected, (name, kind, exc.reason)
            else:
                out = check_trace(f, mutant, require_refutation=True)
                assert not out.accepted, (name, kind)
                assert out.verdict.reason == expected, (
                    name,
                    kind,
                    out.verdict.reason,
                )
            killed += 1
    report(
        "criterion 2: family refutations check; mutants rejected",
        accepted == 18 and killed == 12,
        f"{accepted} refutations, {killed}/12 mutants killed",
    )


def test_criterion_3_strategy_extraction(family_runs, random_runs):
    verified = 0
    # refutations with at most 16 existentials: exhaustive winning check
    for (name, n), (f, res) in family_runs.items():
        if len(f.existentials) > 16:
            continue
        fam = extract(f, res.trace)
        verdict = verify_winning(f, fam)
        assert verdict.exhaustive and verdict.winning, (name, n)
        verified += 1
    for f, res in random_runs[0]:
        if res.value or len(f.existentials) > 16:
            continue
        fam = extract(f, res.trace)
        verdict = verify_winning(f, fam)
        assert verdict.exhaustive and verdict.winning
        verified += 1

    # split equality: the unique winning play copies x into u
    for n in range(2, 9):
        f, res = family_runs["eqprime", n]
        fam = extract(f, res.trace)
        for bits in range(1 << n):
            tau = {i + 1: (bits >> i) & 1 for i in range(n)}
            full = fam.respond(tau)
            assert all(full[n + i] == tau[i] for i in range(1, n + 1)), (n, tau)

    # graph inner product: the unique winning play is the complement
    pointwise = 0
    for g in ipg_instances() + [
        Graph(range(1, 11), [(2 * i - 1, 2 * i) for i in range(1, 6)])
    ]:
        f = gen_ipg_qbf(g)
        res = solve(f)
        fam = extract(f, res.trace)
        nv = len(g.vertices)
        z = nv + 1
        others = {v: 0 for v in f.existentials if v > z}
        for a in assignments(range(1, nv + 1)):
            full = fam.respond({**a, **others})
            assert full[z] == 1 - eval_ipg(g, a), (g, a)
            pointwise += 1
    report(
        "criterion 3: extracted strategies win; known strategies match exactly",
        True,
        f"{verified} exhaustive verifications, {pointwise} pointwise checks",
    )


def test_criterion_4_strategy_range(family_runs):
    start = time.perf_counter()
    for n in range(2, 9):
        f, res = family_runs["eqprime", n]
        fam = extract(f, res.trace)
        size = strategy_range_size(fam)
        assert size == 2**n, (n, size)
    elapsed = time.perf_counter() - start
    report(
        "criterion 4: split-equality strategy range is exactly 2^n",
        elapsed < 10.0,
        f"n=2..8, {elapsed:.1f}s",
    )


def test_criterion_5_rectangle_chain(family_runs):
    lists_checked = 0
    for name, n in (("eqprime", 2), ("eqprime", 3), ("quparity", 2), ("quparity", 3)):
        f, res = family_runs[name, n]
        fam = extract(f, res.trace)
        mgr = fam.manager
        nv = len(mgr.order)
        assert nv <= 14
        for dl in fam.lists.values():
            w, s = dl.width_bound(), len(dl)
            for cut in {0, nv // 3, nv // 2, nv}:
                rdl = to_rectangle_list(dl, cut)
                assert len(rdl) <= w * (s - 1) + 1, (name, n, cut)
                x1, x2 = rdl.partition
                for a in assignments(mgr.order.vars):
                    want = dl.evaluate(a)
                    assert rdl.evaluate(a) == want
                    run = and_protocol_run(
                        rdl, {v: a[v] for v in x1}, {v: a[v] for v in x2}
                    )
                    assert run.value == want and run.rounds <= len(rdl)
                lists_checked += 1
    report(
        "criterion 5: rectangle lists bounded, equivalent, protocol-consistent",
        True,
        f"{lists_checked} list/cut combinations exhaustively compared",
    )


def test_criterion_6_rectangle_bounds():
    start = time.perf_counter()
    # classical inner product under the pair split, with an equality witness
    equality = 0
    for n in range(1, 5):
        g = Graph(range(1, 2 * n + 1), [(2 * i - 1, 2 * i) for i in range(1, n + 1)])
        part = ([2 * i - 1 for i in range(1, n + 1)], [2 * i for i in range(1, n + 1)])
        res = max_mono_rectangle(ip_truth_table(g, part))
        assert res.size <= 2**n, (n, res.size)
        if res.size == 2**n:
            equality += 1
    assert equality >= 1

    # parity of every mix of the four two-variable forms
    def form_value(form, x, y):
        return {
            "x&y": x & y,
            "x&~y": x & (1 - y),
            "~x&y": (1 - x) & y,
            "x|y": x | y,
        }[form]

    mixes = 0
    for n in range(1, 5):
        x1 = [2 * i - 1 for i in range(1, n + 1)]
        x2 = [2 * i for i in range(1, n + 1)]
        for mix in product(("x&y", "x&~y", "~x&y", "x|y"), repeat=n):

            def fn(a, mix=mix):
                acc = 0
                for i, form in enumerate(mix, start=1):
                    acc ^= form_value(form, a[2 * i - 1], a[2 * i])
                return acc

            tt = truth_table_from_function(fn, x1, x2)
            assert max_mono_rectangle(tt).size <= 2**n, (n, mix)
            mixes += 1

    # induced-matching bound on random graphs under balanced partitions
    rng = random.Random(616)
    graphs = 0
    while graphs < 50:
        nv = rng.randint(2, 10)
        verts = list(range(1, nv + 1))
        edges = [
            (u, w)
            for i, u in enumerate(verts)
            for w in verts[i + 1 :]
            if rng.random() < 0.4
        ]
        g = Graph(verts, edges)
        shuffled = verts[:]
        rng.shuffle(shuffled)
        half = nv // 2
        part = (sorted(shuffled[:half]), sorted(shuffled[half:]))
        if not part[0]:
            continue
        rep = check_rectanglesmall(g, part)
        assert rep["ok"], rep
        graphs += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 6: monochromatic rectangle bounds hold at desk scale",
        elapsed < 300.0,
        f"{equality} equality witnesses, {mixes} mixes, {graphs} graphs, {elapsed:.1f}s",
    )


def test_criterion_7_p_simulation():
    pairs = Pcnf(
        (("a", 1), ("e", 2)),
        ((1, 2), (1, -2), (-1, 2), (-1, -2)),
    )
    three_block = Pcnf(
        (("e", 1), ("a", 2), ("e", 3)),
        ((1, 2, -3), (-1, -2, -3), (3,)),
    )
    fixtures = [
        # universal-pivot resolution
        (pairs, "1 A 1 2 0\n2 A 1 -2 0\n3 A -1 2 0\n4 A -1 -2 0\n"
                "5 R 1 2 2\n6 R 3 4 2\n7 R 5 6 1\n"),
        # reduction to the empty clause
        (pairs, "1 A 1 2 0\n2 A 1 -2 0\n3 R 1 2 2\n4 U 3 1\n"),
        # resolution, reduction, and a final existential pivot
        (three_block, "1 A 1 2 -3 0\n2 A -1 -2 -3 0\n3 A 3 0\n"
                      "4 R 3 1 3\n5 U 4 2\n6 R 3 2 3\n7 U 6 -2\n8 R 5 7 1\n"),
    ]
    for f, text in fixtures:
        p = parse_qures(text)
        trace = simulate_qures(f, p)
        chk = check_trace(f, trace, require_refutation=True)
        assert chk.accepted and chk.refutation
        _, mgr, funcs = check_trace_reference(f, trace)
        total = sum(mgr.size(funcs[l.id]) for l in trace.lines)
        bound = 10 * len(p.lines) * (len(f.variables) + 2)
        assert total <= bound, (total, bound)
    report(
        "criterion 7: QU-resolution refutations translate within the node bound",
        True,
        f"{len(fixtures)} fixtures incl. universal pivot",
    )


def test_criterion_8_width_and_size_scaling():
    details = []
    for name in FAMILIES:
        widths = {}
        lines = {}
        for n in (6, 8, 16, 24, 32, 64):
            f, res = solve_family(name, n)
            assert res.value is False
            widths[n] = res.stats.max_width
            lines[n] = res.stats.line_count
        assert widths[6] == widths[24], (name, widths)
        assert widths[24] == PINNED_MAX_WIDTH[name], (name, widths)
        for n in (8, 16, 32):
            assert lines[2 * n] <= 3 * lines[n], (name, n, lines)
        details.append(f"{name}: width {widths[24]}, lines {lines[8]}->{lines[64]}")
    report(
        "criterion 8: widths saturate and trace growth stays linear",
        True,
        "; ".join(details),
    )


def test_criterion_9_engine_soundness():
    rng = random.Random(909)
    ops = sorted(OPS)
    failures = 0
    for _ in range(500):
        nv = rng.randint(1, 8)
        vs = list(range(1, nv + 1))
        m = Manager(VarOrder(vs))
        tf = random_table(rng, nv)
        tg = random_table(rng, nv)
        f = obdd_from_table(m, vs, tf)
        g = obdd_from_table(m, vs, tg)
        op = rng.choice(ops)
        code = OPS[op]
        want = tuple((code >> ((a << 1) | b)) & 1 for a, b in zip(tf, tg))
        if truth_table_of(m, m.apply(f, g, op), vs) != want:
            failures += 1
        if truth_table_of(m, m.negate(f), vs) != tuple(1 - b for b in tf):
            failures += 1
        var = rng.choice(vs)
        bit = rng.randint(0, 1)
        r = m.restrict(f, var, bit)
        if any(
            m.evaluate(r, a) != m.evaluate(f, {**a, var: bit})
            for a in assignments(vs)
        ):
            failures += 1
        ex, fa = m.exists(f, var), m.forall(f, var)
        for a in assignments(vs):
            v0 = m.evaluate(f, {**a, var: 0})
            v1 = m.evaluate(f, {**a, var: 1})
            if m.evaluate(ex, a) != (v0 | v1) or m.evaluate(fa, a) != (v0 & v1):
                failures += 1
                break
        co = m.complete(f)
        if co.size > (nv + 1) * m.size(f):
            failures += 1
        tables = cofactor_tables(m, f)
        for i, states in enumerate(co.layers + [co.sinks]):
            layer = [truth_table_of(m, s, vs[i:]) for s in states]
            if len(layer) != len(tables[i]) or set(layer) != tables[i]:
                failures += 1
                break
        m.audit()
    report(
        "criterion 9: engine operations match exhaustive oracles",
        failures == 0,
        f"500 random functions, {failures} failures",
    )
