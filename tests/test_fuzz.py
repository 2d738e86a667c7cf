"""Seeded fuzzing of the text readers, the command line and the exported
functions.

Every reader example is a one-token mutation of a valid file: a token
replaced, deleted or inserted, or a line dropped or doubled.  The readers
must turn any such text into a result or their own typed error, and
``cli.main`` must turn it into an exit code; nothing else may escape.
Hypothesis runs derandomized, so the examples are the same on every run.
Every callable the package exports, and every public ``Manager`` method,
is also called with right-typed but invalid values, and may raise only
errors of the library.
"""

import inspect

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qobdd
from qobdd import (
    DecisionList,
    DecisionListFamily,
    Graph,
    PathDecomposition,
    QobddError,
    and_protocol_run,
    check_rectanglesmall,
    default_order,
    eqprime_decomposition,
    gen_ipg_qbf,
    gen_quparity,
    induced_matching,
    ip_truth_table,
    max_mono_rectangle,
    order_from_decomposition,
    parse_qdimacs,
    parse_qures,
    path_decomposition,
    prefix_order,
    primal_graph,
    quparity_decomposition,
    random_dregular,
    simulate_qures,
    strategy_range_size,
    to_rectangle_list,
    verify_winning,
)
from qobdd import cli, obdd
from qobdd.families import gen_eqprime
from qobdd.graphs import parse_edge_list
from qobdd.obdd import BlockFormatError, Manager, OrderError, VarOrder
from qobdd.pcnf import EXISTS, FORALL, Pcnf, clause, emit_qdimacs
from qobdd.proof import (
    MALFORMED_BLOCK,
    Axiom,
    Conj,
    Entail,
    ProofLine,
    ProofTrace,
    Proj,
    TraceError,
    TraceParseError,
    URed,
    check_trace,
    emit_trace,
    formula_hash,
    parse_trace,
)
from qobdd.qures import QAxiom, QReduce, QResolve, QuResError, QuResLine, QuResProof
from qobdd.solver import solve
from qobdd.strategy import StrategyError, emit_strategy, extract, parse_strategy

from .helpers import (
    deserialize_reference,
    emit_edge_list,
    emit_qures,
    family_nodes,
    obdd_from_table,
    outcome,
    parse_strategy_reference,
    truth_table_of,
)

TOKENS = ("0", "1", "-1", "2", "7", "x", "c", "-", "+1", "²",
          "obdd", "entry", "u", "T0", "T1", "E", "U")
EDITS = ("replace", "delete", "insert", "drop-line", "copy-line")

FUZZ = settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def mutants(draw, text):
    lines = text.splitlines()
    spots = [(i, j) for i, ln in enumerate(lines) for j in range(len(ln.split()))]
    i, j = draw(st.sampled_from(spots))
    edit = draw(st.sampled_from(EDITS))
    token = draw(st.sampled_from(TOKENS))
    parts = lines[i].split()
    if edit == "replace":
        parts[j] = token
    elif edit == "delete":
        del parts[j]
    elif edit == "insert":
        parts.insert(j, token)
    if edit == "drop-line":
        del lines[i]
    elif edit == "copy-line":
        lines.insert(i, lines[i])
    else:
        lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


def _pipeline(n):
    f = gen_eqprime(n)
    res = solve(f)
    return f, emit_trace(res.trace), emit_strategy(extract(f, res.trace))


F4, TRACE4, STRATEGY4 = _pipeline(4)
ORDER = VarOrder([1, 2, 3])
_mgr = Manager(ORDER)
BLOCK = obdd.serialize(_mgr, _mgr.clause([1, -2, 3]))


def _entailment_trace():
    """(x1) and (~x1) refuted by one entailment of the constant 0."""
    f = Pcnf(((EXISTS, 1),), (clause([1]), clause([-1])))
    mgr = Manager(VarOrder([1]))
    lines = (
        ProofLine(1, Axiom(1)),
        ProofLine(2, Axiom(2)),
        ProofLine(3, Entail((1, 2), obdd.serialize(mgr, mgr.ZERO))),
    )
    return f, emit_trace(ProofTrace(formula_hash(f), VarOrder([1]), lines))


F1, ENTAIL_TRACE = _entailment_trace()


# -- readers -----------------------------------------------------------------


@FUZZ
@given(mutants(TRACE4))
def test_trace_mutants_raise_only_trace_errors(text):
    try:
        parse_trace(text)
    except TraceParseError:
        pass


@FUZZ
@given(mutants(ENTAIL_TRACE))
def test_entailment_trace_mutants_parse_or_reject(text):
    try:
        trace = parse_trace(text)
    except TraceParseError:
        return
    check_trace(F1, trace)  # returns a verdict, never raises


def _read_strategy(read, text):
    return family_nodes(read(text, F4))


def _read_block(read, text):
    mgr = Manager(ORDER)
    return read(text, mgr), mgr._nodes


# the block and strategy readers must also end as the per-row reference
# readers of tests/helpers.py do: the same store node for node, or an
# error of the same type with the same message


@FUZZ
@given(mutants(STRATEGY4))
def test_strategy_mutants_raise_only_strategy_errors(text):
    got = outcome(_read_strategy, parse_strategy, text)
    assert got[0] == "ok" or issubclass(got[0], StrategyError), got
    assert got == outcome(_read_strategy, parse_strategy_reference, text)


@FUZZ
@given(mutants(BLOCK))
def test_block_mutants_raise_only_block_or_order_errors(text):
    got = outcome(_read_block, obdd.deserialize, text)
    assert got[0] == "ok" or issubclass(got[0], (BlockFormatError, OrderError)), got
    assert got == outcome(_read_block, deserialize_reference, text)


# -- round trips -------------------------------------------------------------
#
# Every value the library takes as a trace or a strategy either is refused
# with the library's typed error, when built or when written, or is written
# as text whose reader gives it back: an equal trace, or a strategy that is
# written as the same text again.  Each field the writers print draws bools,
# 0, 2 and negative ids beside plain values, and a trace field also a float,
# which ``%d`` would write truncated.  An E line's block is also drawn as
# text that is not a block, as a block with a trailing newline, which the
# reader drops, and as an int.

ODD = st.sampled_from((True, False, 0, 2, -1, -5))
VALUES = st.one_of(st.integers(1, 9), ODD, st.just(2.5))
RULES = st.one_of(
    st.builds(Axiom, VALUES),
    st.builds(Conj, VALUES, VALUES),
    st.builds(Proj, VALUES, VALUES),
    st.builds(URed, VALUES, st.one_of(st.sampled_from((0, 1)), ODD), VALUES),
    st.builds(
        Entail,
        st.lists(VALUES, max_size=3).map(tuple),
        st.sampled_from(
            (BLOCK, obdd.serialize(_mgr, _mgr.ZERO), "foo", "obdd 1\n0 T0 - -\n", 0)
        ),
    ),
)


@FUZZ
@given(
    st.one_of(st.just(formula_hash(F4)), st.sampled_from(("0", 0, True, "", "a b"))),
    st.one_of(st.just(ORDER.vars), st.lists(VALUES, max_size=3)),
    st.lists(st.tuples(VALUES, RULES), max_size=6),
)
def test_traces_round_trip_through_their_text_or_are_refused(digest, order, lines):
    try:
        trace = ProofTrace(digest, VarOrder(order), tuple(ProofLine(*ln) for ln in lines))
        text = emit_trace(trace)
    except QobddError:
        return
    assert parse_trace(text) == trace


# A QU-resolution proof draws, in every field, bools, 0, negative ids and
# ids of 2**31 and above beside plain ids.  An axiom's clause is drawn as
# any tuple of them, so out of order, repeated or tautological too, or as
# one in canonical order, whose only fault can be a bool or a 0.
# The empty proof is left to its own case: ``simulate_qures`` takes it,
# to refuse it for not deriving the empty clause, and its text, no lines,
# is refused by the reader.

QIDS = st.one_of(
    st.integers(1, 9), st.sampled_from((True, False, 0, -1, -7)), st.integers(2**31, 2**40)
)
QRULES = st.one_of(
    st.tuples(
        st.just(QAxiom),
        st.one_of(
            st.lists(QIDS, max_size=4).map(tuple),
            st.lists(QIDS, max_size=4, unique_by=abs).map(lambda c: tuple(sorted(c, key=abs))),
        ),
    ),
    st.tuples(st.just(QResolve), QIDS, QIDS, QIDS),
    st.tuples(st.just(QReduce), QIDS, QIDS),
)


@FUZZ
@given(st.lists(st.tuples(QIDS, QRULES), min_size=1, max_size=5))
def test_qures_proofs_round_trip_through_their_text_or_are_refused(lines):
    try:
        proof = QuResProof(tuple(QuResLine(lid, rule(*fields)) for lid, (rule, *fields) in lines))
    except QuResError:
        return
    assert parse_qures(emit_qures(proof)) == proof


def test_the_empty_qures_proof_is_refused_as_text():
    with pytest.raises(QuResError, match="^empty proof$"):
        parse_qures(emit_qures(QuResProof(())))


F2 = gen_eqprime(2)
FAMILY2 = extract(F2, solve(F2).trace)
M2 = FAMILY2.manager
# every (universal, entry, field) of the family: a field 0 is a line ref,
# which may also become another of its lines, and a field 1 a value
SPOTS = [(u, i, k) for u, dl in FAMILY2.lists.items() for i in range(len(dl)) for k in (0, 1)]
LINES2 = sorted({line for dl in FAMILY2.lists.values() for line, _ in dl.lines})


@FUZZ
@given(
    st.lists(
        st.tuples(st.sampled_from(SPOTS), st.one_of(ODD, st.sampled_from(LINES2 + [1, len(M2)]))),
        min_size=1,
        max_size=2,
    )
)
def test_strategies_round_trip_through_their_text_or_are_refused(edits):
    entries = {u: [list(entry) for entry in dl.lines] for u, dl in FAMILY2.lists.items()}
    for (u, i, k), value in edits:
        entries[u][i][k] = value
    try:
        lists = {u: DecisionList(M2, [tuple(e) for e in es]) for u, es in entries.items()}
        text = emit_strategy(DecisionListFamily(F2, M2, lists))
    except QobddError:
        return
    assert emit_strategy(parse_strategy(text, F2)) == text


def test_bool_fields_are_written_as_digits_and_other_values_refused():
    # a reduction to False and a conjunction of line True read back equal;
    # a reduction to 2, or an entry value that is a bool or 2, is refused
    trace = solve(F2).trace
    at = next(i for i, ln in enumerate(trace.lines) if isinstance(ln.rule, URed))
    lid, rule = trace.lines[at].id, trace.lines[at].rule

    def with_rule(new):
        lines = trace.lines[:at] + (ProofLine(lid, new),) + trace.lines[at + 1 :]
        return ProofTrace(trace.formula_hash, trace.order, lines)

    for new in (URed(rule.var, bool(rule.value), rule.premise), Conj(True, 2)):
        text = emit_trace(with_rule(new))
        assert f"\n{lid} {'U' if new.__class__ is URed else 'C'} " in text
        assert "True" not in text and "False" not in text
        assert parse_trace(text) == with_rule(new)
    with pytest.raises(TraceError, match=f"line {lid}: reduction to 2, not to 0 or 1"):
        emit_trace(with_rule(URed(rule.var, 2, rule.premise)))
    for new in (Conj("1", 2), Conj(2.5, 1), Entail((1.5,), BLOCK)):
        with pytest.raises(TraceError, match=f"line {lid}: .* has a field that is not an int"):
            emit_trace(with_rule(new))
    # a block that is not one block as the reader frames it would read back
    # other than written, or not at all
    for block in ("foo", BLOCK + "\n", "\n" + BLOCK, "c note\n" + BLOCK, BLOCK + "\nobdd 1", 0):
        with pytest.raises(TraceError, match=f"line {lid}: block .* would not read back"):
            emit_trace(with_rule(Entail((1,), block)))
    # premises read back as a tuple, which a list is not equal to
    with pytest.raises(TraceError, match=rf"line {lid}: premises \[1\] are not a tuple"):
        emit_trace(with_rule(Entail([1], BLOCK)))
    # the checker takes a reduction to a bool as one to its digit, as does extract
    checked = extract(F2, with_rule(URed(rule.var, bool(rule.value), rule.premise)))
    assert emit_strategy(checked) == emit_strategy(FAMILY2)
    for value in (True, False, 2, -1, 1.0):
        with pytest.raises(StrategyError, match=f"entry value {value!r} is not the int 0 or 1"):
            DecisionList(M2, [(M2.ZERO, value)])


@st.composite
def diagrams(draw):
    """An order of 1 to 6 variables and a truth table over it, the constant
    tables drawn as often as any other."""
    nv = draw(st.integers(1, 6))
    order = draw(st.permutations(range(1, nv + 1)))
    full = (1 << (1 << nv)) - 1
    bits = draw(st.one_of(st.sampled_from((0, full)), st.integers(0, full)))
    return order, tuple((bits >> i) & 1 for i in range(1 << nv))


@FUZZ
@given(diagrams())
def test_diagrams_round_trip_through_their_blocks(drawn):
    # a block read into a fresh manager is the diagram it was written from,
    # or with ``negated`` its complement, and is written as the same text
    order, table = drawn
    m = Manager(VarOrder(order))
    f = obdd_from_table(m, order, table)
    for negated in (False, True):
        text = obdd.serialize(m, f, negated)
        fresh = Manager(VarOrder(order))
        g = obdd.deserialize(text, fresh)
        want = tuple(bit ^ negated for bit in table)
        assert truth_table_of(fresh, g, order) == want
        assert obdd.serialize(fresh, g) == text


@st.composite
def formulas(draw):
    """A valid ``Pcnf`` over up to 6 drawn ids, 2**31 and above among them,
    each quantified in a drawn prefix; each clause takes every prefix
    variable in either sign or not at all, so the empty clause comes up,
    as do the empty prefix and the empty matrix."""
    big = st.integers(2**31, 2**40)
    ids = draw(st.lists(st.one_of(st.integers(1, 9), big), unique=True, max_size=6))
    prefix = tuple((draw(st.sampled_from((EXISTS, FORALL))), v) for v in ids)
    signs = st.lists(st.sampled_from((0, 1, -1)), min_size=len(ids), max_size=len(ids))
    clauses = tuple(
        tuple(sorted((s * v for s, v in zip(draw(signs), ids) if s), key=abs))
        for _ in range(draw(st.integers(0, 5)))
    )
    return Pcnf(prefix, clauses)


@FUZZ
@given(formulas())
def test_formulas_round_trip_through_their_qdimacs(f):
    assert parse_qdimacs(emit_qdimacs(f)) == f


@FUZZ
@given(
    st.lists(st.integers(-3, 9), unique=True, max_size=7).flatmap(
        lambda vs: st.tuples(
            st.just(vs),
            st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)), max_size=9)
            if vs
            else st.just([]),
        )
    )
)
def test_graphs_round_trip_through_their_edge_lists(drawn):
    # vertex ids 0 and below included, and vertices with no edge
    vertices, edges = drawn
    g = Graph(vertices, [(u, w) for u, w in edges if u != w])
    assert parse_edge_list(emit_edge_list(g)) == g


# -- regressions -------------------------------------------------------------


def test_malformed_entailment_block_is_reported_by_the_checker():
    broken = ENTAIL_TRACE.replace("0 T0 - -", "0 T0 1 -")
    trace = parse_trace(broken)  # the trace reader only frames the block
    verdict = check_trace(F1, trace).verdict
    assert not verdict.accepted
    assert (verdict.line, verdict.reason) == (3, MALFORMED_BLOCK)


def _comment_inside_blocks(text):
    return text.replace("\nobdd ", "\nc a comment before the header\nobdd ").replace(
        "\n0 T", "\n\nc a comment inside the block\n0 T"
    )


def test_comments_inside_blocks_are_accepted_in_all_formats():
    commented = _comment_inside_blocks(ENTAIL_TRACE)
    assert commented.count("c a comment inside") == 1
    assert parse_trace(commented) == parse_trace(ENTAIL_TRACE)
    assert check_trace(F1, parse_trace(commented), require_refutation=True).refutation

    commented = _comment_inside_blocks(STRATEGY4)
    assert commented.count("c a comment inside") == STRATEGY4.count("\n0 T")
    assert emit_strategy(parse_strategy(commented, F4)) == emit_strategy(
        parse_strategy(STRATEGY4, F4)
    )

    mgr = Manager(ORDER)
    assert obdd.deserialize(_comment_inside_blocks("\n" + BLOCK), mgr) == (
        obdd.deserialize(BLOCK, mgr)
    )


# -- command line ------------------------------------------------------------


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    f, trace, strat = _pipeline(2)
    texts = {
        "formula": emit_qdimacs(f),
        "trace": trace,
        "strategy": strat,
        "edges": "1 2\n3 4\n5 6\n",
        "partition": "1 3 5\n2 4 6\n",
        # a two-variable QU-resolution refutation and its formula
        "pairs": "p cnf 2 4\na 1 0\ne 2 0\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n",
        "qures": "1 A 1 2 0\n2 A 1 -2 0\n3 R 1 2 2\n4 U 3 1\n",
    }
    for name, text in texts.items():
        (root / name).write_text(text)
    return root, texts


CLI_CASES = {
    "verify": ("strategy", ["verify", "{formula}", "{input}"]),
    "verify-formula": ("formula", ["verify", "{input}", "{strategy}"]),
    "check": ("trace", ["check", "{formula}", "{input}"]),
    "extract": ("trace", ["extract", "{formula}", "{input}", "-o", "{out}"]),
    "gen-ipg": ("edges", ["gen", "ipg", "{input}", "-o", "{out}"]),
    "rect-analyze": ("edges", ["rect", "analyze", "--graph", "{input}",
                               "--partition", "pairs", "--report", "{out}"]),
    "rect-partition": ("partition", ["rect", "analyze", "--graph", "{edges}",
                                     "--partition", "{input}", "--report", "{out}"]),
    "solve": ("formula", ["solve", "{input}", "--proof", "{out}"]),
    "translate": ("qures", ["translate", "{pairs}", "{input}", "-o", "{out}"]),
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_mutated_inputs_end_in_an_exit_code(case, files):
    root, texts = files
    target, argv = CLI_CASES[case]
    paths = {name: str(root / name) for name in texts}
    paths.update(input=str(root / f"{case}.in"), out=str(root / f"{case}.out"))
    argv = [arg.format(**paths) for arg in argv]

    @settings(FUZZ, max_examples=50)
    @given(mutants(texts[target]))
    def run(text):
        (root / f"{case}.in").write_text(text)
        assert cli.main(argv) in range(5)

    run()



# -- exported functions ------------------------------------------------------
#
# Each exported callable and each public ``Manager`` method is called with
# arguments of the right types but invalid values: variables outside the
# order or the prefix, references outside the store, partitions that do
# not split the vertex set, assignments that miss a vertex, counts out of
# range.  Each case states what the call must do: raise an error of the
# library (``raises``), or return, as a checker's verdict or a formula's
# text does (``returns``).  No call may raise anything else.

# exported records whose constructors check nothing; the functions that
# read them are called with invalid ones
RECORDS = {"ProofTrace", "QuResProof", "SolveResult"}


def raises(call):
    return True, call


def returns(call):
    return False, call


def _api_cases():
    f = gen_eqprime(2)
    trace = solve(f).trace
    family = extract(f, trace)
    u = f.universals[0]
    dl = family.lists[u]
    m = family.manager
    n = len(m)  # the first reference outside the store
    x = m.order.vars[0]
    line = dl.lines[0][0]
    g = Graph(range(1, 7), [(1, 2), (3, 4), (5, 6), (1, 3)])
    split = ([1, 3, 5], [2, 4, 6])
    rdl = to_rectangle_list(dl, 1)

    def unquantified():
        # refused when built, so every case that reads it raises
        return Pcnf(((EXISTS, 1),), (clause([1, 2]),))

    empty = Pcnf((), ())  # no variable, no clause: valid, and read as such

    def twice():
        # refused when built, so every case that reads it raises
        return Pcnf(((EXISTS, 1), (FORALL, 1)), (clause([1]),))

    true_trace = solve(Pcnf(((EXISTS, 1),), (clause([1]),))).trace
    dangling = ProofLine(len(trace.lines) + 1, Conj(n, n))
    bad_trace = ProofTrace(trace.formula_hash, trace.order, trace.lines + (dangling,))
    # one guard reading 21 existentials, past what the range count enumerates
    wide = Pcnf(tuple((EXISTS, v) for v in range(1, 22)) + ((FORALL, 22),), ())
    wm = Manager(prefix_order(wide))
    wide_list = DecisionList(wm, [(wm.clause(range(1, 22)), 1), (wm.ZERO, 0)])
    wide_family = DecisionListFamily(wide, wm, {22: wide_list})
    return {
        "DecisionList": [
            raises(lambda: DecisionList(m, [])),
            raises(lambda: DecisionList(m, [(n, 1)])),
            raises(lambda: DecisionList(m, [(n, 1), (m.ZERO, 0)]).evaluate({})),
            raises(lambda: DecisionList(m, [(line, 1), (m.ZERO, 0)]).evaluate({})),
        ],
        "DecisionListFamily": [
            raises(lambda: DecisionListFamily(f, m, {})),
            raises(lambda: DecisionListFamily(f, m, {**family.lists, 99: dl})),
            raises(lambda: DecisionListFamily(f, m, {u: DecisionList(m, [(n, 1), (m.ZERO, 0)])})),
            raises(lambda: DecisionListFamily(f, m, {v: dl for v in f.variables})),
        ],
        "Graph": [
            raises(lambda: Graph([1, 2], [(1, 3)])),
            raises(lambda: Graph([1, 2], [(2, 2)])),
            raises(lambda: Graph([], [(1, 2)])),
        ],
        "Manager": [
            raises(lambda: Manager(VarOrder([1, 1]))),
            raises(lambda: Manager(VarOrder([1]), node_budget=-1).clause([1])),
        ],
        "Manager.apply": [
            raises(lambda: m.apply(m.ZERO, n, "and")),
            raises(lambda: m.apply(-1, m.ONE, "or")),
            raises(lambda: m.apply(m.ZERO, m.ONE, "nand!")),
            raises(lambda: m.apply(m.ZERO, m.ONE, 16)),
        ],
        "Manager.and_exists": [
            raises(lambda: m.and_exists(m.ONE, n, x)),
            raises(lambda: m.and_exists(m.ONE, m.ONE, 99)),
        ],
        "Manager.audit": [returns(lambda: m.audit())],
        "Manager.clause": [
            raises(lambda: m.clause([99])),
            raises(lambda: m.clause([0])),
            raises(lambda: Manager(VarOrder([])).clause([1])),
            raises(lambda: m.clause([True])),
            raises(lambda: m.clause([float(x), -x])),
            raises(lambda: m.clause([str(x)])),
        ],
        "Manager.complete": [
            raises(lambda: m.complete(n)),
            raises(lambda: m.complete(line, len(m.order) + 1)),
            raises(lambda: m.complete(line, -1)),
            raises(lambda: m.complete(line).covers(len(m.order) + 1, m.ZERO)),
            raises(lambda: m.complete(line, 1).covers(2, m.ZERO)),
        ],
        "Manager.conj_exists": [
            raises(lambda: m.conj_exists(m.ONE, n, x)),
            raises(lambda: m.conj_exists(-1, m.ONE, x)),
            raises(lambda: m.conj_exists(m.ONE, m.ONE, 99)),
        ],
        "Manager.const": [returns(lambda: m.const(2))],
        "Manager.evaluate": [
            raises(lambda: m.evaluate(line, {})),
            raises(lambda: m.evaluate(n, {})),
        ],
        "Manager.evaluate_bits": [
            raises(lambda: m.evaluate_bits(line, {}, {})),
            raises(lambda: m.evaluate_bits(line, {}, {m.ZERO: 0, m.ONE: 1})),
            raises(lambda: m.evaluate_bits(n, {}, {m.ZERO: 0, m.ONE: 1})),
        ],
        "Manager.exists": [
            raises(lambda: m.exists(m.ONE, 99)),
            raises(lambda: m.exists(n, x)),
        ],
        "Manager.forall": [
            raises(lambda: m.forall(m.ONE, 99)),
            raises(lambda: m.forall(n, x)),
        ],
        "Manager.forall_split": [
            raises(lambda: m.forall_split(m.ONE, 99)),
            raises(lambda: m.forall_split(n, x)),
        ],
        "Manager.negate": [raises(lambda: m.negate(n)), raises(lambda: m.negate(-1))],
        "Manager.node": [
            raises(lambda: m.node(x, m.ZERO, n)),
            raises(lambda: m.node(x, m.ZERO, -1)),
            raises(lambda: m.node(99, m.ZERO, m.ONE)),
            raises(lambda: m.node(m.order.vars[-1], line, m.ONE)),
            raises(lambda: m.node(True, m.ZERO, m.ONE)),
            raises(lambda: m.node(float(x), m.ZERO, m.ONE)),
        ],
        "Manager.restrict": [
            raises(lambda: m.restrict(m.ONE, 99, 0)),
            raises(lambda: m.restrict(m.ONE, x, 2)),
            raises(lambda: m.restrict(n, x, 0)),
            raises(lambda: m.restrict(line, True, 0)),
            raises(lambda: m.restrict(line, float(x), 1)),
        ],
        "Manager.shape": [
            raises(lambda: m.shape(n)),
            raises(lambda: m.shape(line, [])),
            raises(lambda: m.shape(line, [0])),
            raises(lambda: m.shape(m.ONE, [0])),
        ],
        "Manager.size": [raises(lambda: m.size(n))],
        "Manager.support": [raises(lambda: m.support(m.ONE, n))],
        "PathDecomposition": [
            raises(lambda: PathDecomposition((frozenset({1}),)).validate(g)),
            raises(lambda: PathDecomposition(tuple(map(frozenset, ({1}, {2}, {1})))).validate(g)),
        ],
        "Pcnf": [
            raises(twice),
            raises(unquantified),
            raises(lambda: Pcnf((("x", 1),), ())),
            raises(lambda: Pcnf(((EXISTS, 0),), ())),
            raises(lambda: f.prefix_position(99)),
        ],
        "QobddError": [returns(lambda: QobddError("message"))],
        "VarOrder": [
            raises(lambda: VarOrder([2, 1, 2])),
            raises(lambda: VarOrder([1]).rank(2)),
            raises(lambda: VarOrder([True, 2])),
            raises(lambda: VarOrder([2.0, 1])),
        ],
        "and_protocol_run": [
            raises(lambda: and_protocol_run(rdl, {}, {})),
            raises(lambda: and_protocol_run(rdl, {x: 0}, {})),
        ],
        "check_rectanglesmall": [
            raises(lambda: check_rectanglesmall(g, ([1, 3, 5], [2, 4]))),
            raises(lambda: check_rectanglesmall(g, ([1, 3, 5], [2, 4, 6, 9]))),
            raises(lambda: check_rectanglesmall(g, ([1, 2, 3], [1, 2, 3]))),
            raises(lambda: check_rectanglesmall(g, split, budget=0)),
            raises(lambda: check_rectanglesmall(Graph([]), ([], []))),
        ],
        "check_trace": [
            returns(lambda: check_trace(f, bad_trace)),
            returns(
                lambda: check_trace(f, ProofTrace(trace.formula_hash, VarOrder([x]), trace.lines))
            ),
            raises(lambda: check_trace(unquantified(), trace)),
            raises(lambda: check_trace(f, trace, node_budget=0)),
            returns(lambda: check_trace(f, true_trace, require_refutation=True)),
        ],
        "clause": [raises(lambda: clause([0])), raises(lambda: clause([1, -1]))],
        "default_order": [
            raises(lambda: default_order(unquantified())),
            returns(lambda: default_order(empty)),
            raises(lambda: default_order(twice())),
        ],
        "emit_qdimacs": [
            raises(lambda: emit_qdimacs(unquantified())),
            returns(lambda: emit_qdimacs(empty)),
            raises(lambda: emit_qdimacs(twice())),
        ],
        "emit_trace": [returns(lambda: emit_trace(bad_trace))],
        "eqprime_decomposition": [
            raises(lambda: eqprime_decomposition(1)),
            raises(lambda: eqprime_decomposition(-2)),
        ],
        "extract": [
            raises(lambda: extract(f, bad_trace)),
            raises(lambda: extract(f, true_trace)),
            raises(lambda: extract(unquantified(), trace)),
        ],
        "formula_hash": [
            raises(lambda: formula_hash(unquantified())),
            returns(lambda: formula_hash(empty)),
        ],
        "gen_eqprime": [raises(lambda: gen_eqprime(1)), raises(lambda: gen_eqprime(-1))],
        "gen_ipg_qbf": [
            raises(lambda: gen_ipg_qbf(Graph([2, 3], [(2, 3)]))),
            returns(lambda: gen_ipg_qbf(Graph([]))),
        ],
        "gen_quparity": [raises(lambda: gen_quparity(1)), raises(lambda: gen_quparity(0))],
        "induced_matching": [
            returns(lambda: induced_matching(g, ([1, 99], [2]))),
            returns(lambda: induced_matching(g, ([1, 2], [1, 2]))),
        ],
        "ip_truth_table": [
            raises(lambda: ip_truth_table(g, ([1, 3, 5], [2, 4]))),
            raises(lambda: ip_truth_table(g, ([1, 3, 5, 7], [2, 4, 6]))),
            raises(lambda: ip_truth_table(g, ([1, 1, 3, 5], [2, 4, 6]))),
        ],
        "max_mono_rectangle": [
            raises(lambda: max_mono_rectangle(ip_truth_table(g, split), budget=0)),
            raises(lambda: max_mono_rectangle(ip_truth_table(g, split), budget=-1)),
        ],
        "order_from_decomposition": [
            returns(lambda: order_from_decomposition(PathDecomposition(()))),
        ],
        "parse_qdimacs": [
            raises(lambda: parse_qdimacs("p cnf 1 1\na 2 0\n1 0\n")),
            raises(lambda: parse_qdimacs("")),
        ],
        "parse_qures": [
            returns(lambda: parse_qures("1 R 2 3 1\n")),
            raises(lambda: parse_qures("")),
        ],
        "parse_trace": [
            raises(lambda: parse_trace("")),
            raises(lambda: parse_trace(emit_trace(trace)[:-20])),
        ],
        "path_decomposition": [returns(lambda: path_decomposition(Graph([])))],
        "prefix_order": [raises(lambda: prefix_order(twice()))],
        "primal_graph": [
            raises(lambda: primal_graph(unquantified())),
            returns(lambda: primal_graph(empty)),
            raises(lambda: primal_graph(twice())),
        ],
        "quparity_decomposition": [raises(lambda: quparity_decomposition(1))],
        "random_dregular": [
            raises(lambda: random_dregular(0, 3)),
            raises(lambda: random_dregular(5, 3)),
            raises(lambda: random_dregular(3, 3)),
            raises(lambda: random_dregular(4, -1)),
        ],
        "simulate_qures": [
            raises(lambda: simulate_qures(f, QuResProof(()))),
            raises(lambda: simulate_qures(f, QuResProof((QuResLine(1, QResolve(2, 3, 1)),)))),
            raises(lambda: simulate_qures(f, QuResProof((QuResLine(1, QAxiom((99,))),)))),
            raises(lambda: simulate_qures(f, QuResProof((QuResLine(1, QReduce(1, 99)),)))),
            raises(
                lambda: simulate_qures(unquantified(), QuResProof((QuResLine(1, QAxiom((1, 2))),)))
            ),
        ],
        "solve": [
            raises(lambda: solve(f, order=VarOrder([x]))),
            raises(lambda: solve(unquantified())),
            raises(lambda: solve(twice())),
            raises(lambda: solve(f, node_budget=0)),
        ],
        "strategy_range_size": [raises(lambda: strategy_range_size(wide_family))],
        "to_rectangle_list": [
            raises(lambda: to_rectangle_list(dl, -1)),
            raises(lambda: to_rectangle_list(dl, 99)),
        ],
        "verify_winning": [
            raises(lambda: verify_winning(f, family, samples=0)),
            raises(lambda: verify_winning(gen_eqprime(3), family)),
            raises(lambda: verify_winning(unquantified(), family)),
        ],
    }


API_CASES = _api_cases()


def test_every_exported_callable_and_manager_method_is_fuzzed():
    exported = {
        name
        for name, obj in vars(qobdd).items()
        if not name.startswith("_") and callable(obj) and not inspect.ismodule(obj)
    }
    methods = {
        f"Manager.{name}"
        for name, obj in vars(Manager).items()
        if not name.startswith("_") and inspect.isfunction(obj)
    }
    assert exported - RECORDS | methods == set(API_CASES)


@pytest.mark.parametrize("name", sorted(API_CASES))
def test_exported_callables_raise_only_library_errors(name):
    for must_raise, call in API_CASES[name]:
        if must_raise:
            with pytest.raises(QobddError):
                call()
        else:
            call()
