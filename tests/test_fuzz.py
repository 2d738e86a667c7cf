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
from qobdd.obdd import BlockFormatError, Manager, OrderError, VarOrder
from qobdd.pcnf import EXISTS, FORALL, Pcnf, clause, emit_qdimacs
from qobdd.proof import (
    MALFORMED_BLOCK,
    Axiom,
    Conj,
    Entail,
    ProofLine,
    ProofTrace,
    TraceParseError,
    check_trace,
    emit_trace,
    formula_hash,
    parse_trace,
)
from qobdd.qures import QAxiom, QReduce, QResolve, QuResLine, QuResProof
from qobdd.solver import solve
from qobdd.strategy import StrategyError, emit_strategy, extract, parse_strategy

from .helpers import deserialize_reference, family_nodes, outcome, parse_strategy_reference

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
    return read(text, mgr), mgr._rank, mgr._lo, mgr._hi


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
    unquantified = Pcnf(((EXISTS, 1),), (clause([1, 2]),))

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
            raises(lambda: unquantified.audit()),
            raises(lambda: Pcnf((("x", 1),), ())),
            raises(lambda: Pcnf(((EXISTS, 0),), ()).audit()),
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
            returns(lambda: check_trace(unquantified, trace)),
            raises(lambda: check_trace(f, trace, node_budget=0)),
            returns(lambda: check_trace(f, true_trace, require_refutation=True)),
        ],
        "clause": [raises(lambda: clause([0])), raises(lambda: clause([1, -1]))],
        "default_order": [
            returns(lambda: default_order(unquantified)),
            raises(lambda: default_order(twice())),
        ],
        "emit_qdimacs": [
            returns(lambda: emit_qdimacs(unquantified)),
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
            raises(lambda: extract(unquantified, trace)),
        ],
        "formula_hash": [returns(lambda: formula_hash(unquantified))],
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
            returns(lambda: primal_graph(unquantified)),
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
                lambda: simulate_qures(unquantified, QuResProof((QuResLine(1, QAxiom((1, 2))),)))
            ),
        ],
        "solve": [
            raises(lambda: solve(f, order=VarOrder([x]))),
            raises(lambda: solve(unquantified)),
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
            raises(lambda: verify_winning(unquantified, family)),
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
