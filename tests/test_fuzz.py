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
    eval_ipg,
    gen_ipg_qbf,
    gen_quparity,
    gi_decomposition,
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
    tower,
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


@FUZZ
@given(mutants(STRATEGY4))
def test_strategy_mutants_raise_only_strategy_errors(text):
    try:
        parse_strategy(text, F4)
    except StrategyError:
        pass


@FUZZ
@given(mutants(BLOCK))
def test_block_mutants_raise_only_block_or_order_errors(text):
    try:
        obdd.deserialize(text, Manager(ORDER))
    except (BlockFormatError, OrderError):
        pass


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
# range.  A call may return, or raise an error of the library.

# exported records whose constructors check nothing; the functions that
# read them are called with invalid ones
RECORDS = {"ProofTrace", "QuResProof", "SolveResult"}


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
    twice = Pcnf(((EXISTS, 1), (FORALL, 1)), (clause([1]),))
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
            lambda: DecisionList(m, []),
            lambda: DecisionList(m, [(n, 1)]),
            lambda: DecisionList(m, [(n, 1), (m.ZERO, 0)]).evaluate({}),
            lambda: DecisionList(m, [(line, 1), (m.ZERO, 0)]).evaluate({}),
        ],
        "DecisionListFamily": [
            lambda: DecisionListFamily(f, m, {}),
            lambda: DecisionListFamily(f, m, {**family.lists, 99: dl}),
            lambda: DecisionListFamily(f, m, {u: DecisionList(m, [(n, 1), (m.ZERO, 0)])}),
            lambda: DecisionListFamily(f, m, {v: dl for v in f.variables}),
        ],
        "Graph": [
            lambda: Graph([1, 2], [(1, 3)]),
            lambda: Graph([1, 2], [(2, 2)]),
            lambda: Graph([], [(1, 2)]),
        ],
        "Manager": [
            lambda: Manager(VarOrder([1, 1])),
            lambda: Manager(VarOrder([1]), node_budget=-1).literal(1),
        ],
        "Manager.apply": [
            lambda: m.apply(m.ZERO, n, "and"),
            lambda: m.apply(-1, m.ONE, "or"),
            lambda: m.apply(m.ZERO, m.ONE, "nand!"),
            lambda: m.apply(m.ZERO, m.ONE, 16),
        ],
        "Manager.and_exists": [
            lambda: m.and_exists(m.ONE, n, x),
            lambda: m.and_exists(m.ONE, m.ONE, 99),
        ],
        "Manager.audit": [lambda: m.audit()],
        "Manager.clause": [
            lambda: m.clause([99]),
            lambda: m.clause([0]),
            lambda: Manager(VarOrder([])).clause([1]),
        ],
        "Manager.complete": [
            lambda: m.complete(n),
            lambda: m.complete(line, len(m.order) + 1),
            lambda: m.complete(line, -1),
            lambda: m.complete(line).covers(len(m.order) + 1, m.ZERO),
            lambda: m.complete(line, 1).covers(2, m.ZERO),
        ],
        "Manager.conj_exists": [
            lambda: m.conj_exists(m.ONE, n, x),
            lambda: m.conj_exists(-1, m.ONE, x),
            lambda: m.conj_exists(m.ONE, m.ONE, 99),
        ],
        "Manager.const": [lambda: m.const(2)],
        "Manager.evaluate": [
            lambda: m.evaluate(line, {}),
            lambda: m.evaluate(n, {}),
        ],
        "Manager.evaluate_bits": [
            lambda: m.evaluate_bits(line, {}, {}),
            lambda: m.evaluate_bits(line, {}, {m.ZERO: 0, m.ONE: 1}),
            lambda: m.evaluate_bits(n, {}, {m.ZERO: 0, m.ONE: 1}),
        ],
        "Manager.exists": [
            lambda: m.exists(m.ONE, 99),
            lambda: m.exists(n, x),
        ],
        "Manager.forall": [
            lambda: m.forall(m.ONE, 99),
            lambda: m.forall(n, x),
        ],
        "Manager.forall_split": [
            lambda: m.forall_split(m.ONE, 99),
            lambda: m.forall_split(n, x),
        ],
        "Manager.literal": [lambda: m.literal(99)],
        "Manager.negate": [lambda: m.negate(n), lambda: m.negate(-1)],
        "Manager.node": [
            lambda: m.node(x, m.ZERO, n),
            lambda: m.node(x, m.ZERO, -1),
            lambda: m.node(99, m.ZERO, m.ONE),
            lambda: m.node(m.order.vars[-1], line, m.ONE),
        ],
        "Manager.restrict": [
            lambda: m.restrict(m.ONE, 99, 0),
            lambda: m.restrict(m.ONE, x, 2),
            lambda: m.restrict(n, x, 0),
        ],
        "Manager.shape": [
            lambda: m.shape(n),
            lambda: m.shape(line, []),
            lambda: m.shape(line, [0]),
            lambda: m.shape(m.ONE, [0]),
        ],
        "Manager.size": [lambda: m.size(n)],
        "Manager.support": [lambda: m.support(m.ONE, n)],
        "PathDecomposition": [
            lambda: PathDecomposition((frozenset({1}),)).validate(g),
            lambda: PathDecomposition(tuple(map(frozenset, ({1}, {2}, {1})))).validate(g),
        ],
        "Pcnf": [
            lambda: twice.audit(),
            lambda: unquantified.audit(),
            lambda: Pcnf((("x", 1),), ()).audit(),
            lambda: Pcnf(((EXISTS, 0),), ()).audit(),
            lambda: f.prefix_position(99),
        ],
        "QobddError": [lambda: QobddError("message")],
        "VarOrder": [
            lambda: VarOrder([2, 1, 2]),
            lambda: VarOrder([1]).rank(2),
        ],
        "and_protocol_run": [
            lambda: and_protocol_run(rdl, {}, {}),
            lambda: and_protocol_run(rdl, {x: 0}, {}),
        ],
        "check_rectanglesmall": [
            lambda: check_rectanglesmall(g, ([1, 3, 5], [2, 4])),
            lambda: check_rectanglesmall(g, ([1, 3, 5], [2, 4, 6, 9])),
            lambda: check_rectanglesmall(g, ([1, 2, 3], [1, 2, 3])),
            lambda: check_rectanglesmall(g, split, budget=0),
        ],
        "check_trace": [
            lambda: check_trace(f, bad_trace),
            lambda: check_trace(f, ProofTrace(trace.formula_hash, VarOrder([x]), trace.lines)),
            lambda: check_trace(unquantified, trace),
            lambda: check_trace(f, trace, node_budget=0),
            lambda: check_trace(f, true_trace, require_refutation=True),
        ],
        "clause": [lambda: clause([0]), lambda: clause([1, -1])],
        "default_order": [lambda: default_order(unquantified), lambda: default_order(twice)],
        "emit_qdimacs": [lambda: emit_qdimacs(unquantified), lambda: emit_qdimacs(twice)],
        "emit_trace": [lambda: emit_trace(bad_trace)],
        "eqprime_decomposition": [lambda: eqprime_decomposition(1), lambda: eqprime_decomposition(-2)],
        "eval_ipg": [lambda: eval_ipg(g, {}), lambda: eval_ipg(g, {1: 1, 2: 1})],
        "extract": [
            lambda: extract(f, bad_trace),
            lambda: extract(f, true_trace),
            lambda: extract(unquantified, trace),
        ],
        "formula_hash": [lambda: formula_hash(unquantified)],
        "gen_eqprime": [lambda: gen_eqprime(1), lambda: gen_eqprime(-1)],
        "gen_ipg_qbf": [lambda: gen_ipg_qbf(Graph([2, 3], [(2, 3)])), lambda: gen_ipg_qbf(Graph([]))],
        "gen_quparity": [lambda: gen_quparity(1), lambda: gen_quparity(0)],
        "gi_decomposition": [
            lambda: gi_decomposition(g, split, {}),
            lambda: gi_decomposition(g, ([1, 3, 99], [2, 4, 6]), {}),
            lambda: gi_decomposition(g, split, {99: 1}),
        ],
        "induced_matching": [
            lambda: induced_matching(g, ([1, 99], [2])),
            lambda: induced_matching(g, ([1, 2], [1, 2])),
        ],
        "ip_truth_table": [
            lambda: ip_truth_table(g, ([1, 3, 5], [2, 4])),
            lambda: ip_truth_table(g, ([1, 3, 5, 7], [2, 4, 6])),
            lambda: ip_truth_table(g, ([1, 1, 3, 5], [2, 4, 6])),
        ],
        "max_mono_rectangle": [
            lambda: max_mono_rectangle(ip_truth_table(g, split), budget=0),
            lambda: max_mono_rectangle(ip_truth_table(g, split), budget=-1),
        ],
        "order_from_decomposition": [lambda: order_from_decomposition(PathDecomposition(()))],
        "parse_qdimacs": [lambda: parse_qdimacs("p cnf 1 1\na 2 0\n1 0\n"), lambda: parse_qdimacs("")],
        "parse_qures": [lambda: parse_qures("1 R 2 3 1\n"), lambda: parse_qures("")],
        "parse_trace": [lambda: parse_trace(""), lambda: parse_trace(emit_trace(trace)[:-20])],
        "path_decomposition": [lambda: path_decomposition(Graph([]))],
        "prefix_order": [lambda: prefix_order(twice)],
        "primal_graph": [lambda: primal_graph(unquantified), lambda: primal_graph(twice)],
        "quparity_decomposition": [lambda: quparity_decomposition(1)],
        "random_dregular": [
            lambda: random_dregular(0, 3),
            lambda: random_dregular(5, 3),
            lambda: random_dregular(3, 3),
            lambda: random_dregular(4, -1),
        ],
        "simulate_qures": [
            lambda: simulate_qures(f, QuResProof(())),
            lambda: simulate_qures(f, QuResProof((QuResLine(1, QResolve(2, 3, 1)),))),
            lambda: simulate_qures(f, QuResProof((QuResLine(1, QAxiom((99,))),))),
            lambda: simulate_qures(f, QuResProof((QuResLine(1, QReduce(1, 99)),))),
            lambda: simulate_qures(unquantified, QuResProof((QuResLine(1, QAxiom((1, 2))),))),
        ],
        "solve": [
            lambda: solve(f, order=VarOrder([x])),
            lambda: solve(unquantified),
            lambda: solve(twice),
            lambda: solve(f, node_budget=0),
        ],
        "strategy_range_size": [lambda: strategy_range_size(wide_family)],
        "to_rectangle_list": [lambda: to_rectangle_list(dl, -1), lambda: to_rectangle_list(dl, 99)],
        "tower": [lambda: tower(2, 0), lambda: tower(-1, 2)],
        "verify_winning": [
            lambda: verify_winning(f, family, samples=0),
            lambda: verify_winning(gen_eqprime(3), family),
            lambda: verify_winning(unquantified, family),
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
    for case in API_CASES[name]:
        try:
            case()
        except QobddError:
            pass
