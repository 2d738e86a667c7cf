"""Seeded fuzzing of the text readers and of the command line.

Every example is a one-token mutation of a valid file: a token replaced,
deleted or inserted, or a line dropped or doubled.  The readers must turn
any such text into a result or their own typed error, and ``cli.main``
must turn it into an exit code; nothing else may escape.  Hypothesis runs
derandomized, so the examples are the same on every run.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qobdd import cli, obdd
from qobdd.families import gen_eqprime
from qobdd.obdd import BlockFormatError, Manager, OrderError, VarOrder
from qobdd.pcnf import EXISTS, Pcnf, clause, emit_qdimacs
from qobdd.proof import (
    MALFORMED_BLOCK,
    Axiom,
    Entail,
    ProofLine,
    ProofTrace,
    TraceParseError,
    check_trace,
    emit_trace,
    formula_hash,
    parse_trace,
)
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
