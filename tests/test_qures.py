import re

import pytest

from qobdd.obdd import Manager
from qobdd.pcnf import EXISTS, FORALL, Pcnf, clause
from qobdd.proof import Conj, Proj, URed, check_trace
from qobdd.qures import (
    QuResError,
    parse_qures,
    simulate_qures,
    validate_qures,
)
from qobdd.solver import solve

from .helpers import check_trace_reference, emit_qures


def all_pairs_formula():
    # forall u exists e: every polarity combination of (u, e)
    return Pcnf(
        ((FORALL, 1), (EXISTS, 2)),
        (clause([1, 2]), clause([1, -2]), clause([-1, 2]), clause([-1, -2])),
    )


UNIVERSAL_PIVOT_PROOF = """\
1 A 1 2 0
2 A 1 -2 0
3 A -1 2 0
4 A -1 -2 0
5 R 1 2 2
6 R 3 4 2
7 R 5 6 1
"""

REDUCTION_PROOF = """\
1 A 1 2 0
2 A 1 -2 0
3 R 1 2 2
4 U 3 1
"""


def test_parse_emit_roundtrip():
    for text in (UNIVERSAL_PIVOT_PROOF, REDUCTION_PROOF):
        p = parse_qures(text)
        assert parse_qures(emit_qures(p)) == p
    # comment and blank lines are skipped anywhere
    commented = "c proof\n\n" + REDUCTION_PROOF.replace("4 U", "c reduce\n4 U")
    assert parse_qures(commented) == parse_qures(REDUCTION_PROOF)


def test_universal_pivot_fixture_translates():
    f = all_pairs_formula()
    p = parse_qures(UNIVERSAL_PIVOT_PROOF)
    t = simulate_qures(f, p)
    result = check_trace(f, t, require_refutation=True)
    assert result.accepted and result.refutation


def test_reduction_fixture_translates():
    f = all_pairs_formula()
    p = parse_qures(REDUCTION_PROOF)
    derived = validate_qures(f, p)
    assert derived[4] == ()  # (u) reduced to the empty clause
    t = simulate_qures(f, p)
    assert check_trace(f, t, require_refutation=True).refutation


# exists x forall u exists t: pivot on t, then reduce u, then resolve x
THREE_BLOCK = Pcnf(
    ((EXISTS, 1), (FORALL, 2), (EXISTS, 3)),
    (clause([1, 2, -3]), clause([-1, -2, -3]), clause([3])),
)
THREE_BLOCK_PROOF = (
    "1 A 1 2 -3 0\n"
    "2 A -1 -2 -3 0\n"
    "3 A 3 0\n"
    "4 R 3 1 3\n"  # (3) with (1 2 -3) -> (1 2)
    "5 U 4 2\n"  # -> (1)
    "6 R 3 2 3\n"  # (3) with (-1 -2 -3) -> (-1 -2)
    "7 U 6 -2\n"  # -> (-1)
    "8 R 5 7 1\n"
)

# (x|u) and (~x|u) conjoin to exactly (u); projection is a no-op
COLLAPSE = Pcnf(((EXISTS, 1), (FORALL, 2)), (clause([1, 2]), clause([-1, 2])))
COLLAPSE_PROOF = "1 A 1 2 0\n2 A -1 2 0\n3 R 1 2 1\n4 U 3 2\n"

# exists x forall u v: reducing u from (u|v) strips v first, then u
TWO_UNIVERSALS = Pcnf(((EXISTS, 1), (FORALL, 2), (FORALL, 3)), (clause([1, 2, 3]), clause([-1, 2, 3])))
TWO_UNIVERSALS_PROOF = "1 A 1 2 3 0\n2 A -1 2 3 0\n3 R 1 2 1\n4 U 3 2\n5 U 4 3\n"


def fixtures():
    return [
        (all_pairs_formula(), UNIVERSAL_PIVOT_PROOF),
        (all_pairs_formula(), REDUCTION_PROOF),
        (THREE_BLOCK, THREE_BLOCK_PROOF),
        (COLLAPSE, COLLAPSE_PROOF),
        (TWO_UNIVERSALS, TWO_UNIVERSALS_PROOF),
    ]


def test_three_block_fixture_translates():
    t = simulate_qures(THREE_BLOCK, parse_qures(THREE_BLOCK_PROOF))
    assert check_trace(THREE_BLOCK, t, require_refutation=True).refutation


def test_two_universal_literals_are_stripped_rightmost_first():
    f = TWO_UNIVERSALS
    t = simulate_qures(f, parse_qures(TWO_UNIVERSALS_PROOF))
    assert [line.rule for line in t.lines[2:]] == [
        Conj(1, 2),
        Proj(1, 3),
        URed(3, 0, 4),
        URed(2, 0, 5),
    ]
    assert check_trace(f, t, require_refutation=True).refutation


def test_translation_reads_no_support(monkeypatch):
    # each reduction run reads its rightmost variable off Manager.shape, and
    # the translated traces check, all with no support set built or scanned
    def refuse(*args, **kwargs):
        raise AssertionError("translation read a support set")

    monkeypatch.setattr(Manager, "support", refuse)
    for f, text in fixtures():
        t = simulate_qures(f, parse_qures(text))
        assert check_trace(f, t, require_refutation=True).refutation


def test_resolvent_collapses_pivot_out_of_support():
    f = COLLAPSE
    t = simulate_qures(f, parse_qures(COLLAPSE_PROOF))
    result = check_trace(f, t, require_refutation=True)
    assert result.accepted and result.refutation
    # the resolvent line denotes the literal u
    _, mgr, per_line = check_trace_reference(f, t)
    assert mgr.clause([2]) in per_line.values()


def test_node_count_bound():
    for f, text in fixtures():
        p = parse_qures(text)
        t = simulate_qures(f, p)
        assert check_trace(f, t).accepted
        _, mgr, funcs = check_trace_reference(f, t)
        total = sum(mgr.size(funcs[l.id]) for l in t.lines)
        assert total <= 10 * len(p.lines) * (len(f.variables) + 2)


def test_validation_rejects_bad_proofs():
    f = all_pairs_formula()
    for text, message in (
        ("1 A 1 -2 2 0\n", "bad axiom at line 1: tautological clause"),
        ("1 A 2 0\n", "axiom clause not in the matrix"),
        ("1 A 1 2 0\n2 U 1 2\n", "reduced variable is not universal"),
        # reduction blocked by an existential right of the universal
        ("1 A 1 2 0\n2 U 1 1\n", "existential variable right of the reduced literal"),
        # pivot polarities reversed
        ("1 A 1 2 0\n2 A -1 2 0\n3 R 2 1 1\n", "pivot must occur positively left"),
        ("1 A 1 2\n", "axiom not 0-terminated at line 1"),
        ("1 A 1 2 0\n2 X 1 1\n", "bad proof line '2 X 1 1' at line 2"),  # unknown tag
        ("1 A 1 2 0\n2 R 1 1\n", "bad proof line '2 R 1 1' at line 2"),  # arity
        ("1 A 1 2 0\n2 U 1 u\n", "bad proof line '2 U 1 u' at line 2"),  # not an int
        ("c nothing here\n\n", "empty proof"),
        ("2 A 1 2 0\n2 A 1 -2 0\n", "line id 2: non-increasing line id"),
        ("1 A 1 2 0\n2 R 1 5 2\n", "line id 2: unknown premise"),
        ("1 A 1 2 0\n2 U 7 1\n", "line id 2: unknown premise"),
        ("1 A 1 2 0\n2 A 1 -2 0\n3 R 1 2 -2\n", "pivot must be a positive variable id"),
        ("1 A 1 2 0\n2 U 1 -1\n", "line id 2: reduced literal not in clause"),
    ):
        with pytest.raises(QuResError, match=re.escape(message)):
            validate_qures(f, parse_qures(text))
    g = Pcnf(((EXISTS, 1), (EXISTS, 2)), (clause([1, 2]), clause([-1, -2])))
    with pytest.raises(QuResError):
        validate_qures(g, parse_qures("1 A 1 2 0\n2 A -1 -2 0\n3 R 1 2 1\n"))


def test_simulate_requires_refutation():
    f = all_pairs_formula()
    with pytest.raises(QuResError):
        simulate_qures(f, parse_qures("1 A 1 2 0\n"))


def test_translated_traces_also_check_after_solver_comparison():
    # same formula refuted two ways: by the solver and via translation
    f = all_pairs_formula()
    res = solve(f)
    assert res.value is False
    assert check_trace(f, res.trace, require_refutation=True).accepted
    t = simulate_qures(f, parse_qures(UNIVERSAL_PIVOT_PROOF))
    assert check_trace(f, t, require_refutation=True).accepted
