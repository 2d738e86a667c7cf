import random

import pytest

from qobdd.pcnf import (
    EXISTS,
    FORALL,
    Pcnf,
    PcnfError,
    QdimacsError,
    clause,
    emit_qdimacs,
    parse_qdimacs,
    primal_graph,
)

from .helpers import random_pcnf


def test_parse_single_unit():
    f = parse_qdimacs("p cnf 1 1\ne 1 0\n1 0\n")
    assert f.prefix == ((EXISTS, 1),)
    assert f.clauses == ((1,),)


def test_parse_roundtrip():
    text = "p cnf 4 3\ne 1 2 0\na 3 0\ne 4 0\n1 -2 0\n2 3 -4 0\n-1 4 0\n"
    f = parse_qdimacs(text)
    again = parse_qdimacs(emit_qdimacs(f))
    assert again == f
    assert emit_qdimacs(again) == emit_qdimacs(f)


def test_parse_free_variables_outermost():
    f = parse_qdimacs("p cnf 3 1\na 2 0\n1 2 3 0\n")
    assert f.prefix == ((EXISTS, 1), (EXISTS, 3), (FORALL, 2))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(QdimacsError) as err:
        parse_qdimacs("p cnf 2 1\ne 1 0\n1 5 0\n")
    assert err.value.line == 3
    with pytest.raises(QdimacsError):
        parse_qdimacs("p cnf 2 1\ne 1 0\n1 2\n")  # missing terminator
    with pytest.raises(QdimacsError):
        parse_qdimacs("e 1 0\n1 0\n")  # content before header
    with pytest.raises(QdimacsError):
        parse_qdimacs("p cnf 2 2\ne 1 2 0\n1 0\n")  # clause count mismatch
    with pytest.raises(QdimacsError):
        parse_qdimacs("p cnf 2 1\ne 1 1 0\n1 0\n")  # duplicate quantification


def test_tautological_clause_is_dropped_but_counted():
    f = parse_qdimacs("p cnf 2 2\na 1 0\ne 2 0\n1 -1 0\n2 0\n")
    assert f.prefix == ((FORALL, 1), (EXISTS, 2))
    assert f.clauses == ((2,),)
    with pytest.raises(QdimacsError, match="header declares 1 clauses, found 2"):
        parse_qdimacs("p cnf 2 1\ne 1 2 0\n1 -1 2 0\n2 0\n")


def test_clause_canonicalization():
    assert clause([3, -1, 3]) == (-1, 3)
    with pytest.raises(PcnfError):
        clause([1, -1])
    with pytest.raises(PcnfError):
        clause([0])


def test_empty_clause_is_allowed():
    f = parse_qdimacs("p cnf 1 1\ne 1 0\n0\n")
    assert f.clauses == ((),)


def test_blocks():
    f = Pcnf(
        ((EXISTS, 1), (EXISTS, 2), (FORALL, 3), (EXISTS, 4), (EXISTS, 5)),
        (clause([1, -3]),),
    )
    assert f.blocks() == [(EXISTS, [1, 2]), (FORALL, [3]), (EXISTS, [4, 5])]
    assert f.is_universal(3) and not f.is_universal(4)


def test_audit_rejects_unquantified():
    f = Pcnf(((EXISTS, 1),), (clause([1, 2]),))
    with pytest.raises(PcnfError):
        f.audit()


def test_primal_graph_triangle():
    f = Pcnf(
        ((EXISTS, 1), (EXISTS, 2), (EXISTS, 3)),
        (clause([1, 2, 3]),),
    )
    g = primal_graph(f)
    assert g.edges() == [(1, 2), (1, 3), (2, 3)]


def test_primal_graph_empty_matrix():
    f = Pcnf(((EXISTS, 1), (EXISTS, 2)), ())
    assert primal_graph(f).edges() == []


def test_primal_graph_eqprime2_edge_count():
    from qobdd.families import gen_eqprime

    f = gen_eqprime(2)
    g = primal_graph(f)
    # direct enumeration over clause pairs
    expected = set()
    for c in f.clauses:
        vs = sorted({abs(l) for l in c})
        for i, u in enumerate(vs):
            for w in vs[i + 1 :]:
                expected.add((u, w))
    assert set(g.edges()) == expected
    assert len(g.edges()) == 8


def test_primal_graph_equals_the_edge_by_edge_construction():
    # the one-pass adjacency against the sorted edge set re-added through
    # the checked Graph.add_edge, on random formulas and the families
    from qobdd.families import gen_eqprime, gen_ipg_qbf, gen_quparity
    from qobdd.graphs import Graph, random_dregular

    rng = random.Random(29)
    formulas = [random_pcnf(rng) for _ in range(60)]
    formulas += [gen_eqprime(5), gen_quparity(7), gen_ipg_qbf(random_dregular(10, 3, seed=1))]
    for f in formulas:
        edges = set()
        for c in f.clauses:
            vs = sorted({abs(l) for l in c})
            for i, u in enumerate(vs):
                for w in vs[i + 1 :]:
                    edges.add((u, w))
        want = Graph(sorted(f.matrix_variables()), sorted(edges))
        got = primal_graph(f)
        assert got == want
        assert got.adj == want.adj and list(got.adj) == list(want.adj)
        assert got.edges() == want.edges()
