import itertools

import pytest

from qobdd.families import (
    FamilyError,
    eqprime_decomposition,
    gen_eqprime,
    gen_ipg_qbf,
    gen_quparity,
    quparity_decomposition,
)
from qobdd.graphs import Graph, random_dregular
from qobdd.pcnf import EXISTS, FORALL, parse_qdimacs, emit_qdimacs, primal_graph

from .helpers import assignments, eval_ipg, qbf_value


def test_quparity_counts():
    for n in (2, 3, 5, 9):
        f = gen_quparity(n)
        assert len(f.variables) == 2 * n + 1
        assert len(f.clauses) == 8 * n - 6
        assert [q for q, _ in f.blocks()] == [EXISTS, FORALL, EXISTS]


def test_quparity_minimum_size():
    with pytest.raises(FamilyError):
        gen_quparity(1)


def test_quparity_false():
    assert not qbf_value(gen_quparity(2))
    assert not qbf_value(gen_quparity(3))


def test_eqprime_counts_and_blocks():
    for n in (2, 3, 6):
        f = gen_eqprime(n)
        assert len(f.clauses) == 3 * n
        assert len(f.variables) == 4 * n - 1
    assert len(parse_qdimacs(emit_qdimacs(gen_eqprime(3))).blocks()) == 3


def test_eqprime_false():
    assert not qbf_value(gen_eqprime(2))
    assert not qbf_value(gen_eqprime(3))


def test_eqprime_matrix_satisfiable_iff_play_mismatches():
    # whenever some u_i differs from x_i there is a completion over t, e;
    # the matched play forces every t_i off and the chain closes
    n = 3
    f = gen_eqprime(n)
    rest = [v for v in f.variables if v > 2 * n]

    def satisfiable(fixed):
        return any(
            all(
                any((l > 0) == bool({**fixed, **a}[abs(l)]) for l in c)
                for c in f.clauses
            )
            for a in assignments(rest)
        )

    for xs in assignments(range(1, n + 1)):
        for us in assignments(range(n + 1, 2 * n + 1)):
            mism = any(xs[i] != us[n + i] for i in range(1, n + 1))
            assert satisfiable({**xs, **us}) == mism


def test_family_decompositions_valid_and_narrow():
    for n in itertools.chain(range(2, 12), (16, 32, 64)):
        fq = gen_quparity(n)
        pd = quparity_decomposition(n)
        pd.validate(primal_graph(fq))
        assert pd.width <= 4
        fe = gen_eqprime(n)
        pe = eqprime_decomposition(n)
        pe.validate(primal_graph(fe))
        assert pe.width <= 4


def test_ipg_single_edge():
    g = Graph([1, 2], [(1, 2)])
    f = gen_ipg_qbf(g)
    assert not qbf_value(f)
    assert f.prefix == ((EXISTS, 1), (EXISTS, 2), (FORALL, 3))
    # the only winning universal play falsifies: z = complement of the product
    for a in assignments([1, 2]):
        winning_z = 1 - (a[1] & a[2])
        sat = lambda s: all(
            any((l > 0) == bool(s[abs(l)]) for l in c) for c in f.clauses
        )
        assert not sat({**a, 3: winning_z})
        assert sat({**a, 3: 1 - winning_z})


def test_ipg_variable_layout():
    # E 1..n, then the circuit output z = n+1 universal, then E n+2..n+2m-1:
    # the other gate outputs, AND gates first, then the XOR chain
    for g in (
        Graph([1, 2, 3], [(1, 2), (2, 3)]),
        Graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)]),
        random_dregular(8, 3, seed=1),
    ):
        n, m = len(g.vertices), len(g.edges())
        f = gen_ipg_qbf(g)
        assert f.prefix == (
            tuple((EXISTS, v) for v in range(1, n + 1))
            + ((FORALL, n + 1),)
            + tuple((EXISTS, v) for v in range(n + 2, n + 2 * m))
        )
        assert len(f.clauses) == 3 * m + 4 * (m - 1)
    assert m >= 10


def test_ipg_two_edge_matching_false():
    g = Graph([1, 2, 3, 4], [(1, 2), (3, 4)])
    assert not qbf_value(gen_ipg_qbf(g))


def test_ipg_clause_count_linear():
    for edges in ([(1, 2)], [(1, 2), (3, 4)], [(1, 2), (2, 3), (3, 4), (4, 5)]):
        nv = max(max(e) for e in edges)
        f = gen_ipg_qbf(Graph(range(1, nv + 1), edges))
        m = len(edges)
        assert len(f.clauses) == 3 * m + 4 * (m - 1)


def test_ipg_empty_graph_still_encoded():
    f = gen_ipg_qbf(Graph([1, 2]))
    assert not qbf_value(f)
    assert f.clauses == ((-3,),)


def test_ipg_isolated_vertices_solvable():
    from qobdd.solver import solve

    g = Graph([1, 2, 3], [(1, 2)])  # vertex 3 touches no clause
    f = gen_ipg_qbf(g)
    assert (EXISTS, 3) in f.prefix
    res = solve(f)
    assert res.value is False


def test_ipg_consistency_with_direct_evaluation():
    # on consistent gate assignments, z carries the graph inner product
    g = Graph([1, 2, 3], [(1, 2), (2, 3)])
    f = gen_ipg_qbf(g)
    z = 4
    for a in assignments([1, 2, 3]):
        for rest in assignments([v for v in f.variables if v > z or v == z]):
            full = {**a, **rest}
            consistent = all(
                any((l > 0) == bool(full[abs(l)]) for l in c) for c in f.clauses
            )
            if consistent:
                assert full[z] == eval_ipg(g, a)
