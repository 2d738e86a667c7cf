import random

import pytest

from qobdd.graphs import (
    Graph,
    GraphError,
    PathDecomposition,
    _bags_from_order,
    _bfs_order,
    _min_degree_order,
    _separation_width,
    narrow_order,
    order_from_decomposition,
    parse_edge_list,
    path_decomposition,
    random_dregular,
)
from qobdd.obdd import Manager

from .helpers import (
    emit_edge_list,
    layer_width,
    min_degree_order_oracle,
    narrow_order_oracle,
    separation_width_oracle,
)


def test_graph_simple_invariants():
    g = Graph([1, 2, 3], [(1, 2), (2, 3)])
    assert g.degree(2) == 2
    with pytest.raises(GraphError):
        g.add_edge(1, 1)
    with pytest.raises(GraphError):
        Graph([1, 2], [(1, 5)])


def test_edge_list_roundtrip():
    g = Graph([1, 2, 3, 4], [(1, 2), (3, 4)])
    assert parse_edge_list(emit_edge_list(g)) == g
    # blank lines and lines starting with `#` or `c` are comments
    assert parse_edge_list("# two edges\nc split\n\n1 2\n3 4\n") == g
    # a line of one id names a vertex, which may have no edge
    g = Graph([1, 2, 3, 4, 5], [(1, 2), (3, 4)])
    assert emit_edge_list(g) == "1 2\n3 4\n5\n"
    assert parse_edge_list(emit_edge_list(g)) == g
    assert parse_edge_list("2\n1 2\n") == Graph([1, 2], [(1, 2)])
    with pytest.raises(GraphError, match="line 1: expected `u v` or `v`, got '1 2 3'"):
        parse_edge_list("1 2 3\n")


def test_edge_list_rejects_non_integer_ids_with_line_number():
    with pytest.raises(GraphError, match="line 2"):
        parse_edge_list("1 2\n3 x\n")
    with pytest.raises(GraphError, match="line 1"):
        parse_edge_list("1.5 2\n")


def test_path_graph_decomposition_width_one():
    g = Graph([1, 2, 3], [(1, 2), (2, 3)])
    pd = path_decomposition(g)
    pd.validate(g)
    assert pd.width == 1


def _oracle_graphs():
    rng = random.Random(11)
    yield Graph([])
    yield Graph([4, 9, 2])  # isolated vertices only
    for n in (1, 2, 5, 8):
        yield Graph(range(1, n + 1), [(u, w) for u in range(1, n + 1) for w in range(u + 1, n + 1)])
    for n in (6, 10, 14):
        yield random_dregular(n, 3, seed=rng.randrange(1000))
    for _ in range(60):
        n = rng.randint(1, 16)
        p = rng.random()
        ids = rng.sample(range(1, 40), n)
        yield Graph(ids, [(u, w) for u in ids for w in ids if u < w and rng.random() < p])
    yield from _planted_universal_graphs(random.Random(13), 40)


def _planted_universal_graphs(rng, count):
    """Random graphs plus 0-3 planted vertices adjacent to every other one,
    at random ids among the rest."""
    for _ in range(count):
        n = rng.randint(1, 14)
        ids = rng.sample(range(1, 40), n + 3)
        rest, planted = ids[:n], ids[n : n + rng.randint(0, 3)]
        p = rng.random()
        edges = [(u, w) for u in rest for w in rest if u < w and rng.random() < p]
        edges += [(u, w) for u in planted for w in rest + planted if u < w or w not in planted]
        yield Graph(rest + planted, edges)


def _universal(g):
    return [v for v in g.vertices if g.degree(v) == len(g.vertices) - 1]


def test_candidate_orders_and_widths_match_rescan_oracles():
    fourth = 0
    for g in _oracle_graphs():
        assert _min_degree_order(g) == min_degree_order_oracle(g)
        candidates = [list(g.vertices), _bfs_order(g), _min_degree_order(g)]
        universal = _universal(g)
        if 0 < len(universal) < len(g.vertices):
            # universal vertices first, then the min-degree order without them
            rest = [v for v in min_degree_order_oracle(g) if v not in universal]
            candidates.append(universal + rest)
            fourth += 1
        widths = []
        for order in candidates:
            assert sorted(order) == list(g.vertices)
            width = _separation_width(g, order)
            assert width == separation_width_oracle(g, order)
            pos = {v: i for i, v in enumerate(order)}
            bags = [
                {u for u in order[: i + 1] if u == v or any(pos[w] >= i for w in g.adj[u])}
                for i, v in enumerate(order)
            ]
            assert list(_bags_from_order(g, order).bags) == bags
            widths.append(width)
        # the first candidate of smallest width wins
        assert narrow_order(g) == candidates[widths.index(min(widths))]
        pd = path_decomposition(g)
        pd.validate(g)
        assert pd.width == min(widths)
    assert fourth >= 20, fourth


def test_universal_vertices_first_never_widen_and_cost_their_count():
    # against the three-candidate rule: an order changes only on graphs with
    # universal vertices, and then only to a narrower one; and any order of
    # G - U after U is |U| wider than it is on G - U
    kept = narrower = 0
    for g in _planted_universal_graphs(random.Random(41), 300):
        got, old = narrow_order(g), narrow_order_oracle(g)
        universal = _universal(g)
        if not 0 < len(universal) < len(g.vertices):
            assert got == old
            kept += 1
            continue
        width, old_width = _separation_width(g, got), separation_width_oracle(g, old)
        assert width <= old_width
        narrower += width < old_width
        assert got == old or width < old_width  # the first narrowest still wins
        rest = [v for v in g.vertices if v not in universal]
        h = Graph(rest, [(u, w) for u, w in g.edges() if u in rest and w in rest])
        for order in (rest, _min_degree_order(h), narrow_order(h), rest[::-1]):
            assert _separation_width(g, universal + order) == len(universal) + _separation_width(h, order)
    assert kept >= 50 and narrower >= 10, (kept, narrower)


def test_decomposition_validation_catches_violations():
    g = Graph([1, 2, 3], [(1, 2), (2, 3)])
    with pytest.raises(GraphError):
        PathDecomposition((frozenset({1, 2}),)).validate(g)  # vertex 3 missing
    with pytest.raises(GraphError):
        PathDecomposition(
            (frozenset({1, 2}), frozenset({3}))
        ).validate(g)  # edge (2,3) uncovered
    with pytest.raises(GraphError):
        PathDecomposition(
            (frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3}))
        ).validate(g)  # vertex 1 reappears


def test_order_from_single_bag():
    pd = PathDecomposition((frozenset({3, 1, 2}),))
    assert order_from_decomposition(pd).vars == (1, 2, 3)


def test_order_first_bag_index_rule():
    pd = PathDecomposition((frozenset({2, 5}), frozenset({5, 1}), frozenset({1, 4})))
    assert order_from_decomposition(pd).vars == (2, 5, 1, 4)


def test_order_interleaves_eqprime_groups():
    from qobdd.families import eqprime_decomposition

    n = 4
    order = order_from_decomposition(eqprime_decomposition(n)).vars
    # x_i, u_i, t_i, e_i appear together, chain position by chain position
    x, u, t, e = 1, n + 1, 2 * n + 1, 3 * n + 1
    assert order[:4] == (x, u, t, e)
    assert order[4:8] == (x + 1, u + 1, t + 1, e + 1)


def test_clause_diagrams_have_width_two():
    # any single clause is a chain under any order
    m = Manager(order_from_decomposition(path_decomposition(Graph([1, 2, 3], [(1, 2), (1, 3), (2, 3)]))))
    ref = m.clause([1, -2, 3])
    assert layer_width(m.complete(ref)) <= 2


def test_random_dregular_is_regular_and_seeded():
    g = random_dregular(10, 3, seed=4)
    assert all(g.degree(v) == 3 for v in g.vertices)
    assert random_dregular(10, 3, seed=4) == g
    assert random_dregular(10, 3, seed=5) != g


def test_random_dregular_odd_product_rejected():
    with pytest.raises(GraphError):
        random_dregular(5, 3, seed=0)
    with pytest.raises(GraphError):
        random_dregular(4, 4, seed=0)

