import random
from itertools import product

import pytest

from qobdd import rectangles
from qobdd.graphs import Graph, random_dregular
from qobdd.obdd import BudgetExceededError
from qobdd.rectangles import (
    Matching,
    RectangleLabError,
    TruthTable,
    check_rectanglesmall,
    induced_matching,
    ip_truth_table,
    max_mono_rectangle,
)

from .helpers import (
    assignments,
    cellwise_ip_truth_table,
    closure_scan_max_mono,
    eval_ipg,
    naive_max_mono,
    truth_table_from_function,
)


def matching_graph(n):
    return Graph(range(1, 2 * n + 1), [(2 * i - 1, 2 * i) for i in range(1, n + 1)])


def pair_split(n):
    return [2 * i - 1 for i in range(1, n + 1)], [2 * i for i in range(1, n + 1)]


def test_eval_ipg_single_edge():
    g = Graph([1, 2], [(1, 2)])
    assert eval_ipg(g, {1: 1, 2: 1}) == 1
    assert eval_ipg(g, {1: 0, 2: 1}) == 0


def test_eval_ipg_matches_classical_ip():
    for n in range(1, 7):
        g = matching_graph(n)
        for a in assignments(range(1, 2 * n + 1)):
            direct = 0
            for i in range(1, n + 1):
                direct ^= a[2 * i - 1] & a[2 * i]
            assert eval_ipg(g, a) == direct


def test_eval_ipg_isomorphism_invariance():
    g = Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
    perm = {1: 3, 2: 1, 3: 4, 4: 2}
    h = Graph([1, 2, 3, 4], [(perm[u], perm[w]) for u, w in g.edges()])
    for a in assignments([1, 2, 3, 4]):
        relabeled = {perm[v]: a[v] for v in a}
        assert eval_ipg(g, a) == eval_ipg(h, relabeled)


def test_truth_table_shape_and_limit():
    g = matching_graph(2)
    tt = ip_truth_table(g, pair_split(2))
    assert tt.nrows == 4 and tt.ncols == 4
    with pytest.raises(RectangleLabError):
        ip_truth_table(g, ([1, 2], [2, 3, 4]))  # not a partition
    big = Graph(range(1, 19))
    with pytest.raises(RectangleLabError, match="table sides limited to 16 variables"):
        ip_truth_table(big, (range(1, 18), [18]))
    with pytest.raises(RectangleLabError, match="partition must split"):
        ip_truth_table(big, (range(1, 18), [17, 18]))  # checked before the sides


def test_a_vertex_listed_twice_is_no_partition():
    # the same sets as a true split, but a repeated row variable would
    # double every rectangle: oracle_max 24 against the split's 12
    prism = Graph(range(1, 7), [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (1, 4), (2, 5), (3, 6)])
    assert check_rectanglesmall(prism, ([1, 2], [3, 4, 5, 6]))["oracle_max"] == 12
    for twice in (([1, 1, 2], [3, 4, 5, 6]), ([1, 2], [3, 4, 5, 6, 6])):
        with pytest.raises(RectangleLabError, match="partition must split"):
            ip_truth_table(prism, twice)
        with pytest.raises(RectangleLabError, match="partition must split"):
            check_rectanglesmall(prism, twice)


def gnp(rng, nv, p):
    verts = range(1, nv + 1)
    return Graph(verts, [(u, w) for u in verts for w in verts if u < w and rng.random() < p])


def ip_table_cases():
    """Seeded graphs and splits: 3-regular and G(n, p) graphs (edgeless and
    complete among them), unsorted, unbalanced and one-sided splits, a few
    with a vertex listed twice (no split), and sides of up to 16 variables."""
    rng = random.Random(2026)
    cases = []
    for nv in range(0, 12):
        for p in (0.0, 0.2, 0.5, 0.8, 1.0):
            cases += [gnp(rng, nv, p) for _ in range(5)]
        if nv >= 4 and nv % 2 == 0:
            cases += [random_dregular(nv, 3, seed=rng.getrandbits(16)) for _ in range(10)]
    out = []
    for g in cases:
        verts = list(g.vertices)
        rng.shuffle(verts)
        k = rng.randint(0, len(verts))
        x1, x2 = verts[:k], verts[k:]
        if x1 and rng.random() < 0.1:
            x1.append(x1[0])
        out.append((g, (x1, x2)))
    cube = random_dregular(16, 3, seed=5)
    verts = list(cube.vertices)
    rng.shuffle(verts)
    return out + [(cube, (verts, [])), (cube, ([], verts))]


def test_ip_truth_table_matches_the_cellwise_table():
    cases = ip_table_cases()
    assert len(cases) >= 300
    twice = 0
    for g, part in cases:
        if len(part[0]) + len(part[1]) > len(g.vertices):
            # a vertex listed twice is no split, for both
            twice += 1
            for table in (ip_truth_table, cellwise_ip_truth_table):
                with pytest.raises(RectangleLabError, match="partition must split"):
                    table(g, part)
            continue
        assert ip_truth_table(g, part) == cellwise_ip_truth_table(g, part), (g.edges(), part)
    assert twice


def test_check_rectanglesmall_reports_match_the_cellwise_table(monkeypatch):
    rng = random.Random(78)
    cases = []
    for nv in (6, 8, 10):
        for seed in range(3):
            for g in (random_dregular(nv, 3, seed=200 * nv + seed), gnp(rng, nv, 0.4)):
                verts = list(g.vertices)
                rng.shuffle(verts)
                for k in (nv // 2, nv // 2 - 2):  # balanced and unbalanced, unsorted
                    cases.append((g, (verts[:k], verts[k:])))
    reports = [check_rectanglesmall(g, part) for g, part in cases]
    monkeypatch.setattr(rectangles, "ip_truth_table", cellwise_ip_truth_table)
    assert reports == [check_rectanglesmall(g, part) for g, part in cases]


def test_max_mono_rectangle_stops_at_its_budget():
    # one branch per color, each from row 0, scans both rows of the 2 x 2
    # table: four scanned rows in all
    tt = ip_truth_table(matching_graph(1), pair_split(1))
    with pytest.raises(BudgetExceededError, match="^rectangle oracle budget of 3 scanned rows exceeded$"):
        max_mono_rectangle(tt, 3)
    assert max_mono_rectangle(tt, 4) == max_mono_rectangle(tt)
    g = random_dregular(10, 3, seed=1)
    part = ([1, 2, 3, 4, 5], [6, 7, 8, 9, 10])
    with pytest.raises(BudgetExceededError, match="budget of 100 scanned rows"):
        check_rectanglesmall(g, part, budget=100)
    assert check_rectanglesmall(g, part, budget=10**5) == check_rectanglesmall(g, part)


def test_max_mono_ip_one_pair():
    tt = ip_truth_table(matching_graph(1), pair_split(1))
    res = max_mono_rectangle(tt)
    assert res.size == 2


def test_max_mono_constant_zero():
    tt = TruthTable((1, 2), (3, 4), (0, 0, 0, 0))
    res = max_mono_rectangle(tt)
    assert res.size == 16
    assert res.color == 0


def test_max_mono_matches_naive_on_sampled_tables():
    rng = random.Random(99)
    for _ in range(300):
        rows = tuple(rng.randint(0, 15) for _ in range(4))
        tt = TruthTable((1, 2), (3, 4), rows)
        assert max_mono_rectangle(tt).size == naive_max_mono(rows, 4)


def test_max_mono_matches_naive_exhaustively():
    # every Boolean function on a 2|2 split
    for fn_bits in range(1 << 16):
        rows = tuple((fn_bits >> (4 * i)) & 15 for i in range(4))
        tt = TruthTable((1, 2), (3, 4), rows)
        assert max_mono_rectangle(tt).size == naive_max_mono(rows, 4)


def test_max_mono_matches_naive_on_3x3_split():
    rng = random.Random(31337)
    for _ in range(120):
        rows = tuple(rng.getrandbits(8) for _ in range(8))
        tt = TruthTable((1, 2, 3), (4, 5, 6), rows)
        assert max_mono_rectangle(tt).size == naive_max_mono(rows, 8)


def test_max_mono_witness_is_monochromatic():
    rng = random.Random(5)
    for _ in range(50):
        rows = tuple(rng.getrandbits(8) for _ in range(8))
        tt = TruthTable((1, 2, 3), (4, 5, 6), rows)
        res = max_mono_rectangle(tt)
        if res.size:
            cells = {
                rows[i] >> j & 1 for i in res.row_indices for j in res.col_indices
            }
            assert cells == {res.color}
            assert res.size == len(res.row_indices) * len(res.col_indices)


def table(nx1, nx2, rows):
    return TruthTable(tuple(range(1, nx1 + 1)), tuple(range(nx1 + 1, nx1 + nx2 + 1)), tuple(rows))


def random_table(rng, nx1, nx2, density):
    """Cells drawn independently; dense tables have many closed row sets."""
    return table(nx1, nx2, (
        sum(1 << j for j in range(1 << nx2) if rng.random() < density)
        for _ in range(1 << nx1)
    ))


def block_table(rng, nx1, nx2, k):
    """Union of k random rectangles: large monochromatic blocks, few closed
    row sets, so wide tables stay quick for the reference."""
    rows = [0] * (1 << nx1)
    for _ in range(k):
        cols = rng.getrandbits(1 << nx2)
        for i in range(1 << nx1):
            if rng.random() < 0.5:
                rows[i] |= cols
    return table(nx1, nx2, rows)


def test_max_mono_returns_the_closure_scan_witness():
    # same size, colour, rows and columns as the full-closure reference;
    # 6|6 has 64 columns, past the 8 that the naive tests reach, and
    # 6|3 runs on the transposed table
    rng = random.Random(2024)
    tables = [
        random_table(rng, nx1, nx2, density)
        for nx1, nx2, reps in ((4, 4, 20), (3, 6, 6), (6, 3, 6))
        for density in (0.5, 0.15, 0.85)
        for _ in range(reps)
    ]
    tables += [random_table(rng, 5, 5, 0.5) for _ in range(2)]
    tables += [block_table(rng, nx, nx, k) for nx in (5, 6) for k in (2, 3, 4, 5)]
    tables += [block_table(rng, 3, 6, 3), block_table(rng, 6, 3, 3)]
    for nx1, nx2 in ((4, 4), (3, 6), (6, 3), (6, 6)):
        tables += [random_table(rng, nx1, nx2, density) for density in (0.0, 1.0)]
    for n in (3, 4):
        tables.append(ip_truth_table(matching_graph(n), pair_split(n)))
    for tt in tables:
        assert max_mono_rectangle(tt) == closure_scan_max_mono(tt), tt


def test_check_rectanglesmall_reports_match_the_closure_scan(monkeypatch):
    rng = random.Random(77)
    cases = []
    for nv in (6, 8, 10):
        for seed in range(3):
            g = random_dregular(nv, 3, seed=100 * nv + seed)
            verts = list(g.vertices)
            rng.shuffle(verts)
            for k in (nv // 2, nv // 2 - 2):  # balanced and unbalanced
                cases.append((g, (sorted(verts[:k]), sorted(verts[k:]))))
    reports = [check_rectanglesmall(g, part) for g, part in cases]
    monkeypatch.setattr(
        rectangles, "max_mono_rectangle", lambda tt, budget: closure_scan_max_mono(tt)
    )
    assert reports == [check_rectanglesmall(g, part) for g, part in cases]


def test_check_rectanglesmall_refuses_oversized_splits_before_the_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("truth table built for a split the oracle refuses")

    monkeypatch.setattr(rectangles, "ip_truth_table", no_table)
    cycle = Graph(range(1, 17), [(v, v % 16 + 1) for v in range(1, 17)])
    for k in (7, 8, 9):  # shorter sides of 128, 256 and 128 rows
        part = (list(range(1, k + 1)), list(range(k + 1, 17)))
        with pytest.raises(RectangleLabError, match="oracle limited to 64 rows on the shorter side"):
            check_rectanglesmall(cycle, part)
    for k in (6, 10):  # 64 rows on the shorter side: the table is built
        with pytest.raises(AssertionError, match="truth table built"):
            check_rectanglesmall(cycle, (list(range(1, k + 1)), list(range(k + 1, 17))))


def test_ip_bound_with_equality_witness():
    hit_equality = 0
    for n in range(1, 5):
        tt = ip_truth_table(matching_graph(n), pair_split(n))
        res = max_mono_rectangle(tt)
        assert res.size <= 2**n
        if res.size == 2**n:
            hit_equality += 1
    assert hit_equality >= 1


def form_value(form, x, y):
    return {
        "x&y": x & y,
        "x&~y": x & (1 - y),
        "~x&y": (1 - x) & y,
        "x|y": x | y,
    }[form]


def test_four_form_mixes_bound():
    # parity of any mix of the four pair forms keeps rectangles at 2^n
    for n in (1, 2, 3):
        x1, x2 = pair_split(n)
        for mix in product(("x&y", "x&~y", "~x&y", "x|y"), repeat=n):

            def fn(a, mix=mix):
                acc = 0
                for i, form in enumerate(mix, start=1):
                    acc ^= form_value(form, a[2 * i - 1], a[2 * i])
                return acc

            tt = truth_table_from_function(fn, x1, x2)
            assert max_mono_rectangle(tt).size <= 2**n


def test_induced_matching_single_cross_edge():
    g = Graph([1, 2], [(1, 2)])
    m = induced_matching(g, ([1], [2]))
    assert m.edges == ((1, 2),)


def test_induced_matching_four_cycle():
    g = Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4)])
    m = induced_matching(g, ([1, 3], [2, 4]))
    assert len(m) == 1
    assert m.edges == ((1, 2),)  # lowest-id left vertex, lowest-id neighbor


def test_induced_matching_nonempty_when_cross_edge_exists():
    rng = random.Random(17)
    for _ in range(30):
        nv = rng.randint(2, 9)
        verts = list(range(1, nv + 1))
        edges = [
            (u, w)
            for i, u in enumerate(verts)
            for w in verts[i + 1 :]
            if rng.random() < 0.35
        ]
        g = Graph(verts, edges)
        rng.shuffle(verts)
        half = nv // 2
        part = (sorted(verts[:half]), sorted(verts[half:]))
        m = induced_matching(g, part)
        has_cross = any(
            (u in set(part[0])) != (w in set(part[0])) for u, w in g.edges()
        )
        assert (len(m) >= 1) == has_cross
        m.validate_induced(g)


def test_matching_validation_catches_chords():
    g = Graph([1, 2, 3, 4], [(1, 2), (3, 4), (2, 3)])
    bad = Matching(((1, 2), (3, 4)))
    with pytest.raises(RectangleLabError):
        bad.validate_induced(g)  # (2,3) chords the pair


def test_check_rectanglesmall_reports():
    g3 = matching_graph(3)
    rep = check_rectanglesmall(g3, pair_split(3))
    assert rep["n"] == 6 and rep["m"] == 3
    assert rep["bound"] == 8 and rep["oracle_max"] <= 8 and rep["ok"]

    g1 = matching_graph(1)
    rep1 = check_rectanglesmall(g1, pair_split(1))
    assert rep1["bound"] == 2 and rep1["oracle_max"] == 2

    edgeless = Graph([1, 2, 3, 4])
    rep0 = check_rectanglesmall(edgeless, ([1, 2], [3, 4]))
    assert rep0["m"] == 0 and rep0["bound"] == 16 and rep0["ok"]


def test_check_rectanglesmall_random_graphs():
    rng = random.Random(10)
    for _ in range(20):
        nv = rng.randint(4, 10)
        verts = list(range(1, nv + 1))
        edges = [
            (u, w)
            for i, u in enumerate(verts)
            for w in verts[i + 1 :]
            if rng.random() < 0.4
        ]
        g = Graph(verts, edges)
        rng.shuffle(verts)
        half = nv // 2
        part = (sorted(verts[:half]), sorted(verts[half:]))
        rep = check_rectanglesmall(g, part)
        assert rep["ok"], rep
