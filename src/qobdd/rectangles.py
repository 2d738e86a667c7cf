"""Desk-scale monochromatic-rectangle analysis of graph inner products.

``max_mono_rectangle`` is an exact brute-force oracle: it enumerates, per
color, the closed row subsets of the truth table (row sets of the form
"all rows compatible with some column set"), which cover every maximal
monochromatic rectangle.  The enumeration is prefix-preserving closure
extension (as in LCM, Uno-Kiyomi-Arimura 2004): a branch that adds row i
to the row set A keeps its rows in A | {i, ..., nrows - 1}, so it is cut
when its columns times that many rows cannot beat the best size, and a
candidate is rejected as non-canonical at the first row before i outside
A that holds its columns, before the rest of its closure is scanned.  A
10-vertex graph under a 5|5 split (a 32 x 32 table) takes about 25 ms.
The search is exponential (maximum edge biclique is NP-complete), so it
counts the rows its branches scan and raises ``BudgetExceededError``
past a budget.

``ip_truth_table`` builds the inner product's table from bit masks.  Over
a split (X1, X2) the inner product is IP(G[X1]) xor IP(G[X2]) xor the
cross edges' terms x_u x_w.  As a column mask, x_w for an X2 vertex w is
the set of X2 assignments that set w, so IP(G[X2]) is one mask and the
cross terms of row i are the XOR of the masks of the X2 vertices with an
odd number of X1 neighbours set in i; the row is complemented where
IP(G[X1]) is 1 on i.

``induced_matching`` follows the greedy procedure that repeatedly picks a
cross edge and deletes both closed neighborhoods, so the picked edges are
pairwise non-adjacent and induced.  For a graph on n vertices with an
induced cross matching of size m, every monochromatic rectangle of its
inner product has at most 2^(n-m) models; ``check_rectanglesmall`` tests
that bound against the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph
from .obdd import DEFAULT_NODE_BUDGET, BudgetExceededError, QobddError, transpose

MAX_ORACLE_ROWS = 64
MAX_TABLE_SIDE = 16


class RectangleLabError(QobddError):
    pass


@dataclass(frozen=True)
class TruthTable:
    """Bit matrix of f over a two-block split; rows index X1 assignments.

    ``rows[i]`` packs row i as an int: bit j is f(i-th X1 assignment,
    j-th X2 assignment), with side assignments indexed by their bits in
    side-variable order (first variable = least significant bit).
    """

    x1_vars: tuple[int, ...]
    x2_vars: tuple[int, ...]
    rows: tuple[int, ...]

    @property
    def nrows(self) -> int:
        return 1 << len(self.x1_vars)

    @property
    def ncols(self) -> int:
        return 1 << len(self.x2_vars)


def ip_truth_table(g: Graph, partition: tuple[Sequence[int], Sequence[int]]) -> TruthTable:
    """The inner product's table over ``partition``, built from bit masks.

    Equal to evaluating the inner product cell by cell, after a check that
    the two sides list each vertex of ``g`` exactly once.  Row i extends
    the row of i without its lowest bit k: it adds the cross mask of the X1
    vertex at bit k, and is complemented when that vertex has an odd
    number of X1 neighbours set in the smaller row.
    """
    x1, x2 = tuple(partition[0]), tuple(partition[1])
    if sorted(x1 + x2) != list(g.vertices):  # each vertex exactly once
        raise RectangleLabError("partition must split the vertex set")
    if len(x1) > MAX_TABLE_SIDE or len(x2) > MAX_TABLE_SIDE:
        raise RectangleLabError(f"table sides limited to {MAX_TABLE_SIDE} variables")
    pos1 = {v: k for k, v in enumerate(x1)}
    pos2 = {v: k for k, v in enumerate(x2)}
    ncols = 1 << len(x2)
    full = (1 << ncols) - 1
    col = {}  # X2 vertex -> mask of the columns that set it
    for w, k in pos2.items():
        run = 1 << k  # columns alternate runs of this length with w unset, set
        # full // (2^(2 run) - 1) has a 1 at the start of every pair of runs
        col[w] = full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run)
    base = 0  # IP(G[X2]) over the columns: row 0
    cross = [0] * len(x1)  # per X1 bit: XOR of its X2 neighbours' masks
    inner = [0] * len(x1)  # per X1 bit: its X1 neighbours' bits
    for u, w in g.edges():
        if u in pos2 and w in pos2:
            base ^= col[u] & col[w]
        elif u in pos1 and w in pos1:
            inner[pos1[u]] |= 1 << pos1[w]
            inner[pos1[w]] |= 1 << pos1[u]
        else:
            if u in pos2:
                u, w = w, u
            cross[pos1[u]] ^= col[w]
    rows = [base]
    for i in range(1, 1 << len(x1)):
        k = (i & -i).bit_length() - 1
        rest = i ^ (1 << k)
        row = rows[rest] ^ cross[k]
        if (inner[k] & rest).bit_count() & 1:
            row ^= full
        rows.append(row)
    return TruthTable(x1, x2, tuple(rows))


def _check_oracle_rows(shorter: int) -> None:
    if shorter > MAX_ORACLE_ROWS:
        raise RectangleLabError(
            f"oracle limited to {MAX_ORACLE_ROWS} rows on the shorter side"
        )


@dataclass(frozen=True)
class MonoRectangle:
    size: int
    color: int
    row_indices: tuple[int, ...]
    col_indices: tuple[int, ...]


def max_mono_rectangle(tt: TruthTable, budget: int = DEFAULT_NODE_BUDGET) -> MonoRectangle:
    """Exact maximum |A| * |B| over rectangles constant on the table.

    Works on whichever axis is shorter and enumerates closed row sets per
    color, depth first.  Extending row set A by row i gives columns c2;
    the branch is cut when |c2| * (|A| + nrows - i) <= best, since every
    rectangle in it has its rows in A | {i, ...} and its columns in c2.
    Rows before i outside A are scanned first, and the first that holds
    c2 rejects the candidate; only a survivor gathers i and the later rows
    that hold c2.  The witness changes only on a strictly larger size, so
    the first witness of maximum size in this order is returned.
    Empty-by-construction rectangles count as size 0.

    A branch grown from row ``start`` scans rows start..nrows - 1; past
    ``budget`` scanned rows over both colors the search raises
    ``BudgetExceededError``.  A scanned row costs at most one pass over
    the (at most 64) rows, so the budget bounds the running time.
    """
    nrows, ncols = tt.nrows, tt.ncols
    _check_oracle_rows(min(nrows, ncols))
    transposed = False
    rows = tt.rows
    if nrows > ncols:
        transposed = True
        rows = transpose(tt.rows, ncols)
        nrows, ncols = ncols, nrows
    full_cols = (1 << ncols) - 1
    best = 0
    best_wit: tuple[int, int, int] | None = None  # (color, row mask, col mask)
    scanned = 0

    for color in (0, 1):
        masks = [r ^ full_cols if color == 0 else r for r in rows]

        def visit(amask: int, colmask: int) -> None:
            nonlocal best, best_wit
            size = amask.bit_count() * colmask.bit_count()
            if size > best:
                best = size
                best_wit = (color, amask, colmask)

        def grow(amask: int, colmask: int, start: int) -> None:
            nonlocal scanned
            scanned += nrows - start
            if scanned > budget:
                raise BudgetExceededError(
                    f"rectangle oracle budget of {budget} scanned rows exceeded"
                )
            room = amask.bit_count() + nrows
            for i in range(start, nrows):
                if amask >> i & 1:
                    continue
                c2 = colmask & masks[i]
                # rows below this branch lie in amask | {i, ..., nrows - 1}
                if c2.bit_count() * (room - i) <= best:
                    continue
                for j in range(i):
                    if masks[j] & c2 == c2 and not amask >> j & 1:
                        break  # canonical generation: no new earlier row
                else:
                    a2 = amask | 1 << i
                    for j in range(i + 1, nrows):
                        if masks[j] & c2 == c2:
                            a2 |= 1 << j
                    visit(a2, c2)
                    grow(a2, c2, i + 1)

        a0 = sum(1 << i for i in range(nrows) if masks[i] == full_cols)
        visit(a0, full_cols)
        grow(a0, full_cols, 0)

    if best_wit is None:
        return MonoRectangle(0, 0, (), ())
    color, amask, colmask = best_wit
    rows_idx = tuple(i for i in range(nrows) if amask >> i & 1)
    cols_idx = tuple(j for j in range(ncols) if colmask >> j & 1)
    if transposed:
        rows_idx, cols_idx = cols_idx, rows_idx
    return MonoRectangle(best, color, rows_idx, cols_idx)


@dataclass(frozen=True)
class Matching:
    edges: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.edges)

    def validate_induced(self, g: Graph) -> None:
        eps = {v for e in self.edges for v in e}
        if len(eps) != 2 * len(self.edges):
            raise RectangleLabError("matching edges share endpoints")
        chosen = {(min(e), max(e)) for e in self.edges}
        for u, w in g.edges():
            if u in eps and w in eps and (min(u, w), max(u, w)) not in chosen:
                raise RectangleLabError(
                    f"edge ({u},{w}) chords the matching; not induced"
                )


def induced_matching(
    g: Graph, partition: tuple[Sequence[int], Sequence[int]]
) -> Matching:
    """Greedy induced matching across the partition cut.

    Repeatedly match the lowest-id live left vertex with its lowest-id
    right neighbor, then delete both closed neighborhoods; left vertices
    without cross neighbors are dropped as they appear.  Possibly empty.
    """
    x1, x2 = set(partition[0]), set(partition[1])
    alive = set(g.vertices)
    edges: list[tuple[int, int]] = []
    while True:
        pick = None
        for v in sorted(x1 & alive):
            cross = sorted(w for w in g.adj[v] if w in x2 and w in alive)
            if cross:
                pick = (v, cross[0])
                break
            alive.discard(v)
        if pick is None:
            break
        v, w = pick
        edges.append((v, w))
        alive -= {v, w} | g.adj[v] | g.adj[w]
    matching = Matching(tuple(edges))
    matching.validate_induced(g)
    return matching


def check_rectanglesmall(
    g: Graph,
    partition: tuple[Sequence[int], Sequence[int]],
    budget: int = DEFAULT_NODE_BUDGET,
) -> dict:
    """Compare the oracle's maximum rectangle against the 2^(n-m) bound.

    A split whose shorter side has more than ``MAX_ORACLE_ROWS`` rows is
    refused before its truth table is built, with the oracle's error.
    ``budget`` is the oracle's, in scanned rows.
    """
    n = len(g.vertices)
    if n == 0:
        raise RectangleLabError("graph has no vertices")
    matching = induced_matching(g, partition)
    m = len(matching)
    shorter = min(len(partition[0]), len(partition[1]))
    _check_oracle_rows(1 << shorter)
    tt = ip_truth_table(g, partition)
    result = max_mono_rectangle(tt, budget)
    bound = 1 << (n - m)
    protocol_rounds_floor = None
    if result.size > 0:
        # a protocol of s rounds forces a monochromatic rectangle of size
        # at least 2^n / (4 e s); invert at the measured maximum
        protocol_rounds_floor = (1 << n) / (4 * math.e * result.size)
    return {
        "n": n,
        "m": m,
        "matching": [list(e) for e in matching.edges],
        "bound": bound,
        "oracle_max": result.size,
        "ok": result.size <= bound,
        "witness": {
            "color": result.color,
            "rows": list(result.row_indices),
            "cols": list(result.col_indices),
        },
        "balance": shorter / n,
        "balanced": shorter >= n // 2,
        "protocol_rounds_floor": protocol_rounds_floor,
    }

