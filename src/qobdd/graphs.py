"""Simple graphs, narrow vertex orders, and path decompositions.

``narrow_order`` is the one place that picks an order (the solver's default
comes from it); it aims for small, not optimal, separation width, which is
the width of the path decomposition the order induces; the best order's
equals the path-width (Kinnersley 1992).  It keeps the narrowest of four
cheap candidates.  The fourth puts the universal vertices U (adjacent to
every other vertex) first, which by that equality loses nothing, as
pw(G) = pw(G - U) + |U|.
``path_decomposition`` validates those bags: vertex coverage, contiguous
occurrence, edge coverage.

A ``Graph`` holds its adjacency sets and nothing else: ``edges()``,
equality and validation derive the edges from them, so building a graph
from a formula's primal adjacency costs no second pass over its edges.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

from .obdd import QobddError, VarOrder


class GraphError(QobddError):
    pass


class Graph:
    """Undirected simple graph over integer vertices, held as adjacency sets."""

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]] = ()):
        self.vertices = tuple(sorted(set(vertices)))
        self.adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, w in edges:
            self.add_edge(u, w)

    @classmethod
    def _from_adjacency(cls, adj: dict[int, set[int]]) -> "Graph":
        """The graph whose vertex v neighbours ``adj[v]``, taken unchecked:
        the sets must be symmetric and loop-free over the keys, and become
        the graph's own."""
        g = cls.__new__(cls)
        g.vertices = tuple(sorted(adj))
        g.adj = {v: adj[v] for v in g.vertices}
        return g

    def add_edge(self, u: int, w: int) -> None:
        if u == w:
            raise GraphError(f"loop at vertex {u}")
        if u not in self.adj or w not in self.adj:
            raise GraphError(f"edge ({u},{w}) uses unknown vertex")
        self.adj[u].add(w)
        self.adj[w].add(u)

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once as (smaller, larger), in ascending order."""
        return [(u, w) for u in self.vertices for w in sorted(self.adj[u]) if u < w]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.adj == other.adj
        )

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges())} edges)"


def parse_edge_list(text: str) -> Graph:
    """Edge-list file: one `u v` pair per line, 1-based ids."""
    edges = []
    vertices: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("c"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected `u v`, got {line!r}")
        try:
            u, w = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer vertex id in {line!r}") from None
        vertices.update((u, w))
        edges.append((u, w))
    return Graph(vertices, edges)


@dataclass(frozen=True)
class PathDecomposition:
    bags: tuple[frozenset[int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def validate(self, g: Graph) -> None:
        """Check vertex coverage, occurrence contiguity, and edge coverage.

        One sweep over consecutive bags records where each vertex enters and
        leaves; it occurs contiguously iff it enters once, and then an edge
        lies in a common bag iff the spans of its ends overlap.  O(V + E +
        total bag size); the smallest offending vertex or edge is reported.
        """
        first: dict[int, int] = {}
        last: dict[int, int] = {}
        split: list[int] = []
        prev: frozenset[int] = frozenset()
        for i, bag in enumerate((*self.bags, frozenset())):
            for v in bag - prev:
                if v in first:
                    split.append(v)
                first.setdefault(v, i)
            for v in prev - bag:
                last[v] = i - 1
            prev = bag
        missing = [v for v in g.vertices if v not in first]
        if missing:
            raise GraphError(f"vertices {missing} in no bag")
        if split:
            raise GraphError(f"vertex {min(split)} occurs non-contiguously")
        uncovered = [
            (u, w)
            for u, nbrs in g.adj.items()
            for w in nbrs
            if u < w and max(first[u], first[w]) > min(last[u], last[w])
        ]
        if uncovered:
            u, w = min(uncovered)
            raise GraphError(f"edge ({u},{w}) in no bag")


def _last_bags(g: Graph, order: Sequence[int]) -> list[int]:
    # order[i] lives in bags i through max(i, its last neighbour's position)
    at = dict(zip(order, range(len(order)))).__getitem__
    adj = g.adj
    return [max([i, *map(at, adj[v])]) for i, v in enumerate(order)]


def _separation_width(g: Graph, order: Sequence[int]) -> int:
    live = [1] * len(order) + [0]  # difference array of the bag sizes
    for last in _last_bags(g, order):
        live[last + 1] -= 1
    return max(accumulate(live[:-1]), default=0) - 1


def _bags_from_order(g: Graph, order: Sequence[int]) -> PathDecomposition:
    """Bag i holds order[i] and every earlier vertex with a neighbour at i or later."""
    ending: list[list[int]] = [[] for _ in order]
    for v, last in zip(order, _last_bags(g, order)):
        ending[last].append(v)
    bags = []
    live: set[int] = set()
    for i, v in enumerate(order):
        live.add(v)
        bags.append(frozenset(live))
        live.difference_update(ending[i])
    return PathDecomposition(tuple(bags))


def _min_degree_order(g: Graph) -> list[int]:
    # eliminate on a shrinking copy, connecting each vertex's neighborhood;
    # the heap holds each remaining vertex's (degree, id), stale ones skipped
    adj = {v: set(nbrs) for v, nbrs in g.adj.items()}
    heap = [(len(nbrs), v) for v, nbrs in adj.items()]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    order = []
    while heap:
        deg, v = pop(heap)
        nbrs = adj.get(v)
        if nbrs is None or deg != len(nbrs):
            continue
        order.append(v)
        del adj[v]
        for a in nbrs:
            rest = adj[a]
            rest |= nbrs
            rest.discard(a)
            rest.discard(v)
            push(heap, (len(rest), a))
    return order


def _bfs_order(g: Graph) -> list[int]:
    adj = g.adj
    order: list[int] = []
    seen: set[int] = set()
    for start in sorted(g.vertices, key=lambda v: (len(adj[v]), v)):
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in sorted(adj[v]):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return order


def narrow_order(g: Graph) -> list[int]:
    """The first of the identity, breadth-first, min-degree elimination and
    universal-first orders with the smallest separation width.

    The fourth candidate exists only when some but not all vertices are
    universal (adjacent to every other vertex): those vertices in ascending
    id, then the min-degree order without them.  A universal vertex stays
    in every bag once it is placed, so for the set U of them
    pw(G) = pw(G - U) + |U|, and putting U first costs nothing; the other
    three candidates can miss that, as on quparity, whose z1 and z2 occur
    in every clause.
    """
    min_degree = _min_degree_order(g)
    candidates = [list(g.vertices), _bfs_order(g), min_degree]
    universal = [v for v in g.vertices if len(g.adj[v]) == len(g.vertices) - 1]
    if 0 < len(universal) < len(g.vertices):
        first = set(universal)
        candidates.append(universal + [v for v in min_degree if v not in first])
    return min(candidates, key=lambda o: _separation_width(g, o))


def path_decomposition(g: Graph) -> PathDecomposition:
    """The bags of ``narrow_order(g)``, validated; ``order_from_decomposition``
    reads that order back, as v first appears in bag pos(v)."""
    pd = _bags_from_order(g, narrow_order(g))
    pd.validate(g)
    return pd


def order_from_decomposition(pd: PathDecomposition) -> VarOrder:
    """Variables by first-bag index, ties broken by ascending id."""
    first: dict[int, int] = {}
    for i, bag in enumerate(pd.bags):
        for v in bag:
            if v not in first:
                first[v] = i
    return VarOrder(sorted(first, key=lambda v: (first[v], v)))


def random_dregular(n: int, degree: int, seed: int = 0) -> Graph:
    """Random regular graph by the pairing model, resampled until simple."""
    if n <= 0 or degree < 0:
        raise GraphError("need n > 0 and degree >= 0")
    if (n * degree) % 2 != 0:
        raise GraphError("n * degree must be even")
    if degree >= n:
        raise GraphError("degree must be below n for a simple graph")
    rng = random.Random(seed)
    points = [v for v in range(1, n + 1) for _ in range(degree)]
    for _ in range(100000):
        rng.shuffle(points)
        pairs = [(points[i], points[i + 1]) for i in range(0, len(points), 2)]
        if any(u == w for u, w in pairs):
            continue
        norm = {(min(u, w), max(u, w)) for u, w in pairs}
        if len(norm) != len(pairs):
            continue
        return Graph(range(1, n + 1), pairs)
    raise GraphError("pairing model failed to produce a simple graph")

