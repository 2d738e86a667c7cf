"""Generators for the built-in false-QBF families.

Each family comes with a hand-constructed narrow path decomposition of its
primal graph; deriving the solver's variable order from these keeps the
intermediate diagrams small independently of the instance size.

Variable numbering (all 1-based, matching the emitted QDIMACS):

* parity chain (``gen_quparity``): x_1..x_n -> 1..n, z_1 z_2 -> n+1 n+2,
  t_2..t_n -> n+3..2n+1.
* split equality (``gen_eqprime``): x_i -> i, u_i -> n+i, t_i -> 2n+i,
  e_i -> 3n+i (only e_1..e_{n-1} exist; the last chain clause closes on
  t_n directly).
* graph inner product (``gen_ipg_qbf``), m edges: graph vertices -> 1..n,
  the universally quantified circuit output z -> n+1, the other gate
  outputs -> n+2..n+2m-1 (AND gates in edge order, then the XOR chain).
"""

from __future__ import annotations

from .graphs import Graph, PathDecomposition
from .obdd import QobddError
from .pcnf import EXISTS, FORALL, Clause, Pcnf, clause


class FamilyError(QobddError):
    pass


def _xor_chain_gadget(o1: int, o2: int, o: int, l1: int, l2: int) -> list[Clause]:
    """Clauses forcing o = o1 xor o2 whenever both guard literals are false."""
    return [
        clause([l1, l2, -o1, o2, o]),
        clause([l1, l2, o1, -o2, o]),
        clause([l1, l2, -o1, -o2, -o]),
        clause([l1, l2, o1, o2, -o]),
    ]


def gen_quparity(n: int) -> Pcnf:
    """Guarded parity chain with a two-variable universal block; false."""
    if n < 2:
        raise FamilyError("need n >= 2")
    x = lambda i: i
    z1, z2 = n + 1, n + 2
    t = lambda i: n + 1 + i  # defined for m = 2..n
    prefix = (
        [(EXISTS, x(i)) for i in range(1, n + 1)]
        + [(FORALL, z1), (FORALL, z2)]
        + [(EXISTS, t(i)) for i in range(2, n + 1)]
    )
    clauses: list[Clause] = []
    clauses += _xor_chain_gadget(x(1), x(2), t(2), z1, z2)
    clauses += _xor_chain_gadget(x(1), x(2), t(2), -z1, -z2)
    for i in range(3, n + 1):
        clauses += _xor_chain_gadget(t(i - 1), x(i), t(i), z1, z2)
        clauses += _xor_chain_gadget(t(i - 1), x(i), t(i), -z1, -z2)
    clauses.append(clause([z1, z2, t(n)]))
    clauses.append(clause([-z1, -z2, -t(n)]))
    return Pcnf(tuple(prefix), tuple(clauses))


def quparity_decomposition(n: int) -> PathDecomposition:
    """Width-4 path decomposition of the parity chain's primal graph."""
    if n < 2:
        raise FamilyError("need n >= 2")
    x = lambda i: i
    z1, z2 = n + 1, n + 2
    t = lambda i: n + 1 + i
    bags = [frozenset({x(1), x(2), t(2), z1, z2})]
    for i in range(2, n):
        bags.append(frozenset({t(i), x(i + 1), t(i + 1), z1, z2}))
    bags.append(frozenset({z1, z2, t(n)}))
    return PathDecomposition(tuple(bags))


def gen_eqprime(n: int) -> Pcnf:
    """Equality contradiction with the long clause split along a chain."""
    if n < 2:
        raise FamilyError("need n >= 2")
    x = lambda i: i
    u = lambda i: n + i
    t = lambda i: 2 * n + i
    e = lambda i: 3 * n + i
    prefix = (
        [(EXISTS, x(i)) for i in range(1, n + 1)]
        + [(FORALL, u(i)) for i in range(1, n + 1)]
        + [(EXISTS, t(i)) for i in range(1, n + 1)]
        + [(EXISTS, e(i)) for i in range(1, n)]
    )
    clauses: list[Clause] = []
    for i in range(1, n + 1):
        clauses.append(clause([x(i), u(i), -t(i)]))
        clauses.append(clause([-x(i), -u(i), -t(i)]))
    clauses.append(clause([t(1), e(1)]))
    for i in range(2, n):
        clauses.append(clause([-e(i - 1), t(i), e(i)]))
    clauses.append(clause([-e(n - 1), t(n)]))
    return Pcnf(tuple(prefix), tuple(clauses))


def eqprime_decomposition(n: int) -> PathDecomposition:
    """Width-4 path decomposition of the split equality's primal graph."""
    if n < 2:
        raise FamilyError("need n >= 2")
    x = lambda i: i
    u = lambda i: n + i
    t = lambda i: 2 * n + i
    e = lambda i: 3 * n + i
    bags = [frozenset({x(1), u(1), t(1), e(1)})]
    for i in range(2, n):
        bags.append(frozenset({e(i - 1), x(i), u(i), t(i), e(i)}))
    bags.append(frozenset({e(n - 1), x(n), u(n), t(n)}))
    return PathDecomposition(tuple(bags))


def gen_ipg_qbf(g: Graph) -> Pcnf:
    """QBF whose unique universal winning play negates the graph inner product.

    The matrix is the Tseitin encoding of a circuit computing
    xor over edges of (x_u and x_w): one AND gate per edge, combined by a
    left-deep XOR chain (the chain shape keeps the primal graph narrow).
    The chain output z is quantified universally between the graph
    variables and the remaining gate variables, so the formula is false and
    the universal player must answer every X-assignment a with the
    complement of the circuit's value on a.

    Graph vertices must be exactly 1..n.
    """
    n = len(g.vertices)
    if g.vertices != tuple(range(1, n + 1)):
        raise FamilyError("graph vertices must be 1..n")
    edges = g.edges()
    m = len(edges)
    z = n + 1
    clauses: list[Clause] = []
    if m == 0:
        # constant-0 circuit: the output can only be consistent at 0
        prefix = [(EXISTS, i) for i in range(1, n + 1)] + [(FORALL, z)]
        return Pcnf(tuple(prefix), (clause([-z]),))
    # gate outputs: the m AND gates, then the m-1 XOR chain gates; the last
    # output of all is z itself, the others are n+2 .. n+2m-1 in that order
    outs = list(range(n + 2, n + 2 * m)) + [z]
    ands, xors = outs[:m], outs[m:]
    for gv, (a, b) in zip(ands, edges):
        clauses.append(clause([-gv, a]))
        clauses.append(clause([-gv, b]))
        clauses.append(clause([gv, -a, -b]))
    out_prev = ands[0]
    for gv, r in zip(xors, ands[1:]):
        clauses.append(clause([-gv, out_prev, r]))
        clauses.append(clause([-gv, -out_prev, -r]))
        clauses.append(clause([gv, out_prev, -r]))
        clauses.append(clause([gv, -out_prev, r]))
        out_prev = gv
    prefix = (
        [(EXISTS, i) for i in range(1, n + 1)]
        + [(FORALL, z)]
        + [(EXISTS, v) for v in outs[:-1]]
    )
    return Pcnf(tuple(prefix), tuple(clauses))
