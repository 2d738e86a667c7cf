"""Prenex CNF formulas, QDIMACS text, and the primal graph.

Variables are positive ints, literals signed ints.  Clauses are canonical
tuples: deduplicated, sorted by variable id, never tautological.  All types
here are immutable values and can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .graphs import Graph
from .obdd import QobddError

EXISTS = "e"
FORALL = "a"

Clause = tuple[int, ...]


class PcnfError(QobddError):
    pass


class QdimacsError(PcnfError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def clause(literals: Iterable[int]) -> Clause:
    """Canonical clause; rejects literals on both polarities and 0."""
    lits = set(literals)
    if 0 in lits:
        raise PcnfError("0 is not a literal")
    for l in lits:
        if -l in lits:
            raise PcnfError(f"tautological clause on variable {abs(l)}")
    return tuple(sorted(lits, key=lambda l: (abs(l), l < 0)))


@dataclass(frozen=True)
class Pcnf:
    """Quantifier prefix plus CNF matrix.

    ``prefix`` is one (quantifier, variable) pair per variable, outermost
    first.  Block structure is derived: maximal runs of one quantifier.
    """

    prefix: tuple[tuple[str, int], ...]
    clauses: tuple[Clause, ...]
    _pos: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_pos", {v: i for i, (_, v) in enumerate(self.prefix)}
        )

    @property
    def variables(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.prefix)

    @property
    def existentials(self) -> tuple[int, ...]:
        return tuple(v for q, v in self.prefix if q == EXISTS)

    @property
    def universals(self) -> tuple[int, ...]:
        return tuple(v for q, v in self.prefix if q == FORALL)

    def quantifier(self, var: int) -> str:
        return self.prefix[self.prefix_position(var)][0]

    def prefix_position(self, var: int) -> int:
        try:
            return self._pos[var]
        except KeyError:
            raise PcnfError(f"variable {var} not quantified") from None

    def is_universal(self, var: int) -> bool:
        return self.quantifier(var) == FORALL

    def blocks(self) -> list[tuple[str, list[int]]]:
        out: list[tuple[str, list[int]]] = []
        for q, v in self.prefix:
            if out and out[-1][0] == q:
                out[-1][1].append(v)
            else:
                out.append((q, [v]))
        return out

    def matrix_variables(self) -> set[int]:
        return {abs(l) for c in self.clauses for l in c}

    def audit(self) -> None:
        seen: set[int] = set()
        for q, v in self.prefix:
            if q not in (EXISTS, FORALL):
                raise PcnfError(f"bad quantifier {q!r}")
            if v <= 0:
                raise PcnfError(f"bad variable id {v}")
            if v in seen:
                raise PcnfError(f"variable {v} quantified twice")
            seen.add(v)
        for c in self.clauses:
            if c != clause(c):
                raise PcnfError(f"non-canonical clause {c}")
        missing = self.matrix_variables() - seen
        if missing:
            raise PcnfError(f"unquantified matrix variables {sorted(missing)}")


def parse_qdimacs(text: str) -> Pcnf:
    """Parse QDIMACS; free variables become an outermost existential block.

    A tautological clause is true and is dropped, but the header's clause
    count counts it.
    """
    header: tuple[int, int] | None = None
    prefix: list[tuple[str, int]] = []
    clauses: list[Clause] = []
    clause_lines = 0
    quantified: set[int] = set()
    in_clauses = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if header is not None:
                raise QdimacsError("duplicate header", lineno)
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise QdimacsError(f"bad header {line!r}", lineno)
            try:
                header = (int(tokens[2]), int(tokens[3]))
            except ValueError:
                raise QdimacsError(f"bad header {line!r}", lineno) from None
            continue
        if header is None:
            raise QdimacsError("content before header", lineno)
        if tokens[0] in (EXISTS, FORALL):
            if in_clauses:
                raise QdimacsError("quantifier line after clauses", lineno)
            if tokens[-1] != "0":
                raise QdimacsError("quantifier line not 0-terminated", lineno)
            for tok in tokens[1:-1]:
                try:
                    v = int(tok)
                except ValueError:
                    raise QdimacsError(f"bad variable {tok!r}", lineno) from None
                if not 1 <= v <= header[0]:
                    raise QdimacsError(f"variable {v} out of range", lineno)
                if v in quantified:
                    raise QdimacsError(f"variable {v} quantified twice", lineno)
                quantified.add(v)
                prefix.append((tokens[0], v))
            continue
        # clause line
        in_clauses = True
        clause_lines += 1
        if tokens[-1] != "0":
            raise QdimacsError("clause not 0-terminated", lineno)
        lits: list[int] = []
        for tok in tokens[:-1]:
            try:
                l = int(tok)
            except ValueError:
                raise QdimacsError(f"bad literal {tok!r}", lineno) from None
            if l == 0:
                raise QdimacsError("0 inside clause", lineno)
            if not 1 <= abs(l) <= header[0]:
                raise QdimacsError(f"variable {abs(l)} out of range", lineno)
            lits.append(l)
        if not any(-l in lits for l in lits):
            clauses.append(clause(lits))
    if header is None:
        raise QdimacsError("missing header")
    if clause_lines != header[1]:
        raise QdimacsError(
            f"header declares {header[1]} clauses, found {clause_lines}"
        )
    free = sorted({abs(l) for c in clauses for l in c} - quantified)
    full_prefix = [(EXISTS, v) for v in free] + prefix
    f = Pcnf(tuple(full_prefix), tuple(clauses))
    f.audit()
    return f


def emit_qdimacs(f: Pcnf) -> str:
    """Canonical QDIMACS text; also the input to the formula hash."""
    nvars = max([v for _, v in f.prefix], default=0)
    lines = [f"p cnf {nvars} {len(f.clauses)}"]
    for q, block in f.blocks():
        lines.append(" ".join([q] + [str(v) for v in block] + ["0"]))
    for c in f.clauses:
        lines.append(" ".join([str(l) for l in c] + ["0"]))
    return "\n".join(lines) + "\n"


def primal_graph(f: Pcnf) -> Graph:
    """Graph on the matrix variables linking co-clausal pairs, built in one
    pass over the clauses; a canonical clause names each variable once."""
    adj: dict[int, set[int]] = {}
    for c in f.clauses:
        vs = [abs(l) for l in c]
        for v in vs:
            nbrs = adj.get(v)
            if nbrs is None:
                adj[v] = nbrs = set()
            nbrs.update(vs)
    for v, nbrs in adj.items():
        nbrs.discard(v)
    return Graph._from_adjacency(adj)
