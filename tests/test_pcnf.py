import random
import re

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

from .helpers import primal_graph_oracle, random_pcnf


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


def test_parsed_clauses_are_canonical_once_and_pass_the_constructor():
    # parse_qdimacs canonicalizes each clause once: its output must be what
    # clause() and the Pcnf constructor accept, built again from its parts
    rng = random.Random(31)
    for _ in range(50):
        f = random_pcnf(rng, 12, 20)
        lines = emit_qdimacs(f).splitlines()
        # shuffle and repeat the literals of every clause line
        k = next(i for i, ln in enumerate(lines[1:], 1) if ln.split()[0] not in "ea")
        for i in range(k, len(lines)):
            lits = lines[i].split()[:-1] * 2
            rng.shuffle(lits)
            lines[i] = " ".join(lits + ["0"])
        g = parse_qdimacs("\n".join(lines) + "\n")
        assert Pcnf(g.prefix, g.clauses) == g == f
        assert all(c == clause(c) for c in g.clauses)
    g = parse_qdimacs("p cnf 3 2\ne 1 2 3 0\n-3 1 -2 1 0\n2 -2 3 0\n")
    assert g.clauses == ((1, -2, -3),)


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


def test_a_bad_or_unquantified_variable_is_refused_when_built():
    # emit_qdimacs would write these as text parse_qdimacs refuses: `p cnf
    # 1 1` over the clause `1 2 0` (variable 2 out of range), `p cnf -1 1`
    with pytest.raises(PcnfError, match=r"^unquantified matrix variables \[2\]$"):
        Pcnf(((EXISTS, 1),), ((1, 2),))
    with pytest.raises(PcnfError, match=r"^unquantified matrix variables \[2, 3\]$"):
        Pcnf(((FORALL, 1),), ((-3,), (1, -2)))
    with pytest.raises(PcnfError, match="^bad variable id -1$"):
        Pcnf(((EXISTS, -1),), ((-1,),))
    with pytest.raises(PcnfError, match="^bad variable id 0$"):
        Pcnf(((EXISTS, 0), (FORALL, 2)), ((2,),))
    # True and 2.0 pass for 1 and 2 in the prefix's dict, and were written
    # as `p cnf True 1` and `e 2.0 0`
    with pytest.raises(PcnfError, match="^bad variable id True$"):
        Pcnf(((EXISTS, True),), ((1,),))
    with pytest.raises(PcnfError, match="^bad variable id 2.0$"):
        Pcnf(((EXISTS, 1), (FORALL, 2.0)), ((1, 2),))
    with pytest.raises(QdimacsError, match="variable 2 out of range"):
        parse_qdimacs("p cnf 1 1\ne 1 0\n1 2 0\n")


def test_a_variable_quantified_twice_is_refused_when_built():
    # the formula is refused once, at construction, with the message of the
    # parser and the audit, so solve, emit_qdimacs, primal_graph and
    # default_order never see it; the first repeat is the one named
    with pytest.raises(PcnfError, match="^variable 1 quantified twice$"):
        Pcnf(((EXISTS, 1), (FORALL, 1)), (clause([1]),))
    with pytest.raises(PcnfError, match="^variable 3 quantified twice$"):
        Pcnf(((EXISTS, 1), (EXISTS, 3), (FORALL, 2), (FORALL, 3), (EXISTS, 1)), ())
    with pytest.raises(PcnfError, match="quantified twice"):
        parse_qdimacs("p cnf 1 1\ne 1 0\na 1 0\n1 0\n")


def test_a_quantifier_other_than_e_or_a_is_refused_when_built():
    # solve took it for a universal, and emit_qdimacs wrote "x 2 0", a line
    # parse_qdimacs refuses; the message is the one audit gave
    with pytest.raises(PcnfError, match="^bad quantifier 'x'$"):
        Pcnf(((EXISTS, 1), ("x", 2)), ((1, 2), (-1, 2)))


def test_a_clause_is_refused_when_built_unless_canonical():
    # canonical is what clause() makes: a tuple of int literals, no 0, on
    # strictly increasing variables; the solver sizes an axiom of k literals
    # as a chain of k nodes, and (1, 1) is one node
    prefix = ((EXISTS, 1), (FORALL, 2), (EXISTS, 3))
    rng = random.Random(5)
    for _ in range(300):
        c = tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 4)))
        try:
            canonical = clause(c) == c
        except PcnfError:
            canonical = False
        if canonical:
            assert Pcnf(prefix, (c,)).clauses == (c,)
        else:
            with pytest.raises(PcnfError, match=f"^non-canonical clause {re.escape(str(c))}$"):
                Pcnf(prefix, ((1,), c))
    for c in ((True,), (1.0, 2), [1, 2], (1, "2")):
        with pytest.raises(PcnfError, match="^non-canonical clause "):
            Pcnf(prefix, (c,))


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
    # the build over distinct clause scopes against the clause-by-clause
    # oracle, on random formulas, both families, IPGs, a formula with an
    # empty clause and one without clauses
    from qobdd.families import gen_eqprime, gen_ipg_qbf, gen_quparity
    from qobdd.graphs import random_dregular

    rng = random.Random(29)
    formulas = [random_pcnf(rng) for _ in range(60)]
    formulas += [gen_eqprime(n) for n in (2, 5, 9)] + [gen_quparity(n) for n in (2, 7, 12)]
    formulas += [gen_ipg_qbf(random_dregular(n, 3, seed=s)) for n, s in ((6, 0), (10, 1), (14, 2))]
    formulas.append(Pcnf(((EXISTS, 1), (FORALL, 2), (EXISTS, 3)), (clause([1, 2]), (), clause([-1, -2]))))
    formulas.append(Pcnf(((EXISTS, 1), (FORALL, 2)), ()))
    for f in formulas:
        want = primal_graph_oracle(f)
        got = primal_graph(f)
        assert got == want
        assert got.adj == want.adj and list(got.adj) == list(want.adj)
        assert got.edges() == want.edges()
