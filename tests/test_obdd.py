import heapq
import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qobdd import obdd
from qobdd.graphs import random_dregular
from qobdd.obdd import (
    OPS,
    BlockFormatError,
    BudgetExceededError,
    Manager,
    ObddError,
    OrderError,
    VarOrder,
    serialize,
)

from .helpers import (
    and_exists_reference,
    apply_reference,
    assignments,
    clause_reference,
    cofactor_counts,
    cofactor_tables,
    conj_exists_reference,
    cube,
    forall_split_reference,
    layer_width,
    negate_reference,
    obdd_from_table,
    outcome,
    random_table,
    truth_table_of,
)


def mgr(n=4):
    return Manager(VarOrder(range(1, n + 1)))


def test_sinks():
    m = mgr()
    assert m.const(0) == Manager.ZERO
    assert m.const(1) == Manager.ONE
    assert m.const(0) != m.const(1)
    for a in assignments([1, 2]):
        assert m.evaluate(m.const(0), a) == 0
        assert m.evaluate(m.const(1), a) == 1


def test_node_basics():
    m = mgr()
    lit = m.node(1, m.ZERO, m.ONE)
    assert lit == m.clause([1])
    other = m.clause([2])
    assert m.node(1, other, other) == other  # redundant test collapses
    assert m.node(1, m.ZERO, m.ONE) == lit  # same args, identical reference


def test_node_order_violation():
    m = mgr()
    inner = m.clause([1])
    with pytest.raises(OrderError):
        m.node(2, inner, m.ZERO)
    with pytest.raises(OrderError):
        m.node(1, m.clause([1]), m.ZERO)


# an order that is not the identity, so ranks differ from variable ids;
# literals up to 7 also name the unknown variables 6 and 7
CLAUSE_ORDER = VarOrder([4, 2, 5, 1, 3])
LITERAL_FORMS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda lits: (l for l in lits),
}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(-7, 7), max_size=8),
            st.sampled_from(sorted(LITERAL_FORMS)),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_clause_matches_the_set_based_reference(calls):
    # duplicates, both signs of a variable, 0, unknown variables and empty
    # clauses, passed as lists, tuples or generators, several to one store:
    # the same refs, the same store node for node, or the same error
    got, want = Manager(CLAUSE_ORDER), Manager(CLAUSE_ORDER)
    for lits, form in calls:
        make = LITERAL_FORMS[form]
        assert outcome(got.clause, make(lits)) == outcome(clause_reference, want, make(lits))
        assert got._nodes == want._nodes


@pytest.mark.parametrize(
    "call",
    [
        lambda m: m.clause([True]),
        lambda m: m.clause([2.0, -1]),
        lambda m: m.clause([1, "2"]),
        lambda m: m.node(True, m.ZERO, m.ONE),
        lambda m: m.node(2.0, m.ZERO, m.ZERO),
        lambda m: m.restrict(m.clause([1, 2]), True, 0),
        lambda m: m.restrict(m.clause([1, 2]), 2.0, 1),
    ],
)
def test_a_literal_or_variable_that_is_not_an_int_is_refused_before_any_node(call):
    # True and 2.0 look up as the variables 1 and 2 in the order's dict, and
    # were stored as such: serialize then wrote a block deserialize refuses
    m = mgr()
    m.clause([1, 2])
    before = len(m)
    with pytest.raises(ObddError, match="must be an int, not"):
        call(m)
    assert len(m) == before
    assert m.clause([1]) == m.node(1, m.ZERO, m.ONE)
    m.audit()


@pytest.mark.parametrize(
    "variables, name", [([True, 2], "bool"), ([2.0, 1], "float"), ([1, "2"], "str")]
)
def test_an_order_of_variables_that_are_not_ints_is_refused(variables, name):
    # True == 1 and 2.0 == 2 would pass the order's cover check against a
    # formula over 1 and 2, and the trace's o line would then read `o True 2`
    with pytest.raises(OrderError, match=f"^variable must be an int, not {name}$"):
        VarOrder(variables)


@pytest.mark.parametrize("variables, bad", [([0, 1], 0), ([2, -1, 0], -1), ([1, 2, -3], -3)])
def test_an_order_of_a_variable_below_1_is_refused(variables, bad):
    # QDIMACS ids start at 1: a trace's o line or a strategy's rows naming 0
    # would belong to no formula a file can state
    with pytest.raises(OrderError, match=f"^bad variable id {bad}$"):
        VarOrder(variables)
    assert VarOrder([]).vars == ()


def test_clause_errors_keep_their_precedence():
    m = mgr()
    with pytest.raises(ObddError, match="^0 is not a literal$"):
        m.clause([True, 99, 0])
    with pytest.raises(ObddError, match="^literal must be an int, not bool$"):
        m.clause([99, True])
    with pytest.raises(OrderError, match="^variable 99 not in order$"):
        m.clause([1, -1, 99])
    assert len(m) == 2


def test_apply_and_identity():
    m = mgr()
    x, y = m.clause([1]), m.clause([2])
    f = m.apply(x, y, "and")
    assert truth_table_of(m, f, [1, 2]) == (0, 0, 0, 1)
    assert m.apply(f, m.ONE, "and") == f
    assert m.apply(f, m.ZERO, "or") == f
    assert m.apply(x, y, OPS["and"]) == f  # an op may be its 4-bit code


OP_FUNCS = {name: code for name, code in OPS.items()}


@pytest.mark.parametrize("op", sorted(OPS))
def test_apply_all_ops_against_tables(op):
    rng = random.Random(OPS[op])  # stable: str hashes are salted per process
    m = Manager(VarOrder(range(1, 7)))
    for _ in range(12):
        tf, tg = random_table(rng, 6), random_table(rng, 6)
        f = obdd_from_table(m, range(1, 7), tf)
        g = obdd_from_table(m, range(1, 7), tg)
        res = m.apply(f, g, op)
        code = OPS[op]
        want = tuple((code >> ((a << 1) | b)) & 1 for a, b in zip(tf, tg))
        assert truth_table_of(m, res, range(1, 7)) == want


def test_negate_basics():
    m = mgr()
    assert m.negate(m.ZERO) == m.ONE
    f = m.apply(m.clause([1]), m.clause([3]), "xor")
    assert m.negate(m.negate(f)) == f  # involution, same reference


def test_negate_preserves_size():
    rng = random.Random(5)
    m = Manager(VarOrder(range(1, 9)))
    for _ in range(25):
        f = obdd_from_table(m, range(1, 9), random_table(rng, 8))
        g = m.negate(f)
        assert m.size(g) == m.size(f)
        assert truth_table_of(m, g, range(1, 9)) == tuple(
            1 - b for b in truth_table_of(m, f, range(1, 9))
        )


def test_restrict_trivial():
    m = mgr()
    x = m.clause([1])
    assert m.restrict(x, 1, 1) == m.ONE
    f = m.apply(m.clause([1]), m.clause([2]), "and")
    assert m.restrict(f, 1, 0) == m.ZERO
    assert m.restrict(f, 3, 1) == f  # absent variable


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_restrict_support_and_semantics(data):
    m = Manager(VarOrder(range(1, 7)))
    table = tuple(data.draw(st.integers(0, 1)) for _ in range(64))
    f = obdd_from_table(m, range(1, 7), table)
    var = data.draw(st.integers(1, 6))
    bit = data.draw(st.integers(0, 1))
    g = m.restrict(f, var, bit)
    assert var not in m.support(g)
    assert m.support(g) <= m.support(f) - {var}
    for a in assignments(range(1, 7)):
        assert m.evaluate(g, a) == m.evaluate(f, {**a, var: bit})


def test_quantification_trivial():
    m = mgr()
    f = m.apply(m.clause([1]), m.clause([2]), "and")
    assert m.exists(f, 1) == m.clause([2])
    g = m.apply(m.clause([1]), m.clause([2]), "or")
    assert m.forall(g, 1) == m.clause([2])


def test_quantification_against_projection_oracle():
    rng = random.Random(77)
    m = Manager(VarOrder(range(1, 7)))
    for _ in range(40):
        table = random_table(rng, 6)
        f = obdd_from_table(m, range(1, 7), table)
        var = rng.randint(1, 6)
        ex = m.exists(f, var)
        fa = m.forall(f, var)
        for a in assignments(range(1, 7)):
            v0 = m.evaluate(f, {**a, var: 0})
            v1 = m.evaluate(f, {**a, var: 1})
            assert m.evaluate(ex, a) == (v0 | v1)
            assert m.evaluate(fa, a) == (v0 & v1)


def test_fused_quantifier_matches_three_pass_and_table_oracle():
    rng = random.Random(89)
    for nv in (1, 3, 6):
        order = list(range(1, nv + 1))
        rng.shuffle(order)
        m = Manager(VarOrder(order))
        funcs = [m.ZERO, m.ONE, m.clause([order[0]]), m.clause([-order[-1]])]
        # a function that does not depend on the middle variable
        rest = [v for v in order if v != order[nv // 2]]
        funcs.append(obdd_from_table(m, rest, random_table(rng, len(rest))))
        funcs += [obdd_from_table(m, order, random_table(rng, nv)) for _ in range(12)]
        for f in funcs:
            table = truth_table_of(m, f, order)
            for x in order:  # the first and the last rank included
                x_bit = 1 << (nv - 1 - order.index(x))
                for quantify, op, fold in ((m.exists, "or", max), (m.forall, "and", min)):
                    q = quantify(f, x)
                    three_pass = m.apply(m.restrict(f, x, 0), m.restrict(f, x, 1), op)
                    assert q == three_pass
                    want = tuple(
                        fold(table[i & ~x_bit], table[i | x_bit]) for i in range(len(table))
                    )
                    assert truth_table_of(m, q, order) == want
                    if x not in m.support(f):
                        assert q == f
                    # memos last one operation: a repeat finds every node it
                    # makes in the unique table, so the store does not grow
                    size = len(m)
                    assert quantify(f, x) == q
                    assert m.apply(m.restrict(f, x, 0), m.restrict(f, x, 1), op) == q
                    assert len(m) == size


def test_forall_split_matches_the_three_calls_and_their_nodes():
    # a twin manager builds the same functions and takes the two
    # restrictions and their conjunction; the split must give the same
    # diagrams and leave the same store size.  ``restrict`` builds x's two
    # literals in the twin, so ``m`` builds them too.
    rng = random.Random(181)
    for nv in (1, 2, 4, 7):
        order = list(range(1, nv + 1))
        rng.shuffle(order)
        m, twin = Manager(VarOrder(order)), Manager(VarOrder(order))
        tables = [random_table(rng, nv) for _ in range(10)]
        # functions that skip the middle variable, so x lies outside them
        rest = [v for v in order if v != order[nv // 2]]
        skipping = [random_table(rng, len(rest)) for _ in range(2)]
        for table_vars, table in [(order, t) for t in tables] + [(rest, t) for t in skipping]:
            f = obdd_from_table(m, table_vars, table)
            g = obdd_from_table(twin, table_vars, table)
            for x in order:  # every rank, the first and the last included
                m.clause([x])
                m.clause([-x])
                got = m.forall_split(f, x)
                r0, r1 = twin.restrict(g, x, 0), twin.restrict(g, x, 1)
                want = (r0, r1, twin.apply(r0, r1, "and"))
                assert [serialize(m, r) for r in got] == [serialize(twin, r) for r in want]
                assert len(m) == len(twin)
                assert got == (m.restrict(f, x, 0), m.restrict(f, x, 1), m.forall(f, x))
                if x not in m.support(f):
                    assert got == (f, f, f)
        for c in (m.ZERO, m.ONE):
            assert m.forall_split(c, order[0]) == (c, c, c)


def test_forall_split_walks_a_deep_order_and_checks_its_arguments():
    n = 3000
    m = Manager(VarOrder(range(1, n + 1)))
    c = m.clause(range(1, n + 1))
    rest = m.clause(range(1, n))
    assert m.forall_split(c, n) == (rest, m.ONE, rest)
    assert m.forall_split(c, 1) == (m.clause(range(2, n + 1)), m.ONE, m.clause(range(2, n + 1)))
    with pytest.raises(OrderError):
        m.forall_split(c, n + 1)
    with pytest.raises(ObddError):
        m.forall_split(len(m), 1)


def test_and_exists_is_the_projection_of_the_conjunction():
    # one walk over the pairs gives exists x. (a and b), canonical in the
    # manager, at every rank: operands that skip the middle variable leave
    # it outside both supports, and sinks and a == b take the same walk
    rng = random.Random(2204)
    for nv in (1, 2, 4, 7):
        order = list(range(1, nv + 1))
        rng.shuffle(order)
        m = Manager(VarOrder(order))
        rest = [v for v in order if v != order[nv // 2]]
        funcs = [obdd_from_table(m, order, random_table(rng, nv)) for _ in range(5)]
        funcs += [obdd_from_table(m, rest, random_table(rng, len(rest))) for _ in range(2)]
        funcs += [m.ZERO, m.ONE]
        for a in funcs:
            for b in funcs:
                both = truth_table_of(m, m.apply(a, b, "and"), order)
                for x in order:
                    got = m.and_exists(a, b, x)
                    assert got == m.exists(m.apply(a, b, "and"), x)
                    assert m.and_exists(b, a, x) == got
                    x_bit = 1 << (nv - 1 - order.index(x))
                    want = tuple(
                        both[i & ~x_bit] | both[i | x_bit] for i in range(len(both))
                    )
                    assert truth_table_of(m, got, order) == want
        m.audit()


def test_and_exists_walks_a_deep_order_and_checks_its_arguments():
    n = 4000
    m = Manager(VarOrder(range(1, n + 1)))
    a = m.clause(range(1, n + 1))
    b = m.clause(range(-n, 0))
    both = m.apply(a, b, "and")
    for x in (1, n // 2, n):
        # a and b: not all variables equal, which x can always make true
        assert m.and_exists(a, b, x) == m.exists(both, x) == m.ONE
    # above the last variable the walk splits pairs down the whole chain
    rest = m.clause(range(1, n))
    assert m.and_exists(a, rest, n) == rest
    with pytest.raises(OrderError):
        m.and_exists(a, b, n + 1)
    with pytest.raises(ObddError):
        m.and_exists(a, len(m), 1)


def test_conj_exists_matches_the_two_calls_and_their_nodes():
    # a twin manager builds the same functions and takes apply, then
    # exists; the one walk must give the same two diagrams and leave the
    # same store size, at every rank, for sinks, a == b and both argument
    # orders, and with x outside both supports (the projection is then the
    # conjunction)
    rng = random.Random(2301)
    for nv in (1, 2, 4, 7):
        order = list(range(1, nv + 1))
        rng.shuffle(order)
        m, twin = Manager(VarOrder(order)), Manager(VarOrder(order))
        rest = [v for v in order if v != order[nv // 2]]
        tables = [(order, random_table(rng, nv)) for _ in range(5)]
        tables += [(rest, random_table(rng, len(rest))) for _ in range(2)]
        pairs = [(obdd_from_table(m, vs, t), obdd_from_table(twin, vs, t)) for vs, t in tables]
        pairs += [(m.ZERO, twin.ZERO), (m.ONE, twin.ONE)]
        for a, ta in pairs:
            for b, tb in pairs:
                for x in order:
                    got = m.conj_exists(a, b, x)
                    both = twin.apply(ta, tb, "and")
                    want = (both, twin.exists(both, x))
                    assert [serialize(m, r) for r in got] == [serialize(twin, r) for r in want]
                    assert len(m) == len(twin)
                    assert got == (m.apply(a, b, "and"), m.exists(got[0], x))
                    assert m.conj_exists(b, a, x) == got
                    if x not in m.support(a, b):
                        assert got[1] == got[0]
        m.audit()
        twin.audit()


def test_conj_exists_walks_a_deep_order_and_checks_its_arguments():
    n = 4000
    m = Manager(VarOrder(range(1, n + 1)))
    a = m.clause(range(1, n + 1))
    b = m.clause(range(-n, 0))
    both = m.apply(a, b, "and")
    for x in (1, n // 2, n):
        assert m.conj_exists(a, b, x) == (both, m.exists(both, x))
    # above the last variable the walk splits pairs down the whole chain
    rest = m.clause(range(1, n))
    assert m.conj_exists(a, rest, n) == (rest, rest)
    with pytest.raises(OrderError):
        m.conj_exists(a, b, n + 1)
    with pytest.raises(ObddError):
        m.conj_exists(a, len(m), 1)
    with pytest.raises(ObddError):
        m.conj_exists(-1, b, 1)


# How an operand's truth table treats the variable x that the kernels
# quantify: as drawn, with one half made a sink (every node of x's rank
# then has that sink as a child), or with its hi half copied from its lo
# half (x is then outside the operand).
X_HALVES = ("keep", "lo0", "lo1", "hi0", "hi1", "skip")


@st.composite
def kernel_inputs(draw):
    """An order of 2 to 5 variables, x in it, and two truth tables over
    the order, its first variable the most significant bit, each bit one
    with a drawn density and the halves at x shaped by ``X_HALVES``."""
    nv = draw(st.integers(2, 5))
    order = draw(st.permutations(range(1, nv + 1)))
    x = draw(st.sampled_from(order))
    size, xbit = 1 << nv, 1 << (nv - 1 - order.index(x))
    rng = draw(st.randoms(use_true_random=False))

    def table():
        density = draw(st.sampled_from((0.15, 0.5, 0.85)))
        bits = [int(rng.random() < density) for _ in range(size)]
        half = draw(st.sampled_from(X_HALVES))
        for i in range(size):
            if i & xbit:
                continue
            j = i | xbit
            if half == "skip":
                bits[j] = bits[i]
            elif half != "keep":
                bits[j if half[0] == "h" else i] = int(half[2])
        return tuple(bits)

    return order, x, (table(), table())


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(kernel_inputs())
def test_pair_kernels_build_the_recursive_references_nodes_in_its_order(inputs):
    # each kernel call in a fresh manager, its reference in a fresh twin
    # with the same operands: the same refs, and the same store node for
    # node, so the walks create their nodes in the recursion's lo-first
    # post-order.  The operands put sinks and equal operands among the
    # cofactor pairs at x's rank, where the walks decide them in line.
    order, x, tables = inputs

    def check(kernel, reference, pick, *args):
        m, twin = Manager(VarOrder(order)), Manager(VarOrder(order))
        f, g = (obdd_from_table(m, order, t) for t in tables)
        assert (f, g) == tuple(obdd_from_table(twin, order, t) for t in tables)
        refs = [(f, g, m.ZERO, m.ONE)[i] for i in pick]
        assert kernel(m)(*refs, *args) == reference(twin, *refs, *args)
        assert m._nodes == twin._nodes

    pairs = [(0, 1), (1, 0), (0, 0), (0, 3), (2, 1), (3, 1)]
    for pick in pairs:
        for code in range(16):
            check(lambda m: m.apply, apply_reference, pick, code)
        check(lambda m: m.and_exists, and_exists_reference, pick, x)
        check(lambda m: m.conj_exists, conj_exists_reference, pick, x)
    for pick in ((0,), (1,)):
        check(lambda m: m.negate, negate_reference, pick)
        check(lambda m: m.forall_split, forall_split_reference, pick, x)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(kernel_inputs(), st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=6))
def test_each_kernel_runs_out_of_budget_where_its_reference_does(inputs, picks):
    # each loop that makes nodes checks the budget itself: under every
    # budget from the operands' store up to the nodes the call makes, the
    # kernel and its recursive reference, in fresh twin managers, raise the
    # same error with the same store, and both return once the budget
    # covers every node the call makes
    order, x, tables = inputs
    base = Manager(VarOrder(order))
    operands = [obdd_from_table(base, order, t) for t in tables] + [base.ZERO, base.ONE]
    lits = [order[i % len(order)] * (1 if pos else -1) for i, pos in picks]

    def fresh(spare):
        m = Manager(base.order, node_budget=len(base) - 2 + spare)
        m._nodes, m._unique = list(base._nodes), dict(base._unique)
        return m

    def sweep(kernel, reference, pick, *args):
        refs = [operands[i] for i in pick]
        m = fresh(10**6)
        kernel(m)(*refs, *args)
        made = len(m) - len(base)
        for spare in range(made + 1):
            m, twin = fresh(spare), fresh(spare)
            got = outcome(kernel(m), *refs, *args)
            assert got == outcome(lambda *a: reference(twin, *a), *refs, *args)
            assert m._nodes == twin._nodes
            if spare < made:
                assert got == (BudgetExceededError, f"node budget {m.node_budget} exceeded")
            else:
                assert got[0] == "ok"

    for pick in ((0, 1), (1, 0), (0, 0), (0, 3), (2, 1)):
        for code in range(16):
            sweep(lambda m: m.apply, apply_reference, pick, code)
        sweep(lambda m: m.and_exists, and_exists_reference, pick, x)
        sweep(lambda m: m.conj_exists, conj_exists_reference, pick, x)
    for pick in ((0,), (1,)):
        sweep(lambda m: m.forall_split, forall_split_reference, pick, x)
    sweep(lambda m: m.clause, clause_reference, (), lits)


def test_canonicity_of_construction_paths():
    # same function via Shannon expansion and via minterm disjunction
    rng = random.Random(9)
    m = Manager(VarOrder(range(1, 6)))
    for _ in range(30):
        table = random_table(rng, 5)
        f = obdd_from_table(m, range(1, 6), table)
        g = m.ZERO
        for a, bit in zip(assignments(range(1, 6)), table):
            if bit:
                g = m.apply(g, cube(m, a), "or")
        assert f == g


def test_complete_of_sink():
    m = Manager(VarOrder([1, 2]))
    co = m.complete(m.ONE)
    assert layer_width(co) == 1
    assert co.layers == [[m.ONE], [m.ONE]]
    assert co.size == 3  # two chain nodes plus the sink


def test_complete_size_bound_and_semantics():
    # each layer's states are exactly the distinct cofactors left after
    # fixing the variables before it, and the sinks those after all of them
    rng = random.Random(3)
    for nv in (4, 6, 8, 10):
        order = tuple(range(1, nv + 1))
        m = Manager(VarOrder(order))
        for _ in range(8):
            f = obdd_from_table(m, order, random_table(rng, nv))
            co = m.complete(f)
            assert co.size <= (nv + 1) * m.size(f)
            want = cofactor_tables(m, f)
            for i, states in enumerate(co.layers + [co.sinks]):
                got = [truth_table_of(m, s, order[i:]) for s in states]
                assert len(got) == len(set(got))
                assert set(got) == want[i]


def test_covers_reject_cuts_outside_the_order():
    m = mgr(3)
    co = m.complete(m.clause([2]))
    for cut in (-1, len(m.order) + 1):
        with pytest.raises(ObddError, match=f"cut {cut} "):
            co.covers(cut, m.ZERO)
    assert co.covers(len(m.order), m.ZERO) == [(m.clause([2]), m.ONE)]
    # dropping ONE keeps the ZERO state, reached on the complement
    assert co.covers(len(m.order), m.ONE) == [(m.clause([-2]), m.ZERO)]


def test_complete_stops_at_the_depth_a_cover_needs():
    rng = random.Random(57)
    for nv in (1, 3, 6):
        order = list(range(1, nv + 1))
        rng.shuffle(order)
        m = Manager(VarOrder(order))
        for _ in range(6):
            f = obdd_from_table(m, order, random_table(rng, nv))
            full = m.complete(f)
            states = full.layers + [full.sinks]
            for depth in range(nv + 1):
                part = m.complete(f, depth)
                built = part.layers + ([] if part.sinks is None else [part.sinks])
                assert built == states[: depth + 1]
                assert part.size == sum(map(len, built))
                for cut in range(depth + 1):
                    for drop in (m.ZERO, m.ONE):
                        assert part.covers(cut, drop) == full.covers(cut, drop)
                for cut in range(depth + 1, nv + 1):
                    with pytest.raises(ObddError, match=f"cut {cut} past the {depth + 1} layers"):
                        part.covers(cut, m.ZERO)
        for depth in (-1, nv + 1):
            with pytest.raises(ObddError, match=f"depth {depth} "):
                m.complete(f, depth)


def test_width_of_literal():
    m = Manager(VarOrder([1]))
    assert layer_width(m.complete(m.clause([1]))) == 1


def test_width_matches_cofactor_oracle():
    # graph inner product on two pairs, pair-interleaved order
    m = Manager(VarOrder([1, 2, 3, 4]))
    p1 = m.apply(m.clause([1]), m.clause([2]), "and")
    p2 = m.apply(m.clause([3]), m.clause([4]), "and")
    ip = m.apply(p1, p2, "xor")
    co = m.complete(ip)
    assert list(map(len, co.layers)) == cofactor_counts(m, ip)


def test_width_matches_cofactor_oracle_random():
    rng = random.Random(21)
    m = Manager(VarOrder(range(1, 7)))
    for _ in range(10):
        f = obdd_from_table(m, range(1, 7), random_table(rng, 6))
        assert list(map(len, m.complete(f).layers)) == cofactor_counts(m, f)


def test_shape_matches_complete_and_cofactor_oracle():
    rng = random.Random(34)
    for nv in (1, 3, 6):
        order = list(range(1, nv + 1))
        rng.shuffle(order)
        m = Manager(VarOrder(order))
        funcs = [m.ZERO, m.ONE, m.clause([order[-1]]), m.clause([-order[0]])]
        funcs += [obdd_from_table(m, order, random_table(rng, nv)) for _ in range(12)]
        positions = list(range(nv))
        rng.shuffle(positions)
        for f in funcs:
            shape = m.shape(f)
            assert shape.width == layer_width(m.complete(f)) == max(cofactor_counts(m, f))
            assert shape.size == m.size(f)
            ranks = [m.order.rank(v) for v in m.support(f)]
            assert shape.rightmost == max(ranks, default=None)
            rightmost = max((positions[k] for k in ranks), default=None)
            assert m.shape(f, positions) == (shape.size, shape.width, rightmost)


def test_shape_of_the_empty_order():
    m = Manager(VarOrder([]))
    for f in (m.ZERO, m.ONE):
        assert m.shape(f) == m.shape(f, []) == (1, 0, None)
        assert layer_width(m.complete(f)) == 0


def assert_shape_oracles(m, f, positions):
    """``shape`` against its oracles: ``size``, the largest layer of
    ``complete`` and the largest position over ``support``."""
    ranks = [m.order.rank(v) for v in m.support(f)]
    right = max((positions[k] for k in ranks), default=None)
    want = (m.size(f), layer_width(m.complete(f)), right)
    assert m.shape(f, positions) == want
    assert m.shape(f) == (*want[:2], max(ranks, default=None))


@st.composite
def wide_diagrams(draw):
    """A manager over 8 to 12 variables in a drawn order, a drawn position
    per rank, and diagrams with many nodes per rank: the inner product of
    a random regular graph on the variables, wider than 8, drawn
    clauses, at most 2 wide, and every result of a run of drawn
    ``apply``, ``and_exists`` and ``forall_split`` steps over them."""
    nv = draw(st.integers(8, 12))
    order = draw(st.permutations(range(1, nv + 1)))
    positions = draw(st.permutations(range(nv)))
    rng = draw(st.randoms(use_true_random=False))
    m = Manager(VarOrder(order))
    ip = m.ZERO
    for u, w in random_dregular(nv, 3 if nv % 2 == 0 else 4, seed=rng.randrange(1000)).edges():
        ip = m.apply(ip, m.apply(m.clause([u]), m.clause([w]), "and"), "xor")
    pool = [ip]
    for _ in range(6):
        lits = rng.sample(range(1, nv + 1), rng.randint(1, 4))
        pool.append(m.clause([v if rng.random() < 0.5 else -v for v in lits]))
    for _ in range(draw(st.integers(4, 14))):
        f, g = rng.choice(pool), rng.choice(pool)
        var = rng.choice(order)
        step = draw(st.sampled_from(("apply", "and_exists", "forall_split")))
        if step == "apply":
            pool.append(m.apply(f, g, rng.randrange(16)))
        elif step == "and_exists":
            pool.append(m.and_exists(f, g, var))
        else:
            pool += m.forall_split(m.apply(f, g, "xor"), var)
    return m, positions, pool


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(wide_diagrams())
def test_shape_matches_its_oracles_on_wide_diagrams(drawn):
    # the walk's heap holds a rank's reached nodes, so it only grows wide
    # on diagrams with many nodes per rank; every pool has lines on both
    # sides of the width where the walk leaves its heap, and each line is
    # walked again with the switch at its first layer of two states
    m, positions, pool = drawn
    widths = [m.shape(f).width for f in pool]
    assert min(widths) <= obdd._SHAPE_HEAP_WIDTH < max(widths)
    for f in pool:
        assert_shape_oracles(m, f, positions)
    with patch.object(obdd, "_SHAPE_HEAP_WIDTH", 1):
        for f in pool:
            assert_shape_oracles(m, f, positions)


def test_shape_at_the_ends_of_the_order():
    order = [5, 3, 8, 1, 7, 2, 6, 4]
    positions = [3, 7, 0, 5, 1, 6, 2, 4]
    m = Manager(VarOrder(order))
    below = m.apply(m.clause([8, -7]), m.clause([1, 2]), "xor")  # root at rank 2
    last = m.clause([4])  # one node, on the order's last rank
    on_last = m.apply(m.clause([1, 4]), m.clause([-7, -4]), "and")
    above = m.clause([5, -3])  # deepest at rank 1: the sinks' layer in the order
    cases = {
        below: (m.size(below), 4, 6),  # positions 0, 5, 1, 6 at ranks 2..5
        last: (3, 1, 4),
        on_last: (m.size(on_last), 4, 5),
        above: (4, 2, 7),
        m.clause([-3]): (3, 2, 7),  # one node, the sinks' layer in the order
        m.ZERO: (1, 1, None),
        m.ONE: (1, 1, None),
    }
    for f, want in cases.items():
        assert m.shape(f, positions) == want
        assert_shape_oracles(m, f, positions)


def residue_diagram(m, weights, modulus):
    """[the sum of weights[k] * (rank-k variable) is 0 mod ``modulus``],
    built a layer at a time from the sinks up: below a prefix, each
    residue reached is one state, and ZERO one more once a residue has no
    completion."""
    vars_ = m.order.vars
    level = [m.ONE] + [m.ZERO] * (modulus - 1)
    for k in reversed(range(len(weights))):
        w = weights[k]
        level = [m.node(vars_[k], level[s], level[(s + w) % modulus]) for s in range(modulus)]
    return level[0]


def test_shape_where_the_walk_leaves_its_heap():
    # ``_shape`` moves from its node heap to per-rank lists the first time
    # a layer passes the switch width.  Each case pins its layers and puts
    # the largest position on the layer where the switch falls (or would),
    # whose rank the heap loop leaves to the per-rank loop
    switch = obdd._SHAPE_HEAP_WIDTH
    assert switch == 8

    def two_sinks_above(m):
        # ite(x1, x2, g): the sinks, reached from x2, are states of every
        # layer below, and only with them does g's layer of 7 pass 8
        g = residue_diagram(m, [0, 0, 1, 2, 4, 1, 2, 4], 7)
        return m.node(1, g, m.clause([2]))

    cases = [
        # width 8 on rank 3: the walk stays on its heap
        (6, lambda m: residue_diagram(m, [1, 2, 4, 1, 2, 4], 8), [1, 2, 4, 8, 5, 3]),
        # width 9 on rank 4, the first layer that can pass 8: a layer k
        # ranks below the root holds at most 2**k states
        (8, lambda m: residue_diagram(m, [1, 2, 4, 8, 1, 2, 4, 8], 9), [1, 2, 4, 8, 9, 9, 5, 3]),
        # the switch on rank 8 of 13, and the width grows past it to 12
        (
            13,
            lambda m: residue_diagram(m, [1] * 8 + [3, 1, 2, 4, 8], 16),
            [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 8, 5, 3],
        ),
        # the layer that passes 8 on rank 5 is 7 inner nodes and both
        # sinks (the sinks' own layer, at most 2 states, never passes)
        (8, two_sinks_above, [1, 2, 3, 4, 6, 9, 6, 4]),
    ]
    for n, build, layers in cases:
        m = Manager(VarOrder(range(1, n + 1)))
        f = build(m)
        assert [len(layer) for layer in m.complete(f).layers] == layers
        at = next(k for k, count in enumerate(layers) if count == max(layers) or count > switch)
        positions = [k - (k > at) for k in range(n)]
        positions[at] = n - 1
        # the walk heapifies the ranks of its lists once it leaves its heap,
        # and the first of them is the rank where it does
        switched = []

        def heapify(ranks):
            switched.append(min(ranks))
            heapq.heapify(ranks)

        with patch.object(obdd, "heapify", heapify):
            assert m.shape(f, positions) == (m.size(f), max(layers), n - 1)
        assert switched == ([at] if max(layers) > switch else [])
        assert_shape_oracles(m, f, positions)
        # the switch moved onto every layer of the diagram, and past its width
        for width in range(1, max(layers) + 1):
            with patch.object(obdd, "_SHAPE_HEAP_WIDTH", width):
                assert_shape_oracles(m, f, positions)


def test_serialize_roundtrip_trivial():
    m = mgr()
    for f in (m.ZERO, m.ONE, m.clause([2]), m.clause([-3])):
        blk = obdd.serialize(m, f)
        m2 = Manager(VarOrder(range(1, 5)))
        g = obdd.deserialize(blk, m2)
        assert truth_table_of(m, f, range(1, 5)) == truth_table_of(m2, g, range(1, 5))


def test_serialize_roundtrip_random():
    rng = random.Random(11)
    for _ in range(200):
        m = Manager(VarOrder(range(1, 11)))
        f = obdd_from_table(m, range(1, 11), random_table(rng, 10))
        blk = obdd.serialize(m, f)
        m2 = Manager(VarOrder(range(1, 11)))
        g = obdd.deserialize(blk, m2)
        assert truth_table_of(m, f, range(1, 11)) == truth_table_of(m2, g, range(1, 11))
        assert obdd.deserialize(blk, m) == f


def test_serialize_pins_the_block_layout():
    # children before parents, lo subtree first, a shared node listed once
    m = Manager(VarOrder([1, 2, 3]))
    x3 = m.clause([3])
    f = m.node(1, x3, m.apply(m.clause([2]), x3, "and"))
    assert obdd.serialize(m, f) == (
        "obdd 5\n0 T0 - -\n1 T1 - -\n2 3 0 1\n3 2 0 2\n4 1 2 3"
    )


def test_deserialize_rejects_malformed():
    m = mgr()
    with pytest.raises(BlockFormatError):
        obdd.deserialize("obdd 2\n0 T0 - -", m)  # truncated
    with pytest.raises(BlockFormatError):
        obdd.deserialize("obdd 1\n0 T0 0 1", m)  # sink with children
    with pytest.raises(BlockFormatError):
        obdd.deserialize("nonsense", m)
    with pytest.raises(BlockFormatError, match="block declares 0 nodes"):
        obdd.deserialize("obdd 0\n", m)
    with pytest.raises(BlockFormatError):
        obdd.deserialize("obdd 3\n0 T0 - -\n1 T1 - -\n2 1 2 0", m)  # forward ref


def test_deserialize_rejects_order_mismatch():
    m1 = Manager(VarOrder([1, 2]))
    f = m1.apply(m1.clause([1]), m1.clause([2]), "or")
    blk = obdd.serialize(m1, f)
    m2 = Manager(VarOrder([2, 1]))
    with pytest.raises(OrderError):
        obdd.deserialize(blk, m2)


def test_deserialize_checks_each_row_as_manager_node_does():
    # rows are rebuilt without Manager.node, so its checks are pinned here
    m = Manager(VarOrder([1, 2, 3]))
    with pytest.raises(OrderError) as err:
        obdd.deserialize("obdd 3\n0 T0 - -\n1 T1 - -\n2 9 0 1", m)
    assert str(err.value) == "variable 9 not in order"
    # 3 ranks below 2, so a node on 3 cannot sit above one on 2
    with pytest.raises(OrderError) as err:
        obdd.deserialize("obdd 4\n0 T0 - -\n1 T1 - -\n2 2 0 1\n3 3 0 2", m)
    assert str(err.value) == "variable 3 (rank 2) does not precede its children"
    with pytest.raises(OrderError) as err:
        obdd.deserialize("obdd 4\n0 T0 - -\n1 T1 - -\n2 2 0 1\n3 2 2 1", m)
    assert str(err.value) == "variable 2 (rank 1) does not precede its children"
    # equal children collapse to that child, before the order is consulted
    x2 = m.clause([2])
    before = len(m)
    assert obdd.deserialize("obdd 4\n0 T0 - -\n1 T1 - -\n2 2 0 1\n3 1 2 2", m) == x2
    assert obdd.deserialize("obdd 4\n0 T0 - -\n1 T1 - -\n2 2 0 1\n3 9 2 2", m) == x2
    assert obdd.deserialize("obdd 3\n0 T0 - -\n1 T0 - -\n2 9 0 1", m) == m.ZERO
    assert len(m) == before


def test_evaluate_bits_matches_evaluate_play_by_play():
    rng = random.Random(15)
    m = mgr(6)
    variables = range(1, 7)
    roots = [obdd_from_table(m, variables, random_table(rng, 6)) for _ in range(6)]
    roots += [m.ZERO, m.ONE, m.clause([3])]
    plays = [{v: rng.getrandbits(1) for v in variables} for _ in range(100)]
    columns = {v: sum(p[v] << j for j, p in enumerate(plays)) for v in variables}
    # one memo shared by every root, as verify_winning shares it per chunk
    memo = {m.ZERO: 0, m.ONE: (1 << len(plays)) - 1}
    for f in roots:
        col = m.evaluate_bits(f, columns, memo)
        assert [(col >> j) & 1 for j in range(len(plays))] == [
            m.evaluate(f, p) for p in plays
        ]
    assert set(memo) <= set(range(len(m)))


def test_evaluate_bits_walks_a_deep_order_and_names_a_missing_column():
    # a 5000-literal clause is a 5000-node chain; default recursion limit
    n = 5000
    m = mgr(n)
    f = m.clause(range(1, n + 1))
    columns = {v: 0 for v in range(1, n + 1)}
    columns[n] = 0b10  # play 1 sets the last variable, play 0 nothing
    assert m.evaluate_bits(f, columns, {m.ZERO: 0, m.ONE: 0b11}) == 0b10
    del columns[n]
    with pytest.raises(ObddError, match=f"columns lack variable {n}"):
        m.evaluate_bits(f, columns, {m.ZERO: 0, m.ONE: 0b11})
    with pytest.raises(ObddError, match="memo must start with both sinks"):
        m.evaluate_bits(f, columns, {m.ONE: 0b11})
    with pytest.raises(ObddError, match="invalid node reference"):
        m.evaluate_bits(len(m), columns, {m.ZERO: 0, m.ONE: 0b11})


def test_transpose_reads_the_columns_of_a_bit_matrix():
    rng = random.Random(11)
    for width in range(9):
        words = [rng.getrandbits(width) for _ in range(rng.randint(1, 70))]
        assert obdd.transpose(words, width) == [
            sum((w >> i & 1) << j for j, w in enumerate(words)) for i in range(width)
        ]


def _replaced(m: Manager, ref: int, rank: int, rekey: bool) -> None:
    """Give node ``ref`` the rank ``rank``: a new entry in the store and,
    with ``rekey``, the same tuple as its key in the unique table."""
    old = m._nodes[ref]
    m._nodes[ref] = (rank, *old[1:])
    if rekey:
        del m._unique[old]
        m._unique[m._nodes[ref]] = ref


def _unread_below_the_top(m: Manager) -> int:
    """A node of rank > 0 that no node reads: a rank up keeps the order."""
    read = {c for _, lo, hi in m._nodes for c in (lo, hi)}
    return next(r for r in range(len(m) - 1, 1, -1) if m._nodes[r][0] > 0 and r not in read)


def test_audit_and_store_invariants():
    def store() -> Manager:
        rng = random.Random(2)
        m = Manager(VarOrder(range(1, 9)))
        refs = [obdd_from_table(m, range(1, 9), random_table(rng, 8)) for _ in range(20)]
        for i in range(0, len(refs) - 1, 2):
            m.apply(refs[i], refs[i + 1], rng.choice(sorted(OPS)))
            m.exists(refs[i], rng.randint(1, 8))
            m.negate(refs[i + 1])
        return m

    m = store()
    m.audit()
    # each node is stored once: its unique key is its store entry
    assert all(m._nodes[ref] is key for key, ref in m._unique.items())
    assert m._nodes[:2] == [(8, -1, -1)] * 2

    def rank_up(m: Manager) -> None:
        ref = _unread_below_the_top(m)
        _replaced(m, ref, m._nodes[ref][0] - 1, False)

    def rank_down(m: Manager) -> None:
        _replaced(m, len(m) - 1, m._nodes[-1][0] + 1, False)

    inner_child = lambda m: next(r for r in range(2, len(m)) if m._nodes[r][1] > 1)
    corruptions = [
        # an entry replaced by a triple that differs from its unique key
        (rank_up, "missing from unique table"),
        (rank_down, "missing from unique table"),
        # moved with its key, to a rank outside 0..|X|-1 or above a child
        (lambda m: _replaced(m, _unread_below_the_top(m), -1, True), "rank -1 outside the order"),
        (lambda m: _replaced(m, _unread_below_the_top(m), 8, True), "rank 8 outside the order"),
        (lambda m: _replaced(m, inner_child(m), 7, True), "violates the variable order"),
        # an entry without a key, a key without an entry, a sink in the order
        (lambda m: m._nodes.append((7, 0, 1)), "unique table out of sync"),
        (lambda m: m._unique.popitem(), "unique table out of sync"),
        (lambda m: m._nodes.__setitem__(0, (7, -1, -1)), "sinks do not rank past the order"),
    ]
    for corrupt, message in corruptions:
        m = store()
        corrupt(m)
        with pytest.raises(ObddError, match=message):
            m.audit()


def test_foreign_reference_rejected():
    big = Manager(VarOrder(range(1, 9)))
    f = obdd_from_table(big, range(1, 9), random_table(random.Random(0), 8))
    small = Manager(VarOrder(range(1, 9)))
    with pytest.raises(ObddError):
        small.apply(f, small.ONE, "and")


def test_node_budget():
    m = Manager(VarOrder(range(1, 9)), node_budget=4)
    with pytest.raises(BudgetExceededError):
        obdd_from_table(m, range(1, 9), random_table(random.Random(1), 8))


def test_repeated_operations_are_canonical():
    # no memo outlives a call: a repeat, or a negation sharing a memo with
    # another, returns the same reference and makes no node
    m = mgr()
    f = m.apply(m.clause([1]), m.clause([2]), "xor")
    g = m.negate(f)
    size = len(m)
    assert m.apply(m.clause([1]), m.clause([2]), "xor") == f
    assert m.negate(f) == g
    memo: dict[int, int] = {}
    assert [m.negate(r, memo) for r in (f, g, f)] == [g, f, g]
    assert len(m) == size
