"""Every error the library raises shares one base, ``obdd.QobddError``."""

import importlib
import inspect
import pkgutil

import pytest

import qobdd
from qobdd.families import gen_eqprime
from qobdd.graphs import Graph
from qobdd.obdd import Manager, ObddError, QobddError, VarOrder
from qobdd.qures import QuResError, QuResProof, simulate_qures
from qobdd.rectangles import RectangleLabError

from .helpers import eval_ipg


def test_every_library_error_derives_from_qobdd_error():
    errors = {}
    for info in pkgutil.iter_modules(qobdd.__path__):
        module = importlib.import_module(f"qobdd.{info.name}")
        for name, cls in vars(module).items():
            if inspect.isclass(cls) and issubclass(cls, Exception):
                if cls.__module__ == module.__name__:
                    errors[f"{info.name}.{name}"] = cls
    assert {"obdd.ObddError", "proof.TraceParseError", "cli.UsageError"} <= set(errors)
    # a usage error belongs to the command line, not to the library
    del errors["cli.UsageError"]
    for name, cls in errors.items():
        assert issubclass(cls, QobddError), name


def test_bad_binary_op_is_an_obdd_error():
    mgr = Manager(VarOrder([1]))
    x = mgr.clause([1])
    with pytest.raises(ObddError, match="unknown binary op 'bogus'"):
        mgr.apply(x, mgr.ONE, "bogus")
    for code in (-1, 16):
        with pytest.raises(ObddError, match="op code out of range"):
            mgr.apply(x, mgr.ONE, code)
    # only names and non-bool ints are op codes: no float, bool, None or complex
    for op in (2.5, True, None, 2j):
        with pytest.raises(ObddError, match="unknown binary op"):
            mgr.apply(x, mgr.ONE, op)


def test_restrict_bit_other_than_0_or_1_is_an_obdd_error():
    mgr = Manager(VarOrder([1]))
    x = mgr.clause([1])
    for bit in (2, -1, "0", "1", None):
        with pytest.raises(ObddError, match="restrict bit must be 0 or 1"):
            mgr.restrict(x, 1, bit)
    assert (mgr.restrict(x, 1, 0), mgr.restrict(x, 1, 1)) == (mgr.ZERO, mgr.ONE)


def test_literal_zero_in_a_clause_is_an_obdd_error():
    mgr = Manager(VarOrder([1, 2]))
    for lits in ([0], [0, 1], [-2, 0]):
        with pytest.raises(ObddError, match="0 is not a literal"):
            mgr.clause(lits)


def test_evaluate_names_the_unassigned_variable():
    mgr = Manager(VarOrder([1, 2]))
    f = mgr.apply(mgr.clause([1]), mgr.clause([2]), "and")
    with pytest.raises(ObddError, match="assignment lacks variable 2"):
        mgr.evaluate(f, {1: 1})
    assert mgr.evaluate(f, {1: 0}) == mgr.ZERO  # variable 2 is not on this path


def test_shape_names_a_position_list_of_the_wrong_length():
    mgr = Manager(VarOrder([1, 2]))
    f = mgr.apply(mgr.clause([1]), mgr.clause([2]), "and")
    for positions in ([], [0], [0, 1, 2]):
        with pytest.raises(ObddError, match=f"{len(positions)} positions for an order of 2"):
            mgr.shape(f, positions)
    assert mgr.shape(f, [1, 0]).rightmost == 1


def test_eval_ipg_names_the_unassigned_vertex():
    g = Graph([1, 2, 3], [(1, 2), (2, 3)])
    with pytest.raises(RectangleLabError, match="assignment lacks vertex 1"):
        eval_ipg(g, {})
    with pytest.raises(RectangleLabError, match="assignment lacks vertex 3"):
        eval_ipg(g, {1: 1, 2: 1})
    assert eval_ipg(g, {1: 1, 2: 1, 3: 0}) == 1


def test_simulating_an_empty_qures_proof_is_a_qures_error():
    with pytest.raises(QuResError, match="proof does not derive the empty clause"):
        simulate_qures(gen_eqprime(2), QuResProof(()))
