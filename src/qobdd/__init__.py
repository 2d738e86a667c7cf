"""OBDD-based QBF solving with checkable traces and strategy extraction.

The pieces fit together as a pipeline: parse or generate a PCNF formula,
solve it by symbolic quantifier elimination while logging every derivation
step, replay the log with the independent checker, extract the universal
winning strategy from the reductions in the log, and verify or analyze it.
"""

from .families import (
    eqprime_decomposition,
    gen_eqprime,
    gen_ipg_qbf,
    gen_quparity,
    quparity_decomposition,
)
from .graphs import (
    Graph,
    PathDecomposition,
    order_from_decomposition,
    path_decomposition,
    random_dregular,
)
from .obdd import Manager, QobddError, VarOrder
from .pcnf import Pcnf, clause, emit_qdimacs, parse_qdimacs, primal_graph
from .proof import ProofTrace, check_trace, emit_trace, formula_hash, parse_trace
from .qures import QuResProof, parse_qures, simulate_qures
from .rectangles import (
    check_rectanglesmall,
    induced_matching,
    ip_truth_table,
    max_mono_rectangle,
)
from .solver import SolveResult, default_order, prefix_order, solve
from .strategy import (
    DecisionList,
    DecisionListFamily,
    and_protocol_run,
    extract,
    strategy_range_size,
    to_rectangle_list,
    verify_winning,
)

__version__ = "0.1.0"
