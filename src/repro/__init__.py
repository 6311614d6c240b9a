"""repro — reproduction of *Computing the full quotient in
bi-decomposition by approximation* (Bernasconi, Ciriani, Cortadella,
Villa — DATE 2020).

The library bi-decomposes a Boolean function ``f`` as ``f = g op h``
where the divisor ``g`` is an *approximation* of ``f`` and the quotient
``h`` is computed with its **full flexibility** (smallest on-set,
largest dc-set — paper Table II).  Everything the flow needs is
implemented here from scratch: a BDD engine, cube/cover algebra and PLA
I/O, exact and heuristic two-level minimization, 2-SPP (XOR-AND-OR)
synthesis, expansion-based approximation, a genlib technology mapper,
and the paper's benchmark suite and experiment harness.

The primary entry point is the strategy-driven engine::

    from repro import BDD, ISF, Decomposer, parse_expression

    mgr = BDD(["x1", "x2", "x3", "x4"])
    f = ISF.completely_specified(
        parse_expression(mgr, "x1 & x2 & x4 | x2 & x3 & x4")
    )
    engine = Decomposer(approximator="expand-full", minimizer="spp")
    result = engine.decompose(f, op="auto")   # searches all 10 operators
    assert result.verified
    print(result.op_name, result.literal_cost, result.timings["total"])

    # Batches share one BDD manager and memoize sub-results; jobs=N runs
    # them on N worker processes and cache=<dir> persists results on disk:
    results = engine.decompose_many([("f", f)], op="AND", jobs=2,
                                    cache=".decompose-cache")

The classic one-shot driver remains available::

    from repro import bidecompose, approximate_expand_full

    approx = approximate_expand_full(f)
    dec = bidecompose(f, "AND", approx.g)
    assert dec.verify()
"""

from repro.approx import (
    approximate_expand_bounded,
    approximate_expand_full,
    approximation_for_operator,
    error_rate,
)
from repro.backend import (
    BitsetBDD,
    BitsetFunction,
    BooleanFunction,
    BooleanManager,
    choose_backend,
)
from repro.bdd import BDD, Function, isop, parse_expression, transfer
from repro.boolfunc import ISF, TruthTable
from repro.core import (
    OPERATORS,
    BiDecomposition,
    apply_operator,
    bidecompose,
    full_quotient,
    is_full_quotient,
    is_valid_quotient,
    operator_by_name,
    semantic_full_quotient,
    validate_divisor,
)
from repro.cover import PLA, Cover, Cube, parse_pla, write_pla
from repro.engine import (
    APPROXIMATORS,
    MINIMIZERS,
    Decomposer,
    DecomposeRequest,
    DecomposeResult,
    Divisor,
    ResultCache,
    register_approximator,
    register_minimizer,
)
from repro.netsyn import (
    DivisorPool,
    NetsynConfig,
    NetworkSynthesisResult,
    NetworkSynthesizer,
)
from repro.spp import Pseudocube, SppCover, minimize_spp
from repro.twolevel import espresso_minimize, minimize_exact

__version__ = "1.1.0"

__all__ = [
    "APPROXIMATORS",
    "BDD",
    "BiDecomposition",
    "BitsetBDD",
    "BitsetFunction",
    "BooleanFunction",
    "BooleanManager",
    "Cover",
    "Cube",
    "Decomposer",
    "DecomposeRequest",
    "DecomposeResult",
    "Divisor",
    "DivisorPool",
    "Function",
    "ISF",
    "MINIMIZERS",
    "NetsynConfig",
    "NetworkSynthesisResult",
    "NetworkSynthesizer",
    "OPERATORS",
    "PLA",
    "Pseudocube",
    "ResultCache",
    "SppCover",
    "TruthTable",
    "__version__",
    "apply_operator",
    "approximate_expand_bounded",
    "approximate_expand_full",
    "approximation_for_operator",
    "bidecompose",
    "choose_backend",
    "error_rate",
    "espresso_minimize",
    "full_quotient",
    "is_full_quotient",
    "is_valid_quotient",
    "isop",
    "minimize_exact",
    "minimize_spp",
    "operator_by_name",
    "parse_expression",
    "parse_pla",
    "register_approximator",
    "register_minimizer",
    "semantic_full_quotient",
    "transfer",
    "validate_divisor",
    "write_pla",
]
