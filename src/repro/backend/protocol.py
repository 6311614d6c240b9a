"""Backend-neutral protocol for Boolean function representations.

The decomposition stack (Table II quotients, operator algebra,
flexibility analysis, approximators, minimizers) manipulates functions
through a small structural interface: Boolean connectives with operator
overloading, set-ordering comparisons, evaluation, counting, cofactors
and quantifiers, plus a manager offering constants, variables, cubes,
minterms and shared memo tables.  Two backends implement it:

* :class:`~repro.bdd.manager.BDD` / :class:`~repro.bdd.manager.Function`
  — reduced ordered BDDs with complemented edges (scales with function
  structure; the only choice for wide-support functions);
* :class:`~repro.backend.bitset.BitsetBDD` /
  :class:`~repro.backend.bitset.BitsetFunction` — packed-integer dense
  truth tables (an order of magnitude faster on small-support
  functions).

This module declares the two classes of each role as virtual subclasses
of :class:`BooleanFunction` / :class:`BooleanManager`, so layers that
need a nominal check (``isinstance``) stay backend-agnostic, and hosts
the ingress rule: the backend is chosen once, when a manager is built
where functions enter the program
(:func:`~repro.benchgen.registry.load_benchmark`,
:func:`~repro.engine.wire.isf_from_payload`, and the shared manager of
:meth:`~repro.engine.decomposer.Decomposer.decompose_many`).  Everything
downstream computes in the function's own manager.
"""

from __future__ import annotations

from abc import ABC

from repro.backend.bitset import MAX_BITSET_VARS, BitsetBDD, BitsetFunction
from repro.bdd.manager import BDD, Function

#: Names accepted wherever a backend is selected.
BACKENDS = ("auto", "bdd", "bitset")

#: ``auto`` picks the bitset backend at or below this many support
#: variables, where the dense table measured faster on every suite
#: benchmark.  The widest measured win sets it: ex7, support 16, 1.53x
#: (``benchmarks/output/BENCH_BDD_backends_pr4.json``; no measured
#: benchmark has a support between 17 and 20).
#: ``tests/test_calibration.py`` derives it from that file.
DEFAULT_BITSET_SUPPORT = 16

#: ``auto`` never picks the bitset backend above this many *declared*
#: variables, regardless of support — the dense table is over the full
#: declared space, so feasibility is bounded by the declaration.
DEFAULT_BITSET_MAX_VARS = 20


class BooleanFunction(ABC):
    """Structural protocol both backend function types satisfy."""


class BooleanManager(ABC):
    """Structural protocol both backend manager types satisfy."""


BooleanFunction.register(Function)
BooleanFunction.register(BitsetFunction)
BooleanManager.register(BDD)
BooleanManager.register(BitsetBDD)


def backend_of(obj) -> str:
    """Backend name (``"bdd"`` or ``"bitset"``) of a manager or function."""
    mgr = getattr(obj, "mgr", obj)
    if isinstance(mgr, BitsetBDD):
        return "bitset"
    if isinstance(mgr, BDD):
        return "bdd"
    raise TypeError(f"not a backend manager or function: {obj!r}")


def support_size(*isfs) -> int:
    """Number of variables the on/dc sets of ``isfs`` depend on, together."""
    names: set[str] = set()
    for isf in isfs:
        names.update(isf.on.support())
        names.update(isf.dc.support())
    return len(names)


def choose_backend(n_vars: int, support: int, spec: str = "auto") -> str:
    """The ingress rule: which backend a new manager is built as.

    ``n_vars`` is the manager's declared width and ``support`` the number
    of those variables its functions depend on, all of them together.
    ``"auto"`` picks the bitset backend exactly when the declared space
    is densely feasible (``n_vars <= DEFAULT_BITSET_MAX_VARS``) and the
    support is at most ``DEFAULT_BITSET_SUPPORT``.  An explicit
    ``"bitset"`` is honored whenever a dense table is representable at
    all (``n_vars <= MAX_BITSET_VARS``) and rejected otherwise; ``"bdd"``
    is always honored.
    """
    if spec not in BACKENDS:
        raise ValueError(f"unknown backend {spec!r}; choose from {BACKENDS}")
    if spec == "bdd":
        return "bdd"
    if spec == "bitset":
        if n_vars > MAX_BITSET_VARS:
            raise ValueError(
                f"backend='bitset' needs <= {MAX_BITSET_VARS} declared"
                f" variables, got {n_vars}"
            )
        return "bitset"
    if n_vars <= DEFAULT_BITSET_MAX_VARS and support <= DEFAULT_BITSET_SUPPORT:
        return "bitset"
    return "bdd"


def make_manager(backend: str, var_names):
    """A fresh manager of ``backend`` (``"bdd"`` or ``"bitset"``)."""
    return BitsetBDD(var_names) if backend == "bitset" else BDD(var_names)


__all__ = [
    "BACKENDS",
    "DEFAULT_BITSET_MAX_VARS",
    "DEFAULT_BITSET_SUPPORT",
    "BooleanFunction",
    "BooleanManager",
    "backend_of",
    "choose_backend",
    "make_manager",
    "support_size",
]
