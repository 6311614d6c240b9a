"""Request/result artifacts of the decomposition engine.

A :class:`DecomposeRequest` names *what* to decompose and with which
strategies; a :class:`DecomposeResult` carries the verified
:class:`~repro.core.bidecomposition.BiDecomposition` together with the
strategy names that produced it, per-stage wall-clock timings, and the
literal/error metrics the engine ranked candidates by.  Keeping both as
first-class values (rather than positional arguments and bare return
tuples) is what lets multi-operator and batch workloads stay declarative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.bdd.manager import Function
from repro.boolfunc.isf import ISF
from repro.core.bidecomposition import BiDecomposition
from repro.core.operators import BinaryOperator


@dataclass
class Divisor:
    """A ready divisor ``g``, optionally with a pre-minimized cover.

    Approximators may return one of these (or anything with the same
    ``g``/``g_cover`` attributes, e.g.
    :class:`~repro.approx.expansion.ExpansionResult`) to spare the engine
    a re-minimization of ``g``.
    """

    g: Function
    g_cover: object | None = None
    name: str = ""


@dataclass
class DecomposeRequest:
    """One unit of work for :class:`~repro.engine.Decomposer`.

    ``op`` is an operator name, a :class:`BinaryOperator`, or ``"auto"``
    to search all registered operators.  ``approximator`` / ``minimizer``
    override the engine defaults; each may be a registry name (with an
    optional ``:arg`` parameter), a bare callable, or — for the
    approximator — a ready divisor (:class:`~repro.bdd.manager.Function`
    or :class:`Divisor`).  ``None`` means "use the engine default".
    The engine computes in ``f``'s own manager, whose backend was chosen
    where ``f`` entered the program.
    """

    f: ISF
    op: str | BinaryOperator = "auto"
    approximator: object | None = None
    minimizer: str | Callable | None = None
    #: Verify ``f = g op h`` and fail (or, under auto, skip the candidate)
    #: when the check does not hold.
    verify: bool = True
    #: Optional label carried through to the result (benchmarks, batches).
    name: str = ""
    metadata: dict = field(default_factory=dict)


@dataclass
class CandidateOutcome:
    """Outcome of one operator tried during ``op="auto"`` search."""

    op_name: str
    verified: bool
    literal_cost: int | None = None
    error_rate: float | None = None
    #: Why the candidate was rejected ("" for the eligible ones).
    reason: str = ""

    def to_dict(self) -> dict:
        """Plain-dict form for JSON output."""
        return {
            "op": self.op_name,
            "verified": self.verified,
            "literal_cost": self.literal_cost,
            "error_rate": self.error_rate,
            "reason": self.reason,
        }


@dataclass
class DecomposeResult:
    """A decomposition plus the provenance and metrics that produced it."""

    decomposition: BiDecomposition
    request: DecomposeRequest
    #: Canonical name of the operator actually used.
    op_name: str
    #: Resolved strategy names ("expand-full", "spp", ...).
    approximator_name: str
    minimizer_name: str
    #: Wall-clock seconds per stage: ``approximate``, ``quotient``,
    #: ``minimize``, ``verify``, and ``total``.  Memoized sub-results
    #: contribute no time, so batch timings reflect real work only.
    timings: dict[str, float] = field(default_factory=dict)
    #: Total 2-SPP/SOP literals of the realized g and h covers.
    literal_cost: int = 0
    #: Fraction of the Boolean space flipped by the approximation.
    error_rate: float = 0.0
    verified: bool = False
    #: Under ``op="auto"``: every operator tried, in search order.
    candidates: list[CandidateOutcome] = field(default_factory=list)
    #: :meth:`repro.bdd.manager.BDD.stats` snapshot of the manager that
    #: computed this result (worker-side for parallel runs), or ``None``
    #: when the result was reassembled from a payload without one.  Not
    #: part of the result's identity: excluded from :meth:`to_dict` so
    #: cached, serial, and parallel runs stay comparable.
    bdd_stats: dict | None = None

    @property
    def name(self) -> str:
        """The request label (for batch reporting)."""
        return self.request.name

    def to_dict(self) -> dict:
        """Machine-readable summary (the CLI ``--json`` payload)."""
        return {
            "name": self.request.name,
            "op": self.op_name,
            "approximator": self.approximator_name,
            "minimizer": self.minimizer_name,
            # Batched requests record the pre-transfer input count; the
            # shared manager may declare more variables than f uses.
            "n_vars": self.request.metadata.get("n_vars", self.request.f.n_vars),
            "verified": self.verified,
            "literal_cost": self.literal_cost,
            "error_rate": self.error_rate,
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
            "candidates": [c.to_dict() for c in self.candidates],
        }
