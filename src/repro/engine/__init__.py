"""Strategy-driven decomposition engine (the primary public API).

* :class:`~repro.engine.decomposer.Decomposer` — configurable front end
  over the paper's approximate → full-quotient → minimize → verify flow,
  with ``op="auto"`` operator search and batch execution over a shared
  BDD manager;
* :mod:`~repro.engine.registry` — named approximator and minimizer
  registries, extensible with :func:`register_approximator` and
  :func:`register_minimizer`;
* :mod:`~repro.engine.request` — :class:`DecomposeRequest` /
  :class:`DecomposeResult` artifacts carrying strategy provenance,
  per-stage timings, and literal/error metrics;
* :mod:`~repro.engine.cache` — :class:`ResultCache`, the persistent
  on-disk result store consulted before any batch work is dispatched;
* :mod:`~repro.engine.parallel` / :mod:`~repro.engine.wire` — batch
  work items, run on the worker fleet of :mod:`repro.service.fleet`,
  and the serialized request/result forms they share with the cache.
"""

from repro.engine.cache import ResultCache
from repro.engine.decomposer import AutoSearchError, Decomposer, VerificationError
from repro.engine.registry import (
    APPROXIMATORS,
    MINIMIZERS,
    StrategyRegistry,
    UnknownStrategyError,
    register_approximator,
    register_minimizer,
)
from repro.engine.request import (
    CandidateOutcome,
    DecomposeRequest,
    DecomposeResult,
    Divisor,
)

__all__ = [
    "APPROXIMATORS",
    "AutoSearchError",
    "CandidateOutcome",
    "Decomposer",
    "DecomposeRequest",
    "DecomposeResult",
    "Divisor",
    "MINIMIZERS",
    "ResultCache",
    "StrategyRegistry",
    "UnknownStrategyError",
    "VerificationError",
    "register_approximator",
    "register_minimizer",
]
