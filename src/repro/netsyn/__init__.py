"""Multi-output network synthesis with cross-output divisor sharing.

The per-output harness decomposes every output of a benchmark in
isolation and adds up the areas; this subsystem decomposes a whole
:class:`~repro.benchgen.registry.BenchmarkInstance` into **one** shared
:class:`~repro.techmap.network.LogicNetwork` instead:

* a :class:`~repro.netsyn.pool.DivisorPool` keyed by function handles
  (polarity-aware: ``g`` and ``¬g`` share one gate) lets outputs reuse
  each other's divisors, covers, and residual blocks;
* a support-overlap :func:`~repro.netsyn.scheduler.schedule_by_overlap`
  schedule orders outputs so that reusable blocks are in the pool by
  the time overlapping outputs need them;
* the :class:`~repro.netsyn.synthesis.NetworkSynthesizer` plans each
  output's block tree — recursive bi-decomposition through the
  :class:`~repro.engine.Decomposer` down to a literal threshold — in
  process or on worker processes, then merges it through the pool and
  instantiates the surviving covers into the strashed network, where
  identical gates materialize once.
"""

from repro.netsyn.pool import DivisorPool, PoolEntry
from repro.netsyn.scheduler import schedule_by_overlap
from repro.netsyn.synthesis import (
    NetsynConfig,
    NetworkSynthesisResult,
    NetworkSynthesizer,
    synthesize_instance,
)

__all__ = [
    "DivisorPool",
    "NetsynConfig",
    "NetworkSynthesisResult",
    "NetworkSynthesizer",
    "PoolEntry",
    "schedule_by_overlap",
    "synthesize_instance",
]
