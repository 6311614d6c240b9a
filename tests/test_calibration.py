"""The ``auto`` ingress boundary matches the committed backend evidence.

``DEFAULT_BITSET_SUPPORT`` must equal the widest ``max_support`` at
which the dense table won in ``BENCH_BDD_backends_pr4.json`` (every
suite benchmark decomposed on both backends).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.backend.protocol import DEFAULT_BITSET_MAX_VARS, DEFAULT_BITSET_SUPPORT
from repro.bdd.manager import BDD
from repro.boolfunc.isf import ISF
from repro.engine.wire import isf_to_payload, payload_backend

BACKENDS_BENCH = (
    Path(__file__).parent.parent
    / "benchmarks"
    / "output"
    / "BENCH_BDD_backends_pr4.json"
)


def test_boundary_is_sixteen_via_ex7():
    rows = json.loads(BACKENDS_BENCH.read_text(encoding="utf-8"))[
        "backend_comparison"
    ]["rows"]
    boundary = max(
        row["max_support"] for row in rows.values() if row["speedup_bitset"] >= 1
    )
    assert DEFAULT_BITSET_SUPPORT == boundary == 16
    at_boundary = [name for name, row in rows.items() if row["max_support"] == boundary]
    assert at_boundary == ["ex7"]


def _isf_with_support(n_vars: int, support: int) -> ISF:
    mgr = BDD([f"v{i}" for i in range(n_vars)])
    f = mgr.true
    for i in range(support):
        f = f & mgr.var(f"v{i}")
    return ISF.completely_specified(f)


def test_auto_routes_boundary_support_to_bitset():
    # An ex7-class payload: 16-var support in a densely feasible space.
    isf = _isf_with_support(DEFAULT_BITSET_MAX_VARS, DEFAULT_BITSET_SUPPORT)
    assert payload_backend(isf_to_payload(isf)) == "bitset"


def test_auto_routes_past_boundary_to_bdd():
    isf = _isf_with_support(
        DEFAULT_BITSET_MAX_VARS, DEFAULT_BITSET_SUPPORT + 1
    )
    assert payload_backend(isf_to_payload(isf)) == "bdd"


def test_auto_respects_declared_space_bound():
    # Small support in an infeasibly wide declaration still goes to BDD.
    isf = _isf_with_support(DEFAULT_BITSET_MAX_VARS + 1, 4)
    assert payload_backend(isf_to_payload(isf)) == "bdd"
