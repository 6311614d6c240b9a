"""The ``auto`` ingress boundary is derived from committed evidence.

``DEFAULT_BITSET_SUPPORT`` is no longer a hard-coded constant: it is
computed from the embedded PR-4 backend-calibration rows
(:mod:`repro.backend.calibration`), and the committed
``BACKEND_CALIBRATION_pr8.json`` artifact must stay in sync with the
module so a reviewer can audit the boundary without re-running the
bench.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.backend.calibration import (
    CALIBRATION_ROWS,
    boundary_row,
    calibration_payload,
    support_boundary,
)
from repro.backend.protocol import DEFAULT_BITSET_MAX_VARS, DEFAULT_BITSET_SUPPORT
from repro.bdd.manager import BDD
from repro.boolfunc.isf import ISF
from repro.engine.wire import isf_to_payload, payload_backend

ARTIFACT = (
    Path(__file__).parent.parent
    / "benchmarks"
    / "output"
    / "BACKEND_CALIBRATION_pr8.json"
)


def test_boundary_is_sixteen_via_ex7():
    assert support_boundary() == 16
    assert DEFAULT_BITSET_SUPPORT == support_boundary()
    row = boundary_row()
    assert row["name"] == "ex7"
    assert row["max_support"] == 16
    assert row["speedup_bitset"] > 1.0


def test_boundary_requires_a_winning_row():
    losing = [
        {"name": "slow", "max_support": 4, "speedup_bitset": 0.5},
    ]
    with pytest.raises(ValueError):
        support_boundary(losing)


def test_committed_artifact_matches_module():
    payload = calibration_payload()
    committed = json.loads(ARTIFACT.read_text(encoding="utf-8"))
    assert committed == json.loads(json.dumps(payload))
    assert committed["support_boundary"] == DEFAULT_BITSET_SUPPORT
    assert committed["boundary_row"]["name"] == "ex7"
    assert len(committed["rows"]) == len(CALIBRATION_ROWS)


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
