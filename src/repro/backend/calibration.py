"""Measured calibration behind the ``backend="auto"`` ingress boundary.

The ingress rule (:func:`repro.backend.protocol.choose_backend`) builds
a manager as a dense bitset table when its functions' support is at
most ``DEFAULT_BITSET_SUPPORT`` variables.  That threshold is not a guess —
it is the *measured* crossover from the PR-4 backend comparison
(``benchmarks/output/BENCH_BDD_backends_pr4.json``): every suite
benchmark decomposed on both backends, per-benchmark wall times and
speedups recorded.  The rows are embedded here verbatim so the boundary
is derivable offline, auditable in review, and pinned by tests:

* every benchmark with support <= 16 ran faster dense — including the
  ``ex7`` class at exactly 16 support, the widest measured win (1.53x,
  the thinnest margin in the table, which is what makes it the
  boundary row);
* no measured workload has support in (16, 20], so the boundary sits at
  the last point with evidence rather than an extrapolation.

:func:`support_boundary` re-derives the threshold from the rows;
:data:`repro.backend.protocol.DEFAULT_BITSET_SUPPORT` imports it, so
the shipped default cannot silently drift from the committed
measurements.  Re-run ``benchmarks/bench_bdd.py`` (full mode) after
backend perf changes and refresh the rows if the crossover moves.
"""

from __future__ import annotations

#: Where the embedded rows were measured (committed benchmark artifact).
CALIBRATION_SOURCE = "benchmarks/output/BENCH_BDD_backends_pr4.json"

#: Per-benchmark backend comparison: multi-output suite benchmarks
#: decomposed once per backend on the same machine and commit.
#: ``max_support`` is the widest per-output support of the benchmark;
#: ``speedup_bitset`` is ``bdd_s / bitset_s`` (> 1 means dense wins);
#: ``auto_vs_best`` is the auto dispatcher's wall time over the faster
#: backend's (1.0 would be a perfect oracle).
CALIBRATION_ROWS: tuple[dict, ...] = (
    {"name": "Z5xp1", "max_support": 7, "bdd_s": 0.07612, "bitset_s": 0.016888, "speedup_bitset": 4.507, "auto_vs_best": 1.042},
    {"name": "add6", "max_support": 12, "bdd_s": 1.067754, "bitset_s": 0.10901, "speedup_bitset": 9.795, "auto_vs_best": 1.037},
    {"name": "adr4", "max_support": 8, "bdd_s": 0.086085, "bitset_s": 0.014181, "speedup_bitset": 6.07, "auto_vs_best": 0.996},
    {"name": "b7", "max_support": 8, "bdd_s": 0.248405, "bitset_s": 0.053258, "speedup_bitset": 4.664, "auto_vs_best": 1.049},
    {"name": "br1", "max_support": 12, "bdd_s": 0.327464, "bitset_s": 0.048699, "speedup_bitset": 6.724, "auto_vs_best": 1.002},
    {"name": "br2", "max_support": 12, "bdd_s": 0.19287, "bitset_s": 0.035539, "speedup_bitset": 5.427, "auto_vs_best": 1.032},
    {"name": "clip", "max_support": 9, "bdd_s": 0.966507, "bitset_s": 0.081305, "speedup_bitset": 11.887, "auto_vs_best": 0.978},
    {"name": "dist", "max_support": 8, "bdd_s": 0.493052, "bitset_s": 0.04925, "speedup_bitset": 10.011, "auto_vs_best": 1.04},
    {"name": "ex7", "max_support": 16, "bdd_s": 0.070337, "bitset_s": 0.046066, "speedup_bitset": 1.527, "auto_vs_best": 1.037},
    {"name": "log8mod", "max_support": 8, "bdd_s": 0.277754, "bitset_s": 0.034152, "speedup_bitset": 8.133, "auto_vs_best": 1.018},
    {"name": "max1024", "max_support": 10, "bdd_s": 1.246687, "bitset_s": 0.108017, "speedup_bitset": 11.542, "auto_vs_best": 1.018},
    {"name": "max512", "max_support": 9, "bdd_s": 0.73073, "bitset_s": 0.073666, "speedup_bitset": 9.919, "auto_vs_best": 0.995},
    {"name": "mp2d", "max_support": 14, "bdd_s": 0.544302, "bitset_s": 0.130911, "speedup_bitset": 4.158, "auto_vs_best": 0.992},
    {"name": "newtpla2", "max_support": 10, "bdd_s": 0.021768, "bitset_s": 0.007027, "speedup_bitset": 3.098, "auto_vs_best": 0.978},
    {"name": "radd", "max_support": 8, "bdd_s": 0.05904, "bitset_s": 0.012692, "speedup_bitset": 4.652, "auto_vs_best": 1.017},
    {"name": "risc", "max_support": 8, "bdd_s": 0.122162, "bitset_s": 0.036798, "speedup_bitset": 3.32, "auto_vs_best": 0.996},
    {"name": "z4", "max_support": 7, "bdd_s": 0.050178, "bitset_s": 0.009151, "speedup_bitset": 5.483, "auto_vs_best": 1.027},
)


def support_boundary(
    rows: tuple[dict, ...] = CALIBRATION_ROWS, min_speedup: float = 1.0
) -> int:
    """Widest measured support at which the bitset backend still wins.

    The ``auto`` ingress threshold: dense tables are chosen exactly as
    far as the committed evidence supports (``speedup_bitset`` at least
    ``min_speedup``), never past it.  Raises :class:`ValueError` when
    no row wins — a boundary without evidence would be a guess.
    """
    winning = [
        row["max_support"]
        for row in rows
        if row["speedup_bitset"] >= min_speedup
    ]
    if not winning:
        raise ValueError(
            "no calibration row shows a bitset win; cannot derive a boundary"
        )
    return max(winning)


def boundary_row(
    rows: tuple[dict, ...] = CALIBRATION_ROWS, min_speedup: float = 1.0
) -> dict:
    """The row that *sets* the boundary (widest winning support).

    Ties break toward the smallest speedup — the thinnest margin is the
    evidence that actually constrains the threshold.
    """
    boundary = support_boundary(rows, min_speedup)
    at_boundary = [row for row in rows if row["max_support"] == boundary]
    return min(at_boundary, key=lambda row: row["speedup_bitset"])


def calibration_payload() -> dict:
    """JSON-ready snapshot of the calibration (the committed artifact).

    ``benchmarks/output/BACKEND_CALIBRATION_pr8.json`` is this payload
    verbatim; the regression suite reloads it and checks it still
    matches the embedded rows and the derived boundary.
    """
    return {
        "format": "repro-backend-calibration/1",
        "source": CALIBRATION_SOURCE,
        "support_boundary": support_boundary(),
        "boundary_row": boundary_row(),
        "rows": list(CALIBRATION_ROWS),
    }


__all__ = [
    "CALIBRATION_ROWS",
    "CALIBRATION_SOURCE",
    "boundary_row",
    "calibration_payload",
    "support_boundary",
]
