#!/usr/bin/env python
"""CI perf regression gate over ``bench_bdd.py`` JSON reports.

Compares a freshly produced report against a committed baseline and
fails (exit code 1) when the calibration-normalized geometric-mean
speedup across common workloads drops below ``1 - max_regression``::

    python benchmarks/check_regression.py \
        benchmarks/output/BENCH_BDD_ci.json \
        --baseline benchmarks/output/BENCH_BDD_ci_baseline.json \
        --max-regression 0.25 --check-hashes \
        --netsyn benchmarks/output/BENCH_MULTIOUT_ci.json \
        --netsyn-baseline benchmarks/output/BENCH_MULTIOUT_ci_baseline.json

Cross-machine normalization: both reports carry ``calibration_s`` — the
wall time of a fixed pure-Python workload on the producing machine.
Every baseline wall time is scaled by ``current_cal / baseline_cal``
before the ratio, so a uniformly slower CI runner does not read as a
regression (and a faster one cannot mask a real slowdown).  Reports
without calibration fall back to raw wall times.

``--check-hashes`` additionally fails when any suite-function canonical
hash differs from the baseline's — a representation change that broke
the wire format would surface here even if it made everything faster.

``--netsyn``/``--netsyn-baseline`` fold a ``bench_multiout.py`` report
pair into the same gate: its rows join the geomean (normalized by that
pair's own calibrations), and the run additionally fails when any
current row breaks the sharing invariant ``shared_area <=
isolated_area`` or flunked its sampled functional check.

``--service``/``--service-baseline`` do the same for a
``bench_service.py`` pair: its wall times join the merged geomean and
the run fails unless the current report certifies the service
invariants — every response byte-identical to the in-process run,
coalesce rate above zero under duplicate load with zero client errors,
a warm cache round that actually hit, and a warm-fleet p50 below the
one-shot ``decompose_many`` wall.

Refresh the committed baselines with ``benchmarks/refresh_baseline.sh``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path


def load_report(path: Path) -> dict:
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict) or "workloads" not in data:
        raise SystemExit(f"{path}: not a bench_bdd report")
    return data


def compare_reports(
    current: dict, baseline: dict, check_hashes: bool = False
) -> dict:
    """Normalized per-workload speedups + hash verdict (pure; testable)."""
    cal_current = current.get("calibration_s")
    cal_baseline = baseline.get("calibration_s")
    scale = (
        cal_current / cal_baseline
        if cal_current and cal_baseline
        else 1.0
    )
    speedups: dict[str, float] = {}
    for name, record in current["workloads"].items():
        base = baseline["workloads"].get(name)
        if not base:
            continue
        base_wall, wall = base.get("wall_s"), record.get("wall_s")
        if not base_wall or not wall:
            continue
        speedups[name] = (base_wall * scale) / wall
    geomean = geomean_of(speedups)
    hash_failures: list[str] = []
    if check_hashes:
        base_hashes = baseline.get("hashes") or {}
        for name, hashes in (current.get("hashes") or {}).items():
            if name in base_hashes and hashes != base_hashes[name]:
                hash_failures.append(name)
    return {
        "scale": scale,
        "speedups": speedups,
        "geomean": geomean,
        "hash_failures": hash_failures,
    }


def geomean_of(speedups: dict[str, float]) -> float | None:
    """Geometric mean of merged per-workload speedups (``None`` if empty)."""
    if not speedups:
        return None
    return math.exp(
        sum(math.log(value) for value in speedups.values()) / len(speedups)
    )


def netsyn_invariants(report: dict) -> list[str]:
    """Rows of a ``bench_multiout`` report violating the sharing gate.

    A row fails when the shared network's area exceeds the per-output
    isolated sum (sharing must never lose) or when its sampled
    functional check reported a mismatch.
    """
    failures: list[str] = []
    for name, record in report.get("workloads", {}).items():
        shared = record.get("shared_area")
        isolated = record.get("isolated_area")
        if shared is not None and isolated is not None and shared > isolated:
            failures.append(
                f"{name}: shared area {shared} > isolated {isolated}"
            )
        if record.get("verified") is False:
            failures.append(f"{name}: sampled functional check failed")
    return failures


def service_invariants(report: dict) -> list[str]:
    """Summary rows of a ``bench_service`` report violating the gate.

    The service must never change what gets computed (byte-identity),
    and the serving machinery must demonstrably engage: duplicate load
    coalesces without client errors, the warm cache round hits, and the
    warm-fleet p50 beats the one-shot batch wall.  Reports that carry
    the fault-injection and admission phases must additionally show a
    hung worker timing out and recovering, a SIGKILLed fleet serving a
    byte-identical payload, and an over-budget burst drawing typed
    ``overloaded`` rejections; reports with the trace-overhead probe
    must show tracing leaving payloads byte-identical and the traced
    p50 inside its envelope; ``--chaos`` reports must additionally
    show every seeded fault plan replaying deterministically and the
    resize-under-load probe dropping zero requests (the ``is False``
    guards keep older reports without those phases passing).
    """
    summary = report.get("summary", {})
    failures: list[str] = []
    if not summary.get("all_identical"):
        failures.append("a service response diverged from the in-process run")
    if summary.get("coalesce_rate", 0.0) <= 0.0:
        failures.append("duplicate concurrent load did not coalesce")
    if summary.get("coalesce_errors", 0):
        failures.append(
            f"coalesce clients saw {summary['coalesce_errors']} errors"
        )
    if summary.get("cache_hit_rate", 0.0) <= 0.0:
        failures.append("warm cache round produced no hits")
    if not summary.get("warm_p50_below_oneshot"):
        failures.append("warm-fleet p50 did not beat the one-shot batch")
    if summary.get("timeout_recovered") is False:
        failures.append("hung-worker request did not time out and recover")
    if summary.get("crash_identical") is False:
        failures.append("post-crash payload diverged from the healthy run")
    if summary.get("admission_errors", 0):
        failures.append(
            f"admission burst saw {summary['admission_errors']} untyped errors"
        )
    if summary.get("admission_ok") is False:
        failures.append(
            "admission burst did not reject over-budget load with typed"
            " overloaded errors"
        )
    if summary.get("trace_identical") is False:
        failures.append("tracing changed a decomposition payload")
    if summary.get("trace_overhead_ok") is False:
        failures.append(
            "trace overhead probe failed: lost traces, invalid Chrome"
            " export, or traced p50 outside the envelope"
        )
    if summary.get("chaos_ok") is False:
        failures.append(
            "a seeded fault plan replayed nondeterministically or produced"
            " an untyped/diverged outcome"
        )
    if summary.get("resize_ok") is False:
        failures.append(
            "resize under load dropped requests or failed to converge"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, help="freshly produced report")
    parser.add_argument(
        "--baseline", type=Path, required=True, help="committed baseline report"
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="fail when normalized geomean speedup < 1 - this (default 0.25)",
    )
    parser.add_argument(
        "--check-hashes",
        action="store_true",
        help="also fail when suite canonical hashes differ from the baseline",
    )
    parser.add_argument(
        "--netsyn",
        type=Path,
        default=None,
        help="fresh bench_multiout report to gate alongside",
    )
    parser.add_argument(
        "--netsyn-baseline",
        type=Path,
        default=None,
        help="committed bench_multiout baseline (required with --netsyn)",
    )
    parser.add_argument(
        "--service",
        type=Path,
        default=None,
        help="fresh bench_service report to gate alongside",
    )
    parser.add_argument(
        "--service-baseline",
        type=Path,
        default=None,
        help="committed bench_service baseline (required with --service)",
    )
    args = parser.parse_args(argv)
    if (args.netsyn is None) != (args.netsyn_baseline is None):
        parser.error("--netsyn and --netsyn-baseline go together")
    if (args.service is None) != (args.service_baseline is None):
        parser.error("--service and --service-baseline go together")

    result = compare_reports(
        load_report(args.current),
        load_report(args.baseline),
        check_hashes=args.check_hashes,
    )
    print(f"calibration scale (current/baseline): {result['scale']:.3f}")
    merged = dict(result["speedups"])

    failed = False
    # Each report pair must overlap its own baseline: a stale or renamed
    # baseline would otherwise vanish from the merged geomean silently.
    if result["geomean"] is None:
        print("FAIL: no common workloads between the reports")
        failed = True
    netsyn_failures: list[str] = []
    if args.netsyn is not None:
        netsyn_current = load_report(args.netsyn)
        netsyn_result = compare_reports(
            netsyn_current, load_report(args.netsyn_baseline)
        )
        print(
            f"netsyn calibration scale (current/baseline):"
            f" {netsyn_result['scale']:.3f}"
        )
        if netsyn_result["geomean"] is None:
            print("FAIL: no common workloads between the netsyn reports")
            failed = True
        merged.update(netsyn_result["speedups"])
        netsyn_failures = netsyn_invariants(netsyn_current)
    service_failures: list[str] = []
    if args.service is not None:
        service_current = load_report(args.service)
        service_result = compare_reports(
            service_current, load_report(args.service_baseline)
        )
        print(
            f"service calibration scale (current/baseline):"
            f" {service_result['scale']:.3f}"
        )
        if service_result["geomean"] is None:
            print("FAIL: no common workloads between the service reports")
            failed = True
        merged.update(service_result["speedups"])
        service_failures = service_invariants(service_current)

    for name, speedup in sorted(merged.items()):
        marker = "" if speedup >= 1 - args.max_regression else "  << REGRESSION"
        print(f"  {name:30s}{speedup:8.3f}x{marker}")

    if result["hash_failures"]:
        print(
            f"FAIL: canonical hashes changed for suite rows:"
            f" {sorted(result['hash_failures'])}"
        )
        failed = True
    for failure in netsyn_failures:
        print(f"FAIL: netsyn invariant: {failure}")
        failed = True
    for failure in service_failures:
        print(f"FAIL: service invariant: {failure}")
        failed = True
    geomean = geomean_of(merged)
    if geomean is None:
        failed = True
    else:
        threshold = 1.0 - args.max_regression
        verdict = "ok" if geomean >= threshold else "FAIL"
        print(
            f"geomean speedup vs baseline: {geomean:.3f}x"
            f" (gate: >= {threshold:.2f}) {verdict}"
        )
        if geomean < threshold:
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
