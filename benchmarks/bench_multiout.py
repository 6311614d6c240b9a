#!/usr/bin/env python
"""Shared vs per-output multi-output synthesis over the Table III/IV suite.

A standalone report script (like ``bench_bdd.py``): every paper
benchmark is synthesized into one shared network
(:func:`repro.netsyn.synthesis.synthesize_instance`) and the mapped
area of that network is compared against the per-output isolated sum —
the accounting the per-output harness flow reports::

    PYTHONPATH=src python benchmarks/bench_multiout.py
    PYTHONPATH=src python benchmarks/bench_multiout.py --quick

Each row records wall time, shared/isolated areas and gate counts, the
divisor-pool hit rate, and a sampled functional check of the network
against every output's truth table.  The report carries the same
``calibration_s`` yardstick as ``bench_bdd.py``, so the CI regression
gate (``check_regression.py --netsyn ...``) can normalize the netsyn
wall times across machines and additionally enforce the sharing
invariant ``shared_area <= isolated_area`` on every row.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path

from repro.benchgen.registry import BENCHMARKS, load_benchmark
from repro.netsyn.synthesis import synthesize_instance

#: Report identifier; bump on any incompatible layout change.
REPORT_FORMAT = "repro-bench-multiout/1"

#: The full paper suite: every Table III and Table IV benchmark.
SUITE_FULL = tuple(BENCHMARKS)

#: CI subset: small rows from both regimes (control + arithmetic).
SUITE_QUICK = ("newtpla2", "br1", "z4", "adr4")

#: Minterms sampled per benchmark for the functional spot check.
SAMPLES = 128

OUTPUT_DIR = Path(__file__).parent / "output"


def _timed(func):
    t0 = time.perf_counter()
    result = func()
    return time.perf_counter() - t0, result


def calibration() -> float:
    """Wall time of a fixed pure-Python workload (best of three).

    The same yardstick ``bench_bdd.py`` records: the regression gate
    divides wall times by it to normalize across machines.
    """

    def run() -> int:
        acc = 0
        for i in range(300_000):
            acc = (acc * 1103515245 + 12345 + i) & ((1 << 64) - 1)
        return acc

    best = None
    for _ in range(3):
        wall, _ = _timed(run)
        best = wall if best is None or wall < best else best
    return best


def _sampled_check(instance, network, samples: int = SAMPLES) -> bool:
    """Spot-check the network against every output on random minterms.

    The exhaustive check lives in the test suite; the report records a
    seeded sample so a committed JSON is self-evidencing.  Variable
    ``x_i`` carries minterm bit ``n - i`` (the repo's cube convention).
    """
    names = instance.mgr.var_names
    n = len(names)
    rng = random.Random(instance.name)
    space = 1 << n
    minterms = (
        range(space)
        if space <= samples
        else [rng.randrange(space) for _ in range(samples)]
    )
    for minterm in minterms:
        assignment = {
            name: bool((minterm >> (n - 1 - position)) & 1)
            for position, name in enumerate(names)
        }
        values = network.evaluate(assignment)
        for index, isf in enumerate(instance.outputs):
            expected = isf(minterm)
            if expected is None:
                continue  # don't-care: any completion is correct
            if values[f"o{index}"] != bool(expected):
                return False
    return True


def bench_one(name: str, jobs: int, backend: str) -> dict:
    """Synthesize one benchmark and flatten its accounting."""
    instance = load_benchmark(name, backend)
    wall, result = _timed(lambda: synthesize_instance(instance, jobs=jobs))
    verified = _sampled_check(instance, result.network)
    pool = result.pool_stats
    return {
        "wall_s": wall,
        "n_inputs": instance.spec.n_inputs,
        "n_outputs": instance.spec.n_outputs,
        "shared_area": result.shared_area,
        "isolated_area": result.isolated_area,
        "saving_pct": result.saving_pct,
        "shared_gate_count": result.shared_gate_count,
        "isolated_gate_count": result.isolated_gate_count,
        "pool_lookups": pool["lookups"] + pool["interval_lookups"],
        "pool_hits": pool["hits"] + pool["interval_hits"],
        "pool_hit_rate": result.pool_hit_rate,
        "pool_registered": pool["registered"],
        "verified": verified,
    }


def run(quick: bool, label: str, jobs: int, backend: str) -> dict:
    suite = SUITE_QUICK if quick else SUITE_FULL
    calibration_s = calibration()
    print(f"{'calibration':24s} {calibration_s:.4f}", file=sys.stderr)
    workloads: dict[str, dict] = {}
    for name in suite:
        record = bench_one(name, jobs, backend)
        workloads[f"netsyn:{name}"] = record
        print(
            f"netsyn:{name:18s} {record['wall_s']:7.2f}s"
            f"  shared {record['shared_area']:7.0f}"
            f"  isolated {record['isolated_area']:7.0f}"
            f"  save {record['saving_pct']:6.2f}%"
            f"  pool {100 * record['pool_hit_rate']:5.1f}%"
            f"  {'ok' if record['verified'] else 'MISMATCH'}",
            file=sys.stderr,
        )
    total_shared = sum(r["shared_area"] for r in workloads.values())
    total_isolated = sum(r["isolated_area"] for r in workloads.values())
    strictly_lower = sum(
        1
        for r in workloads.values()
        if r["shared_area"] < r["isolated_area"]
    )
    return {
        "format": REPORT_FORMAT,
        "label": label,
        "quick": quick,
        "jobs": jobs,
        "backend": backend,
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "calibration_s": round(calibration_s, 6),
        "workloads": {
            name: {
                key: (round(value, 6) if isinstance(value, float) else value)
                for key, value in record.items()
            }
            for name, record in workloads.items()
        },
        "summary": {
            "benchmarks": len(workloads),
            "total_shared_area": round(total_shared, 2),
            "total_isolated_area": round(total_isolated, 2),
            "total_saving_pct": round(
                100.0 * (total_isolated - total_shared) / total_isolated, 4
            )
            if total_isolated
            else 0.0,
            "rows_strictly_lower": strictly_lower,
            "all_verified": all(r["verified"] for r in workloads.values()),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI subset")
    parser.add_argument("--label", default="dev", help="report label")
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes per benchmark"
    )
    parser.add_argument(
        "--backend",
        default="auto",
        choices=("auto", "bdd", "bitset"),
        help=(
            "function representation the benchmarks are loaded as"
            " (networks are identical either way)"
        ),
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="report path (default benchmarks/output/BENCH_MULTIOUT_<label>.json)",
    )
    args = parser.parse_args(argv)

    report = run(args.quick, args.label, args.jobs, args.backend)
    output = args.output
    if output is None:
        OUTPUT_DIR.mkdir(exist_ok=True)
        output = OUTPUT_DIR / f"BENCH_MULTIOUT_{args.label}.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(json.dumps(report["summary"], indent=2))
    if not report["summary"]["all_verified"]:
        print("FAIL: a synthesized network disagreed with its outputs")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
