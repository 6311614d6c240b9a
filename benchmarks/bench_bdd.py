#!/usr/bin/env python
"""Substrate benchmark: wall time, node counts, cache rates, backends.

Unlike the paper-table benches (pytest-benchmark experiments), this is a
standalone script so CI and developers can track the performance of the
function-representation cores across commits::

    PYTHONPATH=src python benchmarks/bench_bdd.py --quick
    PYTHONPATH=src python benchmarks/bench_bdd.py \
        --baseline benchmarks/output/BENCH_BDD_pre_pr3.json

Workloads cover the two layers the decomposition engine exercises:

* **kernels** — raw manager operations (apply chains, negation-heavy
  mixes, satcount, ISOP extraction, deep chain functions, lazy cube
  streaming);
* **suite** — end-to-end ``Decomposer.decompose_many`` runs over the
  synthetic control-logic benchmarks (the load included), under
  **every backend**: ``suite:<name>`` loads the benchmark by the
  production ``auto`` ingress rule, ``suite-bdd:<name>`` /
  ``suite-bitset:<name>`` pin the representation through the loader.
  The ``backend_comparison`` section summarizes the bitset-vs-BDD
  speedup per row (decompose time only) and how close ``auto`` lands
  to the better of the two.

Every run records the canonical hash of each suite function, so a
representation change in either core (complemented edges, the dense
bitset backend) can be checked for wire-format stability against a
stored baseline, plus a fixed pure-Python ``calibration_s`` workload so
the CI regression gate can normalize wall times across machines.  The
JSON report lands in ``benchmarks/output/`` (``--output`` to
override); ``--baseline`` prints per-workload speedups and their
geometric mean.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from pathlib import Path

from repro.bdd.manager import BDD
from repro.bdd.ops import isop
from repro.bdd.serialize import dump_many, function_fingerprint

#: Report identifier; bump on any incompatible layout change.
REPORT_FORMAT = "repro-bench-bdd/1"

#: Backends every suite row is measured under.
BACKENDS = ("auto", "bdd", "bitset")

#: Benchmarks decomposed end to end: the synthetic control-logic subset
#: of paper Table III (the historical rows) plus the complete arithmetic
#: set of paper Table IV — the XOR-rich workloads the bitset backend is
#: built for.  All rows, strong and weak, are kept: the backend
#: comparison reports the honest geomean over everything.
SUITE_CONTROL = ("newtpla2", "br1", "br2", "mp2d", "b7", "risc")
SUITE_ARITHMETIC = (
    "dist",
    "max512",
    "ex7",
    "z4",
    "clip",
    "max1024",
    "adr4",
    "radd",
    "add6",
    "log8mod",
    "Z5xp1",
)
SUITE_FULL = SUITE_CONTROL + SUITE_ARITHMETIC
SUITE_QUICK = ("newtpla2", "br1", "z4", "adr4")

OUTPUT_DIR = Path(__file__).parent / "output"


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _manager_stats(mgr: BDD) -> dict:
    """Best-effort manager statistics (older cores lack ``stats()``)."""
    stats = getattr(mgr, "stats", None)
    if callable(stats):
        return stats()
    return {"nodes": mgr.node_count()}


def _cache_hit_rate(mgr: BDD) -> float | None:
    """Aggregate computed-table hit rate, when the manager reports one."""
    stats = _manager_stats(mgr)
    tables = stats.get("tables")
    if not tables:
        return None
    hits = sum(t["hits"] for t in tables.values())
    misses = sum(t["misses"] for t in tables.values())
    total = hits + misses
    return round(hits / total, 4) if total else None


def _timed(func):
    """Run ``func`` once, returning ``(wall_seconds, result)``."""
    t0 = time.perf_counter()
    result = func()
    return time.perf_counter() - t0, result


def calibration() -> float:
    """Wall time of a fixed pure-Python workload (best of three).

    A machine-speed yardstick: the CI regression gate divides every wall
    time by it before comparing against the committed baseline, so a
    uniformly slower (or faster) runner does not read as a regression
    (or mask one).
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


# ---------------------------------------------------------------------------
# Kernel workloads
# ---------------------------------------------------------------------------


def _build_adder_carry(bits: int):
    """Carry-out of a ripple adder: the classic BDD stress function."""
    mgr = BDD([f"a{i}" for i in range(bits)] + [f"b{i}" for i in range(bits)])
    carry = mgr.false
    for i in range(bits - 1, -1, -1):
        a = mgr.var(f"a{i}")
        b = mgr.var(f"b{i}")
        carry = (a & b) | ((a ^ b) & carry)
    return mgr, carry


def kernel_adder_build(quick: bool) -> dict:
    bits = 10 if quick else 14
    wall, (mgr, carry) = _timed(lambda: _build_adder_carry(bits))
    return {
        "wall_s": wall,
        "bits": bits,
        "nodes": mgr.node_count(),
        "carry_size": carry.size(),
        "cache_hit_rate": _cache_hit_rate(mgr),
    }


def kernel_negation_mix(quick: bool) -> dict:
    """Negation- and XOR-heavy apply mix (complemented-edge showcase)."""
    bits = 8 if quick else 11
    mgr, carry = _build_adder_carry(bits)

    def run():
        acc = carry
        for i in range(bits):
            a = mgr.var(f"a{i}")
            b = mgr.var(f"b{i}")
            acc = ~((acc ^ ~a) | ~(acc & ~b))
            acc = acc ^ ~carry
        return acc

    wall, acc = _timed(run)
    return {
        "wall_s": wall,
        "bits": bits,
        "result_size": acc.size(),
        "nodes": mgr.node_count(),
        "cache_hit_rate": _cache_hit_rate(mgr),
    }


def kernel_satcount(quick: bool) -> dict:
    """Repeated satcount over a family of related functions."""
    bits = 8 if quick else 10
    mgr, carry = _build_adder_carry(bits)
    functions = [carry, ~carry]
    for i in range(bits):
        functions.append(carry ^ mgr.var(f"a{i}"))

    def run():
        total = 0
        for _ in range(20):
            for f in functions:
                total += f.satcount()
        return total

    wall, total = _timed(run)
    return {"wall_s": wall, "bits": bits, "checksum": total % (1 << 61)}


def kernel_isop(quick: bool) -> dict:
    bits = 7 if quick else 8
    mgr, carry = _build_adder_carry(bits)
    wall, (cubes, realized) = _timed(lambda: isop(carry, carry))
    assert realized == carry
    return {"wall_s": wall, "bits": bits, "cubes": len(cubes)}


def kernel_deep_chain(quick: bool) -> dict:
    """A chain function over many variables: depth-robustness check.

    Exercises apply, satcount, ISOP, minterm iteration, and canonical
    serialization at a depth that overflows naive recursive
    implementations (the pre-overhaul core dies here with
    ``RecursionError``).
    """
    n = 300 if quick else 500
    record: dict = {"n_vars": n}
    try:
        def run():
            mgr = BDD([f"x{i}" for i in range(n)])
            f = mgr.true
            for i in range(n):
                f = f & mgr.var(f"x{i}")
            g = ~f
            assert f.satcount() == 1
            assert list(f.minterms()) == [(1 << n) - 1]
            cubes, realized = isop(f, f)
            assert realized == f and len(cubes) == 1
            other = BDD([f"x{i}" for i in range(n)])
            from repro.bdd.ops import transfer

            copied = transfer(f, other)
            assert function_fingerprint(copied) == function_fingerprint(f)
            return g

        wall, _ = _timed(run)
        record.update({"wall_s": wall, "crashed": False})
    except RecursionError:
        record.update({"wall_s": None, "crashed": True})
    return record


def kernel_complement(quick: bool) -> dict:
    """Negation of fresh functions — the complemented-edge headline.

    Builds a family of distinct functions (untimed), then times pure
    negation plus double-negation/excluded-middle identities.  The old
    core walked the whole graph per fresh ``~f``; complemented edges
    answer in O(1).
    """
    bits = 9 if quick else 11
    mgr, carry = _build_adder_carry(bits)
    functions = []
    for i in range(2 * bits):
        a = mgr.var(f"a{i % bits}")
        b = mgr.var(f"b{(i * 7 + 3) % bits}")
        functions.append(carry ^ (a & b) if i % 2 else carry ^ (a | b))

    def run():
        count = 0
        for f in functions:
            g = ~f
            assert (~g) == f
            assert (f ^ g).is_true
            count += 1
        return count

    wall, checksum = _timed(run)
    return {"wall_s": wall, "bits": bits, "functions": len(functions), "checksum": checksum}


def kernel_quotient(quick: bool) -> dict:
    """Table II full-quotient formulas, all ten operators per output.

    The negation-rich quotient formulas are the paper's core BDD
    workload; canonical valid divisors (upper/lower bounds of f and its
    complement) exercise every approximation kind.
    """
    from repro.benchgen.registry import load_benchmark
    from repro.core.operators import TABLE_I_ORDER, ApproximationKind, operator_by_name
    from repro.core.quotient import full_quotient

    from repro.bdd.ops import transfer
    from repro.boolfunc.isf import ISF

    operators = [operator_by_name(name) for name in TABLE_I_ORDER]
    instance = load_benchmark("br2" if quick else "mp2d", "bdd")
    rounds = 10 if quick else 20

    def run():
        checksum = 0
        # Fresh manager per round: computed tables start cold, so every
        # round measures real quotient work (not a warm-cache no-op).
        for _ in range(rounds):
            mgr = BDD(instance.mgr.var_names)
            for source in instance.outputs:
                isf = ISF(transfer(source.on, mgr), transfer(source.dc, mgr))
                divisors = {
                    ApproximationKind.OVER_F: isf.upper,
                    ApproximationKind.UNDER_F: isf.on,
                    ApproximationKind.OVER_COMPLEMENT: ~isf.on,
                    ApproximationKind.UNDER_COMPLEMENT: isf.off,
                    ApproximationKind.ANY: isf.on,
                }
                for op in operators:
                    h = full_quotient(isf, divisors[op.approximation], op)
                    checksum ^= h.on.satcount() ^ h.dc.satcount()
        return checksum

    wall, checksum = _timed(run)
    return {
        "wall_s": wall,
        "benchmark": instance.name,
        "rounds": rounds,
        "n_outputs": len(instance.outputs),
        "checksum": checksum,
    }


def kernel_containment(quick: bool) -> dict:
    """Subset/disjointness batteries (the minimizer's inner loop)."""
    from repro.benchgen.registry import load_benchmark

    from repro.bdd.ops import transfer

    instance = load_benchmark("newtpla2" if quick else "br1", "bdd")
    source_functions = [isf.on for isf in instance.outputs] + [
        isf.upper for isf in instance.outputs
    ]
    source_cubes = []
    for isf in instance.outputs:
        cubes, _realized = isop(isf.on, isf.upper)
        source_cubes.extend(cubes)
    rounds = 5 if quick else 10

    def run():
        true_count = 0
        # Fresh manager per round, as in kernel:quotient.
        for _ in range(rounds):
            mgr = BDD(instance.mgr.var_names)
            functions = [transfer(f, mgr) for f in source_functions]
            cube_functions = [mgr.cube(cube) for cube in source_cubes]
            for f in functions:
                for g in functions:
                    true_count += f <= g
                    true_count += f.disjoint(g)
            for c in cube_functions:
                for f in functions:
                    true_count += c <= f
        return true_count

    wall, true_count = _timed(run)
    return {
        "wall_s": wall,
        "benchmark": instance.name,
        "rounds": rounds,
        "checks_true": true_count,
    }


def kernel_quotient_bitset(quick: bool) -> dict:
    """The quotient kernel on the dense bitset backend.

    Identical workload and checksum to ``kernel:quotient`` — Table II on
    every operator over a suite benchmark — but computed on packed truth
    tables (fresh manager per round, conversion through the serializer
    included), so the row pair isolates the backend speedup on the
    paper's core formulas.
    """
    from repro.backend import BitsetBDD
    from repro.bdd.ops import transfer
    from repro.benchgen.registry import load_benchmark
    from repro.boolfunc.isf import ISF
    from repro.core.operators import TABLE_I_ORDER, ApproximationKind, operator_by_name
    from repro.core.quotient import full_quotient

    operators = [operator_by_name(name) for name in TABLE_I_ORDER]
    instance = load_benchmark("br2" if quick else "mp2d", "bdd")
    rounds = 10 if quick else 20

    def run():
        checksum = 0
        for _ in range(rounds):
            mgr = BitsetBDD(instance.mgr.var_names)
            for source in instance.outputs:
                isf = ISF(transfer(source.on, mgr), transfer(source.dc, mgr))
                divisors = {
                    ApproximationKind.OVER_F: isf.upper,
                    ApproximationKind.UNDER_F: isf.on,
                    ApproximationKind.OVER_COMPLEMENT: ~isf.on,
                    ApproximationKind.UNDER_COMPLEMENT: isf.off,
                    ApproximationKind.ANY: isf.on,
                }
                for op in operators:
                    h = full_quotient(isf, divisors[op.approximation], op)
                    checksum ^= h.on.satcount() ^ h.dc.satcount()
        return checksum

    wall, checksum = _timed(run)
    return {
        "wall_s": wall,
        "benchmark": instance.name,
        "rounds": rounds,
        "n_outputs": len(instance.outputs),
        "checksum": checksum,
    }


def kernel_reorder(quick: bool) -> dict:
    """Sifting reorder on a blocked-order interconnect function.

    ``OR(x_i AND y_i)`` declared blocked (all x's, then all y's) is the
    textbook exponential-order function: 2^(k+1) - 1 nodes blocked,
    3k + 2 interleaved.  The kernel builds it blocked, runs
    :meth:`repro.bdd.manager.BDD.reorder`, and records the reduction —
    the committed evidence that sifting finds the interleaved order.
    The function is checked semantically (satcount) before and after.
    """
    k = 7 if quick else 8
    names = [f"x{i}" for i in range(k)] + [f"y{i}" for i in range(k)]
    mgr = BDD(names)
    f = mgr.false
    for i in range(k):
        f = f | (mgr.var(f"x{i}") & mgr.var(f"y{i}"))
    nodes_before = mgr.node_count()
    count_before = f.satcount()
    wall, stats = _timed(mgr.reorder)
    assert f.satcount() == count_before, "reorder changed the function"
    return {
        "wall_s": wall,
        "k": k,
        "nodes_before": nodes_before,
        "nodes_after": mgr.node_count(),
        "reduction": round(nodes_before / mgr.node_count(), 3),
        "swaps": stats["swaps"],
        "satcount": count_before,
    }


KERNELS = {
    "kernel:adder-build": kernel_adder_build,
    "kernel:reorder": kernel_reorder,
    "kernel:negation-mix": kernel_negation_mix,
    "kernel:satcount": kernel_satcount,
    "kernel:isop": kernel_isop,
    "kernel:complement": kernel_complement,
    "kernel:quotient": kernel_quotient,
    "kernel:quotient-bitset": kernel_quotient_bitset,
    "kernel:containment": kernel_containment,
    "kernel:deep-chain": kernel_deep_chain,
}


# ---------------------------------------------------------------------------
# Synthetic decomposition suite
# ---------------------------------------------------------------------------


def suite_workload(
    name: str, backend: str = "auto", reorder: bool = False
) -> tuple[dict, list[str]]:
    """Build one synthetic benchmark and decompose every output (AND).

    ``backend`` is the loader's backend.  ``reorder=True`` loads BDDs
    whatever ``backend`` says (sifting is a no-op on a dense table) and
    runs the batch with an aggressive gc + sifting trigger (thresholds
    of 1 — every request ends in a collection and a reorder), then
    fingerprints the inputs *after* the run: dumps are
    declaration-order-normalized, so the hashes must still match the
    committed baselines byte for byte.  This is the CI smoke proving
    reordering never leaks into results.
    """
    from repro.backend import support_size
    from repro.benchgen.registry import load_benchmark
    from repro.engine.decomposer import Decomposer

    build_wall, instance = _timed(
        lambda: load_benchmark(name, "bdd" if reorder else backend)
    )
    hashes = [function_fingerprint(isf.on) for isf in instance.outputs]

    if reorder:
        engine = Decomposer(reorder_threshold=1)
        decomp_wall, results = _timed(
            lambda: engine.decompose_many(
                [
                    (f"{name}:f{i}", isf)
                    for i, isf in enumerate(instance.outputs)
                ],
                op="AND",
                gc_threshold=1,
            )
        )
        # Re-fingerprint through the (possibly reordered) manager: any
        # leak of the current order into the wire format shows up as a
        # hash mismatch against the committed baseline.
        hashes = [function_fingerprint(isf.on) for isf in instance.outputs]
    else:
        engine = Decomposer()
        decomp_wall, results = _timed(
            lambda: engine.decompose_many(
                [
                    (f"{name}:f{i}", isf)
                    for i, isf in enumerate(instance.outputs)
                ],
                op="AND",
            )
        )
    assert all(r.verified for r in results)
    record = {
        "wall_s": build_wall + decomp_wall,
        "build_s": build_wall,
        "decompose_s": decomp_wall,
        "backend": backend,
        "max_support": max(support_size(isf) for isf in instance.outputs),
        "n_outputs": len(instance.outputs),
        "nodes": instance.mgr.node_count(),
        # Shared ROBDD size of the inputs, read off their canonical dump
        # so it is the same figure whichever backend they were loaded as.
        "dag_nodes": len(
            dump_many(
                [(f"on{i}", isf.on) for i, isf in enumerate(instance.outputs)]
                + [(f"dc{i}", isf.dc) for i, isf in enumerate(instance.outputs)]
            )["nodes"]
        ),
        "literal_cost": sum(r.literal_cost for r in results),
        "cache_hit_rate": _cache_hit_rate(instance.mgr),
    }
    if reorder:
        record["reorder"] = True
    return record, hashes


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def geometric_mean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def compare(report: dict, baseline: dict) -> dict:
    """Per-workload speedups vs a baseline report + hash stability."""
    speedups: dict[str, float] = {}
    for name, record in report["workloads"].items():
        base = baseline["workloads"].get(name)
        if not base:
            continue
        if not base.get("wall_s") or not record.get("wall_s"):
            continue
        speedups[name] = round(base["wall_s"] / record["wall_s"], 3)
    # Hash stability over the *common* suite rows: the suite can grow
    # across report generations without breaking old baselines.
    base_hashes = baseline.get("hashes") or {}
    common = set(report["hashes"]) & set(base_hashes)
    hashes_match = bool(common) and all(
        report["hashes"][name] == base_hashes[name] for name in common
    )

    def geomean_of(prefix: str) -> float | None:
        values = [v for k, v in speedups.items() if k.startswith(prefix)]
        return round(geometric_mean(values), 3) if values else None

    summary = {
        "baseline_label": baseline.get("label"),
        "speedups": speedups,
        "geomean_speedup": round(geometric_mean(list(speedups.values())), 3)
        if speedups
        else None,
        # Break the headline number down so no single row hides: kernels
        # isolate individual core operations (the complement kernel is an
        # O(n) → O(1) asymptotic change and dominates), suite rows are
        # end-to-end decompositions.
        "geomean_speedup_kernels": geomean_of("kernel:"),
        "geomean_speedup_suite": geomean_of("suite:"),
        "hashes_match_baseline": hashes_match,
    }
    return summary


def backend_comparison(workloads: dict, suite: tuple) -> dict:
    """Summarize the suite rows' backend matchup.

    ``speedup_bitset`` compares decompose time only; ``auto_vs_best``
    is the decompose time of the ``auto`` load over the better pinned
    backend (1.0 = the ingress rule picked the faster one).
    """
    rows: dict[str, dict] = {}
    small_speedups: list[float] = []
    penalties: list[float] = []
    for name in suite:
        bdd_s = workloads[f"suite-bdd:{name}"]["decompose_s"]
        bitset_s = workloads[f"suite-bitset:{name}"]["decompose_s"]
        auto_s = workloads[f"suite:{name}"]["decompose_s"]
        support = workloads[f"suite:{name}"]["max_support"]
        speedup = bdd_s / bitset_s if bitset_s else None
        penalty = auto_s / min(bdd_s, bitset_s)
        rows[name] = {
            "max_support": support,
            "bdd_s": round(bdd_s, 6),
            "bitset_s": round(bitset_s, 6),
            "auto_s": round(auto_s, 6),
            "speedup_bitset": round(speedup, 3) if speedup else None,
            "auto_vs_best": round(penalty, 3),
        }
        penalties.append(penalty)
        if support <= 16 and speedup:
            small_speedups.append(speedup)
    return {
        "rows": rows,
        "geomean_speedup_bitset_small_support": round(
            geometric_mean(small_speedups), 3
        )
        if small_speedups
        else None,
        "max_auto_vs_best": round(max(penalties), 3) if penalties else None,
    }


def run(quick: bool, label: str, reorder: bool = False) -> dict:
    suite = SUITE_QUICK if quick else SUITE_FULL
    workloads: dict[str, dict] = {}
    hashes: dict[str, list[str]] = {}
    calibration_s = calibration()
    print(f"{'calibration':28s} {calibration_s:.4f}", file=sys.stderr)
    for name, kernel in KERNELS.items():
        # Best of three: kernels are short enough for scheduler noise to
        # dominate a single shot (the suite rows are long enough not to).
        best = None
        for _ in range(3):
            record = kernel(quick)
            if record.get("wall_s") is None:
                best = record
                break
            if best is None or record["wall_s"] < best["wall_s"]:
                best = record
        workloads[name] = best
        print(f"{name:28s} {workloads[name].get('wall_s')}", file=sys.stderr)
    for name in suite:
        for backend in BACKENDS:
            # Best of three full (build + decompose) runs per backend:
            # the backend-comparison ratios need tighter samples than a
            # single trajectory row does.
            best = None
            for _ in range(3):
                record, function_hashes = suite_workload(
                    name, backend, reorder=reorder
                )
                if best is None or record["wall_s"] < best[0]["wall_s"]:
                    best = (record, function_hashes)
            # The production auto row keeps the historical key so
            # --baseline comparisons line up across report generations.
            key = f"suite:{name}" if backend == "auto" else f"suite-{backend}:{name}"
            workloads[key] = best[0]
            if backend == "auto":
                hashes[name] = best[1]
            print(f"{key:28s} {best[0]['wall_s']:.3f}s", file=sys.stderr)
    return {
        "format": REPORT_FORMAT,
        "label": label,
        "quick": quick,
        "reorder": reorder,
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "calibration_s": round(calibration_s, 6),
        "workloads": {
            name: {
                k: (round(v, 6) if isinstance(v, float) else v)
                for k, v in record.items()
            }
            for name, record in workloads.items()
        },
        "backend_comparison": backend_comparison(workloads, suite),
        "hashes": hashes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller workloads (CI)")
    parser.add_argument("--label", default="dev", help="report label")
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="report path (default benchmarks/output/BENCH_BDD_<label>.json)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="prior report to compute speedups against",
    )
    parser.add_argument(
        "--reorder",
        action="store_true",
        help=(
            "run suite rows with aggressive gc + sifting reorder between"
            " requests; hashes must still match any baseline byte for byte"
        ),
    )
    args = parser.parse_args(argv)

    report = run(args.quick, args.label, reorder=args.reorder)
    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
        report["comparison"] = compare(report, baseline)

    output = args.output
    if output is None:
        OUTPUT_DIR.mkdir(exist_ok=True)
        output = OUTPUT_DIR / f"BENCH_BDD_{args.label}.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(json.dumps({k: v for k, v in report.items() if k != "workloads"}, indent=2))
    for name, record in report["workloads"].items():
        wall = record.get("wall_s")
        wall_text = f"{wall:9.3f}s" if wall is not None else "  CRASHED"
        print(f"  {name:28s}{wall_text}")
    comparison = report.get("backend_comparison", {})
    if comparison.get("rows"):
        print("\nbackend comparison (decompose time, bdd vs bitset vs auto):")
        for name, row in comparison["rows"].items():
            print(
                f"  {name:12s} support<={row['max_support']:2d}"
                f"  bdd {row['bdd_s']:.3f}s  bitset {row['bitset_s']:.3f}s"
                f"  auto {row['auto_s']:.3f}s"
                f"  ({row['speedup_bitset']}x bitset,"
                f" auto/best {row['auto_vs_best']})"
            )
        print(
            f"  geomean bitset speedup (support<=16):"
            f" {comparison['geomean_speedup_bitset_small_support']}x;"
            f" worst auto/best {comparison['max_auto_vs_best']}"
        )
    if "comparison" in report:
        comp = report["comparison"]
        print(f"\nspeedup vs {comp['baseline_label']}:")
        for name, speedup in comp["speedups"].items():
            print(f"  {name:28s}{speedup:9.3f}x")
        print(f"  {'geometric mean':28s}{comp['geomean_speedup']:9.3f}x")
        print(f"  {'  kernels only':28s}{comp['geomean_speedup_kernels']:9.3f}x")
        print(f"  {'  suite only':28s}{comp['geomean_speedup_suite']:9.3f}x")
        print(f"  hashes match baseline: {comp['hashes_match_baseline']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
