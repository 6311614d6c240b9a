"""Ablation: minimizer quality and the mask-algebra inner-loop rewrite.

Two studies share this module:

* the original pytest pair — exact Quine-McCluskey vs espresso-lite on
  random functions (DESIGN.md substitutes espresso-lite for the
  authors' espresso; the heuristic's product counts stay within a few
  percent, which is why the substitution preserves the paper's shape);
* a CLI report (``python benchmarks/bench_ablation_minimizer.py``)
  measuring the :mod:`repro.cover.algebra` rewrite per minimizer:
  every minimizer runs the same workload twice — mask-native inner
  loops (``algebra=True``, the default) and the retained cube-object
  reference passes (``algebra=False``) — and the report records both
  walls plus a ``covers_identical`` verdict (the two paths must
  produce byte-identical covers; the rewrite is a pure representation
  change).  ``check_regression.py --ablation`` gates CI on that
  verdict and on the speedup staying >= 1.
"""

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import pytest

# Run as a script, only benchmarks/ is on the path; the report helper
# below is imported from the repository root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.boolfunc.isf import ISF
from repro.bdd.manager import BDD
from repro.boolfunc.convert import truthtable_to_function
from repro.boolfunc.truthtable import TruthTable
from repro.spp.synthesis import minimize_spp_heuristic
from repro.twolevel.espresso import espresso_minimize
from repro.twolevel.quine_mccluskey import minimize_exact
from repro.utils.rng import make_rng

from benchmarks.conftest import write_output

N_FUNCTIONS = 12
N_VARS = 6

REPORT_FORMAT = "repro-bench-ablation-minimizer/1"
OUTPUT_DIR = Path(__file__).parent / "output"

#: Wall-time repetitions per (minimizer, algebra) cell; best-of wins.
ROUNDS = 3


def _random_functions(count: int = N_FUNCTIONS, n_vars: int = N_VARS):
    rng = make_rng("ablation-minimizer")
    mgr = BDD([f"x{i}" for i in range(n_vars)])
    functions = []
    for _ in range(count):
        table = TruthTable.random(n_vars, rng, density=0.35)
        functions.append(
            ISF.completely_specified(truthtable_to_function(mgr, table))
        )
    return functions


FUNCTIONS = _random_functions()


def test_exact_qm(benchmark):
    def run():
        return [
            minimize_exact(N_VARS, list(f.on.minterms())) for f in FUNCTIONS
        ]

    covers = benchmark.pedantic(run, rounds=1, iterations=1)
    exact_products = sum(c.cube_count() for c in covers)
    assert exact_products > 0
    write_output(
        "ablation_minimizer_exact.txt",
        f"exact QM: {exact_products} products total over {N_FUNCTIONS} functions",
    )


def test_espresso_lite(benchmark):
    def run():
        return [espresso_minimize(f) for f in FUNCTIONS]

    covers = benchmark.pedantic(run, rounds=1, iterations=1)
    heuristic_products = sum(c.cube_count() for c in covers)
    exact_products = sum(
        minimize_exact(N_VARS, list(f.on.minterms())).cube_count()
        for f in FUNCTIONS
    )
    ratio = heuristic_products / exact_products
    write_output(
        "ablation_minimizer_heuristic.txt",
        f"espresso-lite: {heuristic_products} products"
        f" (exact {exact_products}, ratio {ratio:.3f})",
    )
    # The heuristic stays close to exact: this is the quality bound the
    # area comparisons rely on.
    assert ratio <= 1.25


# ---------------------------------------------------------------------------
# Algebra on/off ablation (CLI report; gated by check_regression.py)
# ---------------------------------------------------------------------------


def _cover_key(cover) -> tuple:
    """Canonical comparable form of a Cover or SppCover."""
    cubes = getattr(cover, "cubes", None)
    if cubes is not None:
        return tuple((cube.pos, cube.neg) for cube in cubes)
    return tuple(repr(pc) for pc in cover.pseudocubes)


def _espresso_run(functions, algebra: bool):
    return [espresso_minimize(f, algebra=algebra) for f in functions]


def _qm_run(functions, algebra: bool):
    return [
        minimize_exact(N_VARS, list(f.on.minterms()), algebra=algebra)
        for f in functions
    ]


def _spp_run(functions, algebra: bool):
    return [minimize_spp_heuristic(f, algebra=algebra) for f in functions]


#: The three minimizers of the stack, each with a mask-native primary
#: path and a cube-object reference path behind the same flag.
MINIMIZERS = (
    ("espresso", _espresso_run),
    ("qm", _qm_run),
    ("spp", _spp_run),
)


def _best_wall(runner, functions, algebra: bool, rounds: int = ROUNDS):
    """Best-of-``rounds`` wall time and the last run's covers."""
    best = None
    covers = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        covers = runner(functions, algebra)
        wall = time.perf_counter() - t0
        if best is None or wall < best:
            best = wall
    return best, covers


def calibration() -> float:
    """Wall time of the fixed pure-Python yardstick (best of three).

    The same workload ``bench_bdd.py`` and ``bench_multiout.py``
    record; the regression gate divides wall times by it to normalize
    across machines.
    """

    def run() -> int:
        acc = 0
        for i in range(300_000):
            acc = (acc * 1103515245 + 12345 + i) & ((1 << 64) - 1)
        return acc

    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        run()
        wall = time.perf_counter() - t0
        if best is None or wall < best:
            best = wall
    return best


def run_report(label: str, count: int) -> dict:
    functions = (
        FUNCTIONS if count == N_FUNCTIONS else _random_functions(count)
    )
    calibration_s = calibration()
    print(f"{'calibration':12s} {calibration_s:.4f}", file=sys.stderr)
    workloads: dict[str, dict] = {}
    for name, runner in MINIMIZERS:
        algebra_s, algebra_covers = _best_wall(runner, functions, True)
        object_s, object_covers = _best_wall(runner, functions, False)
        identical = [_cover_key(c) for c in algebra_covers] == [
            _cover_key(c) for c in object_covers
        ]
        record = {
            # ``wall_s`` is the primary (algebra) path so these rows
            # join the regression geomean like any other workload.
            "wall_s": algebra_s,
            "object_wall_s": object_s,
            "speedup_algebra": object_s / algebra_s,
            "covers_identical": identical,
            "products": sum(len(_cover_key(c)) for c in algebra_covers),
            "functions": len(functions),
        }
        workloads[f"ablation:{name}"] = record
        print(
            f"ablation:{name:10s} algebra {algebra_s:7.3f}s"
            f"  objects {object_s:7.3f}s"
            f"  speedup {record['speedup_algebra']:5.2f}x"
            f"  {'identical' if identical else 'DIVERGED'}",
            file=sys.stderr,
        )
    speedups = [r["speedup_algebra"] for r in workloads.values()]
    geomean = 1.0
    for value in speedups:
        geomean *= value
    geomean **= 1.0 / len(speedups)
    return {
        "format": REPORT_FORMAT,
        "label": label,
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
            "minimizers": len(workloads),
            "geomean_speedup_algebra": round(geomean, 4),
            "all_identical": all(
                r["covers_identical"] for r in workloads.values()
            ),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="dev", help="report label")
    parser.add_argument(
        "--functions",
        type=int,
        default=N_FUNCTIONS,
        help=f"random {N_VARS}-var functions per cell (default {N_FUNCTIONS})",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=(
            "report path (default"
            " benchmarks/output/ABLATION_MINIMIZER_<label>.json)"
        ),
    )
    args = parser.parse_args(argv)

    report = run_report(args.label, args.functions)
    output = args.output
    if output is None:
        OUTPUT_DIR.mkdir(exist_ok=True)
        output = OUTPUT_DIR / f"ABLATION_MINIMIZER_{args.label}.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(json.dumps(report["summary"], indent=2))
    if not report["summary"]["all_identical"]:
        print("FAIL: algebra and object paths produced different covers")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
