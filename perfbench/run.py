#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``paper``     -- ``run_benchmark`` on the 25 rows of Tables III+IV;
* ``netsyn``    -- ``synthesize_instance(jobs=2)`` on the same rows;
* ``svc-fresh`` -- distinct requests against ``repro-bidec serve``, at
  two fixed rates and then in a closed loop.

``--trace 0`` measures the end-to-end metrics with tracing off and
reports times at reference speed (``speed.py``); ``--trace 1`` is a
separate traced run that reports the per-layer metrics.  Human-readable
detail goes to stdout first; the last line is ``{"correct", "attempted",
"failed", "metrics"}``.  The program is imported from ``src/`` of the
checkout; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("paper", "netsyn", "svc-fresh")

#: End-to-end metrics and their units (``BENCHMARK.json`` lists the same).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "lat_p50_ms.low": "ms",
    "lat_tail_ms.low": "ms",
    "lat_p50_ms.high": "ms",
    "lat_tail_ms.high": "ms",
    "max_rps": "1/s",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload in ("paper", "netsyn"):
        from offline import Offline

        bench = Offline(args.workload, args.seed, ROOT)
    else:
        from service import Service

        bench = Service(args.seed, ROOT)

    try:
        setup_s = bench.setup(probe=not args.trace)
        _require_checkout_source()
        if args.trace:
            result = bench.measure_traced()
        else:
            result = bench.measure(args.seconds)
            values = {"setup_s": setup_s, **result["metrics"]}
            result["metrics"] = {
                name: {"value": float(values[name]), "unit": unit}
                for name, unit in END_TO_END.items()
            }
    finally:
        bench.close()
    finite = all(math.isfinite(m["value"]) for m in result["metrics"].values())
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and result["attempted"] > 0 and finite,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


def _require_checkout_source() -> None:
    """Refuse to measure a ``repro`` imported from anywhere but ``src/``."""
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: repro imported from {origin}, not {SRC}")


if __name__ == "__main__":
    sys.exit(main())
