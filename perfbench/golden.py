#!/usr/bin/env python3
"""Record the golden output fingerprints the benchmark checks against.

    python3 perfbench/golden.py paper     # golden/paper.json
    python3 perfbench/golden.py netsyn    # golden/netsyn.json
    python3 perfbench/golden.py svc       # golden/svc.json

Run it only when a change to the outputs is deliberate: every later run
of the benchmark fails each op whose fingerprint differs.  Every output
passes the independent evaluator (``check.py``) before it is recorded;
one that does not is left unrecorded, so the benchmark fails it too,
and the command exits 1.  The set of svc-fresh keys is fixed apart from
these records, in ``deck.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"


def offline(workload: str) -> dict:
    from offline import Offline

    bench = Offline(workload, seed=0, root=ROOT)
    bench.setup(probe=False)
    rows = {}
    results = []
    for instance in bench.instances:
        result = bench.run_row(instance)
        results.append(result)
        rows[result.name] = bench.fingerprint(instance, result)
        print(result.name, rows[result.name].get("shared_area", rows[result.name].get("area_f")), flush=True)
    golden = {"rows": rows}
    if workload == "paper":
        from repro.harness.report import shape_summary

        golden["shape"] = shape_summary(results)
    return golden


def svc() -> tuple[dict, int]:
    from service import Server, build_universe, run_closed

    universe = build_universe()
    payloads = {}
    with Server(ROOT) as server:
        replies = run_closed(server.port, {req.id: req.line(req.id) for req in universe})
    failed = 0
    for req in universe:
        reply, _ = replies.get(req.id, (None, None))
        try:
            if reply is None or not reply.get("ok"):
                raise check.CheckFailed(f"error reply {reply and reply.get('error')}")
            check.check_decomposition(req.f_dump, reply["result"], seed=0)
        except check.CheckFailed as exc:
            failed += 1
            print(f"left unrecorded {req.id}: {exc}")
            continue
        payloads[req.id] = check.fingerprint(reply["result"])
    print(f"{len(payloads)} keys recorded, {failed} left unrecorded")
    return {"payloads": payloads}, failed


def main() -> int:
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what in ("paper", "netsyn"):
        golden, failed = offline(what), 0
    elif what == "svc":
        golden, failed = svc()
    else:
        print(__doc__, file=sys.stderr)
        return 2
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / f"{what}.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
