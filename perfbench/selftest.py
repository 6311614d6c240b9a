#!/usr/bin/env python3
"""Self-tests of the benchmark's own rules; no program code is run.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import socket
import subprocess
import sys
import tempfile
import threading
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import service  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        value, pct, n = stats.tail(list(range(1, 101)))
        self.assertEqual((value, pct, n), (90, 90.0, 100))
        value, pct, n = stats.tail(list(range(1, 1001)))
        self.assertEqual((value, pct, n), (990, 99.0, 1000))

    def test_failures_count_as_missing_the_limit(self):
        values = list(range(1, 96)) + [math.inf] * 5
        value, pct, _ = stats.tail(values)
        self.assertEqual(value, 90)  # the 5 failures sit beyond it
        value, _, _ = stats.tail(list(range(1, 86)) + [math.inf] * 15)
        self.assertTrue(math.isinf(value))

    def test_too_few_samples_fall_back_to_the_median(self):
        self.assertEqual(stats.tail([3, 1, 2]), (2, 50.0, 3))
        self.assertEqual(stats.tail([]), (0.0, 0.0, 0))


def _span(span_id, parent, site, t0, t1):
    return {"span_id": span_id, "parent_id": parent, "site": site, "t0": t0, "t1": t1, "attrs": {}}


class SelfTime(unittest.TestCase):
    # root [0,10] -> a [1,4] (-> c [2,3]) and b [3,6]: a and b overlap.
    SPANS = [
        _span("r", None, "server.request", 0.0, 10.0),
        _span("a", "r", "fleet.roundtrip", 1.0, 4.0),
        _span("c", "a", "worker.compute", 2.0, 3.0),
        _span("b", "r", "cache.put", 3.0, 6.0),
    ]

    def test_self_time_subtracts_the_union_of_children(self):
        own = stats.self_times(self.SPANS)
        self.assertEqual(own, {"r": 5.0, "a": 2.0, "c": 1.0, "b": 3.0})

    def test_layers_sum_to_the_root(self):
        by_layer = stats.self_time_by_layer(self.SPANS)
        self.assertEqual(by_layer, {"server": 5.0, "fleet": 2.0, "worker": 1.0, "cache": 3.0})
        # a and b run concurrently for 1 s; each keeps its own time.
        self.assertEqual(sum(by_layer.values()), 11.0)
        self.assertEqual(stats.unattributed_share(self.SPANS), 0.5)

    def test_per_request_sums(self):
        (request,) = stats.per_request(self.SPANS, "server.request")
        self.assertEqual(request["fleet.roundtrip"], 3.0)
        self.assertEqual(request["fleet.roundtrip:self"], 2.0)
        self.assertEqual(request["server.request:self"], 5.0)


# f = a AND b over vars (a, b); dc = 0.
F_DUMP = {"format": "repro-bdd/1", "vars": ["a", "b"], "nodes": [[1, 0, 1], [0, 0, 2]], "roots": {"on": 3, "dc": 0}}
GOOD = {
    "op": "AND",
    "g_cover": {"kind": "sop", "n_vars": 2, "cubes": [[0b01, 0]]},  # a
    "h_cover": {"kind": "spp", "n_vars": 2, "pseudocubes": [[0b10, 0, []]]},  # b
    "timings": {"total": 0.5},
}


class TamperedPayload(unittest.TestCase):
    def test_evaluator_accepts_a_correct_payload(self):
        check.check_decomposition(F_DUMP, GOOD, seed=7)

    def test_evaluator_rejects_a_tampered_cover(self):
        bad = dict(GOOD, h_cover={"kind": "sop", "n_vars": 2, "cubes": [[0, 0b10]]})  # ~b
        with self.assertRaises(check.CheckFailed):
            check.check_decomposition(F_DUMP, bad, seed=7)
        xor = dict(GOOD, h_cover={"kind": "spp", "n_vars": 2, "pseudocubes": [[0, 0, [[0, 1, 1]]]]})
        with self.assertRaises(check.CheckFailed):
            check.check_decomposition(F_DUMP, xor, seed=7)

    def test_fingerprint_ignores_timings_only(self):
        self.assertEqual(check.fingerprint(GOOD), check.fingerprint(dict(GOOD, timings={})))
        self.assertNotEqual(check.fingerprint(GOOD), check.fingerprint(dict(GOOD, op="OR")))

    def test_a_tampered_reply_is_a_failed_op(self):
        svc = service.Service(seed=3, root=HERE)
        request = service.Request("k" * 64, "row/o0", F_DUMP, b"{}")
        svc.golden = {request.id: check.fingerprint(GOOD)}
        self.assertTrue(svc.ok(request, {"ok": True, "result": GOOD}))
        tampered = dict(GOOD, h_cover={"kind": "sop", "n_vars": 2, "cubes": [[0, 0b10]]})
        self.assertFalse(svc.ok(request, {"ok": True, "result": tampered}))
        self.assertFalse(svc.ok(request, {"ok": False, "error": {"type": "boom"}}))
        # The evaluator alone catches a wrong payload the golden record agrees with.
        svc.golden[request.id] = check.fingerprint(tampered)
        svc._checked.clear()
        self.assertFalse(svc.ok(request, {"ok": True, "result": tampered}))
        # A key of the deck with no golden record fails, right or not.
        svc.golden = {}
        svc._checked.clear()
        self.assertFalse(svc.ok(request, {"ok": True, "result": GOOD}))


class Deck(unittest.TestCase):
    @staticmethod
    def dealt(seed: int, n: int) -> list[str]:
        svc = service.Service(seed=seed, root=HERE)
        svc.deck = [f"row/o{i}" for i in range(30)]
        svc.keys = {out: [service.Request(f"{out}:{op}", out, {}, b"{}") for op in range(11)] for out in svc.deck}
        svc.dealt = 0
        return [r.key for r in svc.draw(n)]

    def test_every_window_holds_the_same_keys_whatever_the_seed(self):
        a, b = self.dealt(1, 240), self.dealt(2, 240)
        self.assertNotEqual(a, b)
        self.assertEqual(len(set(a)), 240)
        for start in range(0, 240, service.WINDOW):
            self.assertEqual(set(a[start : start + service.WINDOW]), set(b[start : start + service.WINDOW]))


class StalledServer:
    """Answers each line in order; stalls once on the request id ``stall``."""

    def __init__(self, stall_s: float) -> None:
        self.stall_s = stall_s
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self.serve, daemon=True)
        self.thread.start()

    def serve(self) -> None:
        conn, _ = self.sock.accept()
        with conn, conn.makefile("rb") as reader:
            for line in reader:
                request_id = json.loads(line)["id"]
                if request_id == "stall":
                    time.sleep(self.stall_s)
                conn.sendall(json.dumps({"id": request_id, "ok": True}).encode() + b"\n")

    def close(self) -> None:
        self.thread.join(timeout=10)
        self.sock.close()


class DueTimeAccounting(unittest.TestCase):
    def test_a_stall_delays_the_requests_behind_it(self):
        server = StalledServer(stall_s=0.3)
        ids = [f"r{i}" for i in range(40)]
        ids[10] = "stall"
        lines = [json.dumps({"id": i}).encode() + b"\n" for i in ids]
        step = service.run_open(server.port, lines, service.fixed_schedule(100.0, 0.4))
        server.close()
        self.assertFalse(server.thread.is_alive())
        self.assertEqual(len(step.arrivals), 40)
        arrival = {json.loads(raw)["id"]: t for t, raw in step.arrivals}
        latency = [arrival[i] - due for i, due in zip(ids, step.due)]
        # Requests due during the stall wait for it, each less the time it
        # was due after the stall began: about 0.3 - 0.01 * k seconds.
        for k in range(1, 20):
            self.assertGreater(latency[10 + k], 0.3 - 0.01 * k - 0.05)
        self.assertLess(max(latency[:10]), 0.1)
        # The generator itself kept to the schedule.
        lateness = [s - d for s, d in zip(step.sent, step.due)]
        self.assertLess(stats.median(lateness), 0.005)


class ReferenceSpeed(unittest.TestCase):
    @staticmethod
    def probes(samples):
        probes = speed.Probes(Path("unused"))
        probes.samples = sorted(samples)
        return probes

    def test_factor_is_reference_over_the_mean_probe(self):
        ref = speed.REFERENCE_S
        # Probes at t = 0..9: twice the reference time, then the reference.
        probes = self.probes([(float(t), 2 * ref if t < 5 else ref) for t in range(10)])
        self.assertAlmostEqual(probes.factor(0.0, 4.5), 0.5)
        self.assertAlmostEqual(probes.factor(4.5, 9.0), 1.0)
        self.assertAlmostEqual(probes.factor(), 2 / 3)

    def test_a_sparse_interval_borrows_the_nearest_probes(self):
        ref = speed.REFERENCE_S
        probes = self.probes([(float(t), ref * (1 + t)) for t in range(10)])
        # No probe inside [6.2, 6.4]: the five nearest are t = 4..8.
        self.assertAlmostEqual(probes.factor(6.2, 6.4), 1 / 7)
        # At the edge only one side has probes: t = 0..4.
        self.assertAlmostEqual(probes.factor(-5.0, -4.0), 1 / 3)
        # Fewer probes than the minimum: all of them.
        self.assertAlmostEqual(self.probes([(0.0, ref), (1.0, 3 * ref)]).factor(5.0, 6.0), 0.5)
        self.assertEqual(self.probes([]).factor(), 1.0)

    def test_forked_children_are_probed(self):
        # Only the forked child works; without the re-armed timer there
        # would be no probes at all.
        script = (
            "import os, sys, time; sys.path.insert(0, sys.argv[1]); import speed\n"
            "speed.install(sys.argv[2])\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    end = time.process_time() + 0.3\n"
            "    while time.process_time() < end: pass\n"
            "    os._exit(0)\n"
            "os.waitpid(pid, 0)\n"
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "probes.bin"
            subprocess.run([sys.executable, "-c", script, str(HERE), str(path)], check=True, timeout=60)
            probes = speed.Probes(path).refresh()
        self.assertGreaterEqual(len(probes.samples), speed.MIN_PROBES)
        self.assertGreater(probes.factor(), 0.0)


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in declared["workloads"]], list(run.WORKLOADS))
        self.assertEqual(
            {m["name"]: m["unit"] for m in declared["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]],
            [row[:3] for row in layers.METRICS],
        )


if __name__ == "__main__":
    unittest.main()
