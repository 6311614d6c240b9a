"""Offline workloads: ``paper`` (``run_benchmark``) and ``netsyn``
(``synthesize_instance(jobs=2)``) on the 25 rows of Tables III+IV.

Both are closed loops in one process: one row after another, in table
order.  An op is a row.  Loads happen in set-up and output checks after
the clock stops, so ``wall_s`` covers the 25 calls alone.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
from pathlib import Path
from time import perf_counter

import check
import layers
import speed
import stats
import tracing

GOLDEN = Path(__file__).resolve().parent / "golden"

#: Worker processes for netsyn's top-level prefetch (sized for 2 cores).
NETSYN_JOBS = 2

#: Load passes in set-up; ``setup_s`` reports their median.
LOAD_REPEATS = 5

#: Cheap narrow rows timed with and without tracing for the overhead ratio.
OVERHEAD_ROWS = ("br1", "br2", "mp2d", "alcom", "al2", "ex5", "b7", "risc", "z4", "adr4", "radd", "Z5xp1")


class Offline:
    def __init__(self, workload: str, seed: int, root: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp = root / ".perfbench_tmp" / f"offline-{os.getpid()}"
        self.probes: speed.Probes | None = None

    # -- set-up ------------------------------------------------------------

    def setup(self, probe: bool) -> float:
        """Imports plus the median of ``LOAD_REPEATS`` loads of every row.

        With ``probe`` (the timed run), speed probes run in this process
        and every pool worker it forks from here on, and the figure is at
        reference speed.
        """
        if probe:
            self.tmp.mkdir(parents=True, exist_ok=True)
            self.probes = speed.Probes(self.tmp / "probes.bin")
            speed.install(self.probes.path)
        t0 = perf_counter()
        from repro.benchgen.registry import load_benchmark, table_benchmarks
        from repro.harness.experiment import run_benchmark
        from repro.netsyn.synthesis import synthesize_instance

        spans = [(t0, perf_counter())]
        self.load_benchmark = load_benchmark
        self.run_benchmark = run_benchmark
        self.synthesize_instance = synthesize_instance
        self.names = [spec.name for table in ("III", "IV") for spec in table_benchmarks(table)]
        for _ in range(LOAD_REPEATS):
            t0 = perf_counter()
            self.instances = self.load()
            spans.append((t0, perf_counter()))
        imports, *loads = self.at_reference_speed(spans)
        return imports + stats.median(loads)

    def at_reference_speed(self, spans: list[tuple[float, float]]) -> list[float]:
        """Durations of ``(start, end)`` spans, scaled by the speed probes."""
        if self.probes is None:
            return [t1 - t0 for t0, t1 in spans]
        self.probes.refresh()
        return [(t1 - t0) * self.probes.factor(t0, t1) for t0, t1 in spans]

    def close(self) -> None:
        # Pool workers are joined by the calls that fork them.
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:  # absent, or another run's files are still there
            pass

    def load(self, names=None) -> list:
        return [self.load_benchmark(name) for name in names or self.names]

    def run_row(self, instance):
        if self.workload == "paper":
            return self.run_benchmark(instance, keep_artifacts=True)
        return self.synthesize_instance(instance, jobs=NETSYN_JOBS)

    # -- timed run ---------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """One closed-loop pass over every row, tracing off.

        The pass is the unit of work: ``seconds`` does not cut it short.
        Times are at reference speed (see ``speed.py``); the raw ones are
        printed beside them.
        """
        usage0, start = _cpu_s(), perf_counter()
        spans, results = [], []
        for instance in self.instances:
            t0 = perf_counter()
            results.append(self.run_row(instance))
            spans.append((t0, perf_counter()))
        cpu_s, end = _cpu_s() - usage0, perf_counter()
        *walls, pass_s = self.at_reference_speed(spans + [(start, end)])
        raw_s = sum(t1 - t0 for t0, t1 in spans)
        failed = self.check(results)
        wall_s = sum(walls)
        row_ms = 1000 * wall_s / len(walls)
        tail_ms, tail_pct, n = stats.tail([w * 1000 for w in walls])
        print(f"wall {wall_s:.3f} s at reference speed, {raw_s:.3f} s raw, {len(self.probes.samples)} speed probes")
        print(f"row time: mean {row_ms:.1f} ms, p50 {stats.median(walls) * 1000:.1f} ms, p{tail_pct:.0f} {tail_ms:.1f} ms over {n} rows")
        self.print_rows(results, walls)
        return {
            "attempted": len(walls),
            "failed": len(failed),
            "metrics": {
                "wall_s": wall_s,
                # The probes sample CPU time: scale it by the pass's factor.
                "cpu_ms_per_op": 1000 * cpu_s * (pass_s / (end - start)) / len(walls),
                "peak_rss_mb": _peak_rss_mb(),
                "ok_share": 1 - len(failed) / len(walls),
                # Restatements of wall_s.  A closed loop over 25 unlike rows
                # has no load level and no latency distribution a percentile
                # would summarize (the rows are printed above): every latency
                # slot reads the mean row time, max_rps rows per second.
                "lat_p50_ms.low": row_ms,
                "lat_tail_ms.low": row_ms,
                "lat_p50_ms.high": row_ms,
                "lat_tail_ms.high": row_ms,
                "max_rps": len(walls) / wall_s,
            },
        }

    # -- output checks -----------------------------------------------------

    def check(self, results) -> list[str]:
        """Names of rows that differ from the golden record or fail the evaluator."""
        golden = json.loads((GOLDEN / f"{self.workload}.json").read_text())
        failed = []
        for instance, result in zip(self.instances, results):
            try:
                record = self.fingerprint(instance, result)
                expected = golden["rows"].get(result.name)
                if record != expected:
                    raise check.CheckFailed(f"fingerprint {record} != golden {expected}")
            except check.CheckFailed as exc:
                print(f"FAILED {result.name}: {exc}")
                failed.append(result.name)
        if self.workload == "paper":
            from repro.harness.report import shape_summary

            shape = shape_summary(results)
            print("shape_summary:", json.dumps(shape, sort_keys=True))
            if shape != golden["shape"]:
                print(f"FAILED shape_summary: golden {golden['shape']}")
                failed = [r.name for r in results]
        return failed

    def fingerprint(self, instance, result) -> dict:
        """The golden record of one row; runs the evaluator on the way."""
        from repro.engine import wire

        f_dumps = [wire.isf_to_payload(f) for f in instance.outputs]
        if self.workload == "netsyn":
            payload = wire.network_to_payload(result.network)
            for f_dump, name in zip(f_dumps, result.output_names):
                sample = check.Sample(f_dump["vars"], self.seed)
                f = check.eval_dump(f_dump, sample)
                realized = check.eval_network(payload, sample)[name]
                check.check_against(f["on"], f["dc"], realized, sample, f"network output {name}")
            return {"shared_area": result.shared_area, "network": check.fingerprint(payload)}
        covers = []
        for f_dump, art in zip(f_dumps, result.artifacts):
            sample = check.Sample(f_dump["vars"], self.seed)
            f = check.eval_dump(f_dump, sample)
            f_cover = wire.cover_to_payload(art.f_cover)
            g_cover = wire.cover_to_payload(art.g_cover)
            check.check_against(f["on"], f["dc"], check.eval_cover(f_cover, sample), sample, "f cover")
            g = check.eval_cover(g_cover, sample)
            h_covers = {}
            for op, h_cover in art.h_covers.items():
                h_covers[op] = wire.cover_to_payload(h_cover)
                realized = check.OPERATORS[op](g, check.eval_cover(h_covers[op], sample), sample.full)
                check.check_against(f["on"], f["dc"], realized, sample, f"g {op} h")
            covers.append(check.fingerprint({"f": f_cover, "g": g_cover, "h": h_covers}))
        return {
            "area_f": result.area_f,
            "area_g": result.area_g,
            "op_areas": result.op_areas,
            "pct_errors": result.pct_errors,
            "covers": covers,
        }

    def print_rows(self, results, walls, gh=None) -> None:
        """The yardstick table: four clocks per row, side by side."""
        if self.workload != "paper":
            for result, wall in zip(results, walls):
                print(f"  {result.name:9s} wall {wall:7.3f} s  shared_area {result.shared_area:8.1f}")
            return
        from repro.benchgen.paper_data import PAPER_ROWS

        print(f"  {'row':9s} {'gh_s':>7s} {'paper_s':>7s} {'time_s':>7s} {'wall_s':>7s}")
        totals = [0.0, 0.0, 0.0, 0.0]
        for i, (result, wall) in enumerate(zip(results, walls)):
            clocks = [gh[i] if gh else float("nan"), PAPER_ROWS[result.name].time_s, result.time_s, wall]
            totals = [a + b for a, b in zip(totals, clocks)]
            print(f"  {result.name:9s} " + " ".join(f"{c:7.3f}" for c in clocks))
        print(f"  {'total':9s} " + " ".join(f"{c:7.3f}" for c in totals))

    # -- traced run --------------------------------------------------------

    def measure_traced(self) -> dict:
        """Untraced then traced passes; per-layer metrics from the spans."""
        from repro import obs

        # The first pass over the subset pays the process's one-time costs
        # (lazy imports, the gate library); the second is the untraced clock.
        for instances in (self.instances, self.load(OVERHEAD_ROWS)):
            t0 = perf_counter()
            for instance in instances:
                if instance.name in OVERHEAD_ROWS:
                    self.run_row(instance)
            untraced_s = perf_counter() - t0

        spans: list[dict] = []
        instances = []
        root = "harness.run_benchmark" if self.workload == "paper" else "netsyn.synthesize_instance"
        with obs.installed(obs.Tracer(capacity=1 << 16)) as tracer, tracing.wrapped():
            for name in self.names:
                with obs.span("benchgen.load", name=name) as sp:
                    instances.append(self.load_benchmark(name))
                spans += tracer.pop_trace(sp.trace_id)
            traced_subset_s = 0.0
            results, walls, bdd = [], [], tracing.BddCounters()
            for instance in instances:
                bdd.before(instance.mgr)
                t0 = perf_counter()
                with obs.span(root, name=instance.name) as sp:
                    results.append(self.run_row(instance))
                walls.append(perf_counter() - t0)
                bdd.after(instance.mgr)
                if instance.name in OVERHEAD_ROWS:
                    traced_subset_s += walls[-1]
                spans += tracer.pop_trace(sp.trace_id)
        self.instances = instances
        failed = self.check(results)

        values = tracing.offline_layers(spans, root)
        values.update(bdd.report(spans))
        values["obs.overhead_ratio"] = traced_subset_s / untraced_s
        if self.workload == "netsyn":
            lookups = sum(r.pool_stats.get("lookups", 0) + r.pool_stats.get("interval_lookups", 0) for r in results)
            hits = sum(r.pool_stats.get("hits", 0) + r.pool_stats.get("interval_hits", 0) for r in results)
            values["netsyn.pool_hit_ratio"] = hits / lookups if lookups else 0.0
        tracing.print_layers(spans)
        self.print_rows(results, walls, gh=tracing.harness_gh(spans, root))
        return {"attempted": len(walls), "failed": len(failed), "metrics": layers.report(values)}


def _cpu_s() -> float:
    """User plus system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    return sum(
        resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024
