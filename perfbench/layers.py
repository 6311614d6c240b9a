"""Per-layer metrics: what each measures and what it should move.

One row per metric reported by a traced run (``--trace 1``).  Names
ending ``_ms`` are per-request medians, names ending ``_s`` totals per
run.  ``moves`` names the end-to-end metric the layer should move,
``works`` the workloads where the layer does most of the work and
``idle`` those where it should not move.  A layer a workload does not
reach, or whose metric is traced on other workloads only, reports 0.
``BENCHMARK.json`` lists the same names in the same order (the
self-test checks this).
"""

from __future__ import annotations

OFFLINE = "paper, netsyn"
SVC = "svc-fresh"
ALL = "paper, netsyn, svc-fresh"

#: (name, unit, better, moves, works, idle).  ``idle`` is "none" where
#: every workload runs the layer: the minimizers, expansion and engine
#: also run inside the fleet workers of ``svc-fresh``.
METRICS = (
    ("benchgen.load_s", "s", "lower", "setup_s", OFFLINE, SVC),
    ("harness.gh_s", "s", "lower", "wall_s", "paper", "netsyn, svc-fresh"),
    ("twolevel.espresso_s", "s", "lower", "wall_s, cpu_ms_per_op", "paper", "none"),
    ("twolevel.espresso_calls", "count", "lower", "wall_s", "paper", "none"),
    ("spp.self_s", "s", "lower", "wall_s", "paper", "none"),
    ("spp.calls", "count", "lower", "wall_s", "paper", "none"),
    ("approx.expand_s", "s", "lower", "wall_s", "paper", "none"),
    ("approx.calls", "count", "lower", "wall_s", "paper", "none"),
    ("core.quotient_s", "s", "lower", "wall_s", "paper", "none"),
    ("core.verify_s", "s", "lower", "wall_s", "paper", "none"),
    ("engine.self_s", "s", "lower", "wall_s (paper); lat_*, max_rps (svc-fresh)", "paper, svc-fresh", "none"),
    ("engine.convert_s", "s", "lower", "wall_s", "paper, svc-fresh", "none"),
    ("engine.approximate_ms", "ms", "lower", "lat_*, cpu_ms_per_op", SVC, OFFLINE),
    ("engine.minimize_ms", "ms", "lower", "lat_*, cpu_ms_per_op", SVC, OFFLINE),
    ("engine.quotient_verify_ms", "ms", "lower", "lat_*, cpu_ms_per_op", SVC, OFFLINE),
    ("backend.bitset_share", "ratio", "higher", "wall_s (paper), cpu_ms_per_op (svc-fresh)", "paper, svc-fresh", "none"),
    ("bdd.ite_lookups", "count", "lower", "wall_s", OFFLINE, SVC),
    ("bdd.ite_hit_ratio", "ratio", "higher", "wall_s", OFFLINE, SVC),
    ("bdd.test_lookups", "count", "lower", "wall_s", OFFLINE, SVC),
    ("bdd.test_hit_ratio", "ratio", "higher", "wall_s", OFFLINE, SVC),
    ("bdd.peak_nodes", "count", "lower", "peak_rss_mb", OFFLINE, SVC),
    ("bdd.gc_runs", "count", "lower", "wall_s", OFFLINE, SVC),
    ("bdd.reorders", "count", "lower", "wall_s", OFFLINE, SVC),
    ("techmap.map_s", "s", "lower", "wall_s", OFFLINE, SVC),
    ("techmap.calls", "count", "lower", "wall_s", OFFLINE, SVC),
    ("netsyn.self_s", "s", "lower", "wall_s", "netsyn", "paper, svc-fresh"),
    ("netsyn.cover_s", "s", "lower", "wall_s", "netsyn", "paper, svc-fresh"),
    ("netsyn.pool_hit_ratio", "ratio", "higher", "wall_s", "netsyn", "paper, svc-fresh"),
    ("parallel.run_s", "s", "lower", "wall_s, cpu_ms_per_op", "netsyn", "paper, svc-fresh"),
    ("parallel.pools", "count", "lower", "wall_s, cpu_ms_per_op", "netsyn", "paper, svc-fresh"),
    ("parallel.items", "count", "lower", "wall_s", "netsyn", "paper, svc-fresh"),
    ("server.self_ms", "ms", "lower", "lat_*, max_rps", SVC, OFFLINE),
    ("server.admission_ms", "ms", "lower", "lat_*, max_rps", SVC, OFFLINE),
    ("server.errors", "count", "lower", "ok_share", SVC, OFFLINE),
    ("wire.outside_ms", "ms", "lower", "lat_*", SVC, OFFLINE),
    ("wire.request_bytes", "B", "lower", "lat_*", SVC, OFFLINE),
    ("wire.response_bytes", "B", "lower", "lat_*", SVC, OFFLINE),
    ("coalesce.rate", "ratio", "higher", "lat_*", SVC, OFFLINE),
    ("coalesce.followers", "count", "higher", "lat_*", SVC, OFFLINE),
    ("cache.hit_ratio", "ratio", "higher", "lat_*", SVC, OFFLINE),
    ("cache.get_ms", "ms", "lower", "lat_*", SVC, OFFLINE),
    ("cache.put_ms", "ms", "lower", "lat_*", SVC, OFFLINE),
    ("cache.journal_ms", "ms", "lower", "lat_*", SVC, OFFLINE),
    ("fleet.checkout_wait_ms", "ms", "lower", "lat_*.high, max_rps", SVC, OFFLINE),
    ("fleet.pipe_ms", "ms", "lower", "lat_*.high, max_rps", SVC, OFFLINE),
    ("fleet.busy_share", "ratio", "lower", "lat_*.high, max_rps", SVC, OFFLINE),
    ("fleet.restarts", "count", "lower", "ok_share", SVC, OFFLINE),
    ("worker.compute_ms", "ms", "lower", "lat_*, cpu_ms_per_op", SVC, OFFLINE),
    ("worker.self_ms", "ms", "lower", "lat_*, cpu_ms_per_op", SVC, OFFLINE),
    ("obs.overhead_ratio", "ratio", "lower", "none (trace validity)", ALL, "none"),
    ("obs.unattributed_share", "ratio", "lower", "none (trace validity)", ALL, "none"),
)

NAMES = tuple(row[0] for row in METRICS)
UNITS = {row[0]: row[1] for row in METRICS}


def report(values: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric, with 0 for layers the workload never reached."""
    unknown = set(values) - set(NAMES)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": UNITS[name]}
        for name in NAMES
    }
