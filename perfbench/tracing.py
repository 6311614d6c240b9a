"""Benchmark-side spans around the program's public entry points.

:func:`wrapped` rebinds each entry point, in every loaded ``repro``
module that holds it, to a wrapper that opens a ``repro.obs`` span, and
restores the originals on exit.  With the tracer the program already
ships (engine, netsyn, service and BDD sites), the spans form one tree
per row; :func:`offline_layers` turns it into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import sys

import stats

#: ``repro.techmap.area`` entry points, timed as ``techmap.area``.
TECHMAP_ENTRY_POINTS = (
    "map_network",
    "area_of_covers",
    "area_of_spp_covers",
    "area_of_bidecomposition",
    "isolated_area_of_spp_covers",
    "isolated_area_of_bidecomposition",
)


def _spanned(func, site: str, **attrs):
    from repro import obs

    @functools.wraps(func)
    def traced(*args, **kwargs):
        with obs.span(site, **attrs):
            return func(*args, **kwargs)

    return traced


def _parallel(func):
    from repro import obs

    @functools.wraps(func)
    def traced(items, jobs, pool=None):
        with obs.span("parallel.run", items=len(items), forks=bool(items) and pool is None):
            return func(items, jobs, pool)

    return traced


@contextlib.contextmanager
def wrapped():
    """Span every public entry point the layer metrics need, then restore."""
    from repro.approx import expansion
    from repro.bdd import ops
    from repro.core import quotient
    from repro.core.bidecomposition import BiDecomposition
    from repro.engine import decomposer, parallel
    from repro.engine.registry import MINIMIZERS, register_minimizer
    from repro.spp import synthesis
    from repro.techmap import area
    from repro.twolevel import espresso

    undo: list[tuple[object, str, object]] = []

    def rebind(owner, name: str, value) -> None:
        undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def everywhere(original, wrapper, skip=()) -> None:
        for module in list(sys.modules.values()):
            if module is None or module in skip or not module.__name__.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    rebind(module, name, wrapper)

    spp_entry = MINIMIZERS.resolve("spp").func
    try:
        everywhere(espresso.espresso_minimize, _spanned(espresso.espresso_minimize, "twolevel.espresso"))
        everywhere(
            expansion.approximate_expand_full,
            _spanned(expansion.approximate_expand_full, "approx.expand"),
        )
        everywhere(quotient.full_quotient, _spanned(quotient.full_quotient, "core.quotient"))
        everywhere(parallel.run_parallel, _parallel(parallel.run_parallel))
        for name in TECHMAP_ENTRY_POINTS:
            original = getattr(area, name)
            everywhere(original, _spanned(original, "techmap.area", entry=name))
        # Direct callers (the harness f-minimize, the expansion); the
        # registry entry is wrapped below, through the registry.
        everywhere(
            synthesis.minimize_spp,
            _spanned(synthesis.minimize_spp, "spp.minimize"),
            skip=(synthesis,),
        )
        register_minimizer("spp", _spanned(spp_entry, "spp.minimize", via="registry"))
        rebind(decomposer, "transfer", _spanned(ops.transfer, "engine.convert"))
        for method in ("decompose", "decompose_many"):
            rebind(
                decomposer.Decomposer,
                method,
                _spanned(getattr(decomposer.Decomposer, method), f"engine.{method}"),
            )
        rebind(BiDecomposition, "verify", _spanned(BiDecomposition.verify, "core.verify"))
        yield
    finally:
        register_minimizer("spp", spp_entry)
        for owner, name, value in reversed(undo):
            setattr(owner, name, value)


class BddCounters:
    """Exact manager counters from ``BDD.stats()``, as deltas per row."""

    def __init__(self) -> None:
        self.totals = {"ite_hits": 0, "ite_misses": 0, "test_hits": 0, "test_misses": 0, "gc_runs": 0}
        self.peak_nodes = 0
        self._before: dict = {}

    @staticmethod
    def _read(mgr) -> dict:
        s = mgr.stats()
        tables = s.get("tables", {})
        return {
            "ite_hits": tables.get("ite", {}).get("hits", 0),
            "ite_misses": tables.get("ite", {}).get("misses", 0),
            "test_hits": tables.get("test", {}).get("hits", 0),
            "test_misses": tables.get("test", {}).get("misses", 0),
            "gc_runs": s.get("gc_runs", 0),
            # The node table's high-water mark: gc frees slots but never
            # shrinks the table, so this is the peak, not the live count.
            "allocated": s.get("allocated", 0),
        }

    def before(self, mgr) -> None:
        self._before = self._read(mgr)

    def after(self, mgr) -> None:
        now = self._read(mgr)
        for key in self.totals:
            self.totals[key] += now[key] - self._before[key]
        self.peak_nodes = max(self.peak_nodes, now["allocated"])

    def report(self, spans: list[dict]) -> dict[str, float]:
        t = self.totals
        ite = t["ite_hits"] + t["ite_misses"]
        test = t["test_hits"] + t["test_misses"]
        return {
            "bdd.ite_lookups": ite,
            "bdd.ite_hit_ratio": t["ite_hits"] / ite if ite else 0.0,
            "bdd.test_lookups": test,
            "bdd.test_hit_ratio": t["test_hits"] / test if test else 0.0,
            "bdd.peak_nodes": self.peak_nodes,
            "bdd.gc_runs": t["gc_runs"],
            "bdd.reorders": sum(1 for s in spans if s["site"] == "bdd.reorder"),
        }


def _dur(span: dict) -> float:
    return span["t1"] - span["t0"]


def offline_layers(spans: list[dict], root: str) -> dict[str, float]:
    """Per-layer metrics of an offline traced pass (one tree per row)."""
    own = stats.self_times(spans)
    by_id = {s["span_id"]: s for s in spans}

    def total(site: str) -> float:
        return sum(_dur(s) for s in spans if s["site"] == site)

    def self_of(prefix: str) -> float:
        return sum(own[s["span_id"]] for s in spans if s["site"].startswith(prefix))

    def count(site: str) -> int:
        return sum(1 for s in spans if s["site"] == site)

    dispatches = [s for s in spans if s["site"] == "engine.dispatch"]
    requests = stats.per_request(spans, "engine.decompose")
    parallel = [s for s in spans if s["site"] == "parallel.run"]
    techmap_calls = sum(
        1
        for s in spans
        if s["site"] == "techmap.area"
        and not by_id.get(s.get("parent_id"), {}).get("site", "").startswith("techmap.")
    )
    rows = [s for s in spans if s["site"] != "benchgen.load"]
    return {
        "benchgen.load_s": total("benchgen.load"),
        "harness.gh_s": sum(harness_gh(spans, root) or [0.0]),
        "twolevel.espresso_s": self_of("twolevel."),
        "twolevel.espresso_calls": count("twolevel.espresso"),
        "spp.self_s": self_of("spp."),
        "spp.calls": count("spp.minimize"),
        "approx.expand_s": self_of("approx."),
        "approx.calls": count("approx.expand"),
        "core.quotient_s": total("core.quotient"),
        "core.verify_s": total("core.verify"),
        "engine.self_s": self_of("engine."),
        "engine.convert_s": total("engine.convert"),
        "engine.approximate_ms": 1000 * stats.median(r.get("engine.approximate", 0.0) for r in requests),
        "engine.minimize_ms": 1000 * stats.median(r.get("engine.minimize", 0.0) for r in requests),
        "engine.quotient_verify_ms": 1000
        * stats.median(r.get("engine.quotient", 0.0) + r.get("engine.verify", 0.0) for r in requests),
        "backend.bitset_share": (
            sum(1 for s in dispatches if s["attrs"].get("backend") == "bitset") / len(dispatches)
            if dispatches
            else 0.0
        ),
        "techmap.map_s": self_of("techmap."),
        "techmap.calls": techmap_calls,
        "netsyn.self_s": self_of("netsyn."),
        "netsyn.cover_s": total("netsyn.cover"),
        "parallel.run_s": sum(_dur(s) for s in parallel),
        "parallel.pools": sum(1 for s in parallel if s["attrs"].get("forks")),
        "parallel.items": sum(s["attrs"].get("items", 0) for s in parallel),
        "obs.unattributed_share": stats.unattributed_share(rows),
    }


def harness_gh(spans: list[dict], root: str) -> list[float] | None:
    """Per row: expansion plus ``Decomposer.decompose`` called by the harness.

    That is the span of work the paper's Time column and
    ``run_benchmark``'s own ``time_s`` cover.  ``None`` off ``paper``.
    """
    if root != "harness.run_benchmark":
        return None
    rows = [s for s in spans if s["site"] == root]
    ids = {s["span_id"]: i for i, s in enumerate(rows)}
    gh = [0.0] * len(rows)
    for span in spans:
        row = ids.get(span.get("parent_id"))
        if row is not None and span["site"] in ("approx.expand", "engine.decompose"):
            gh[row] += _dur(span)
    return gh


def print_layers(spans: list[dict]) -> None:
    """Self time per layer, largest first."""
    by_layer = stats.self_time_by_layer(spans)
    total = sum(by_layer.values()) or 1.0
    print("self time by layer:")
    for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:10s} {seconds:9.3f} s  {100 * seconds / total:5.1f}%")
