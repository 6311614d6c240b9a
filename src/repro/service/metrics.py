"""Prometheus text-exposition rendering of the service's counters.

The ``status`` request already aggregates every live counter the
service keeps — requests, fleet health, coalescer, result cache,
divisor pool, admission control, trace store.  :func:`render_prometheus`
flattens that nested dict into the `Prometheus text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ so a
scraper (or ``curl | grep``) can watch the service without speaking
``repro-svc/1``: one ``repro_<section>_<name>`` sample per numeric
counter, typed ``counter`` or ``gauge`` by name suffix (monotone tallies
like ``_hits`` / ``_restarts`` / ``_too_large`` are counters; levels and
limits stay gauges).  Metric names are unchanged from earlier revisions
— only the ``# TYPE`` metadata got smarter.

When the service has per-site latency histograms (the observability
layer), they render as proper ``_bucket`` / ``_sum`` / ``_count``
series under ``repro_span_latency_seconds{site=...}``, with
OpenMetrics-style exemplar trace ids on buckets that have one — a
scrape reader can jump from a slow bucket straight to the trace id to
pull with ``repro-bidec client trace``.

Rendering is a pure function of its inputs — no server state, no
registry — so the ``metrics`` request kind, the CLI's
``repro-bidec client metrics``, and the tests all share one definition
of the scrape page.
"""

from __future__ import annotations

import re

#: Content type a Prometheus scraper expects for this page.
CONTENT_TYPE = "text/plain; version=0.0.4"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")

#: Name endings (one or more ``_``-separated words) that mark a metric
#: as a monotone counter: every tally ``status()`` reports ends with one.
#: Everything else renders as a gauge (levels, limits, ratios, pids).
COUNTER_SUFFIXES = frozenset(
    {
        "served",
        "ok",
        "requests",
        "computed",
        "errors",
        "timeouts",
        "hits",
        "misses",
        "puts",
        "stores",
        "failures",
        "evictions",
        "corrupt",
        "quarantined",
        "dispatched",
        "kills",
        "restarts",
        "retries",
        "resizes",
        "grown",
        "shrunk",
        "crashes",
        "killed",
        "leaders",
        "followers",
        "coalesced",
        "overloaded",
        "too_large",
        "rejected",
        "limited",
        "lookups",
        "imported",
        "dropped",
        "recorded",
        "fired",
        "finished",
        "total",
        "count",
        "logged",
        "refreshes",
    }
)

_COUNTER_ENDINGS = tuple(f"_{suffix}" for suffix in COUNTER_SUFFIXES)


def _metric_name(prefix: str, section: str, name: str) -> str:
    return _NAME_OK.sub("_", f"{prefix}_{section}_{name}")


def _metric_type(metric: str) -> str:
    return "counter" if metric.endswith(_COUNTER_ENDINGS) else "gauge"


def _format_value(value: float | int) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def _format_le(le: float) -> str:
    return "+Inf" if le == float("inf") else format(le, "g")


def render_histograms(
    histograms: dict, prefix: str = "repro", name: str = "span_latency_seconds"
) -> list[str]:
    """Render a :meth:`LatencyHistograms.snapshot` as Prometheus lines.

    One histogram family, labeled by span ``site``: cumulative
    ``_bucket{site=...,le=...}`` series plus ``_sum`` / ``_count``.
    Buckets that captured an exemplar carry it OpenMetrics-style::

        ..._bucket{site="worker.compute",le="0.05"} 12 # {trace_id="t3f-9"} 0.031
    """
    if not histograms:
        return []
    metric = _NAME_OK.sub("_", f"{prefix}_{name}")
    lines = [
        f"# HELP {metric} per-site span latency (seconds), exemplars carry trace ids",
        f"# TYPE {metric} histogram",
    ]
    for site in sorted(histograms):
        snap = histograms[site]
        exemplars = snap.get("exemplars", {})
        for index, (le, cumulative) in enumerate(snap["buckets"]):
            line = f'{metric}_bucket{{site="{site}",le="{_format_le(le)}"}} {cumulative}'
            exemplar = exemplars.get(index)
            if exemplar is not None:
                value, trace_id = exemplar
                line += f' # {{trace_id="{trace_id}"}} {_format_value(float(value))}'
            lines.append(line)
        lines.append(f'{metric}_sum{{site="{site}"}} {_format_value(snap["sum"])}')
        lines.append(f'{metric}_count{{site="{site}"}} {snap["count"]}')
    return lines


def render_prometheus(
    status: dict, prefix: str = "repro", histograms: dict | None = None
) -> str:
    """Flatten a service ``status`` dict into Prometheus text format.

    Every numeric leaf of every section becomes a sample (booleans
    count as 0/1), typed counter-or-gauge by its name suffix; ``None``
    sections (e.g. ``cache`` on a cache-less server) and non-numeric
    leaves (pid lists, string labels) are skipped.  Output is sorted,
    so the page is stable for diffing and byte-identical across renders
    of the same counters.  ``histograms`` (a
    :meth:`LatencyHistograms.snapshot`) appends the span-latency
    histogram series after the flat samples.
    """
    lines: list[str] = []
    for section in sorted(status):
        mapping = status[section]
        if not isinstance(mapping, dict):
            continue
        for name in sorted(mapping):
            value = mapping[name]
            if isinstance(value, bool):
                value = int(value)
            if value is None or not isinstance(value, (int, float)):
                continue
            metric = _metric_name(prefix, section, name)
            lines.append(f"# HELP {metric} repro service counter {section}.{name}")
            lines.append(f"# TYPE {metric} {_metric_type(metric)}")
            lines.append(f"{metric} {_format_value(value)}")
    lines.extend(render_histograms(histograms or {}, prefix=prefix))
    return "\n".join(lines) + "\n"


__all__ = ["CONTENT_TYPE", "COUNTER_SUFFIXES", "render_histograms", "render_prometheus"]
