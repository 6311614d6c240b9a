"""Pure statistics for the benchmark: percentiles and span self time.

Nothing here imports the program under test, so the self-tests can
exercise these rules on synthetic data.
"""

from __future__ import annotations

import statistics

#: A timing percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values, min_beyond: int = TAIL_MIN_BEYOND) -> tuple[float, float, int]:
    """The highest percentile with at least ``min_beyond`` samples above it.

    Returns ``(value, percentile, n)``: the sample at that rank, the
    percentile it stands for (``100 * rank / n``) and the sample count.
    Missing samples (failed requests) are passed as ``math.inf`` and sort
    last, so they count as missing every latency limit.  With too few
    samples for the rule the median stands in.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    rank = n - min_beyond  # 1-based rank of the sample with min_beyond above
    if rank < (n + 1) // 2:
        return median(ordered), 50.0, n
    return ordered[rank - 1], 100.0 * rank / n, n


def windowed_tail(values, window: int) -> tuple[float, float, int]:
    """The median, over consecutive windows of ``window`` samples, of each
    window's tail.

    ``values`` are in send order (a short last window is dropped).  One
    stall or one unlucky pile-up of costly requests moves a single
    window's tail; the median over windows reports the typical one.
    Returns ``(value, percentile, window)`` of the median window.
    """
    values = list(values)
    if len(values) < 2 * window:
        return tail(values)
    tails = sorted(
        tail(values[start : start + window]) for start in range(0, len(values) - window + 1, window)
    )
    return tails[len(tails) // 2]


# ---------------------------------------------------------------------------
# Span trees
# ---------------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` are ``repro.obs`` span dicts (``span_id``, ``parent_id``,
    ``t0``, ``t1``).  Overlapping children (concurrent work under one
    parent) are merged before subtracting, so self time is never
    negative.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            children.setdefault(parent, []).append((span["t0"], span["t1"]))
    out = {}
    for span in spans:
        t0, t1 = span["t0"], span["t1"]
        covered = _covered(children.get(span["span_id"], []), t0, t1)
        out[span["span_id"]] = max(0.0, (t1 - t0) - covered)
    return out


def layer_of(site: str) -> str:
    """The layer a span site belongs to: the part before the first dot."""
    return site.split(".", 1)[0]


def self_time_by_layer(spans: list[dict]) -> dict[str, float]:
    """Summed self time per layer over a span forest."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        layer = layer_of(span["site"])
        totals[layer] = totals.get(layer, 0.0) + own[span["span_id"]]
    return totals


def per_request(spans: list[dict], root_site: str) -> list[dict[str, float]]:
    """Summed span duration by site under each ``root_site`` span.

    One dict per root span, keyed by site (the root's own site included),
    plus ``"<site>:self"`` entries for the self time of each site.
    """
    kids: dict[str, list[dict]] = {}
    for span in spans:
        kids.setdefault(span.get("parent_id"), []).append(span)
    own = self_times(spans)
    out = []
    for root in spans:
        if root["site"] != root_site:
            continue
        sums: dict[str, float] = {}
        stack = [root]
        while stack:
            span = stack.pop()
            site = span["site"]
            sums[site] = sums.get(site, 0.0) + (span["t1"] - span["t0"])
            sums[site + ":self"] = sums.get(site + ":self", 0.0) + own[span["span_id"]]
            stack.extend(kids.get(span["span_id"], ()))
        out.append(sums)
    return out


def unattributed_share(spans: list[dict]) -> float:
    """Share of root-span time that no child span accounts for."""
    own = self_times(spans)
    roots = [s for s in spans if s.get("parent_id") is None]
    total = sum(s["t1"] - s["t0"] for s in roots)
    return sum(own[s["span_id"]] for s in roots) / total if total else 0.0
