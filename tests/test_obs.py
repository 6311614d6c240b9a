"""Observability layer: span tracing, trace store, histograms, export.

The contract under test (ISSUE 10): with a tracer installed, every
request the service completes is reassembled into exactly one span
tree — server-side spans plus worker-side spans that crossed the
fleet's fork/pipe boundary — queryable over the wire (``trace`` kind),
exportable as Chrome trace-event JSON, and folded into per-site
Prometheus latency histograms with exemplar trace ids.  With no tracer
installed every instrumented site degrades to a shared no-op, and
decomposition payloads are byte-identical either way.

The fault-interplay half (satellite 4): a :class:`FaultPlan` and a
:class:`Tracer` installed together must agree — injected worker errors,
timeouts, and rate limits all surface as span statuses on the right
sites, and a coalesced follower's trace points at its leader's.
"""

import json
import math
import os

import pytest

from repro import obs
from repro.benchgen.registry import load_benchmark
from repro.engine import wire
from repro.obs import (
    DEFAULT_BUCKETS,
    LatencyHistograms,
    TraceStore,
    Tracer,
    chrome_trace,
    validate_chrome_trace,
)
from repro.obs.trace import SPAN_SITES, STATUSES
from repro.service import DecompositionService, faults, render_prometheus
from repro.service.faults import FaultEvent, FaultPlan
from repro.service.metrics import render_histograms

from tests.test_chaos import drive_sequential
from tests.test_service import (
    INFORMATIONAL_RESULT_KEYS,
    drive,
    in_process_payload,
    stripped,
    work_item,
)


@pytest.fixture(scope="module")
def z4():
    return load_benchmark("z4")


@pytest.fixture(autouse=True)
def _no_tracer_leak():
    """Every test starts and ends with no process-wide tracer."""
    obs.uninstall()
    yield
    obs.uninstall()


def span_sites(record):
    return {span["site"] for span in record["spans"]}


def spans_at(record, site):
    return [span for span in record["spans"] if span["site"] == site]


# ---------------------------------------------------------------------------
# Tracer (unit)
# ---------------------------------------------------------------------------


def test_span_is_shared_noop_when_uninstalled():
    assert obs.active() is None
    first = obs.span("server.request")
    second = obs.span("cache.get", key="k")
    assert first is second  # one shared singleton, not per-call garbage
    with first as span:
        span.annotate(anything="goes")
        span.set_status("error")
        assert obs.current_context() is None
        assert obs.current_trace_id() is None
    assert span.trace_id is None


def test_spans_nest_into_one_serialized_tree():
    with obs.installed(Tracer()) as tracer:
        with obs.span("server.request", kind="decompose") as root:
            with obs.span("coalesce.leader") as child:
                with obs.span("cache.get") as leaf:
                    leaf.annotate(hit=False)
            child.annotate(key="k")
        spans = tracer.pop_trace(root.trace_id)
    assert [s["site"] for s in spans] == [
        "cache.get",
        "coalesce.leader",
        "server.request",
    ]  # finish order: leaves close first
    by_site = {s["site"]: s for s in spans}
    assert by_site["server.request"]["parent_id"] is None
    assert by_site["coalesce.leader"]["parent_id"] == by_site["server.request"]["span_id"]
    assert by_site["cache.get"]["parent_id"] == by_site["coalesce.leader"]["span_id"]
    assert {s["trace_id"] for s in spans} == {root.trace_id}
    for span in spans:
        assert span["status"] == "ok"
        assert span["t1"] >= span["t0"]
        assert span["pid"] == os.getpid()
    assert by_site["server.request"]["attrs"] == {"kind": "decompose"}
    assert by_site["coalesce.leader"]["attrs"] == {"key": "k"}
    assert by_site["cache.get"]["attrs"] == {"hit": False}


def test_span_status_resolution():
    with obs.installed() as tracer:
        with pytest.raises(ValueError):
            with obs.span("engine.verify") as failing:
                raise ValueError("boom")
        with obs.span("fleet.roundtrip") as timed_out:
            timed_out.set_status("timeout")  # explicit status beats default
        with obs.span("cache.get"):
            pass
        statuses = {
            s["site"]: s["status"]
            for spans in (
                tracer.pop_trace(failing.trace_id),
                tracer.pop_trace(timed_out.trace_id),
            )
            for s in spans
        }
    assert statuses["engine.verify"] == "error"
    assert statuses["fleet.roundtrip"] == "timeout"
    assert set(statuses.values()) <= set(STATUSES)


def test_closed_spans_do_not_leak_into_the_context():
    with obs.installed():
        with obs.span("server.request"):
            assert obs.current_context() is not None
        assert obs.current_context() is None
        assert obs.current_trace_id() is None


def test_tracer_evicts_unharvested_traces_oldest_first():
    with obs.installed(Tracer(capacity=2)) as tracer:
        ids = []
        for _ in range(3):  # three separate root spans = three traces
            with obs.span("coalesce.leader") as root:
                pass
            ids.append(root.trace_id)
        stats = tracer.stats()
        assert stats["traces_buffered"] == 2
        assert stats["traces_dropped"] == 1
        assert tracer.pop_trace(ids[0]) == []  # the oldest fell off
        assert tracer.pop_trace(ids[2]) != []


def test_remote_scope_grafts_spans_under_a_shipped_parent():
    with obs.installed() as tracer:
        with obs.span("fleet.roundtrip") as parent:
            ctx = obs.current_context()
        assert ctx == {"trace_id": parent.trace_id, "span_id": parent.span_id}
        # Simulate the worker side of the pipe: same-process here, but the
        # grafting logic is identical after a fork.
        with tracer.remote(ctx):
            with obs.span("worker.compute", entry="decompose"):
                pass
        shipped = tracer.pop_trace(parent.trace_id)
    compute = next(s for s in shipped if s["site"] == "worker.compute")
    assert compute["trace_id"] == parent.trace_id
    assert compute["parent_id"] == parent.span_id


def test_absorb_merges_remote_spans_and_ignores_junk():
    with obs.installed() as tracer:
        with obs.span("server.request") as root:
            pass
        remote_span = {
            "trace_id": root.trace_id,
            "span_id": "s-remote",
            "parent_id": root.span_id,
            "site": "worker.compute",
            "t0": 0.0,
            "t1": 1.0,
            "status": "ok",
            "pid": 12345,
            "attrs": {},
        }
        obs.absorb([remote_span, {"no_trace_id": True}])
        spans = tracer.pop_trace(root.trace_id)
    assert {s["site"] for s in spans} == {"server.request", "worker.compute"}


def test_installed_is_scoped_and_restores_nothing():
    outer = Tracer()
    with obs.installed(outer) as active:
        assert active is outer
        assert obs.active() is outer
    assert obs.active() is None


def test_span_sites_registry_is_documentation_quality():
    assert len(SPAN_SITES) == len(set(SPAN_SITES))
    for site in SPAN_SITES:
        layer, _, name = site.partition(".")
        assert layer and name, site


# ---------------------------------------------------------------------------
# TraceStore (unit)
# ---------------------------------------------------------------------------


def record_of(trace_id, duration_s, kind="decompose"):
    return {
        "trace_id": trace_id,
        "kind": kind,
        "status": "ok",
        "t0": 100.0,
        "duration_s": duration_s,
        "spans": [],
    }


def test_trace_store_ring_and_queries():
    store = TraceStore(capacity=3)
    for index, duration in enumerate((0.5, 0.1, 0.9, 0.3)):
        store.add(record_of(f"t{index}", duration))
    stats = store.stats()
    assert stats == {"recorded": 4, "buffered": 3, "capacity": 3, "dropped": 1}
    recent = store.query(n=2, order="recent")
    assert [r["trace_id"] for r in recent] == ["t3", "t2"]
    slowest = store.query(n=10, order="slowest")
    assert [r["trace_id"] for r in slowest] == ["t2", "t3", "t1"]  # t0 evicted
    filtered = store.query(n=10, order="recent", min_duration_s=0.3)
    assert [r["trace_id"] for r in filtered] == ["t3", "t2"]


def test_trace_store_rejects_unknown_order():
    with pytest.raises(ValueError):
        TraceStore().query(order="fastest")


# ---------------------------------------------------------------------------
# Latency histograms + Prometheus rendering (satellite 2)
# ---------------------------------------------------------------------------


def test_histogram_buckets_are_cumulative_with_exemplars():
    hist = LatencyHistograms(buckets=(0.01, 0.1, 1.0))
    hist.observe("cache.get", 0.005, trace_id="t-fast")
    hist.observe("cache.get", 0.05, trace_id="t-mid")
    hist.observe("cache.get", 50.0, trace_id="t-slow")  # above every bound
    snap = hist.snapshot()["cache.get"]
    assert snap["buckets"] == [(0.01, 1), (0.1, 2), (1.0, 2), (math.inf, 3)]
    assert snap["count"] == 3
    assert snap["sum"] == pytest.approx(50.055)
    assert snap["exemplars"][0] == (0.005, "t-fast")
    assert snap["exemplars"][3] == (50.0, "t-slow")


def test_observe_trace_folds_every_span():
    hist = LatencyHistograms()
    hist.observe_trace(
        {
            "trace_id": "t1",
            "spans": [
                {"site": "server.request", "t0": 0.0, "t1": 0.2},
                {"site": "cache.get", "t0": 0.0, "t1": 0.001},
                {"site": "cache.get", "t0": 0.1, "t1": 0.15},
                {"site": "broken", "t0": None, "t1": 0.5},  # skipped
            ],
        }
    )
    snap = hist.snapshot()
    assert snap["server.request"]["count"] == 1
    assert snap["cache.get"]["count"] == 2
    assert "broken" not in snap


def test_default_buckets_cover_the_stack_and_are_sorted():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
    assert DEFAULT_BUCKETS[0] <= 0.0001  # cache probes
    assert DEFAULT_BUCKETS[-1] >= 10.0  # netsyn runs


#: Every tally a cache-backed service's ``status()`` reports; every
#: other numeric leaf is a level or a limit.
STATUS_COUNTERS = frozenset(
    f"repro_{name}"
    for name in (
        "requests_requests",
        "requests_errors",
        "requests_computed",
        "requests_cache_hits",
        "requests_timeouts",
        "fleet_dispatched",
        "fleet_failures",
        "fleet_timeouts",
        "fleet_kills",
        "fleet_restarts",
        "fleet_retries",
        "fleet_resizes",
        "fleet_grown",
        "fleet_shrunk",
        "coalesce_leaders",
        "coalesce_followers",
        "cache_hits",
        "cache_misses",
        "cache_stores",
        "cache_corrupt",
        "cache_evictions",
        "cache_quarantined",
        "cache_put_failures",
        "pool_warm_lookups",
        "pool_warm_hits",
        "pool_warm_imported",
        "admission_overloaded",
        "admission_too_large",
        "admission_rate_limited",
        "trace_slow_logged",
        "trace_recorded",
        "trace_dropped",
    )
)


def test_render_prometheus_types_counters_by_suffix(tmp_path):
    page = render_prometheus(
        {"cache": {"hits": 3, "size_bytes": 900}, "fleet": {"restarts": 1}}
    )
    assert "# TYPE repro_cache_hits counter" in page
    assert "# TYPE repro_cache_size_bytes gauge" in page
    assert "# TYPE repro_fleet_restarts counter" in page
    assert "repro_cache_hits 3" in page  # names unchanged from earlier revs

    # A live status page: its tallies are counters, everything else a
    # gauge (sizes, levels, limits, ratios, the uptime).
    service = DecompositionService(jobs=1, cache_dir=str(tmp_path), prewarm=False)
    try:
        page = render_prometheus(service.status())
    finally:
        service.close()
    types = dict(
        line.split()[2:4] for line in page.splitlines() if line.startswith("# TYPE")
    )
    counters = {name for name, kind in types.items() if kind == "counter"}
    assert counters == STATUS_COUNTERS
    assert {
        "repro_server_uptime_s",
        "repro_fleet_size",
        "repro_fleet_prewarmed",
        "repro_cache_entries",
        "repro_cache_unwritten",
        "repro_admission_inflight",
        "repro_admission_max_line_bytes",
    } <= set(types) - counters


def test_render_histograms_emits_bucket_sum_count_and_exemplars():
    hist = LatencyHistograms(buckets=(0.01, 1.0))
    hist.observe("worker.compute", 0.5, trace_id="t42-7")
    lines = render_histograms(hist.snapshot())
    assert "# TYPE repro_span_latency_seconds histogram" in lines
    assert (
        'repro_span_latency_seconds_bucket{site="worker.compute",le="0.01"} 0'
        in lines
    )
    exemplar = (
        'repro_span_latency_seconds_bucket{site="worker.compute",le="1"} 1'
        ' # {trace_id="t42-7"} 0.5'
    )
    assert exemplar in lines
    assert (
        'repro_span_latency_seconds_bucket{site="worker.compute",le="+Inf"} 1'
        in lines
    )
    assert 'repro_span_latency_seconds_sum{site="worker.compute"} 0.5' in lines
    assert 'repro_span_latency_seconds_count{site="worker.compute"} 1' in lines
    assert render_histograms({}) == []


# ---------------------------------------------------------------------------
# Chrome trace-event export
# ---------------------------------------------------------------------------


def synthetic_record():
    return {
        "trace_id": "t1-abc",
        "kind": "decompose",
        "status": "ok",
        "t0": 1000.0,
        "duration_s": 0.3,
        "spans": [
            {
                "trace_id": "t1-abc",
                "span_id": "s1",
                "parent_id": None,
                "site": "server.request",
                "t0": 1000.0,
                "t1": 1000.3,
                "status": "ok",
                "pid": 10,
                "attrs": {"kind": "decompose"},
            },
            {
                "trace_id": "t1-abc",
                "span_id": "s2",
                "parent_id": "s1",
                "site": "worker.compute",
                "t0": 1000.1,
                "t1": 1000.2,
                "status": "ok",
                "pid": 11,
                "attrs": {},
            },
        ],
    }


def test_chrome_trace_is_schema_valid_and_rebased():
    document = chrome_trace([synthetic_record()])
    assert validate_chrome_trace(document) == []
    json.dumps(document)  # must be serializable as-is
    complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
    metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
    assert {e["name"] for e in complete} == {"server.request", "worker.compute"}
    worker = next(e for e in complete if e["name"] == "worker.compute")
    assert worker["ts"] == pytest.approx(0.1e6)  # rebased to earliest span
    assert worker["dur"] == pytest.approx(0.1e6)
    assert worker["tid"] == 11  # thread = real OS pid
    assert worker["args"]["parent_id"] == "s1"
    # One process_name row per record, one thread_name row per pid seen.
    assert [e["name"] for e in metadata].count("process_name") == 1
    assert [e["name"] for e in metadata].count("thread_name") == 2


def test_validate_chrome_trace_flags_malformed_documents():
    assert validate_chrome_trace({}) == ["traceEvents is not a list"]
    problems = validate_chrome_trace(
        {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": "no"}]}
    )
    assert any("ts" in p for p in problems)
    assert any("dur" in p for p in problems)
    problems = validate_chrome_trace({"traceEvents": [{"ph": "Q"}, 7]})
    assert any("unexpected ph" in p for p in problems)
    assert any("not an object" in p for p in problems)


# ---------------------------------------------------------------------------
# Service integration: one span tree per request, across fork + pipe
# ---------------------------------------------------------------------------


def decompose_envelope(z4, index=0, request_id="q0", **extra):
    params = {**work_item(z4.outputs[index], name=f"o{index}"), **extra}
    return wire.svc_request("decompose", params, request_id)


def test_service_reassembles_one_span_tree_per_request(z4, tmp_path):
    expected = in_process_payload(z4.outputs[0], name="o0")  # traced-off run
    with obs.installed():
        # Install BEFORE the fleet forks so workers inherit the tracer —
        # that is how worker/engine spans reach the far side of the pipe.
        service = DecompositionService(jobs=1, cache_dir=str(tmp_path))
        try:
            replies = drive_sequential(
                service,
                [
                    decompose_envelope(z4, 0, "q0"),
                    decompose_envelope(z4, 0, "q1"),  # cache hit
                ],
            )
        finally:
            service.close()
    assert [r["ok"] for r in replies] == [True, True]
    for reply in replies:
        # Tracing must never touch the result: byte-identical payloads.
        assert stripped(reply["result"], INFORMATIONAL_RESULT_KEYS) == stripped(
            expected, INFORMATIONAL_RESULT_KEYS
        )
        assert "trace" not in reply["result"]

    # Two requests, and the computed one's cache write: answered first,
    # it runs after the reply as a cache.write trace of its own.
    assert service.traces.stats()["recorded"] == 3
    records = service.traces.query(n=3, order="recent")
    (write,) = [r for r in records if r["kind"] == "cache.write"]
    computed, cached = [r for r in records if r["kind"] == "decompose"][::-1]
    assert computed["kind"] == "decompose" and computed["status"] == "ok"
    assert computed["id"] == "q0" and cached["id"] == "q1"

    # The cold request crossed every layer, including the forked worker.
    assert {
        "server.request",
        "server.admission",
        "coalesce.leader",
        "cache.get",
        "fleet.checkout",
        "fleet.roundtrip",
        "worker.compute",
        "engine.dispatch",
    } <= span_sites(computed)
    assert span_sites(write) == {"cache.write", "cache.put"}
    worker_pids = {
        s["pid"] for s in computed["spans"] if s["site"] == "worker.compute"
    }
    assert worker_pids and os.getpid() not in worker_pids
    # Every span hangs off the tree: one root, no dangling parents.
    ids = {s["span_id"] for s in computed["spans"]}
    roots = [s for s in computed["spans"] if s["parent_id"] is None]
    assert len(roots) == 1 and roots[0]["site"] == "server.request"
    for span in computed["spans"]:
        if span["parent_id"] is not None:
            assert span["parent_id"] in ids
    # All spans of one request share its trace id; engine spans ran in
    # the worker process but still landed in the same tree.
    assert {s["trace_id"] for s in computed["spans"]} == {computed["trace_id"]}
    engine_span = spans_at(computed, "engine.dispatch")[0]
    assert engine_span["pid"] in worker_pids

    # The warm request never left the server process.
    assert "fleet.roundtrip" not in span_sites(cached)
    assert {s["pid"] for s in cached["spans"]} == {os.getpid()}
    hit = spans_at(cached, "cache.get")[0]
    assert hit["attrs"].get("hit") is True

    # The histograms saw every span of both requests.
    snap = service.latency.snapshot()
    assert snap["server.request"]["count"] == 2
    assert snap["worker.compute"]["count"] == 1
    assert snap["cache.put"]["count"] == 1
    _value, exemplar_trace = next(iter(snap["server.request"]["exemplars"].values()))
    assert exemplar_trace in {computed["trace_id"], cached["trace_id"]}


def test_trace_kind_served_over_the_wire_protocol(z4, tmp_path):
    with obs.installed():
        service = DecompositionService(jobs=1, cache_dir=str(tmp_path))
        try:
            replies = drive_sequential(
                service,
                [
                    decompose_envelope(z4, 0, "q0"),
                    wire.svc_request(
                        "trace",
                        {"n": 5, "order": "slowest", "min_duration_s": 0.0},
                        "t0",
                    ),
                ],
            )
        finally:
            service.close()
        status = service.status()["trace"]
        assert status["enabled"] is True and status["recorded"] >= 1
    trace_reply = replies[1]
    assert trace_reply["ok"] is True
    result = trace_reply["result"]
    assert result["enabled"] is True
    assert result["recorded"] == 1
    assert len(result["traces"]) == 1
    assert "worker.compute" in span_sites(result["traces"][0])
    # The trace page feeds the exporter directly.
    assert validate_chrome_trace(chrome_trace(result["traces"])) == []


def test_tracing_off_records_nothing_and_status_says_so(z4):
    service = DecompositionService(jobs=1)
    try:
        replies = drive_sequential(
            service,
            [
                decompose_envelope(z4, 0, "q0"),
                wire.svc_request("trace", {"n": 5}, "t0"),
            ],
        )
    finally:
        service.close()
    assert replies[0]["ok"] is True
    result = replies[1]["result"]
    assert result["enabled"] is False
    assert result["recorded"] == 0 and result["traces"] == []


# ---------------------------------------------------------------------------
# Probe-param validation (satellite 3): junk params fail typed
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, params, fragment",
    [
        ("trace", {"n": 0}, "positive integer"),
        ("trace", {"n": "twenty"}, "positive integer"),
        ("trace", {"n": True}, "positive integer"),
        ("trace", {"order": "fastest"}, "order"),
        ("trace", {"min_duration_s": "slow"}, "min_duration_s"),
        ("trace", {"min_duration_s": -1}, "min_duration_s"),
        ("trace", {"n": 5, "surprise": 1}, "surprise"),
        ("resize", {"size": 2, "wat": True}, "wat"),
        ("metrics", {"format": "json"}, "format"),
        ("status", {"verbose": True}, "verbose"),
    ],
)
def test_junk_probe_params_fail_with_typed_bad_request(kind, params, fragment):
    service = DecompositionService(jobs=1, prewarm=False)
    try:
        reply = drive_sequential(
            service, [wire.svc_request(kind, params, "p0")]
        )[0]
    finally:
        service.close()
    assert reply["ok"] is False
    assert reply["error"]["type"] == "bad-request"
    assert fragment in reply["error"]["message"]
    assert reply["id"] == "p0"  # typed reply still pairs with the request


# ---------------------------------------------------------------------------
# Fault interplay (satellite 4): span statuses under injected faults
# ---------------------------------------------------------------------------


def test_injected_worker_error_marks_the_root_span(z4):
    plan = FaultPlan((FaultEvent("worker.compute", 0, "error"),))
    with obs.installed():
        with faults.installed(plan):
            service = DecompositionService(jobs=1)
            try:
                replies = drive_sequential(
                    service,
                    [
                        decompose_envelope(z4, 0, "q0"),
                        decompose_envelope(z4, 1, "q1"),
                    ],
                )
            finally:
                service.close()
    assert replies[0]["ok"] is False
    assert replies[0]["error"]["type"] == "InjectedFault"
    assert replies[1]["ok"] is True

    failed, recovered = service.traces.query(n=2, order="recent")[::-1]
    failed_root = spans_at(failed, "server.request")[0]
    assert failed_root["status"] == "error"
    assert failed_root["attrs"].get("error") == "InjectedFault"
    assert spans_at(recovered, "server.request")[0]["status"] == "ok"


def test_timed_out_request_marks_root_and_roundtrip_spans(z4):
    plan = FaultPlan((FaultEvent("worker.compute", 0, "sleep", param=30.0),))
    with obs.installed():
        with faults.installed(plan):
            service = DecompositionService(jobs=1)
            try:
                reply = drive_sequential(
                    service, [decompose_envelope(z4, 0, "q0", timeout_s=0.5)]
                )[0]
            finally:
                service.close()
    assert reply["ok"] is False
    assert reply["error"]["type"] == "timeout"

    record = service.traces.query(n=1)[0]
    assert record["status"] == "timeout"
    assert spans_at(record, "server.request")[0]["status"] == "timeout"
    assert spans_at(record, "fleet.roundtrip")[0]["status"] == "timeout"
    # The worker went dark: its spans never made it back over the pipe.
    assert "worker.compute" not in span_sites(record)


def test_killed_worker_is_retried_inside_the_same_trace(z4):
    plan = FaultPlan((FaultEvent("fleet.call.sent", 0, "kill-worker"),))
    with obs.installed():
        with faults.installed(plan):
            service = DecompositionService(jobs=1)
            try:
                reply = drive_sequential(
                    service, [decompose_envelope(z4, 0, "q0")]
                )[0]
            finally:
                service.close()
    assert reply["ok"] is True  # the fleet healed and retried
    record = service.traces.query(n=1)[0]
    roundtrip = spans_at(record, "fleet.roundtrip")[0]
    assert roundtrip["attrs"].get("retried") is True
    assert roundtrip["status"] == "ok"
    assert "worker.compute" in span_sites(record)  # the retry's spans


def test_rate_limited_request_traces_admission_only(z4):
    with obs.installed():
        service = DecompositionService(jobs=1, rate=0.0001, burst=1.0)
        try:
            replies = drive_sequential(
                service,
                [decompose_envelope(z4, 0, "q0"), decompose_envelope(z4, 0, "q1")],
            )
        finally:
            service.close()
    assert replies[0]["ok"] is True
    assert replies[1]["ok"] is False
    assert replies[1]["error"]["type"] == "rate-limited"

    limited = service.traces.query(n=1, order="recent")[0]
    assert limited["id"] == "q1" and limited["status"] == "error"
    # The request never got past admission: exactly two server-side spans.
    assert span_sites(limited) == {"server.request", "server.admission"}
    admission = spans_at(limited, "server.admission")[0]
    assert admission["attrs"].get("outcome") == "rate-limited"


def test_follower_trace_points_at_the_leaders_trace(z4):
    with obs.installed():
        service = DecompositionService(jobs=1)
        try:
            replies = drive(
                service,
                [decompose_envelope(z4, 0, f"q{i}") for i in range(3)],
            )
        finally:
            service.close()
    assert all(reply["ok"] for reply in replies)
    assert service.coalescer.stats["followers"] == 2

    records = service.traces.query(n=3)
    leaders = [r for r in records if spans_at(r, "coalesce.leader")]
    followers = [r for r in records if spans_at(r, "coalesce.follower")]
    assert len(leaders) == 1 and len(followers) == 2
    leader_trace_id = leaders[0]["trace_id"]
    for follower in followers:
        span = spans_at(follower, "coalesce.follower")[0]
        assert span["attrs"].get("leader_trace") == leader_trace_id
        # The follower shares the leader's value, not its spans: the
        # compute tree lives in the leader's trace only.
        assert "fleet.roundtrip" not in span_sites(follower)
    assert "fleet.roundtrip" in span_sites(leaders[0])


def test_slow_request_threshold_logs_with_breakdown(z4, caplog):
    with obs.installed():
        service = DecompositionService(jobs=1, slow_request_s=0.0)
        try:
            with caplog.at_level("WARNING", logger="repro.obs.slow"):
                reply = drive_sequential(
                    service, [decompose_envelope(z4, 0, "q0")]
                )[0]
        finally:
            service.close()
    assert reply["ok"] is True
    assert service.slow_logged == 1
    assert service.status()["trace"]["slow_logged"] == 1
    slow_lines = [
        r.getMessage()
        for r in caplog.records
        if "slow request" in r.getMessage()
    ]
    assert len(slow_lines) == 1
    assert "kind=decompose" in slow_lines[0]
    assert "server.request=" in slow_lines[0]  # the per-site breakdown
