"""Service workload ``svc-fresh``: load against ``repro-bidec serve``.

The program runs as a subprocess, ``repro.cli serve --jobs 2 --cache-dir
<tmp>`` (under the speed probes of ``speed.py`` in the timed run), and
is spoken to over ``repro-svc/1`` only.  One generator process sends at
two fixed rates, then a closed-loop batch, over one connection (a
second one carries ``status``/``trace`` requests).  At the fixed rates:

* every request line is encoded before the clock starts;
* each request is timed from its due time, so a stall also delays the
  requests queued behind it;
* replies are timestamped raw on arrival and parsed and checked only
  after the step's clock stops;
* each step drains its backlog before the next one starts, and reports
  how late the generator itself sent.

Every request is a distinct key from the <= 16-input outputs of Tables
III+IV times the ten Table I operators and ``auto``, deduplicated by
cache key: every request is a coalescer leader, a cache miss, a
journaled put and a real computation in a fleet worker.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import select
import shutil
import signal
import socket
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import check
import layers
import speed
import stats

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"

#: The keys left out of the workload, fixed when it was defined.
DECK = HERE / "deck.json"

#: Fleet size (sized for 2 cores).
JOBS = 2

#: Rows whose outputs feed the service universe: at most this many inputs.
MAX_INPUTS = 16

#: Server spawns in set-up; ``setup_s`` reports the median spawn time.
SPAWNS = 3

#: Seconds a step may take to drain after its last send.
DRAIN_TIMEOUT_S = 30.0

#: A step is invalid when the generator's median lateness exceeds this
#: share of the median latency: the generator, not the server, was slow.
LATENESS_SHARE = 0.5


#: The open-loop schedule: two fixed rates, (req/s, share of
#: ``--seconds``), for the latency metrics.  Tails are taken over
#: consecutive windows of ``WINDOW`` requests -- each window's highest
#: percentile with 10 samples beyond it -- and a rate reports the median
#: window.
LOW = (20, 0.35)
HIGH = (40, 0.45)
WINDOW = 60

#: The seed shuffles requests within blocks of this many; ``WINDOW`` is
#: a multiple of it.
SHUFFLE_BLOCK = 10

#: Keys of the closed-loop batch, sent with ``2 * JOBS`` outstanding so
#: both workers stay busy: ``wall_s`` is its time and ``max_rps`` its
#: throughput, cut down in proportion if its tail exceeds ``LIMIT_MS``.
#: A closed loop never builds a backlog, and with the fleet saturated no
#: open-loop rate can be served faster.
BATCH_KEYS = 960
LIMIT_MS = 150.0

#: Warm-up keys per variable set, so every worker meets each.
WARM_PER_VARS = 2 * JOBS

#: Run length the traced run's two steps are cut from.
TRACED_SECONDS = 15.0


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


@dataclass
class Request:
    key: str
    output: str  # "<row>/o<index>", one per distinct function
    f_dump: dict
    params: bytes  # the encoded params object

    def line(self, request_id: str) -> bytes:
        return (
            b'{"format":"repro-svc/1","id":"' + request_id.encode()
            + b'","kind":"decompose","params":' + self.params + b"}\n"
        )

    @property
    def id(self) -> str:
        return self.key[:16]


def build_universe() -> list[Request]:
    """Every distinct decompose key over the narrow rows, in table order."""
    from repro.benchgen.registry import load_benchmark, table_benchmarks
    from repro.core.operators import EXPERIMENT_OPERATORS, TABLE_I_ORDER
    from repro.engine import wire
    from repro.engine.cache import ResultCache

    universe: dict[str, Request] = {}
    for table in ("III", "IV"):
        for spec in table_benchmarks(table):
            if spec.n_inputs > MAX_INPUTS:
                continue
            for index, f in enumerate(load_benchmark(spec.name).outputs):
                dump = wire.isf_to_payload(f)
                for op in TABLE_I_ORDER + ("auto",):
                    key = ResultCache.key_for(dump, op, "expand-full", "spp", True, EXPERIMENT_OPERATORS)
                    if key not in universe:
                        output = f"{spec.name}/o{index}"
                        params = json.dumps({"f": dump, "op": op, "name": output}, separators=(",", ":"))
                        universe[key] = Request(key, output, dump, params.encode())
    return list(universe.values())


# ---------------------------------------------------------------------------
# The server subprocess
# ---------------------------------------------------------------------------


class Server:
    """``repro-bidec serve`` as a subprocess, stopped (with its fleet) on exit.

    With ``probe``, the server and its fleet workers run under the speed
    probes of ``speed.py``, into ``self.probes``.
    """

    def __init__(self, root: Path, jobs: int = JOBS, trace_capacity: int = 0, probe: bool = False) -> None:
        self.root = root
        self.tmp = root / ".perfbench_tmp" / f"{os.getpid()}-{id(self):x}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.probes = speed.Probes(self.tmp / "probes.bin") if probe else None
        launcher = [str(HERE / "speed.py"), str(self.probes.path)] if probe else ["-m"]
        argv = [sys.executable, *launcher, "repro.cli", "serve", "--port", "0", "--jobs", str(jobs),
                "--cache-dir", str(self.tmp / "cache")]
        if trace_capacity:
            argv += ["--trace", "--trace-capacity", str(trace_capacity)]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.stderr = open(self.tmp / "stderr", "wb")
        t0 = perf_counter()
        self.proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.stderr)
        self.worker_pids: list[int] = []
        try:
            banner = self.proc.stdout.readline().decode()
            if "listening on" not in banner:
                raise RuntimeError(f"serve did not start: {banner!r}")
            self.port = int(banner.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])
            self.status()
            self.started = (t0, perf_counter())
        except BaseException:
            self.close()
            raise

    def request(self, kind: str, params: dict | None = None, timeout: float = 60.0) -> dict:
        from repro.service import ServiceClient

        with ServiceClient("127.0.0.1", self.port, timeout=timeout) as client:
            return client.request(kind, params or {})[0]

    def status(self) -> dict:
        status = self.request("status")
        self.worker_pids = list(status["fleet"]["pids"])
        return status

    def pids(self) -> list[int]:
        return [self.proc.pid] + self.worker_pids

    def factor(self, t0: float, t1: float) -> float:
        """The speed factor over ``[t0, t1]`` (see ``speed.py``); 1 unprobed."""
        return self.probes.refresh().factor(t0, t1) if self.probes else 1.0

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.request("shutdown", timeout=10.0)
            except Exception:  # noqa: BLE001 -- killed below either way
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        for pid in self.worker_pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        self.proc.stdout.close()
        self.stderr.close()
        shutil.rmtree(self.tmp, ignore_errors=True)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _proc_cpu_s(pids) -> float:
    """User plus system CPU seconds of live processes, from /proc."""
    tick = os.sysconf("SC_CLK_TCK")
    total = 0.0
    for pid in pids:
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        total += (int(fields[11]) + int(fields[12])) / tick
    return total


def _proc_peak_rss_mb(pids) -> float:
    total_kb = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except FileNotFoundError:
            continue
    return total_kb / 1024


# ---------------------------------------------------------------------------
# The open-loop generator
# ---------------------------------------------------------------------------


@dataclass
class Step:
    due: list[float]
    sent: list[float]  # one per request actually sent
    arrivals: list[tuple[float, bytes]]


def fixed_schedule(rate: float, seconds: float) -> list[float]:
    """Send offsets, in seconds, of requests at a fixed ``rate``."""
    return [i / rate for i in range(max(1, round(rate * seconds)))]


def run_open(port: int, lines: list[bytes], offsets: list[float]) -> Step:
    """Send ``lines`` at ``offsets`` seconds from now; collect raw replies.

    Single-threaded: between due times the loop waits in ``select`` on
    the socket, so a reply is timestamped as soon as it is read and a
    send is never held up by parsing.
    """
    n = len(lines)
    sent: list[float] = []
    arrivals: list[tuple[float, bytes]] = []
    with socket.create_connection(("127.0.0.1", port)) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        start = perf_counter() + 0.01
        due = [start + offset for offset in offsets]
        buf = b""
        deadline = math.inf
        while len(arrivals) < len(sent) or (deadline == math.inf and len(sent) < n):
            now = perf_counter()
            i = len(sent)
            if deadline == math.inf and now >= due[i]:
                sent.append(now)
                sock.sendall(lines[i])
                if len(sent) == n:
                    deadline = now + DRAIN_TIMEOUT_S
                continue
            if now >= deadline:
                break
            wait = (due[i] if deadline == math.inf else deadline) - now
            if not select.select([sock], [], [], max(0.0, wait))[0]:
                continue
            chunk = sock.recv(1 << 20)
            stamp = perf_counter()
            if not chunk:
                break
            *done, buf = (buf + chunk).split(b"\n")
            arrivals.extend((stamp, raw) for raw in done)
    return Step(due[: len(sent)], sent, arrivals)


def run_closed(port: int, lines: dict[str, bytes], window: int = 2 * JOBS) -> dict[str, tuple[dict, float]]:
    """Send ``lines`` (by request id) keeping ``window`` outstanding.

    Returns ``{id: (reply, seconds from send to reply)}``.
    """
    sent: dict[str, float] = {}
    replies: dict[str, tuple[dict, float]] = {}

    def receive() -> None:
        raw = reader.readline()
        stamp = perf_counter()
        reply = json.loads(raw)
        replies[reply["id"]] = (reply, stamp - sent[reply["id"]])

    with socket.create_connection(("127.0.0.1", port)) as sock, sock.makefile("rb") as reader:
        for request_id, line in lines.items():
            sent[request_id] = perf_counter()
            sock.sendall(line)
            if len(sent) - len(replies) >= window:
                receive()
        while len(replies) < len(sent):
            receive()
    return replies


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------


@dataclass
class StepResult:
    label: str
    n: int  # requests sent
    failed: int
    latencies_ms: list[float]  # from due time at reference speed, in send order; inf when failed
    wire_ms: dict[str, float]  # request id -> arrival minus send
    response_sizes: list[int]
    request_sizes: list[int]
    lateness_ms: list[float]
    drain_s: float
    span_s: float  # first due time to last reply
    factor: float  # speed factor over the step (see ``speed.py``)

    @property
    def p50(self) -> float:
        return stats.median(self.latencies_ms)

    @property
    def tail(self) -> tuple[float, float, int]:
        return stats.windowed_tail(self.latencies_ms, WINDOW)

    def late(self) -> bool:
        """True when the generator's own lateness explains the latency."""
        return stats.median(self.lateness_ms) > LATENESS_SHARE * self.p50

    def describe(self) -> str:
        tail, pct, size = self.tail
        late = stats.tail(self.lateness_ms)
        return (
            f"{self.label:>10s}  n {self.n:5d}  failed {self.failed:3d}  p50 {self.p50:8.2f} ms"
            f"  p{pct:.1f} {tail:8.2f} ms (median over windows of {size})"
            f"  late p50 {stats.median(self.lateness_ms):6.3f} ms"
            f" p{late[1]:.1f} {late[0]:6.3f} ms  drain {self.drain_s * 1000:7.1f} ms"
            f"  speed factor {self.factor:.3f}"
            f"{'  INVALID (generator late)' if self.late() else ''}"
        )


class Service:
    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root
        self.rng = random.Random(f"svc-fresh:{seed}")
        self.servers: list[Server] = []
        self._sequence = 0
        self._checked: dict[tuple[str, str], bool] = {}

    # -- set-up ------------------------------------------------------------

    def setup(self, probe: bool) -> float:
        """Spawn to first ok ``status``: the median of ``SPAWNS`` spawns.

        With ``probe`` (the timed run), servers run under speed probes and
        the figure is at reference speed.
        """
        self.golden = json.loads((GOLDEN / "svc.json").read_text())["payloads"]
        excluded = set(json.loads(DECK.read_text())["excluded"])
        self.keys: dict[str, list[Request]] = {}
        for request in build_universe():
            if request.id not in excluded:
                self.keys.setdefault(request.output, []).append(request)
        # The deck: every function once, in an order fixed by name alone;
        # the function at position i offers its operators from the i-th on.
        self.deck = sorted(self.keys, key=lambda output: hashlib.sha256(output.encode()).digest())
        for i, output in enumerate(self.deck):
            keys = self.keys[output]
            self.keys[output] = keys[i % len(keys):] + keys[: i % len(keys)]
        self.dealt = 0
        self.probe = probe
        spawns = []
        for attempt in range(SPAWNS):
            server = self.spawn()
            spawns.append((server.started[1] - server.started[0]) * server.factor(*server.started))
            if attempt < SPAWNS - 1:
                self.stop(server)
        self.server = server
        self.prepare(server)
        return stats.median(spawns)

    def spawn(self, trace_capacity: int = 0) -> Server:
        server = Server(self.root, JOBS, trace_capacity, probe=self.probe and not trace_capacity)
        self.servers.append(server)
        return server

    def stop(self, server: Server) -> None:
        server.close()
        self.servers.remove(server)

    def close(self) -> None:
        for server in list(self.servers):
            self.stop(server)
        shutil.rmtree(self.root / ".perfbench_tmp", ignore_errors=True)

    def prepare(self, server: Server) -> None:
        """Warm the workers' managers for every variable set, on keys the
        measured steps then never draw."""
        seen: dict[tuple, int] = {}
        warm = []
        for output in reversed(self.deck):
            keys = self.keys[output]
            names = tuple(keys[0].f_dump["vars"]) if keys else None
            if keys and seen.get(names, 0) < WARM_PER_VARS:
                seen[names] = seen.get(names, 0) + 1
                warm.append(keys.pop(0))
        run_closed(server.port, {f"warm-{i}": r.line(f"warm-{i}") for i, r in enumerate(warm)})

    def draw(self, n: int) -> list[Request]:
        """The next ``n`` unused keys of the deck, in seeded order.

        Decompositions differ in cost by an order of magnitude between
        keys, so a seeded choice of keys moves the latency figures more
        than any change worth measuring.  Every run therefore sends the
        same keys at each rate, and the seed orders them only within each
        block of ``SHUFFLE_BLOCK`` keys dealt in a row: every tail window
        then holds the same keys in every run.
        """
        left = sum(len(keys) for keys in self.keys.values())
        if n > left:
            raise RuntimeError(f"svc-fresh universe exhausted: {n} keys wanted, {left} left")
        drawn = []
        while len(drawn) < n:
            keys = self.keys[self.deck[self.dealt % len(self.deck)]]
            self.dealt += 1
            if keys:
                drawn.append(keys.pop(0))
        for start in range(0, n, SHUFFLE_BLOCK):
            block = drawn[start : start + SHUFFLE_BLOCK]
            self.rng.shuffle(block)
            drawn[start : start + SHUFFLE_BLOCK] = block
        return drawn

    # -- one step ----------------------------------------------------------

    def fixed(self, server: Server, rate: float, seconds: float) -> StepResult:
        """Send at ``rate`` for ``seconds``, then -- the clock stopped --
        parse and check."""
        offsets = fixed_schedule(rate, seconds)
        requests = self.draw(len(offsets))
        self._sequence += 1
        ids = [f"{self._sequence}-{i}" for i in range(len(requests))]
        lines = [r.line(request_id) for r, request_id in zip(requests, ids)]
        raw = run_open(server.port, lines, offsets)
        n = len(raw.sent)
        index = {request_id: i for i, request_id in enumerate(ids)}
        latencies = [math.inf] * n
        wire_ms, sizes = {}, []
        last_arrival = raw.sent[-1]
        probes = server.probes.refresh() if server.probes else None
        for stamp, line in raw.arrivals:
            reply = json.loads(line)
            i = index[reply["id"]]
            sizes.append(len(line))
            last_arrival = max(last_arrival, stamp)
            if self.ok(requests[i], reply):
                # At reference speed: scaled by the probes around the request.
                scale = probes.factor(raw.due[i], stamp) if probes else 1.0
                latencies[i] = 1000 * (stamp - raw.due[i]) * scale
                wire_ms[reply["id"]] = 1000 * (stamp - raw.sent[i])
        return StepResult(
            label=f"{rate:g} req/s",
            n=n,
            failed=sum(1 for x in latencies if math.isinf(x)),
            latencies_ms=latencies,
            wire_ms=wire_ms,
            response_sizes=sizes,
            request_sizes=[len(line) for line in lines[:n]],
            lateness_ms=[1000 * (s - d) for s, d in zip(raw.sent, raw.due)],
            drain_s=last_arrival - raw.sent[-1],
            span_s=last_arrival - raw.due[0],
            factor=probes.factor(raw.due[0], last_arrival) if probes else 1.0,
        )

    def batch(self, server: Server, n: int) -> tuple[float, float, int]:
        """``n`` keys in a closed loop: ``(seconds, tail ms, failed)``.

        Times are at reference speed; the tail is taken as at a fixed rate.
        """
        requests = self.draw(n)
        self._sequence += 1
        lines = {f"{self._sequence}-{i}": r.line(f"{self._sequence}-{i}") for i, r in enumerate(requests)}
        t0 = perf_counter()
        replies = run_closed(server.port, lines)
        t1 = perf_counter()
        factor = server.factor(t0, t1)
        latencies, failed = [], 0
        for request, request_id in zip(requests, lines):
            reply, seconds = replies[request_id]
            if self.ok(request, reply):
                latencies.append(1000 * seconds * factor)
            else:
                latencies.append(math.inf)
                failed += 1
        tail, pct, _ = stats.windowed_tail(latencies, WINDOW)
        print(
            f"closed loop of {n} keys, {2 * JOBS} outstanding: {t1 - t0:.3f} s raw, speed factor {factor:.3f}, "
            f"p{pct:.1f} {tail:.2f} ms (median over windows of {WINDOW}), failed {failed}"
        )
        return (t1 - t0) * factor, tail, failed

    def ok(self, request: Request, reply: dict) -> bool:
        """The reply matches its golden fingerprint and passes the evaluator.

        A key with no golden record fails: the deck is fixed, so a key the
        golden records lack is an output that was never checked.
        """
        if not reply.get("ok"):
            print(f"FAILED {request.id}: {reply.get('error')}")
            return False
        fp = check.fingerprint(reply["result"])
        verdict = self._checked.get((request.key, fp))
        if verdict is None:
            try:
                if fp != self.golden.get(request.id):
                    raise check.CheckFailed(f"payload {fp} != golden {self.golden.get(request.id)}")
                check.check_decomposition(request.f_dump, reply["result"], self.seed)
                verdict = True
            except (check.CheckFailed, KeyError, TypeError, IndexError) as exc:
                print(f"FAILED {request.id}: {exc}")
                verdict = False
            self._checked[(request.key, fp)] = verdict
        return verdict

    # -- timed run ---------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """The low and high rates, then the closed-loop batch.

        Times and rates are at reference speed (see ``speed.py``): each
        open-loop latency is scaled by the probes around its request.  CPU
        and memory cover the two fixed rates.
        """
        server = self.server
        pids = server.pids()
        cpu0, t0 = _proc_cpu_s(pids), perf_counter()
        low = self.fixed(server, LOW[0], LOW[1] * seconds)
        high = self.fixed(server, HIGH[0], HIGH[1] * seconds)
        # The probes sample CPU time: scale it over both steps at once.
        cpu_s = (_proc_cpu_s(pids) - cpu0) * server.factor(t0, perf_counter())
        cpu_ms_per_op = 1000 * cpu_s / max(1, low.n + high.n - low.failed - high.failed)
        peak_rss_mb = _proc_peak_rss_mb(server.pids())
        wall_s, batch_tail_ms, batch_failed = self.batch(server, BATCH_KEYS)
        max_rps = BATCH_KEYS / wall_s * min(1.0, LIMIT_MS / batch_tail_ms)
        for result in (low, high):
            print(result.describe())
        print(f"max_rps {max_rps:.1f} req/s at reference speed, tail limit {LIMIT_MS} ms")
        attempted = low.n + high.n + BATCH_KEYS
        failed = low.failed + high.failed + batch_failed
        return {
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                "wall_s": wall_s,
                "cpu_ms_per_op": cpu_ms_per_op,
                "peak_rss_mb": peak_rss_mb,
                "ok_share": 1 - failed / attempted,
                "lat_p50_ms.low": low.p50,
                "lat_tail_ms.low": low.tail[0],
                "lat_p50_ms.high": high.p50,
                "lat_tail_ms.high": high.tail[0],
                "max_rps": max_rps,
            },
        }

    # -- traced run --------------------------------------------------------

    def measure_traced(self) -> dict:
        """Low rate untraced, then low and high rates on a traced server."""
        (low_rate, low_share), (high_rate, high_share) = LOW, HIGH
        seconds = TRACED_SECONDS
        untraced = self.fixed(self.server, low_rate, low_share * seconds)
        self.stop(self.server)
        server = self.spawn(trace_capacity=1 << 15)
        self.prepare(server)
        status0 = server.status()
        results = [
            self.fixed(server, low_rate, low_share * seconds),
            self.fixed(server, high_rate, high_share * seconds),
        ]
        status1 = server.status()
        page = server.request("trace", {"n": 1 << 15})
        records = [t for t in page["traces"] if t["kind"] == "decompose" and not str(t["id"]).startswith("warm-")]
        for r in results:
            print(r.describe())
        values = svc_layers(records, results, status0, status1)
        values["obs.overhead_ratio"] = results[0].p50 / untraced.p50
        attempted = sum(r.n for r in results) + untraced.n
        failed = sum(r.failed for r in results) + untraced.failed
        return {"attempted": attempted, "failed": failed, "metrics": layers.report(values)}


def _delta(status0: dict, status1: dict, *path: str) -> float:
    a, b = status0, status1
    for key in path:
        a, b = (a or {}).get(key, 0), (b or {}).get(key, 0)
    return (b or 0) - (a or 0)


def svc_layers(records: list[dict], results: list[StepResult], status0: dict, status1: dict) -> dict[str, float]:
    """Per-layer metrics from harvested request traces and status deltas."""
    import tracing

    spans = [span for record in records for span in record["spans"]]
    requests = stats.per_request(spans, "server.request")

    def med(site: str, scale: float = 1000.0) -> float:
        return scale * stats.median(r[site] for r in requests if site in r)

    wire = {}
    for r in results:
        wire.update(r.wire_ms)
    outside = [wire[t["id"]] - 1000 * t["duration_s"] for t in records if t["id"] in wire]
    own = stats.self_times(spans)
    dispatches = [s for s in spans if s["site"] == "engine.dispatch"]
    window = sum(r.span_s for r in results)
    hits = _delta(status0, status1, "cache", "hits")
    misses = _delta(status0, status1, "cache", "misses")
    leaders = _delta(status0, status1, "coalesce", "leaders")
    followers = _delta(status0, status1, "coalesce", "followers")
    tracing.print_layers(spans)
    return {
        "engine.self_s": sum(own[s["span_id"]] for s in spans if s["site"].startswith("engine.")),
        "engine.approximate_ms": med("engine.approximate"),
        "engine.minimize_ms": med("engine.minimize"),
        "engine.quotient_verify_ms": 1000 * stats.median(
            r.get("engine.quotient", 0.0) + r.get("engine.verify", 0.0) for r in requests if "worker.compute" in r
        ),
        "backend.bitset_share": (
            sum(1 for s in dispatches if s["attrs"].get("backend") == "bitset") / len(dispatches) if dispatches else 0.0
        ),
        "server.self_ms": med("server.request:self"),
        "server.admission_ms": med("server.admission"),
        "server.errors": _delta(status0, status1, "requests", "errors"),
        "wire.outside_ms": stats.median(outside),
        "wire.request_bytes": stats.median(size for r in results for size in r.request_sizes),
        "wire.response_bytes": stats.median(size for r in results for size in r.response_sizes),
        "coalesce.rate": followers / (leaders + followers) if leaders + followers else 0.0,
        "coalesce.followers": followers,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.get_ms": med("cache.get"),
        "cache.put_ms": med("cache.put"),
        "cache.journal_ms": med("cache.journal"),
        "fleet.checkout_wait_ms": med("fleet.checkout"),
        "fleet.pipe_ms": 1000 * stats.median(
            r["fleet.roundtrip"] - r.get("worker.compute", 0.0) for r in requests if "fleet.roundtrip" in r
        ),
        "fleet.busy_share": (
            sum(s["t1"] - s["t0"] for s in spans if s["site"] == "fleet.roundtrip") / (JOBS * window) if window else 0.0
        ),
        "fleet.restarts": _delta(status0, status1, "fleet", "restarts"),
        "worker.compute_ms": med("worker.compute"),
        "worker.self_ms": med("worker.compute:self"),
        "obs.unattributed_share": stats.unattributed_share(spans),
    }
