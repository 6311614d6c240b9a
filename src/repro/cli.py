"""Command-line interface: paper tables/figures and the decompose engine.

Usage::

    python -m repro.cli table1
    python -m repro.cli table2
    python -m repro.cli table3 [--names br1 br2] [--no-paper]
    python -m repro.cli table4 [--names z4]
    python -m repro.cli fig1
    python -m repro.cli fig2
    python -m repro.cli bench <name> [...] [--json] [--jobs N] [--cache-dir DIR]
    python -m repro.cli decompose <name> [...] [--op auto] [--approx expand-full]
                                  [--minimizer spp] [--json]
                                  [--jobs N] [--cache-dir DIR]
                                  [--backend auto|bdd|bitset]
    python -m repro.cli netsyn <name> [...] [--json] [--jobs N] [--cache-dir DIR]
                               [--backend auto|bdd|bitset]
                               [--literal-threshold N] [--max-depth N]
    python -m repro.cli serve [--host H] [--port P] [--jobs N]
                              [--cache-dir DIR] [--cache-max-mb MB]
                              [--no-prewarm]
                              [--timeout S] [--max-inflight N]
                              [--max-line-kb KB] [--max-pending N]
                              [--rate R] [--burst B]
                              [--min-slots N] [--max-slots N]
                              [--trace] [--trace-capacity N]
                              [--slow-request S]
    python -m repro.cli serve --status --port P
    python -m repro.cli client <status|metrics|trace|resize|shutdown|netsyn|decompose>
                               [names...] [--host H] --port P [--op auto]
                               [--timeout S] [--size N]
                               [--n N] [--slowest] [--min-duration S]
                               [--chrome out.json]

Installed as the ``repro-bidec`` console script.
"""

from __future__ import annotations

import argparse
import json
import sys


def _cmd_table1(_args: argparse.Namespace) -> int:
    from repro.harness.tables import render_table1

    print(render_table1())
    return 0


def _cmd_table2(_args: argparse.Namespace) -> int:
    from repro.harness.tables import render_table2

    print(render_table2())
    return 0


def _run_table(table: str, args: argparse.Namespace) -> int:
    from repro.harness.experiment import run_table
    from repro.harness.report import comparison_lines, shape_summary
    from repro.harness.tables import render_table_results

    names = args.names or None
    results = run_table(table, names=names)
    print(render_table_results(results, table, with_paper=not args.no_paper))
    print()
    for line in comparison_lines(results):
        print(line)
    print()
    print("shape summary:", shape_summary(results))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    return _run_table("III", args)


def _cmd_table4(args: argparse.Namespace) -> int:
    return _run_table("IV", args)


def _cmd_fig1(_args: argparse.Namespace) -> int:
    from repro.harness.figures import render_figure1

    print(render_figure1().rendering)
    return 0


def _cmd_fig2(_args: argparse.Namespace) -> int:
    from repro.harness.figures import render_figure2

    print(render_figure2().rendering)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.harness.experiment import benchmark_result_payload, run_benchmarks
    from repro.harness.tables import render_table_results

    results = run_benchmarks(
        args.names, jobs=args.jobs, cache_dir=args.cache_dir
    )
    if args.json:
        rows = [
            {**payload, "time_s": round(payload["time_s"], 6)}
            for payload in map(benchmark_result_payload, results)
        ]
        print(json.dumps(rows, indent=2))
        return 0
    table = "III/IV"
    print(render_table_results(results, table, with_paper=not args.no_paper))
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    from repro.benchgen.registry import load_benchmark
    from repro.harness.experiment import decompose_suite

    results = decompose_suite(
        [load_benchmark(name, args.backend) for name in args.names],
        op=args.op,
        approximator=args.approx,
        minimizer=args.minimizer,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )
    if args.json:
        print(json.dumps([r.to_dict() for r in results], indent=2))
        return 0
    header = (
        f"{'output':<16} {'op':<14} {'lits':>5} {'err%':>6} {'ok':>3}"
        f" {'time(s)':>8}"
    )
    print(f"strategies: approx={args.approx} minimizer={args.minimizer}"
          f" op={args.op}")
    print(header)
    print("-" * len(header))
    for result in results:
        print(
            f"{result.name:<16} {result.op_name:<14}"
            f" {result.literal_cost:>5} {100 * result.error_rate:>6.2f}"
            f" {'yes' if result.verified else 'NO':>3}"
            f" {result.timings['total']:>8.3f}"
        )
    total_lits = sum(r.literal_cost for r in results)
    print("-" * len(header))
    print(f"{len(results)} outputs, {total_lits} literals total")
    return 0


def _cmd_netsyn(args: argparse.Namespace) -> int:
    from repro.benchgen.registry import load_benchmark
    from repro.harness.experiment import synthesize_network
    from repro.harness.tables import render_network_results
    from repro.netsyn.synthesis import NetsynConfig

    config = NetsynConfig(
        literal_threshold=args.literal_threshold,
        max_depth=args.max_depth,
    )
    results = [
        synthesize_network(
            load_benchmark(name, args.backend),
            config=config,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
        )
        for name in args.names
    ]
    if args.json:
        print(json.dumps([r.to_dict() for r in results], indent=2))
        return 0
    print(render_network_results(results))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import DecompositionService, ServiceClient, ServiceServer

    if args.status:
        if not args.port:
            print("serve --status needs --port", file=sys.stderr)
            return 2
        with ServiceClient(args.host, args.port) as client:
            print(json.dumps(client.status(), indent=2, sort_keys=True))
        return 0

    if args.trace:
        from repro import obs

        # Install before the service constructs its fleet: workers fork
        # with the tracer already in place, so their spans join every
        # request's trace (exactly like an inherited fault plan).
        obs.install()
    service = DecompositionService(
        jobs=args.jobs if args.jobs > 0 else None,
        cache_dir=args.cache_dir,
        cache_max_bytes=(
            args.cache_max_mb * 1024 * 1024 if args.cache_max_mb else None
        ),
        prewarm=not args.no_prewarm,
        timeout_s=args.timeout if args.timeout > 0 else None,
        max_inflight=args.max_inflight if args.max_inflight > 0 else None,
        max_line_bytes=args.max_line_kb * 1024,
        max_pending_per_conn=(
            args.max_pending if args.max_pending > 0 else None
        ),
        rate=args.rate if args.rate > 0 else None,
        burst=args.burst if args.burst > 0 else None,
        min_slots=args.min_slots if args.min_slots > 0 else None,
        max_slots=args.max_slots if args.max_slots > 0 else None,
        trace_capacity=args.trace_capacity,
        slow_request_s=args.slow_request if args.slow_request > 0 else None,
    )

    async def _run() -> None:
        server = ServiceServer(service, args.host, args.port)
        await server.start()
        print(
            f"repro-bidec service listening on {server.host}:{server.port}"
            f" (fleet={service.fleet.size},"
            f" cache={'off' if service.cache is None else 'on'})",
            flush=True,
        )
        await server.serve_until_shutdown()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    if not args.port:
        print("client needs --port", file=sys.stderr)
        return 2
    with ServiceClient(args.host, args.port) as client:
        if args.action == "status":
            print(json.dumps(client.status(), indent=2, sort_keys=True))
            return 0
        if args.action == "metrics":
            print(client.metrics(), end="")
            return 0
        if args.action == "trace":
            result = client.trace(
                n=args.n,
                order="slowest" if args.slowest else "recent",
                min_duration_s=(
                    args.min_duration if args.min_duration > 0 else None
                ),
            )
            if args.chrome:
                from pathlib import Path

                from repro.obs import chrome_trace

                document = chrome_trace(result.get("traces", []))
                Path(args.chrome).write_text(json.dumps(document))
                print(
                    f"wrote {len(result.get('traces', []))} traces"
                    f" ({len(document['traceEvents'])} events) to"
                    f" {args.chrome}"
                )
                return 0
            print(json.dumps(result, indent=2, sort_keys=True))
            return 0
        if args.action == "resize":
            if args.size < 1:
                print("client resize needs --size N (>= 1)", file=sys.stderr)
                return 2
            print(json.dumps(client.resize(args.size), sort_keys=True))
            return 0
        if args.action == "shutdown":
            print(json.dumps(client.shutdown()))
            return 0
        if not args.names:
            print(f"client {args.action} needs benchmark names", file=sys.stderr)
            return 2
        timeout_s = args.timeout if args.timeout > 0 else None
        if args.action == "netsyn":
            rows = []
            for name in args.names:
                result, stats = client.netsyn(
                    benchmark=name, timeout_s=timeout_s
                )
                rows.append(
                    {
                        "name": name,
                        "shared_area": result["shared_area"],
                        "isolated_area": result["isolated_area"],
                        "shared_gate_count": result["shared_gate_count"],
                        "served_by": stats["served_by"],
                        "coalesced": stats["coalesced"],
                    }
                )
            print(json.dumps(rows, indent=2))
            return 0
        # action == "decompose": ship every output of the named benchmarks
        # as one decompose_many batch.
        from repro.benchgen.registry import load_benchmark
        from repro.engine import wire

        items = []
        for name in args.names:
            instance = load_benchmark(name)
            items.extend(
                {
                    "name": f"{name}.o{index}",
                    "f": wire.isf_to_payload(isf),
                }
                for index, isf in enumerate(instance.outputs)
            )
        defaults = {"op": args.op}
        if timeout_s is not None:
            defaults["timeout_s"] = timeout_s
        result, stats = client.decompose_many(items, **defaults)
        rows = [
            {
                "name": item["name"],
                "op": payload["op"],
                "literal_cost": payload["literal_cost"],
                "verified": payload["verified"],
            }
            for item, payload in zip(items, result["results"])
        ]
        print(json.dumps({"results": rows, "stats": stats}, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-bidec",
        description=(
            "Reproduce tables/figures of 'Computing the full quotient in"
            " bi-decomposition by approximation' (DATE 2020)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("table1", help="operator table").set_defaults(
        handler=_cmd_table1
    )
    subparsers.add_parser("table2", help="full-quotient formulas").set_defaults(
        handler=_cmd_table2
    )
    for name, handler in (("table3", _cmd_table3), ("table4", _cmd_table4)):
        sub = subparsers.add_parser(name, help=f"run paper {name}")
        sub.add_argument("--names", nargs="*", help="subset of benchmarks")
        sub.add_argument(
            "--no-paper", action="store_true", help="omit the paper's rows"
        )
        sub.set_defaults(handler=handler)
    subparsers.add_parser("fig1", help="regenerate Figure 1").set_defaults(
        handler=_cmd_fig1
    )
    subparsers.add_parser("fig2", help="regenerate Figure 2").set_defaults(
        handler=_cmd_fig2
    )
    def add_execution_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="worker processes for the batch (default: 1, in-process)",
        )
        sub.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help=(
                "persistent result cache directory; results are keyed by"
                " serialized function + strategy + operator, so warm"
                " re-runs complete without recomputation"
            ),
        )

    bench = subparsers.add_parser("bench", help="run named benchmarks")
    bench.add_argument("names", nargs="+")
    bench.add_argument("--no-paper", action="store_true")
    bench.add_argument(
        "--json", action="store_true", help="emit results as JSON"
    )
    add_execution_flags(bench)
    bench.set_defaults(handler=_cmd_bench)

    decompose = subparsers.add_parser(
        "decompose",
        help="decompose benchmark outputs with the strategy engine",
        description=(
            "Batch-decompose every output of the named benchmarks through"
            " the Decomposer engine (one shared BDD manager, memoized"
            " sub-results)."
        ),
    )
    decompose.add_argument("names", nargs="+", help="benchmark names")
    decompose.add_argument(
        "--op",
        default="auto",
        help="operator name, or 'auto' to search all ten (default)",
    )
    decompose.add_argument(
        "--approx",
        default="expand-full",
        help=(
            "approximator strategy, e.g. expand-full, expand-bounded:0.05,"
            " random:0.3 (default: expand-full)"
        ),
    )
    decompose.add_argument(
        "--minimizer",
        default="spp",
        help="minimizer strategy: spp, espresso, exact, none (default: spp)",
    )
    decompose.add_argument(
        "--backend",
        default="auto",
        choices=("auto", "bdd", "bitset"),
        help=(
            "function representation the benchmarks are loaded as:"
            " 'bitset' forces dense truth tables, 'bdd' forces BDDs,"
            " 'auto' (default) picks bitset for rows of at most 16 inputs;"
            " results are identical on every backend, only speed differs"
        ),
    )
    decompose.add_argument(
        "--json", action="store_true", help="emit DecomposeResult metrics as JSON"
    )
    add_execution_flags(decompose)
    decompose.set_defaults(handler=_cmd_decompose)

    netsyn = subparsers.add_parser(
        "netsyn",
        help="synthesize one shared multi-output network per benchmark",
        description=(
            "Decompose a whole benchmark into a single shared LogicNetwork:"
            " outputs reuse each other's divisors and residual blocks"
            " through a canonical-hash pool, and the report compares the"
            " shared network's mapped area against the per-output sum."
        ),
    )
    netsyn.add_argument("names", nargs="+", help="benchmark names")
    netsyn.add_argument(
        "--backend",
        default="auto",
        choices=("auto", "bdd", "bitset"),
        help=(
            "function representation the benchmarks are loaded as"
            " (results are identical on every backend; cache entries are"
            " shared)"
        ),
    )
    netsyn.add_argument(
        "--literal-threshold",
        type=int,
        default=10,
        metavar="N",
        help="instantiate blocks at or below this literal cost (default: 10)",
    )
    netsyn.add_argument(
        "--max-depth",
        type=int,
        default=2,
        metavar="N",
        help="maximum recursive bi-decomposition depth (default: 2)",
    )
    netsyn.add_argument(
        "--json", action="store_true", help="emit synthesis metrics as JSON"
    )
    add_execution_flags(netsyn)
    netsyn.set_defaults(handler=_cmd_netsyn)

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived decomposition service",
        description=(
            "Serve decompose/decompose_many/netsyn requests over"
            " newline-delimited JSON (repro-svc/1): duplicate concurrent"
            " requests coalesce into one computation, results persist in"
            " an LRU-bounded cache that the batch commands' --cache-dir"
            " shares, and a pre-warmed worker fleet keeps managers and"
            " engines warm across requests."
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (default: 0, pick a free one and print it)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help="fleet size (default: 0, size to the machine)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "persistent result store, shared with the batch commands'"
            " --cache-dir (omit to serve cache-less)"
        ),
    )
    serve.add_argument(
        "--cache-max-mb", type=int, default=0, metavar="MB",
        help="total cache byte budget, LRU-evicted (default: unbounded)",
    )
    serve.add_argument(
        "--no-prewarm", action="store_true",
        help="skip force-spawning the fleet at startup",
    )
    serve.add_argument(
        "--timeout", type=float, default=0.0, metavar="S",
        help=(
            "default per-request deadline in seconds; on expiry the"
            " worker is killed and respawned and the client gets a typed"
            " 'timeout' error (default: none; a request's timeout_s"
            " param always wins)"
        ),
    )
    serve.add_argument(
        "--max-inflight", type=int, default=0, metavar="N",
        help=(
            "max concurrently admitted compute requests; beyond it"
            " requests get a typed 'overloaded' error (default: unbounded)"
        ),
    )
    serve.add_argument(
        "--max-line-kb", type=int, default=8192, metavar="KB",
        help=(
            "max request line size in KiB; larger lines get a typed"
            " 'too-large' error and the connection closes (default: 8192)"
        ),
    )
    serve.add_argument(
        "--max-pending", type=int, default=0, metavar="N",
        help=(
            "max unanswered pipelined requests per connection; beyond it"
            " requests get a typed 'overloaded' error (default: unbounded)"
        ),
    )
    serve.add_argument(
        "--rate", type=float, default=0.0, metavar="R",
        help=(
            "per-client compute-request rate limit in requests/second;"
            " beyond it requests get a typed 'rate-limited' error carrying"
            " retry_after_s (default: unlimited)"
        ),
    )
    serve.add_argument(
        "--burst", type=float, default=0.0, metavar="B",
        help=(
            "token-bucket burst capacity per client (default: max(rate, 1))"
        ),
    )
    serve.add_argument(
        "--min-slots", type=int, default=0, metavar="N",
        help=(
            "autoscale floor: shrink the fleet no further than N slots"
            " (set with --max-slots to enable queue-depth autoscaling)"
        ),
    )
    serve.add_argument(
        "--max-slots", type=int, default=0, metavar="N",
        help="autoscale ceiling: grow the fleet no further than N slots",
    )
    serve.add_argument(
        "--status", action="store_true",
        help="probe a running server (--port) and print its counters",
    )
    serve.add_argument(
        "--trace", action="store_true",
        help=(
            "install the span tracer before the fleet forks: every request"
            " records a full span tree (server/coalescer/fleet/worker/"
            "engine/cache), queryable via 'client trace'"
        ),
    )
    serve.add_argument(
        "--trace-capacity", type=int, default=256, metavar="N",
        help="trace ring-buffer capacity (default: 256 requests)",
    )
    serve.add_argument(
        "--slow-request", type=float, default=0.0, metavar="S",
        help=(
            "log requests slower than S seconds with a per-site latency"
            " breakdown (requires --trace; default: off)"
        ),
    )
    serve.set_defaults(handler=_cmd_serve)

    client = subparsers.add_parser(
        "client",
        help="send one request to a running decomposition service",
    )
    client.add_argument(
        "action",
        choices=(
            "status", "metrics", "trace", "resize", "shutdown", "netsyn",
            "decompose",
        ),
    )
    client.add_argument("names", nargs="*", help="benchmark names")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=0, required=False)
    client.add_argument(
        "--size", type=int, default=0, metavar="N",
        help="target fleet size for the resize action",
    )
    client.add_argument(
        "--n", type=int, default=20, metavar="N",
        help="trace action: fetch up to N traces (default: 20)",
    )
    client.add_argument(
        "--slowest", action="store_true",
        help="trace action: slowest-first instead of most recent",
    )
    client.add_argument(
        "--min-duration", type=float, default=0.0, metavar="S",
        help="trace action: only traces at least S seconds long",
    )
    client.add_argument(
        "--chrome", default=None, metavar="PATH",
        help=(
            "trace action: write the fetched traces as Chrome trace-event"
            " JSON (load PATH in https://ui.perfetto.dev)"
        ),
    )
    client.add_argument(
        "--op", default="auto", help="operator for decompose (default: auto)"
    )
    client.add_argument(
        "--timeout", type=float, default=0.0, metavar="S",
        help="server-side per-request deadline in seconds (default: server's)",
    )
    client.set_defaults(handler=_cmd_client)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
