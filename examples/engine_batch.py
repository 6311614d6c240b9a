"""Batch decomposition with the strategy engine.

Three things the one-shot ``bidecompose`` driver cannot express:

1. ``decompose_many`` over functions from *different* BDD managers — the
   engine merges them into one shared manager (matching variables by
   name) so the whole batch shares a unique table and operation caches;
2. approximation/minimization memoization across the batch (watch the
   cache stats: the two structurally identical requests pay once);
3. a user-registered approximator participating in ``op="auto"`` search
   next to the built-ins;
4. parallel + cached batch execution: ``jobs=N`` ships serialized
   requests to N worker processes (identical results in input order),
   and ``cache=<dir>`` persists results on disk so a warm re-run is
   served with 100% cache hits and no recomputation.

Run:  python examples/engine_batch.py
"""

import tempfile

from repro import BDD, ISF, Decomposer, ResultCache, parse_expression, register_approximator


@register_approximator("tautology", kind_pure=True)
def tautology_divisor(f, op):
    """The trivial endpoint g = 1 (or g = 0) of the approximation sweep."""
    from repro.core.operators import ApproximationKind

    if op.approximation in (
        ApproximationKind.UNDER_F,
        ApproximationKind.UNDER_COMPLEMENT,
    ):
        return f.mgr.false
    return f.mgr.true


def main() -> None:
    # Functions built in two unrelated managers with overlapping supports.
    mgr_a = BDD(["x1", "x2", "x3", "x4"])
    mgr_b = BDD(["x1", "x2", "x3", "x4", "x5"])
    batch = [
        ("mux", parse_expression(mgr_a, "x1 & x2 | ~x1 & x3")),
        ("majority", parse_expression(mgr_a, "x1 & x2 | x2 & x3 | x1 & x3")),
        # Same function as "mux" — its sub-results come from the memo.
        ("mux-again", parse_expression(mgr_a, "x1 & x2 | ~x1 & x3")),
        ("chain", parse_expression(mgr_b, "(x1 | x2) & (x3 ^ x4) & x5")),
    ]

    engine = Decomposer(approximator="expand-full", minimizer="spp")
    results = engine.decompose_many(batch, op="auto")

    shared = results[0].decomposition.f.mgr
    assert all(r.decomposition.f.mgr is shared for r in results)
    print(f"shared manager: {shared.n_vars} variables, one unique table")
    print()
    print(f"{'name':<10} {'op':<14} {'lits':>5} {'err%':>6} {'time(s)':>8}")
    for r in results:
        print(
            f"{r.name:<10} {r.op_name:<14} {r.literal_cost:>5}"
            f" {100 * r.error_rate:>6.2f} {r.timings['total']:>8.4f}"
        )
    print()
    print(f"engine cache stats: {engine.stats}")

    # The registered strategy is addressable by name like any built-in.
    baseline = engine.decompose(
        results[0].decomposition.f, "AND", approximator="tautology"
    )
    print(
        f"\n'tautology' divisor under AND: h carries all of f"
        f" ({baseline.literal_cost} literals, trivial g)"
    )

    # Parallel + cached batch runs.  The cold run computes on 2 worker
    # processes and fills the cache; the warm run (a fresh engine, as in
    # a new process) is answered from disk without dispatching anything.
    with tempfile.TemporaryDirectory() as cache_dir:
        cold = Decomposer().decompose_many(batch, op="AND", jobs=2, cache=cache_dir)
        cache = ResultCache(cache_dir)
        warm = Decomposer().decompose_many(batch, op="AND", cache=cache)
        assert [r.literal_cost for r in warm] == [r.literal_cost for r in cold]
        print(
            f"\nparallel+cache: {len(cold)} results on 2 workers, warm run"
            f" {100 * cache.hit_rate():.0f}% hits from {cache_dir}"
        )


if __name__ == "__main__":
    main()
