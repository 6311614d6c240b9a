"""Ablation: plain SOP vs 2-SPP synthesis (why the paper uses XOR forms).

Measures mapped areas of both forms on the XOR-rich arithmetic
benchmarks; 2-SPP should win clearly there (the premise of Section IV),
while on control logic the two stay close.
"""

import time

import pytest

from repro.benchgen.registry import load_benchmark
from repro.spp.synthesis import minimize_spp
from repro.techmap.area import area_of_covers, area_of_spp_covers
from repro.twolevel.espresso import espresso_minimize

from benchmarks.conftest import write_output

CASES = ["z4", "adr4", "newtpla2"]
_LINES = []


@pytest.mark.parametrize("name", CASES)
def test_sop_vs_spp(benchmark, name):
    instance = load_benchmark(name)
    names = instance.mgr.var_names

    def run():
        sop_covers = [espresso_minimize(f) for f in instance.outputs]
        spp_covers = [minimize_spp(f) for f in instance.outputs]
        return (
            area_of_covers(sop_covers, names),
            area_of_spp_covers(spp_covers, names),
        )

    sop_area, spp_area = benchmark.pedantic(run, rounds=1, iterations=1)
    assert spp_area <= sop_area * 1.05  # XOR forms never lose much
    _LINES.append(
        f"{name}: SOP area {sop_area:.0f}, 2-SPP area {spp_area:.0f}"
        f" ({100 * (sop_area - spp_area) / sop_area:+.1f}% smaller)"
    )
    if len(_LINES) == len(CASES):
        write_output("ablation_spp.txt", "\n".join(_LINES))


def _wide_spp_case(n: int = 64, noise: int = 28, seed: int = 5):
    """A wide function exhibiting the O(n³) pair-weakening hotspot.

    Mostly *prime* 14-literal pseudocubes (every weakening hits the
    off-set — the dead ends the dead-end set is for) plus a small
    expandable family that makes the first expansion round improve the
    cost, so the heuristic restarts and re-scans the unchanged majority.
    """
    import random

    from repro.bdd.manager import BDD
    from repro.boolfunc.isf import ISF
    from repro.cover.cover import Cover
    from repro.cover.cube import Cube

    rng = random.Random(seed)
    mgr = BDD([f"x{i + 1}" for i in range(n)])
    cubes = []
    region_vars = rng.sample(range(n), 6)
    rpos = rneg = 0
    for var in region_vars:
        if rng.random() < 0.5:
            rpos |= 1 << var
        else:
            rneg |= 1 << var
    for _ in range(4):
        free = [v for v in range(n) if not ((rpos | rneg) >> v) & 1]
        pos, neg = rpos, rneg
        for var in rng.sample(free, 6):
            if rng.random() < 0.5:
                pos |= 1 << var
            else:
                neg |= 1 << var
        cubes.append(Cube(n, pos, neg))
    for _ in range(noise):
        pos = neg = 0
        for var in rng.sample(range(n), 14):
            if rng.random() < 0.5:
                pos |= 1 << var
            else:
                neg |= 1 << var
        cubes.append(Cube(n, pos, neg))
    cover = Cover(n, cubes)
    on = mgr.false
    for cube in cubes:
        on = on | cube.to_function(mgr)
    on = on | Cube(n, rpos, rneg).to_function(mgr)
    return ISF.completely_specified(on), cover


def test_expand_dead_end_ablation(benchmark):
    """Dead-end set of the mask-path EXPAND (ROADMAP O(n³) hotspot): a
    restart's re-scan of unchanged pseudocubes drops to a set lookup,
    and the expanded items are identical."""
    from repro.spp.synthesis import _spp_expand_masks

    f, seed_cover = _wide_spp_case()
    mgr, off = f.mgr, f.off
    start = [(cube.pos, cube.neg, frozenset()) for cube in seed_cover.cubes]

    def run():
        dead_ends: set[tuple] = set()
        first = _spp_expand_masks(start, off, mgr, dead_ends)  # cold scan
        t0 = time.perf_counter()
        restart_kept = _spp_expand_masks(first, off, mgr, dead_ends)
        t_kept = time.perf_counter() - t0
        t0 = time.perf_counter()
        restart_fresh = _spp_expand_masks(first, off, mgr, set())
        t_fresh = time.perf_counter() - t0
        assert restart_kept == restart_fresh
        return t_kept, t_fresh

    t_kept, t_fresh = benchmark.pedantic(run, rounds=1, iterations=1)
    assert t_kept < t_fresh
    write_output(
        "ablation_spp_memo.txt",
        f"wide 64-var cover, restart re-scan on the mask path: with the"
        f" dead-end set {t_kept * 1000:.1f}ms, with a fresh set"
        f" {t_fresh * 1000:.1f}ms ({t_fresh / max(t_kept, 1e-9):.0f}x)",
    )
