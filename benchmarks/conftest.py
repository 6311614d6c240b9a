"""Shared infrastructure for the pytest-benchmark ablations.

Experiment benches run via ``benchmark.pedantic(rounds=1)`` — one
measured execution per benchmark row, since each row is itself a full
synthesis flow, not a microkernel.  Their reports are written to
``benchmarks/output/`` so the results are inspectable after a
``pytest benchmarks/ --benchmark-only`` run.  The paper's tables and
figures are regenerated by ``repro-bidec table1 ... fig2`` and timed by
``perfbench/run.py``.
"""

from __future__ import annotations

import pathlib

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def write_output(name: str, text: str) -> None:
    """Persist a regenerated table/figure under benchmarks/output/."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / name).write_text(text + "\n")
