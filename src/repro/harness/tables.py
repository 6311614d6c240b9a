"""Table renderers: paper Tables I, II (definitional) and III, IV (runs)."""

from __future__ import annotations

from repro.benchgen.paper_data import PAPER_ROWS
from repro.core.operators import OPERATORS, TABLE_I_ORDER
from repro.harness.experiment import BenchmarkResult

#: Table II formula strings, exactly as printed in the paper (with ASCII
#: set notation).  Keys are canonical operator names.
TABLE_II_FORMULAS: dict[str, dict[str, str]] = {
    "AND": {
        "g": "0->1 approx of f (f_on <= g_on)",
        "h_on": "f_on",
        "h_dc": "g_off | f_dc",
        "h_off": "g_on \\ f_on",
    },
    "NOT_IMPLIED_BY": {
        "g": "1->0 approx of ~f (g_on <= f_off)",
        "h_on": "f_on",
        "h_dc": "g_on | f_dc",
        "h_off": "g_off \\ f_on",
    },
    "NOT_IMPLIES": {
        "g": "0->1 approx of f (f_on <= g_on)",
        "h_on": "f_off \\ g_off",
        "h_dc": "g_off | f_dc",
        "h_off": "f_on",
    },
    "NOR": {
        "g": "1->0 approx of ~f (g_on <= f_off)",
        "h_on": "f_off \\ g_on",
        "h_dc": "g_on | f_dc",
        "h_off": "f_on",
    },
    "OR": {
        "g": "1->0 approx of f (g_on <= f_on)",
        "h_on": "f_on \\ g_on",
        "h_dc": "g_on | f_dc",
        "h_off": "f_off",
    },
    "IMPLIES": {
        "g": "0->1 approx of ~f (f_off <= g_on)",
        "h_on": "f_on \\ g_off",
        "h_dc": "g_off | f_dc",
        "h_off": "f_off",
    },
    "IMPLIED_BY": {
        "g": "1->0 approx of f (g_on <= f_on)",
        "h_on": "f_off",
        "h_dc": "g_on | f_dc",
        "h_off": "f_on \\ g_on",
    },
    "NAND": {
        "g": "0->1 approx of ~f (f_off <= g_on)",
        "h_on": "f_off",
        "h_dc": "g_off | f_dc",
        "h_off": "g_on \\ f_off",
    },
    "XOR": {
        "g": "0<->1 approx of f",
        "h_on": "f_on (+) g_on",
        "h_dc": "f_dc",
        "h_off": "f_on (+) g_off",
    },
    "XNOR": {
        "g": "0<->1 approx of f",
        "h_on": "f_off (+) g_on",
        "h_dc": "f_dc",
        "h_off": "f_off (+) g_off",
    },
}


def render_table1() -> str:
    """Paper Table I: the ten binary operations and decomposed forms."""
    lines = [
        "TABLE I - THE TEN BINARY OPERATIONS DEPENDING ON BOTH INPUT VARIABLES",
        f"{'Operator':<16} {'Symbol':<7} {'Bi-decomposed form':<20} truth(00,01,10,11)",
        "-" * 72,
    ]
    for name in TABLE_I_ORDER:
        op = OPERATORS[name]
        row = "".join(str(int(bit)) for bit in op.truth_row())
        lines.append(f"{op.name:<16} {op.symbol:<7} {op.form:<20} {row}")
    return "\n".join(lines)


def render_table2() -> str:
    """Paper Table II: full-quotient flexibility formulas."""
    lines = [
        "TABLE II - FUNCTIONS g AND h IN THE BI-DECOMPOSED FORMS",
        f"{'Operator':<16} {'Approximation g':<38} {'h_on':<16} {'h_dc':<16} h_off",
        "-" * 100,
    ]
    for name in TABLE_I_ORDER:
        formulas = TABLE_II_FORMULAS[name]
        lines.append(
            f"{name:<16} {formulas['g']:<38} {formulas['h_on']:<16}"
            f" {formulas['h_dc']:<16} {formulas['h_off']}"
        )
    return "\n".join(lines)


def render_table_results(
    results: list[BenchmarkResult], table: str, with_paper: bool = True
) -> str:
    """Render measured Table III/IV rows (optionally with paper values).

    The columns are the paper's; every area is that of one multi-output
    network, so a gate two outputs share is counted once.
    """
    title = (
        f"TABLE {table} - EXPERIMENTAL COMPARISON"
        f" ({'error rate < 10%' if table == 'III' else 'error rate > 40%'})"
    )
    header = (
        f"{'Benchmark':<16} {'Time(s)':>8} {'Area f':>8} {'Area g':>8}"
        f" {'%Errors':>8} {'%Red.':>8} {'AreaAND':>8} {'GainAND%':>9}"
        f" {'Area6=>':>8} {'Gain6=>%':>9}"
    )
    lines = [title, header, "-" * len(header)]
    for result in results:
        lines.append(
            f"{result.name + f' ({result.n_inputs}/{result.n_outputs})':<16}"
            f" {result.time_s:>8.2f} {result.area_f:>8.0f} {result.area_g:>8.0f}"
            f" {result.pct_errors:>8.2f} {result.pct_reduction:>8.2f}"
            f" {result.area_and:>8.0f} {result.gain_and:>9.2f}"
            f" {result.area_nimp:>8.0f} {result.gain_nimp:>9.2f}"
        )
        if with_paper and result.name in PAPER_ROWS:
            row = PAPER_ROWS[result.name]
            lines.append(
                f"{'  (paper)':<16} {row.time_s:>8.2f} {row.area_f:>8.0f}"
                f" {row.area_g:>8.0f} {row.pct_errors:>8.2f}"
                f" {row.pct_reduction:>8.2f} {row.area_and:>8.0f}"
                f" {row.gain_and:>9.2f} {row.area_nimp:>8.0f}"
                f" {row.gain_nimp:>9.2f}"
            )
    return "\n".join(lines)


def render_network_results(results) -> str:
    """Render shared-network synthesis rows (netsyn results).

    ``results`` holds :class:`~repro.netsyn.synthesis.NetworkSynthesisResult`
    items; the table compares the shared network's mapped area against
    the per-output isolated sum and reports the divisor-pool hit rate.
    """
    title = "SHARED MULTI-OUTPUT NETWORK SYNTHESIS (netsyn)"
    header = (
        f"{'Benchmark':<16} {'Outs':>5} {'Time(s)':>8} {'Shared':>8}"
        f" {'Isolated':>9} {'Save%':>7} {'Gates':>6} {'G iso':>6}"
        f" {'Pool%':>6} {'Cached':>7}"
    )
    lines = [title, header, "-" * len(header)]
    for result in results:
        lines.append(
            f"{result.name:<16} {len(result.output_names):>5}"
            f" {result.time_s:>8.2f} {result.shared_area:>8.0f}"
            f" {result.isolated_area:>9.0f} {result.saving_pct:>7.2f}"
            f" {result.shared_gate_count:>6} {result.isolated_gate_count:>6}"
            f" {100 * result.pool_hit_rate:>6.1f}"
            f" {'yes' if result.cached else 'no':>7}"
        )
    total_shared = sum(r.shared_area for r in results)
    total_isolated = sum(r.isolated_area for r in results)
    if total_isolated:
        lines.append("-" * len(header))
        lines.append(
            f"{'total':<16} {sum(len(r.output_names) for r in results):>5}"
            f" {sum(r.time_s for r in results):>8.2f} {total_shared:>8.0f}"
            f" {total_isolated:>9.0f}"
            f" {100 * (total_isolated - total_shared) / total_isolated:>7.2f}"
        )
    return "\n".join(lines)
