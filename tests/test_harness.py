"""Tests for the experiment harness (Tables III/IV flow)."""

import json
from pathlib import Path

import pytest

from repro.benchgen.paper_data import PAPER_ROWS
from repro.benchgen.registry import table_benchmarks
from repro.harness.experiment import run_benchmark
from repro.harness.report import comparison_lines, shape_summary
from repro.harness.tables import (
    render_table1,
    render_table2,
    render_table_results,
)


@pytest.fixture(scope="module")
def z4_result():
    return run_benchmark("z4", keep_artifacts=True)


@pytest.fixture(scope="module")
def newtpla2_result():
    return run_benchmark("newtpla2")


def test_result_fields(z4_result):
    assert z4_result.name == "z4"
    assert z4_result.n_inputs == 7 and z4_result.n_outputs == 4
    assert z4_result.area_f > 0
    assert 0 <= z4_result.pct_errors <= 100
    assert z4_result.op_areas.keys() == {"AND", "NOT_IMPLIES"}
    assert z4_result.time_s >= 0


def test_gain_formula(z4_result):
    expected = 100.0 * (z4_result.area_f - z4_result.area_and) / z4_result.area_f
    assert z4_result.gain_and == pytest.approx(expected)
    expected = 100.0 * (z4_result.area_f - z4_result.area_nimp) / z4_result.area_f
    assert z4_result.gain_nimp == pytest.approx(expected)


def test_z4_lands_in_table4_regime(z4_result):
    """z4 is the cleanest arithmetic instance: the paper reports 43.75%
    error and a ~98% g-area reduction; the reproduction matches both."""
    assert 35 <= z4_result.pct_errors <= 55
    assert z4_result.pct_reduction >= 90


def test_newtpla2_lands_in_table3_regime(newtpla2_result):
    assert newtpla2_result.pct_errors < 10
    assert abs(newtpla2_result.gain_and) <= 60


def test_paper_goldens_sit_in_their_table_regimes():
    """Every row the ``paper`` benchmark pins (perfbench/golden/paper.json,
    which each run must reproduce) lies in its table's regime: Table III
    under 10% error, Table IV over 10% error with g more than halved."""
    golden = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "paper.json"
    rows = json.loads(golden.read_text(encoding="utf-8"))["rows"]
    for spec in table_benchmarks("III"):
        row = rows[spec.name]
        assert row["area_f"] > 0 and row["pct_errors"] < 10.0, spec.name
    for spec in table_benchmarks("IV"):
        row = rows[spec.name]
        reduction = 100.0 * (row["area_f"] - row["area_g"]) / row["area_f"]
        assert row["pct_errors"] > 10.0 and reduction > 50.0, spec.name


def test_artifacts_are_verified_decompositions(z4_result):
    from repro.core.bidecomposition import apply_operator
    from repro.core.operators import operator_by_name

    assert z4_result.artifacts is not None
    for artifacts in z4_result.artifacts:
        f = artifacts.f
        mgr = f.mgr
        for op_name, h_cover in artifacts.h_covers.items():
            op = operator_by_name(op_name)
            rebuilt = apply_operator(op, artifacts.g, h_cover.to_function(mgr))
            assert (rebuilt & f.care) == (f.on & f.care)


def test_render_table1_lists_all_operators():
    text = render_table1()
    for name in ("AND", "NOR", "XNOR", "IMPLIES"):
        assert name in text
    assert "f = g · h" in text


def test_render_table2_lists_formulas():
    text = render_table2()
    assert "h_on" in text
    assert "g_off | f_dc" in text
    assert "0->1 approx of f" in text
    assert text.count("\n") >= 12


def test_render_results_table(z4_result):
    text = render_table_results([z4_result], "IV")
    assert "z4 (7/4)" in text
    assert "(paper)" in text
    row = PAPER_ROWS["z4"]
    assert f"{row.area_f:.0f}" in text.replace(" ", " ")


def test_render_results_without_paper(z4_result):
    text = render_table_results([z4_result], "IV", with_paper=False)
    assert "(paper)" not in text


def test_comparison_lines(z4_result):
    lines = comparison_lines([z4_result])
    assert len(lines) == 1
    assert "z4" in lines[0] and "paper" in lines[0]


def test_shape_summary(z4_result, newtpla2_result):
    summary = shape_summary([z4_result, newtpla2_result])
    assert summary["compared"] == 2
    assert 0 <= summary["gain_sign_matches"] <= 2
    assert 0 <= summary["operators_agree_measured"] <= 2
