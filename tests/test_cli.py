import argparse
import contextlib
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigensens import bundled_oils_path, cli, load_csv
from eigensens.cli import (
    _build_parser,
    _cells,
    _emit,
    _float_row,
    _fmt_cell,
    _json_text,
    _write_json,
    main,
)
from eigensens.errors import RankDeficiencyError
from eigensens.switching import KIND_NEAR, KIND_SWITCH

from conftest import COV_N, event_table
from reference import sci as reference_sci

OILS = str(bundled_oils_path())
# column a sums past the largest float; every other value is small
FLOAT_LIMIT = "a,b,c\n1.5e308,1,2\n1.6e308,3,1\n1e308,2,5\n-1e308,4,4\n0,6,3\n"
SRC = Path(__file__).resolve().parents[1] / "src"
CLOSED_FORM = "empirical subspace influence uses the covariance closed form"
TIED = ("eigenvalues 1 and 2 are nearly equal; the empirical influence "
        "denominator is degenerate")


def run(*argv):
    return main(list(argv))


def _is_float_cell(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return not cell.lstrip("-").isdigit()


def _significant_digits(cell):
    mantissa = cell.lstrip("-").split("e")[0].replace(".", "")
    return len(mantissa.lstrip("0"))


@pytest.fixture
def long_cell_csv(tmp_path):
    """A 3-row file whose first cell is longer than ``csv``'s field limit."""
    path = tmp_path / "long.csv"
    path.write_text("a,b\n" + "1" * 200_000 + ",2\n3,4\n5,6\n")
    return str(path)


@pytest.fixture
def tied_csv(tmp_path):
    """Columns with equal variances and no covariance: eigenvalues 1 and 2 tie."""
    path = tmp_path / "tied.csv"
    path.write_text("a,b\n1,0\n-1,0\n0,1\n0,-1\n")
    return str(path)


@pytest.fixture
def diag_csv(tmp_path):
    """Columns with exactly diagonal covariance: variances 8/4 and 2/4."""
    path = tmp_path / "diag.csv"
    path.write_text("a,b\n2,0\n-2,0\n0,1\n0,-1\n")
    return str(path)


class TestAnalyze:
    def test_diagonal_data_eigenvalues_are_column_variances(self, diag_csv,
                                                            tmp_path):
        out = tmp_path / "analysis.json"
        assert run("analyze", "--input", diag_csv, "--L", "2",
                   "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["eigenvalues"] == [2.0, 0.5]
        assert doc["proportion_explained"] == [0.8, 0.2]
        assert doc["n"] == 4 and doc["p"] == 2

    def test_correlation_at_extreme_units(self, tmp_path):
        path = tmp_path / "extreme.csv"
        path.write_text("a,b\n1e200,2\n-1e200,4\n5,6\n7,1\n")
        out = tmp_path / "extreme.json"
        assert run("analyze", "--input", str(path), "--estimator", "cor",
                   "--L", "1", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        # 1 +- |r|, r = -0.368229847 computed exactly in fractions
        assert doc["eigenvalues"] == pytest.approx([1.36823, 0.63177], abs=1e-5)

    def test_runs_are_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert run("analyze", "--input", OILS, "--label-col", "oil_type",
                       "--L", "3", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_format_writes_scree_and_scores(self, tmp_path):
        out = tmp_path / "analysis.csv"
        assert run("analyze", "--input", OILS, "--label-col", "oil_type",
                   "--L", "2", "--format", "csv", "--out", str(out)) == 0
        scree = out.read_text().splitlines()
        assert scree[0] == "component,eigenvalue,proportion,cumulative"
        assert len(scree) == 1 + 7
        scores = (tmp_path / "analysis_scores.csv").read_text().splitlines()
        assert scores[0] == "obs,label,PC1,PC2"
        assert len(scores) == 1 + 96

    def test_scores_at_the_float_limit_are_finite(self, tmp_path):
        # the raw column sum of a, 2.6e308, overflows; its mean does not
        path = tmp_path / "limit.csv"
        path.write_text(FLOAT_LIMIT)
        out = tmp_path / "limit.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("analyze", "--input", str(path), "--estimator", "cor",
                       "--L", "1", "--precision", "17", "--out", str(out)) == 0
        scores = [row["values"][0] for row in json.loads(out.read_text())["scores"]]
        assert all(math.isfinite(x) for x in scores)
        assert abs(sum(scores)) < 1e-12 * max(map(abs, scores))

    def test_degenerate_spectrum_warns_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "tied.csv"
        path.write_text("a,b\n1,0\n-1,0\n0,1\n0,-1\n")
        with pytest.warns(RuntimeWarning, match="nearly tied"):
            assert run("analyze", "--input", str(path), "--L", "1",
                       "--out", str(tmp_path / "t.json")) == 0

    def test_a_tie_at_the_retained_boundary_warns_once(self, tmp_path):
        # eigenvalues 1.25, 1.25, 0.025 tie at (1, 2), the boundary of --L 1
        path = tmp_path / "tied3.csv"
        path.write_text("a,b,c\n1,0,.1\n-1,0,.1\n0,1,-.1\n0,-1,-.1\n"
                        "2,0,.2\n-2,0,.2\n0,2,-.2\n0,-2,-.2\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("analyze", "--input", str(path), "--L", "1",
                       "--out", str(tmp_path / "t.json")) == 0
        assert [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)] == [
            "eigenvalues 1 and 2 are nearly tied; component order is not well "
            "determined"]

    def test_L_beyond_dimension_is_config_error(self, diag_csv, tmp_path):
        assert run("analyze", "--input", diag_csv, "--L", "5",
                   "--out", str(tmp_path / "x.json")) == 2


class TestInfluence:
    def test_exact_mode_shows_the_obs42_gap(self, tmp_path):
        out = tmp_path / "inf.json"
        assert run("influence", "--input", OILS, "--label-col", "oil_type",
                   "--L", "2", "--mode", "exact", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        rows = {r["obs"]: r for r in doc["observations"]}
        assert abs(rows[42]["eif_b"]) < 0.1 * abs(rows[42]["sif_b"])
        assert abs(rows[42]["scia"]) < 0.1 * abs(rows[42]["sci"])

    def test_scia_is_zero_at_l_equal_p_with_a_zero_eigenvalue(self, tmp_path):
        # no ratio over the zero eigenvalue is formed when every component
        # is retained, so both empirical series are 0
        path = tmp_path / "zero.csv"
        path.write_text("a,b\n1,0\n2,0\n4,0\n3,0\n")
        out = tmp_path / "inf.json"
        assert run("influence", "--input", str(path), "--L", "2",
                   "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["eigenvalues"] == [1.25, 0.0]
        for r in doc["observations"]:
            assert (r["eif_b"], r["scia"], r["note"]) == (0.0, 0.0, None)

    def test_mean_row_has_zero_empirical_influence(self, tmp_path):
        path = tmp_path / "center.csv"
        rows = ["a,b,c"]
        c = np.array([1.0, -2.0, 0.5])
        for v in (np.array([2.0, 1.0, 0.0]), np.array([-1.0, 3.0, 1.5])):
            rows.append(",".join(str(x) for x in c + v))
            rows.append(",".join(str(x) for x in c - v))
        rows.append(",".join(str(x) for x in c))
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "inf.json"
        assert run("influence", "--input", str(path), "--L", "1",
                   "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        center = doc["observations"][-1]
        assert center["eif_b"] == 0.0
        assert center["scia"] == 0.0

    def test_hybrid_mode_tags_replacements(self, tmp_path):
        out = tmp_path / "inf.json"
        assert run("influence", "--input", OILS, "--label-col", "oil_type",
                   "--L", "2", "--mode", "hybrid", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        rows = {r["obs"]: r for r in doc["observations"]}
        replaced = {i for i, r in rows.items() if r["replaced"]}
        assert replaced == {28, 42, 57, 58, 59, 60, 90, 91, 93, 94, 95}
        assert rows[42]["hybrid_b"] == rows[42]["sif_b"]
        assert rows[1]["hybrid_b"] == rows[1]["eif_b"]
        assert rows[42]["flag"] == "switch"
        assert rows[28]["flag"] == "near_switch"

    def test_hybrid_mode_under_correlation_notes_the_missing_closed_form(
            self, tmp_path):
        out = tmp_path / "inf.json"
        assert run("influence", "--input", OILS, "--label-col", "oil_type",
                   "--L", "2", "--mode", "hybrid", "--estimator", "cor",
                   "--out", str(out)) == 0
        for r in json.loads(out.read_text())["observations"]:
            assert CLOSED_FORM in r["note"]
            assert r["eif_b"] is None and r["scia"] is None
            assert r["hybrid_b"] == (r["sif_b"] if r["replaced"] else None)

    @pytest.mark.parametrize("L", ["1", "3"])
    def test_stable_retention_counts_have_small_influence(self, tmp_path, L):
        out = tmp_path / "inf.json"
        assert run("influence", "--input", OILS, "--label-col", "oil_type",
                   "--L", L, "--mode", "exact", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        values = [abs(r["sif_b"]) for r in doc["observations"]]
        assert max(values) < 1.0

    @pytest.mark.parametrize("estimator", ["cov", "cor"])
    def test_full_dimension_runs_under_both_estimators(self, tmp_path, estimator):
        # at L = p the retained subspace is the whole space, under any estimator
        out = tmp_path / "inf.json"
        assert run("influence", "--input", OILS, "--label-col", "oil_type",
                   "--L", "7", "--mode", "exact", "--estimator", estimator,
                   "--out", str(out)) == 0
        rows = json.loads(out.read_text())["observations"]
        assert all(r["sif_b"] == r["sci"] == 0.0 for r in rows)
        if estimator == "cov":
            assert all(r["eif_b"] == r["scia"] == 0.0 for r in rows)
            assert '"eif_b": -0.0' not in out.read_text()

    @pytest.mark.parametrize("mode", ["exact", "hybrid"])
    def test_rank_deficient_full_scores_leave_sci_null_with_a_note(self, tmp_path,
                                                                    mode):
        # all-zero data: the full-data scores have no rank after centering
        path = tmp_path / "zero.csv"
        path.write_text("a,b\n0,0\n0,0\n0,0\n")
        out = tmp_path / "inf.json"
        with pytest.warns(RuntimeWarning, match="nearly tied"):
            assert run("influence", "--input", str(path), "--L", "1",
                       "--mode", mode, "--out", str(out)) == 0
        rows = json.loads(out.read_text())["observations"]
        assert len(rows) == 3
        for r in rows:
            assert r["sci"] is None and r["hybrid_c"] is None
            assert r["sif_b"] == 0.0
            assert r["note"].endswith(
                f"{TIED}; first score matrix is rank deficient after centering "
                "(shape (3, 1))")
            if mode == "exact":
                assert r["sif_eigen"] == [0.0, 0.0]
            else:
                assert r["replaced"] is True and r["hybrid_b"] == 0.0

    def test_rank_deficient_reduced_scores_leave_only_that_row_null(self,
                                                                   tmp_path):
        # without row 5 columns b and c are zero: the reduced retained basis
        # gives the data a second score column of zeros
        path = tmp_path / "flat.csv"
        path.write_text("a,b,c\n1,0,0\n2,0,0\n3,0,0\n4,0,0\n2,5,0\n")
        out = tmp_path / "inf.json"
        with pytest.warns(RuntimeWarning, match="leave-one-out estimate are nearly tied"):
            assert run("influence", "--input", str(path), "--L", "2",
                       "--mode", "exact", "--precision", "17", "--out", str(out)) == 0
        rows = json.loads(out.read_text())["observations"]
        X = load_csv(path)
        for r in rows[:4]:
            assert r["sci"] == reference_sci(X, COV_N, 2, r["obs"])
            assert r["note"] is None
        with pytest.warns(RuntimeWarning), pytest.raises(RankDeficiencyError):
            reference_sci(X, COV_N, 2, 5)
        assert rows[4]["sci"] is None
        assert rows[4]["note"] == ("second score matrix is rank deficient after "
                                   "centering (shape (5, 2))")
        assert all(r["sif_b"] is not None and len(r["sif_eigen"]) == 3 for r in rows)

    def test_exact_mode_runs_at_the_float_limit(self, tmp_path):
        path = tmp_path / "limit.csv"
        path.write_text(FLOAT_LIMIT)
        out = tmp_path / "limit.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("influence", "--input", str(path), "--estimator", "cor",
                       "--L", "1", "--mode", "exact", "--out", str(out)) == 0
        rows = json.loads(out.read_text())["observations"]
        assert all(math.isfinite(r["sif_b"]) and math.isfinite(r["sci"]) for r in rows)

    def test_exact_sif_vector_recovers_loo_eigenvalues(self, tmp_path):
        out = tmp_path / "inf.json"
        assert run("influence", "--input", OILS, "--label-col", "oil_type",
                   "--L", "2", "--mode", "exact", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        row = next(r for r in doc["observations"] if r["obs"] == 57)
        full = np.asarray(doc["eigenvalues"])
        loo = full - np.asarray(row["sif_eigen"]) / 95.0
        np.testing.assert_allclose(
            loo, [452.747, 9.850, 9.545, 0.647, 0.369, 0.059, 0.036],
            rtol=0, atol=1e-3,
        )

    def test_csv_schema_is_stable(self, tmp_path):
        out = tmp_path / "inf.csv"
        assert run("influence", "--input", OILS, "--label-col", "oil_type",
                   "--L", "2", "--format", "csv", "--out", str(out)) == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header[:10] == ["obs", "label", "eif_b", "scia", "sif_b", "sci",
                               "hybrid_b", "hybrid_c", "replaced", "flag"]
        assert header[10:17] == [f"eif_l{j}" for j in range(1, 8)]
        assert header[17:24] == [f"hif_l{j}" for j in range(1, 8)]
        assert header[24:31] == [f"sif_l{j}" for j in range(1, 8)]
        assert header[31] == "note"

    @pytest.mark.parametrize("command, fmt", [
        ("influence", "json"), ("influence", "csv"), ("analyze", "csv"),
    ])
    def test_precision_flag(self, tmp_path, command, fmt):
        out = tmp_path / f"report.{fmt}"
        assert run(command, "--input", OILS, "--label-col", "oil_type",
                   "--L", "2", "--precision", "3", "--format", fmt,
                   "--out", str(out)) == 0
        if fmt == "json":
            assert json.loads(out.read_text())["eigenvalues"][0] == 463.0
            return
        floats = [cell for path in sorted(tmp_path.glob("report*.csv"))
                  for row in csv.reader(path.read_text().splitlines()[1:])
                  for cell in row if _is_float_cell(cell)]
        assert floats
        assert max(_significant_digits(cell) for cell in floats) == 3
        if command == "analyze":
            assert out.read_text().splitlines()[1].startswith("1,463,")


class TestSwitching:
    def test_oils_default_report(self, tmp_path):
        out = tmp_path / "sw.json"
        assert run("switching", "--input", OILS, "--label-col", "oil_type",
                   "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        switch = sorted({e["obs"] for e in doc["events"]
                         if e["kind"] == "switch" and e["pair"] == [2, 3]})
        near = sorted({e["obs"] for e in doc["events"]
                       if e["kind"] == "near_switch" and e["pair"] == [2, 3]})
        assert switch == [42, 57, 58, 59, 60, 91, 93]
        assert near == [28, 90, 94, 95]
        assert doc["recommended_L"]["L"] == 3
        assert doc["candidate_L"] == 2
        assert doc["delta"] == 0.1
        assert doc["loo_eigenvalues"]["57"][1] == 9.59928

    def test_exact_mode_confirms_the_same_events(self, tmp_path):
        approx_out = tmp_path / "approx.json"
        exact_out = tmp_path / "exact.json"
        run("switching", "--input", OILS, "--label-col", "oil_type",
            "--out", str(approx_out))
        run("switching", "--input", OILS, "--label-col", "oil_type",
            "--mode", "exact", "--out", str(exact_out))
        approx = json.loads(approx_out.read_text())
        exact = json.loads(exact_out.read_text())
        key = lambda doc: [(e["obs"], e["pair"], e["kind"])
                           for e in doc["events"]]
        assert key(approx) == key(exact)
        assert all(e["verified_exact"] for e in exact["events"]
                   if e["kind"] == "switch")

    def test_pairs_filter(self, tmp_path):
        out = tmp_path / "sw.json"
        assert run("switching", "--input", OILS, "--label-col", "oil_type",
                   "--pairs", "1:2", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["events"] == []

    def test_pairs_field_lists_the_pairs_scanned(self, tmp_path):
        # --pairs is a set: order and repeats do not change the scan or the report
        def report(pairs):
            out = tmp_path / f"sw{len(pairs)}.json"
            assert run("switching", "--input", OILS, "--label-col", "oil_type",
                       "--pairs", pairs, "--out", str(out)) == 0
            return json.loads(out.read_text())

        typed, plain = report("3:4,2:3,2:3"), report("2:3,3:4")
        assert typed["pairs"] == [[2, 3], [3, 4]]
        assert typed == plain

    @pytest.mark.parametrize("mode", ["approx", "exact", "hybrid"])
    def test_pairs_leave_the_advice_and_hybrid_series_unrestricted(self, tmp_path,
                                                                   mode):
        def report(*pairs):
            out = tmp_path / f"{mode}{len(pairs)}.json"
            assert run("switching", "--input", OILS, "--label-col", "oil_type",
                       "--L", "2", "--mode", mode, *pairs, "--out", str(out)) == 0
            return json.loads(out.read_text())

        full, restricted = report(), report("--pairs", "1:2")
        assert restricted["recommended_L"] == full["recommended_L"]
        assert full["recommended_L"]["L"] == 3
        assert restricted["hybrid"] == full["hybrid"]
        if mode == "hybrid":
            series = restricted["hybrid"]["series"]
            assert sum(s["replaced"] for s in series) == 11
            assert series[56]["value"] == -44.9935
            # the replaced rows are the boundary's, not those of --pairs: no
            # event lists them, but loo_eigenvalues does
            assert restricted["events"] == []
            assert [int(i) for i in restricted["loo_eigenvalues"]] == [
                s["obs"] for s in series if s["replaced"]]

    def test_hybrid_pairs_list_the_replaced_rows_in_the_loo_table(self, tmp_path):
        # each replaced row of the series has its approximated eigenvalues in
        # the report, as in the unrestricted run, in the JSON and the _loo CSV
        def report(fmt, *pairs):
            out = tmp_path / f"sw{len(pairs)}.{fmt}"
            assert run("switching", "--input", OILS, "--label-col", "oil_type",
                       "--L", "2", "--mode", "hybrid", "--format", fmt, *pairs,
                       "--out", str(out)) == 0
            return out

        full = json.loads(report("json").read_text())
        doc = json.loads(report("json", "--pairs", "1:2").read_text())
        replaced = [s["obs"] for s in doc["hybrid"]["series"] if s["replaced"]]
        assert replaced == [28, 42, 57, 58, 59, 60, 90, 91, 93, 94, 95]
        assert doc["loo_eigenvalues"] == {
            str(i): full["loo_eigenvalues"][str(i)] for i in replaced}
        report("csv", "--pairs", "1:2")
        loo = (tmp_path / "sw2_loo.csv").read_text().splitlines()
        assert [int(line.split(",")[0]) for line in loo[1:]] == replaced

    @pytest.mark.parametrize("L", ["1", "2", "3", "5"])
    def test_hybrid_series_equals_the_influence_hybrid_column(self, tmp_path, L):
        # two code paths make the same rows exact: hybrid_influence in
        # switching, influence_records and the row choice in influence
        def report(command):
            out = tmp_path / f"{command}.json"
            assert run(command, "--input", OILS, "--label-col", "oil_type",
                       "--L", L, "--mode", "hybrid", "--precision", "17",
                       "--out", str(out)) == 0
            return json.loads(out.read_text())

        series = report("switching")["hybrid"]["series"]
        rows = report("influence")["observations"]
        assert [(s["value"], s["replaced"]) for s in series] == [
            (r["hybrid_b"], r["replaced"]) for r in rows]
        if L == "2":
            assert sum(s["replaced"] for s in series) == 11

    def test_hybrid_mode_emits_series(self, tmp_path):
        out = tmp_path / "sw.json"
        assert run("switching", "--input", OILS, "--label-col", "oil_type",
                   "--mode", "hybrid", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        series = doc["hybrid"]["series"]
        assert len(series) == 96
        flagged = {s["obs"] for s in series if s["replaced"]}
        assert flagged == {28, 42, 57, 58, 59, 60, 90, 91, 93, 94, 95}

    @pytest.mark.parametrize("case", ["correlation", "tied-boundary"])
    def test_hybrid_mode_notes_a_missing_empirical_series(self, case, tied_csv,
                                                          tmp_path):
        # the hybrid series is the empirical measure B: its closed form exists
        # only for covariance, and it divides by the gap of eigenvalues L and
        # L+1, which is zero in tied_csv; detection and advice are still
        # written
        options, note = {
            "correlation": (["--input", OILS, "--label-col", "oil_type",
                             "--estimator", "cor"], CLOSED_FORM),
            "tied-boundary": (["--input", tied_csv, "--L", "1"], TIED),
        }[case]
        argv = ["switching", *options]
        assert run(*argv, "--out", str(tmp_path / "approx.json")) == 0
        assert run(*argv, "--mode", "hybrid",
                   "--out", str(tmp_path / "hybrid.json")) == 0
        approx, hybrid = (json.loads((tmp_path / f"{name}.json").read_text())
                          for name in ("approx", "hybrid"))
        assert hybrid["events"]
        for key in ("events", "recommended_L", "loo_eigenvalues"):
            assert hybrid[key] == approx[key]
        assert set(hybrid["hybrid"]) == {"measure", "L", "note"}
        assert note in hybrid["hybrid"]["note"]

        out = tmp_path / "sw.csv"
        assert run(*argv, "--mode", "hybrid", "--format", "csv",
                   "--out", str(out)) == 0
        comments = [ln for ln in out.read_text().splitlines()
                    if ln.startswith("#")]
        assert comments[-1].startswith("# hybrid_note=")
        assert note in comments[-1]
        assert (tmp_path / "sw_loo.csv").exists()
        assert not (tmp_path / "sw_hybrid.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["analyze"],
        ["influence", "--mode", "approx"],
        ["influence", "--mode", "hybrid"],
        ["influence", "--mode", "exact"],
        ["switching", "--mode", "approx"],
        ["switching", "--mode", "hybrid"],
        ["switching", "--mode", "exact"],
        ["switching", "--mode", "exact", "--estimator", "cor"],
    ], ids=" ".join)
    def test_json_round_trip_is_idempotent(self, tmp_path, argv):
        out = tmp_path / "report.json"
        assert run(*argv, "--input", OILS, "--label-col", "oil_type",
                   "--out", str(out)) == 0
        text = out.read_text()
        assert json.dumps(json.loads(text), indent=2) + "\n" == text

    def test_csv_format(self, tmp_path):
        out = tmp_path / "sw.csv"
        assert run("switching", "--input", OILS, "--label-col", "oil_type",
                   "--format", "csv", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# delta=0.1")
        assert "# recommended_L=3" in lines[2]
        header_idx = next(i for i, ln in enumerate(lines)
                          if not ln.startswith("#"))
        assert lines[header_idx] == ("obs,label,pair_low,pair_high,approx_lo,"
                                     "approx_hi,kind,verified_exact")
        loo = (tmp_path / "sw_loo.csv").read_text().splitlines()
        assert loo[0] == "obs,label," + ",".join(f"lambda{j}" for j in
                                                 range(1, 8))

    def test_csv_delta_comment_follows_precision(self, tmp_path):
        argv = ["switching", "--input", OILS, "--label-col", "oil_type",
                "--delta", "0.123456789", "--precision", "9"]
        assert run(*argv, "--out", str(tmp_path / "sw.json")) == 0
        assert run(*argv, "--format", "csv", "--out", str(tmp_path / "sw.csv")) == 0
        assert json.loads((tmp_path / "sw.json").read_text())["delta"] == 0.123456789
        lines = (tmp_path / "sw.csv").read_text().splitlines()
        assert lines[0] == "# delta=0.123456789"

    def test_csv_delta_comment_that_would_round_past_the_largest_float(
            self, tmp_path):
        out = tmp_path / "sw.csv"
        assert run("switching", "--input", OILS, "--label-col", "oil_type",
                   "--delta", "1.7976931348623157e308", "--precision", "1",
                   "--format", "csv", "--out", str(out)) == 0
        first = out.read_text().splitlines()[0]
        assert first.startswith("# delta=")
        assert float(first.removeprefix("# delta=")) == 1.7976931348623157e308


def _round_doc(obj, digits: int):
    """Round every finite float of a document to ``digits`` significant digits."""
    if isinstance(obj, dict):
        return {k: _round_doc(v, digits) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_doc(v, digits) for v in obj]
    if isinstance(obj, float) and math.isfinite(obj):
        rounded = float(f"{obj:.{digits}g}")
        # a finite value that would round past the largest float stays whole
        return rounded if math.isfinite(rounded) else obj
    return obj


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                1.7976931348623157e308, -1.7976931348623157e308,
                1e16, 9999999999999998.0, 1e-16, 1e5, 99999.95, 1e-5, 1e-4]
_NEAR_DECADES = st.builds(
    lambda mantissa, exponent, sign: sign * mantissa * 10.0 ** exponent,
    st.floats(0.999, 1.001), st.sampled_from([-16, -5, 5, 16]),
    st.sampled_from([-1.0, 1.0]))
_TEXT = st.text() | st.sampled_from(["é", 'a"b', "c\\d", "x,y", "tab\there",
                                     "\x00\x1f\x7f", "\u2028", "😀", ""])
_SCALARS = (st.floats() | st.sampled_from(_EDGE_FLOATS) | _NEAR_DECADES
            | st.integers() | st.sampled_from([0, 1, -1]) | st.booleans()
            | st.none() | _TEXT)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(_TEXT, children, max_size=5),
    max_leaves=40,
)


def _per_cell_json(obj, digits: int, indent: str = "") -> str:
    """The writer's walk with every float formatted on its own: the
    reference that the one-``%``-call row path must match byte for byte."""
    if isinstance(obj, float):
        rounded = float(f"{obj:.{digits}g}")
        if 1e308 <= abs(obj) < math.inf and math.isinf(rounded):
            rounded = obj
        return repr(rounded) if math.isfinite(rounded) else json.dumps(rounded)
    if not isinstance(obj, (dict, list)):
        return json.dumps(obj)
    inner = indent + "  "
    items = ([f"{json.dumps(k)}: {_per_cell_json(v, digits, inner)}"
              for k, v in obj.items()] if isinstance(obj, dict)
             else [_per_cell_json(v, digits, inner) for v in obj])
    body = f"\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}" if items else ""
    return f"{{{body}}}" if isinstance(obj, dict) else f"[{body}]"


_SUBNORMALS = [5e-324, -5e-324, 1e-310, -2.5e-320, 2.2250738585072009e-308]
# floats the row path formats: spread over +-40 decades, zeros, integral
# values, exponents 6-15 that repr writes out, and the smallest normals
_ROW_FLOATS = (
    st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
              st.floats(-10.0, 10.0), st.integers(-40, 40))
    | st.sampled_from([0.0, -0.0, 2.2250738585072014e-308, 1e-35, 9.99e307,
                       99999.95, 9999999999999998.0])
    | st.integers(5, 16).map(lambda k: 10.0 ** k)
    | st.integers(-10 ** 16, 10 ** 16).map(float)
    | st.floats(1e6, 1e16)
)
# floats that send their whole list to the per-cell walk
_CELL_FLOATS = st.sampled_from([*_SUBNORMALS, 1.7976931348623157e308,
                                -1.7976931348623157e308, 1e308, math.nan,
                                math.inf, -math.inf])
_FLOAT_LISTS = (st.lists(_ROW_FLOATS, max_size=64)
                | st.lists(_ROW_FLOATS | _CELL_FLOATS, max_size=64))


class TestJsonWriter:
    """The one-walk writer keeps the bytes of the stdlib's indented dump of
    the rounded document."""

    @settings(max_examples=300, deadline=None)
    @given(values=_FLOAT_LISTS, digits=st.integers(1, 17))
    @example(values=[1e5, 1234567.0, -0.0, 0.0, 1e16, 2.2250738585072014e-308],
             digits=1)
    @example(values=[9999999999999998.0, 123456789012345.0, -1e15], digits=15)
    def test_float_lists_match_the_per_cell_walk(self, values, digits):
        for doc in (values, {"row": values}):
            text = _json_text(doc, digits)
            assert text == _per_cell_json(doc, digits)
            assert text == json.dumps(_round_doc(doc, digits), indent=2)

    def test_only_the_edge_cases_leave_the_one_call_row_path(self):
        row = [float(k) * 1.37 ** k for k in range(-15, 15)]
        assert _float_row(row, 6, ",") == ",".join(
            _json_text(x, 6) for x in row)
        assert _float_row([0.0, -0.0, *row[2:]], 6, ",") is not None
        for x in [*_SUBNORMALS, math.nan, math.inf, -math.inf, 1e308,
                  -1.7976931348623157e308, 1, True, None, "1.0"]:
            assert _float_row([*row[:29], x], 6, ",") is None, x
        assert _float_row(row, 15, ",") is not None
        assert _float_row(row, 16, ",") is None

    @settings(max_examples=400, deadline=None)
    @given(doc=_DOCUMENTS, digits=st.integers(1, 17))
    @example(doc=[1.7976931348623157e308, {"é": -0.0}], digits=1)  # would round to inf
    def test_matches_the_stdlib_dump_of_the_rounded_document(self, doc, digits):
        assert _json_text(doc, digits) == json.dumps(_round_doc(doc, digits), indent=2)

    @pytest.mark.parametrize("x", [1.7976931348623157e308, -1.7976931348623157e308,
                                   1.5e308])
    def test_values_that_round_past_the_largest_float_stay_finite(self, x):
        def refuse(token):
            raise ValueError(f"non-finite JSON token {token}")

        assert json.loads(_json_text([x], 1), parse_constant=refuse) == [x]
        assert float(_fmt_cell(x, 1)) == x
        assert _fmt_cell(x, 1) == _json_text(x, 1)

    def test_labels_are_escaped_in_json_and_quoted_in_csv(self, tmp_path):
        labels = ["é", 'a"b', "c\\d", "x,y", "tab\there"]
        path = tmp_path / "labels.csv"
        with path.open("w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["name", "a", "b"])
            for label, row in zip(labels, [[1, 2], [3, 1], [0, 5], [4, 4], [2, 7]]):
                writer.writerow([label, *row])
        argv = ["influence", "--input", str(path), "--label-col", "name", "--L", "1"]
        assert run(*argv, "--out", str(tmp_path / "inf.json")) == 0
        text = (tmp_path / "inf.json").read_text(encoding="utf-8")
        assert [r["label"] for r in json.loads(text)["observations"]] == labels
        for escaped in ['"\\u00e9"', '"a\\"b"', '"c\\\\d"', '"x,y"', '"tab\\there"']:
            assert f'"label": {escaped},' in text
        assert run(*argv, "--format", "csv", "--out", str(tmp_path / "inf.csv")) == 0
        rows = (tmp_path / "inf.csv").read_text(encoding="utf-8").splitlines()
        assert rows[2].startswith('2,"a""b",')
        assert [row[1] for row in csv.reader(rows[1:])] == labels


# report-shaped documents: table rows as ndarrays, records in lists
_ROWS = st.lists(_ROW_FLOATS | _CELL_FLOATS, max_size=8).map(np.array)
_REPORTS = st.recursive(
    _SCALARS | _ROWS,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(_TEXT, children, max_size=5)
    | st.lists(st.dictionaries(_TEXT, children, max_size=4), max_size=4),
    max_leaves=40,
)


def _as_lists(obj):
    """``obj`` with every ndarray row given as a list."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_as_lists(v) for v in obj]
    return obj


class TestStreamingWriter:
    """The report is written a record at a time with the bytes of the
    one-text writer."""

    @settings(max_examples=300, deadline=None)
    @given(doc=_REPORTS, digits=st.integers(1, 17))
    @example(doc={}, digits=6)
    @example(doc=[], digits=6)
    @example(doc={"observations": [], "hybrid": None, "empty": {}}, digits=6)
    @example(doc={"a": {"b": [{"x": np.array([1.7976931348623157e308, 0.5])},
                              {}]}, "n": 3, "ok": True, "s": "é"},
             digits=1)
    @example(doc=[{"v": np.array([math.nan, -math.inf, 1e308, 5e-324])}, {}],
             digits=6)
    def test_matches_the_one_text_writer(self, doc, digits):
        args = argparse.Namespace(fmt="json", out=None, precision=digits)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            _emit(args, doc, None)
        text = _json_text(doc, digits)
        assert out.getvalue() == text + "\n"
        assert text == _json_text(_as_lists(doc), digits)

    @pytest.mark.parametrize("digits", [1, 6, 17])
    def test_cells_of_an_array_row_are_the_cells_of_its_list(self, digits):
        row = [1.7976931348623157e308, -1.7976931348623157e308, 0.1, -0.0,
               5e-324, math.nan, math.inf, 1e308]
        record = {"obs": 1, "label": "a", "flag": None, "values": row}
        cells = _cells(record | {"values": np.array(row)})
        assert [type(c) for c in cells] == [type(c) for c in _cells(record)]
        texts = [_fmt_cell(c, digits) for c in cells]
        assert texts == [_fmt_cell(c, digits) for c in _cells(record)]
        if digits == 1:  # the repr fallback of a value that rounds to inf
            assert texts[3] == "1.7976931348623157e+308"

    def test_no_write_is_longer_than_one_observation(self, tmp_path,
                                                     monkeypatch):
        path = tmp_path / "x.csv"
        x = np.random.default_rng(2000).standard_normal((2000, 10))
        header = ",".join(f"c{j}" for j in range(10))
        np.savetxt(path, x, delimiter=",", header=header, comments="")
        writes = []
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
        assert run("influence", "--input", str(path), "--mode", "approx") == 0
        monkeypatch.undo()
        text = "".join(writes)
        assert len(text) > 1_000_000
        observations = json.loads(text)["observations"]
        assert len(observations) == 2000
        longest = max(len(_json_text(r, 6, "    ")) for r in observations)
        assert max(map(len, writes)) <= longest


# (obs, pair low, approx_lo, approx_hi, kind, verdict) over 5 labelled rows
_EVENT_ROWS = st.lists(st.tuples(
    st.integers(1, 5), st.integers(1, 4), _ROW_FLOATS | _CELL_FLOATS,
    _ROW_FLOATS | _CELL_FLOATS, st.sampled_from([KIND_SWITCH, KIND_NEAR]),
    st.booleans()), max_size=12)
_LABELS = ["a", 'q"uote', "é", "c\\d", "x,y"]


def _event_records(labels, rows, verified):
    """The report's event records, as dicts, of hand-built ``rows``."""
    return [
        {"obs": i, "label": labels[i - 1], "pair": [j, j + 1],
         "approx_lo": lo, "approx_hi": hi, "kind": kind,
         "verified_exact": verdict if verified else None}
        for i, j, lo, hi, kind, verdict in rows
    ]


class TestEventWriter:
    """The event table is written a column at a time with the bytes of its
    records as dicts."""

    @settings(max_examples=300, deadline=None)
    @given(labels=st.lists(_TEXT, min_size=5, max_size=5), rows=_EVENT_ROWS,
           verified=st.booleans(), digits=st.integers(1, 17))
    @example(labels=_LABELS, rows=[], verified=False, digits=6)
    @example(labels=_LABELS, rows=[], verified=True, digits=6)
    @example(labels=_LABELS,
             rows=[(2, 1, 5e-324, 1.7976931348623157e308, KIND_SWITCH, True),
                   (3, 2, 1e308, -2.5e-320, KIND_NEAR, False),
                   (2, 3, 0.1, -0.0, KIND_NEAR, True)],
             verified=True, digits=17)
    @example(labels=_LABELS,
             rows=[(k, 4, 1.0 / k, 1e-5 * k, KIND_SWITCH, k % 2 == 0)
                   for k in range(1, 6)],
             verified=False, digits=6)
    def test_matches_the_records_written_as_dicts(self, labels, rows, verified,
                                                  digits):
        table = event_table(labels, [row[:5] for row in rows],
                            [row[5] for row in rows] if verified else None)
        records = _event_records(labels, rows, verified)
        for doc, want in ((table, records),
                          ({"n": 1, "events": table, "hybrid": None},
                           {"n": 1, "events": records, "hybrid": None})):
            out = io.StringIO()
            _write_json(out, doc, digits)
            assert out.getvalue() == _json_text(want, digits)
        # the CSV rows: Python scalars, so that a verdict prints as a bool
        cells = list(zip(*table.columns()))
        assert [[type(c) for c in row] for row in cells] == [
            [int, str, int, int, float, float, str, bool if verified else type(None)]
            for _ in rows]
        assert [[_fmt_cell(c, digits) for c in row] for row in cells] == [
            [_fmt_cell(c, digits) for c in _cells(record)] for record in records]

    def test_records_are_written_in_bounded_chunks(self, monkeypatch):
        monkeypatch.setattr(cli, "EVENT_CHUNK", 4)
        rows = [(k % 5 + 1, 2, k / 7, -k / 3, KIND_NEAR, False) for k in range(10)]
        table = event_table(_LABELS, [row[:5] for row in rows])
        writes = []
        _write_json(SimpleNamespace(write=writes.append), table, 6)
        assert "".join(writes) == _json_text(_event_records(_LABELS, rows, False), 6)
        assert [w.count('"obs"') for w in writes] == [0, 4, 4, 2, 0]


class TestStdout:
    """Without --out, the report goes to stdout."""

    @pytest.mark.parametrize("command", ["analyze", "influence", "switching"])
    def test_json_equals_the_out_file(self, tmp_path, capsys, command):
        argv = [command, "--input", OILS, "--label-col", "oil_type"]
        out = tmp_path / "report.json"
        assert run(*argv, "--out", str(out)) == 0
        capsys.readouterr()
        assert run(*argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()

    @pytest.mark.parametrize("command, flags, first, siblings", [
        ("analyze", [], "component,", ["scores"]),
        ("switching", ["--mode", "hybrid"], "# delta=", ["loo", "hybrid"]),
    ])
    def test_csv_tables_follow_each_other(self, tmp_path, capsys, command,
                                          flags, first, siblings):
        argv = [command, "--input", OILS, "--label-col", "oil_type",
                *flags, "--format", "csv"]
        out = tmp_path / "report.csv"
        assert run(*argv, "--out", str(out)) == 0
        capsys.readouterr()
        assert run(*argv) == 0
        expected = out.read_text()
        assert expected.startswith(first)
        for name in siblings:
            table = (tmp_path / f"report_{name}.csv").read_text()
            assert table.startswith("obs,")
            expected += f"\n# table: {name}\n" + table
        assert capsys.readouterr().out == expected


class TestExitCodesAndConfig:
    def test_missing_input_is_a_data_error(self, tmp_path, capsys):
        assert run("switching", "--input", str(tmp_path / "nope.csv")) == 1
        assert "error" in capsys.readouterr().err

    def test_non_utf8_input_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b\ncaf\xe9,2\n3,4\n5,6\n")
        assert run("analyze", "--input", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and "latin1.csv" in err

    @pytest.mark.parametrize("flags", [
        ["--delta", "-1"], ["--L", "0"], ["--precision", "0"], ["--pairs", "2-3"],
        ["--pairs", "2:4"], ["--no-header", "--label-col", "id"],
    ])
    def test_settings_are_checked_before_the_input_is_read(self, tmp_path,
                                                           capsys, flags):
        assert run("switching", "--input", str(tmp_path / "nope.csv"),
                   *flags) == 2
        assert "nope.csv" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["influence", "--L", "8"], "--L 8 out of range 1..7"),
        (["influence", "--mode", "hybrid", "--L", "7"],
         "hybrid mode needs L < p"),
        (["switching", "--L", "7"], "out of range 1..6 for retention advice"),
    ], ids=["influence", "influence-hybrid", "switching"])
    def test_L_beyond_the_command_range_is_config_error(self, capsys, argv,
                                                        message):
        assert run(*argv, "--input", OILS, "--label-col", "oil_type") == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "influence", "switching"])
    def test_an_overflowing_covariance_is_a_data_error_by_column(self, tmp_path,
                                                                  capsys, command):
        path = tmp_path / "huge.csv"
        path.write_text("a,b\n1e200,2\n-1e200,4\n5,6\n7,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(command, "--input", str(path), "--L", "1") == 1
        assert capsys.readouterr().err == (
            "error: column 'a' is too large in magnitude: its sum of squares "
            "overflows\n")

    @pytest.mark.parametrize("argv", [
        [command, "--mode", mode] for command in ("influence", "switching")
        for mode in ("approx", "exact", "hybrid")], ids=" ".join)
    @pytest.mark.parametrize("rows, obs", [
        (["a,b,c", "1,0,2", "2,0,1", "3,0,4", "4,0,3", "2,5,5"], 5),
        # the downdates of the first of these files, and the downdates and
        # rebuilds of the second, round b's variance without observation 1
        # above 0
        (["a,b", "1,2.5", "2,0.1", "4,0.1", "3,0.1", "7,0.1", "5,0.1"], 1),
        (["a,b", "1,0.5", "2,0.013", "4,0.013", "3,0.013", "7,0.013", "5,0.013"], 1),
    ], ids=["dyadic", "downdate-rounds", "both-round"])
    def test_a_leave_one_out_zero_variance_names_the_observation(
            self, tmp_path, capsys, argv, rows, obs):
        # b varies only through one observation: the full-data correlation
        # is defined, the one without that observation is not
        path = tmp_path / "lev.csv"
        path.write_text("\n".join(rows) + "\n")
        flags = ["--input", str(path), "--estimator", "cor", "--L", "1"]
        assert run("analyze", *flags) == 0
        capsys.readouterr()
        assert run(*argv, *flags) == 1
        assert capsys.readouterr().err == (
            f"error: column 'b' has zero variance without observation {obs}; "
            "correlation estimate is undefined\n")

    @pytest.mark.parametrize("argv", [["analyze"]] + [
        [command, "--mode", mode] for command in ("influence", "switching")
        for mode in ("approx", "exact", "hybrid")], ids=" ".join)
    def test_a_constant_column_under_correlation_is_refused_however_its_mean_rounds(
            self, tmp_path, capsys, argv):
        # the mean of six copies of 0.1 rounds off 0.1, so the scatter
        # leaves b a tiny positive variance
        path = tmp_path / "flat.csv"
        path.write_text("a,b\n1,0.1\n2,0.1\n5,0.1\n3,0.1\n3,0.1\n5,0.1\n")
        assert run(*argv, "--input", str(path), "--estimator", "cor", "--L", "1") == 1
        assert capsys.readouterr().err == (
            "error: column 'b' has zero variance; correlation estimate is undefined\n")

    @pytest.mark.parametrize("argv, what", [
        (["switching"], "switching"),
        (["switching", "--mode", "hybrid", "--L", "3"], "switching"),
        (["influence", "--mode", "hybrid"], "hybrid mode"),
        (["influence", "--mode", "hybrid", "--L", "1"], "hybrid mode"),
    ], ids=["switching", "switching-L3", "hybrid", "hybrid-L1"])
    def test_one_column_has_no_pair_whatever_the_L(self, tmp_path, capsys,
                                                   argv, what):
        path = tmp_path / "one.csv"
        path.write_text("a\n1\n2\n4\n")
        assert run(*argv, "--input", str(path)) == 1
        assert capsys.readouterr().err == (
            f"error: the input has one column; {what} needs two for an "
            "adjacent pair of eigenvalues\n")
        # the commands that read no pair still run on it
        assert run("influence", "--mode", "exact", "--L", "1",
                   "--input", str(path)) == 0

    def test_a_failed_linear_algebra_routine_is_a_data_error(self, monkeypatch,
                                                              capsys):
        def fail(*args):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setitem(cli._COMMANDS, "analyze", fail)
        assert run("analyze", "--input", OILS, "--label-col", "oil_type") == 1
        assert capsys.readouterr().err == "error: SVD did not converge\n"

    def test_bad_flag_value_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run("switching", "--input", OILS, "--mode", "banana")
        assert info.value.code == 2

    def test_bad_delta_is_config_error(self, capsys):
        assert run("switching", "--input", OILS, "--label-col", "oil_type",
                   "--delta", "-1") == 2
        assert "delta" in capsys.readouterr().err

    def test_bad_pairs_is_config_error(self, capsys):
        assert run("switching", "--input", OILS, "--label-col", "oil_type",
                   "--pairs", "2-3") == 2

    def test_pairs_beyond_dimension_is_config_error(self, capsys):
        assert run("switching", "--input", OILS, "--label-col", "oil_type",
                   "--pairs", "7:8") == 2
        assert "consecutive pair" in capsys.readouterr().err

    def test_numeric_label_column_without_flag_is_data_error(self, capsys):
        assert run("analyze", "--input", OILS) == 1
        assert "cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "influence", "switching"])
    def test_field_past_the_csv_limit_is_a_data_error(self, capsys, command,
                                                      long_cell_csv):
        assert run(command, "--input", long_cell_csv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {long_cell_csv}: ")
        assert "field larger than field limit" in err

    def test_influence_checks_delta_before_the_input_is_read(self, tmp_path,
                                                             capsys):
        assert run("influence", "--input", str(tmp_path / "nope.csv"),
                   "--mode", "hybrid", "--delta", "0") == 2
        assert "nope.csv" not in capsys.readouterr().err

    def test_console_script_is_installed(self, tmp_path):
        exe = shutil.which("eigensens")
        if exe is None:
            pytest.skip("console script not on PATH")
        out = tmp_path / "script.json"
        proc = subprocess.run(
            [exe, "switching", "--input", OILS, "--label-col", "oil_type",
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["recommended_L"]["L"] == 3

    def test_module_runs_in_a_real_process(self, tmp_path, long_cell_csv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))

        def cli(*argv):
            return subprocess.run([sys.executable, "-m", "eigensens.cli", *argv],
                                  capture_output=True, text=True, env=env)

        out = tmp_path / "module.json"
        proc = cli("switching", "--input", OILS, "--label-col", "oil_type",
                   "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["recommended_L"]["L"] == 3
        proc = cli("analyze", "--input", OILS, "--mode", "exact")
        assert proc.returncode == 2
        assert "unrecognized arguments: --mode exact" in proc.stderr
        proc = cli("analyze", "--input", long_cell_csv)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: cannot read ")
        assert "Traceback" not in proc.stderr

    def test_label_stdout_cannot_encode_is_an_io_error(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("name,a,b\nx,1,2\né,3,1\ny,0,5\nz,4,4\n",
                        encoding="utf-8")
        env = dict(os.environ, PYTHONIOENCODING="ascii")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "eigensens.cli", "analyze", "--input",
             str(path), "--label-col", "name", "--format", "csv", "--L", "1"],
            capture_output=True, text=True, encoding="ascii",
            errors="backslashreplace", env=env)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: cannot write the report to stdout")
        assert "Traceback" not in proc.stderr
        # the rows before the one that failed stay on stdout
        scree, scores = proc.stdout.split("\n# table: scores\n")
        assert scree.startswith("component,eigenvalue,")
        assert scores.startswith("obs,label,PC1\n1,x,")
        assert scores.count("\n") == 2


COMMON = ["-h", "--help", "--input", "--label-col", "--no-header",
          "--estimator", "--divisor", "--L"]
OUTPUT = ["--format", "--out", "--precision"]


class TestOptionSets:
    """Each command accepts only the options its body reads."""

    def test_each_command_registers_exactly_its_options(self):
        parser = _build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {name: [flag for action in cmd._actions
                          for flag in action.option_strings]
                   for name, cmd in sub.choices.items()}
        assert options == {
            "analyze": COMMON + OUTPUT,
            "influence": COMMON + ["--delta", "--mode"] + OUTPUT,
            # the order of the switching options, and so its --help, is kept
            "switching": COMMON + ["--delta", "--pairs", "--mode"] + OUTPUT,
        }

    @pytest.mark.parametrize("argv", [
        ["analyze", "--mode", "exact"],
        ["analyze", "--delta", "5"],
        ["analyze", "--pairs", "2:3"],
        ["influence", "--pairs", "2:3"],
    ], ids=" ".join)
    def test_an_option_the_command_does_not_read_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            run(*argv, "--input", OILS, "--label-col", "oil_type")
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in (
            capsys.readouterr().err)
