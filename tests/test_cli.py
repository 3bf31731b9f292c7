import csv
import json
import math
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigensens import bundled_oils_path
from eigensens.cli import _fmt_cell, _json_text, main

OILS = str(bundled_oils_path())
CLOSED_FORM = "empirical subspace influence uses the covariance closed form"


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

    def test_degenerate_spectrum_warns_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "tied.csv"
        path.write_text("a,b\n1,0\n-1,0\n0,1\n0,-1\n")
        with pytest.warns(RuntimeWarning, match="nearly tied"):
            assert run("analyze", "--input", str(path), "--L", "1",
                       "--out", str(tmp_path / "t.json")) == 0

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

    def test_hybrid_mode_emits_series(self, tmp_path):
        out = tmp_path / "sw.json"
        assert run("switching", "--input", OILS, "--label-col", "oil_type",
                   "--mode", "hybrid", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        series = doc["hybrid"]["series"]
        assert len(series) == 96
        flagged = {s["obs"] for s in series if s["replaced"]}
        assert flagged == {28, 42, 57, 58, 59, 60, 90, 91, 93, 94, 95}

    def test_hybrid_mode_under_correlation_notes_the_missing_closed_form(
            self, tmp_path):
        # the hybrid series is the empirical measure B, whose closed form
        # exists only for covariance; detection and advice are still written
        argv = ["switching", "--input", OILS, "--label-col", "oil_type",
                "--estimator", "cor"]
        assert run(*argv, "--out", str(tmp_path / "approx.json")) == 0
        assert run(*argv, "--mode", "hybrid",
                   "--out", str(tmp_path / "hybrid.json")) == 0
        approx, hybrid = (json.loads((tmp_path / f"{name}.json").read_text())
                          for name in ("approx", "hybrid"))
        assert hybrid["events"]
        for key in ("events", "recommended_L", "loo_eigenvalues"):
            assert hybrid[key] == approx[key]
        assert set(hybrid["hybrid"]) == {"measure", "L", "note"}
        assert CLOSED_FORM in hybrid["hybrid"]["note"]

        out = tmp_path / "sw.csv"
        assert run(*argv, "--mode", "hybrid", "--format", "csv",
                   "--out", str(out)) == 0
        comments = [ln for ln in out.read_text().splitlines()
                    if ln.startswith("#")]
        assert comments[-1].startswith("# hybrid_note=")
        assert CLOSED_FORM in comments[-1]
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


class TestJsonWriter:
    """The one-walk writer keeps the bytes of the stdlib's indented dump of
    the rounded document."""

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
