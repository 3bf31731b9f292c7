import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigensens import (
    DataError,
    DataMatrix,
    EstimatorSpec,
    LooEngine,
    ZeroVarianceError,
    estimate,
    estimate_loo,
    load_csv,
)
from eigensens.dataset import _odd_rows, _parse_bulk, _parse_checked
from eigensens.eigen import eigh

from conftest import COV_N, COV_N1, COR_N, gaussian_data, make_data
from reference import mean_vector


def _load_error(path, **options) -> str:
    """The :class:`DataError` text of ``load_csv(path, **options)``.

    Warnings are recorded rather than raised, so that one cannot steer the
    parse, and none may be issued.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DataError) as info:
            load_csv(path, **options)
    assert caught == []
    return str(info.value)


@pytest.mark.filterwarnings("error")
class TestLoadCsv:
    def test_oils_shape_and_labels(self, oils):
        assert (oils.n, oils.p) == (96, 7)
        assert oils.col_labels[0] == "palmitic"
        assert set(oils.row_labels) <= set("ABCDEFG")

    def test_minimal_three_by_two(self, tmp_path):
        path = tmp_path / "mini.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n")
        X = load_csv(path)
        assert X.row_labels == ["1", "2", "3"]
        assert np.array_equal(X.values, [[1, 2], [3, 4], [5, 6]])

    def test_no_header(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        X = load_csv(path, header=False)
        assert X.col_labels == ["x1", "x2"]
        assert X.n == 3

    def test_nan_cell_reports_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,nan\n5,6\n")
        assert _load_error(path) == "non-finite value at row 2, column 'b'"

    def test_unparsable_cell_reports_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,oops\n5,6\n")
        with pytest.raises(DataError, match=r"'oops' at row 2"):
            load_csv(path)

    def test_first_defect_in_row_major_order(self, tmp_path):
        # row 1 holds a non-finite cell, row 2 an unparsable one
        path = tmp_path / "bad.csv"
        path.write_text("a,b\ninf,2\n3,oops\n5,6\n")
        assert _load_error(path) == "non-finite value at row 1, column 'a'"

    def test_header_without_data_rows(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b\n")
        assert _load_error(path) == f"{path} has a header but no data rows"

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n5,6\n")
        with pytest.raises(DataError, match="row 2 has 1 fields, expected 2"):
            load_csv(path)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(DataError, match="at least 3"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert _load_error(path) == f"{path} is empty"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path / "nope.csv")

    def test_label_column(self, tmp_path):
        path = tmp_path / "lab.csv"
        path.write_text("id,a,b\nr1,1,2\nr2,3,4\nr3,5,6\n")
        X = load_csv(path, label_col="id")
        assert X.row_labels == ["r1", "r2", "r3"]
        assert X.col_labels == ["a", "b"]
        assert X.p == 2

    def test_unknown_label_column(self, tmp_path):
        path = tmp_path / "lab.csv"
        path.write_text("id,a\nr1,1\nr2,2\nr3,3\n")
        with pytest.raises(DataError, match="'nope' not found"):
            load_csv(path, label_col="nope")

    @pytest.mark.parametrize("text, options", [
        ("oil_type,a,b\nA,1,2\nB,3,4\nC,5,6\n", {"label_col": "oil_type"}),
        ("1,2\n3,4\n5,6\n", {"header": False}),
    ], ids=["label-col", "no-header"])
    def test_byte_order_mark_is_skipped(self, tmp_path, text, options):
        # spreadsheet "CSV UTF-8" exports start the file with U+FEFF
        path = tmp_path / "bom.csv"
        path.write_text(text, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        X = load_csv(path, **options)
        assert np.array_equal(X.values, [[1, 2], [3, 4], [5, 6]])
        assert X.col_labels == (["a", "b"] if "label_col" in options else ["x1", "x2"])

    def test_label_column_requires_header(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        with pytest.raises(DataError, match="header"):
            load_csv(path, header=False, label_col="id")

    @pytest.mark.parametrize("text, options, message", [
        ("a,b\n\n\n", {}, "{path} has a header but no data rows"),
        ("\n\n", {"header": False}, "{path} is empty"),
        ("a,b\n1,2\n3,4\n5,1e999\n", {}, "non-finite value at row 3, column 'b'"),
        ("a,b\n1,2,3\n4,5,6\n7,8,9\n", {}, "row 1 has 3 fields, expected 2"),
        ("id,a\nr1,1,9\nr2,2\nr3,3\n", {"label_col": "id"},
         "row 1 has 3 fields, expected 2"),
    ], ids=["header-and-blank-lines", "blank-lines", "overflow",
            "wider-than-header", "labelled-ragged"])
    def test_exact_message(self, tmp_path, text, options, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert _load_error(path, **options) == message.format(path=path)

    @pytest.mark.parametrize("text, options", [
        ("a,b\n0." + "0" * 200_000 + "1,2\n3,4\n5,6\n", {}),
        ("id,a,b\nr1,0." + "0" * 200_000 + "1,2\nr2,3,4\nr3,5,6\n",
         {"label_col": "id"}),
        ('a,b\n"' + " \n" * 70_000 + '1",2\n3,4\n5,6\n', {}),
    ], ids=["unlabelled", "labelled", "quoted-across-lines"])
    def test_field_past_the_csv_limit(self, tmp_path, text, options):
        # numpy reads each of these first cells as a finite number; both
        # parsers must refuse them as csv does
        path = tmp_path / "long.csv"
        path.write_text(text)
        assert _parse_bulk(_lines(text), True, None) is None
        message = _load_error(path, **options)
        assert message.startswith(f"cannot read {path}: field larger than field limit")

    def test_non_utf8_file_names_the_path(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b\ncaf\xe9,2\n3,4\n5,6\n")
        with pytest.raises(DataError, match=r"cannot read .*latin1\.csv: 'utf-8'"):
            load_csv(path)


def _lines(text: str) -> io.StringIO:
    """``text`` as the loaders read a file opened with ``newline=""``."""
    return io.StringIO(text, newline="")


_PAD = st.text(" \t", max_size=2)


@st.composite
def _cells(draw):
    """A finite float as %.17g, short repr, exponent or -0; padded, maybe quoted."""
    spelling = draw(st.sampled_from(["%.17g", "%r", "%.6e", "-0"]))
    x = draw(st.floats(-1e300, 1e300, allow_nan=False))
    text = draw(_PAD) + ("-0" if spelling == "-0" else spelling % x) + draw(_PAD)
    return f'"{text}"' if draw(st.booleans()) else text


@st.composite
def _csv_texts(draw):
    """A well-formed CSV text, its byte-order mark flag and ``load_csv`` options.

    A label column can sit at any position; blank lines fall between rows.
    """
    n = draw(st.integers(3, 7))
    p = draw(st.integers(1, 4))
    header = draw(st.booleans())
    label_at = draw(st.none() | st.integers(0, p)) if header else None
    rows = [[draw(_cells()) for _ in range(p)] for _ in range(n)]
    names = [f"c{j}" for j in range(1, p + 1)]
    if label_at is not None:
        names.insert(label_at, "id")
        for r, row in enumerate(rows, start=1):
            row.insert(label_at, draw(_PAD) + f"r{r}" + draw(_PAD))
    lines = [",".join(draw(_PAD) + nm + draw(_PAD) for nm in names)] if header else []
    for row in rows:
        lines.extend([""] * draw(st.integers(0, 2)))
        lines.append(",".join(row))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    label_col = None if label_at is None else "id"
    return text, draw(st.booleans()), {"header": header, "label_col": label_col}


@pytest.mark.filterwarnings("error")
class TestBulkParse:
    """The one-call numpy parse against the checked per-cell loop."""

    @given(case=_csv_texts())
    @settings(max_examples=150, deadline=None)
    def test_equals_checked_loop(self, tmp_path_factory, case):
        text, bom, options = case
        path = tmp_path_factory.mktemp("bulk") / "in.csv"
        path.write_bytes(("\ufeff" if bom else "").encode() + text.encode())
        # only a headered file without a label column takes the numpy call
        bulk = options["header"] and options["label_col"] is None
        assert (_parse_bulk(_lines(text), options["header"],
                            options["label_col"]) is not None) == bulk
        got = load_csv(path, **options)
        ref = _parse_checked(_lines(text), path, options["header"],
                             options["label_col"])
        assert got.values.tobytes() == ref.values.tobytes()
        assert got.row_labels == ref.row_labels
        assert got.col_labels == ref.col_labels

    def test_savetxt_file_takes_the_numpy_call(self, tmp_path):
        # the shape of the benchmark's synthetic inputs
        values = np.random.default_rng(5).normal(size=(6, 3)) * 1e3
        path = tmp_path / "in.csv"
        np.savetxt(path, values, fmt="%.17g", delimiter=",",
                   header="x1,x2,x3", comments="")
        text = path.read_text()
        bulk = _parse_bulk(_lines(text), True, None)
        assert bulk is not None
        ref = _parse_checked(_lines(text), path, True, None)
        assert bulk.values.tobytes() == ref.values.tobytes() == values.tobytes()
        assert bulk.row_labels == ref.row_labels == [str(r) for r in range(1, 7)]
        assert bulk.col_labels == ref.col_labels == ["x1", "x2", "x3"]

    @pytest.mark.parametrize("text, first, header", [
        ("a,b\n1_000,2\n3,4\n5,6\n", [1000.0, 2.0], "a,b"),
        ("a,b\n\u0661\u0662,2\n3,4\n5,6\n", [12.0, 2.0], "a,b"),
        ("a,b\n1,2\n,,\n3,4\n5,6\n", [1.0, 2.0], "a,b"),
        ("\na,b\n1,2\n3,4\n5,6\n", [1.0, 2.0], "a,b"),
        # a blank first row is no header: the numeric one after it is
        (",\n-1,-2\n1,2\n3,4\n5,6\n", [1.0, 2.0], "-1,-2"),
        # numpy reads this one too, but the line scan leaves it to the loop
        ('a,b\n"1\n",2\n3,4\n5,6\n', [1.0, 2.0], "a,b"),
    ], ids=["underscore", "arabic-indic-digits", "blank-cells-row",
            "blank-line-before-header", "blank-cells-before-header",
            "quoted-across-lines"])
    def test_loop_accepts_what_numpy_refuses(self, tmp_path, text, first, header):
        path = tmp_path / "in.csv"
        path.write_text(text)
        assert _parse_bulk(_lines(text), True, None) is None
        X = load_csv(path)
        assert X.values.tolist() == [first, [3.0, 4.0], [5.0, 6.0]]
        assert X.row_labels == ["1", "2", "3"]
        assert X.col_labels == header.split(",")


class TestDataMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(DataError, match="row 2, column 1"):
            DataMatrix(np.array([[1.0, 2.0], [np.inf, 0.0]]))

    def test_label_length_mismatch(self):
        with pytest.raises(DataError, match="row_labels"):
            DataMatrix(np.zeros((2, 2)), row_labels=["only-one"])

    def test_drop_row_bounds(self):
        X = make_data([[1.0], [2.0], [3.0]])
        with pytest.raises(DataError, match="out of range"):
            X.drop_rows([4])
        dropped = X.drop_rows([2])
        assert dropped.row_labels == ["1", "3"]
        assert np.array_equal(dropped.values.ravel(), [1.0, 3.0])


class TestMeanVector:
    def test_symmetric_pair(self):
        X = make_data([[0.0, 0.0], [2.0, 2.0]])
        assert np.array_equal(mean_vector(X), [1.0, 1.0])

    def test_constant_rows(self):
        row = [3.5, -1.25, 7.0]
        X = make_data([row] * 5)
        assert np.array_equal(mean_vector(X), row)

    def test_oils_against_columnwise_sum(self, oils):
        # independent oracle: exact per-column summation via math.fsum
        expected = np.array(
            [math.fsum(col) / oils.n for col in oils.values.T]
        )
        np.testing.assert_allclose(mean_vector(oils), expected, rtol=0, atol=1e-12)


class TestEstimate:
    def test_two_points_divisor_n(self):
        X = make_data([[0.0], [2.0]])
        w = estimate(X, COV_N)
        assert w.matrix.shape == (1, 1)
        assert w.matrix[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_three_points_divisor_n_minus_1(self):
        # oracle: deviations (-1, 0, 1), sum of squares 2, divided by n-1=2
        X = make_data([[1.0], [2.0], [3.0]])
        w = estimate(X, COV_N1)
        assert w.matrix[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_oils_trace_equals_eigenvalue_sum(self, oils):
        w = estimate(oils, COV_N1)
        values = eigh(w).values
        assert np.sum(values) == pytest.approx(np.trace(w.matrix), rel=1e-12)

    def test_correlation_unit_diagonal(self, oils):
        w = estimate(oils, COR_N)
        np.testing.assert_allclose(np.diag(w.matrix), 1.0, atol=1e-12)
        assert np.max(np.abs(w.matrix)) <= 1.0 + 1e-12

    def test_correlation_zero_variance_column(self):
        X = DataMatrix(
            np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]),
            col_labels=["a", "flat"],
        )
        with pytest.raises(ZeroVarianceError, match="'flat'"):
            estimate(X, COR_N)

    @pytest.mark.parametrize("constant", [0.1, 0.3, 0.7, 1.1, 1e-3, 2.0 / 3, 1e5 + 0.1])
    def test_a_constant_column_is_refused_however_its_mean_rounds(self, constant):
        # the mean of n copies of a non-dyadic constant can round off it,
        # which leaves a tiny positive variance; the refusal must not
        # depend on that
        for n in range(3, 40):
            values = np.column_stack([np.arange(n) % 7, np.full(n, constant)])
            X = DataMatrix(values, col_labels=["a", "b"])
            with pytest.raises(ZeroVarianceError, match="^column 'b' has zero variance;"):
                estimate(X, COR_N)
            with pytest.raises(ZeroVarianceError, match="^column 'b' has zero variance;"):
                LooEngine(X, COR_N)

    def test_overflowing_scatter_is_refused_by_column_without_a_warning(self):
        values = np.random.default_rng(5).standard_normal((20, 3))
        values[:, 1] *= 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="column 'x2' is too large"):
                estimate(make_data(values), COV_N)

    def test_single_row_rejected(self):
        with pytest.raises(DataError, match="at least 2"):
            estimate(make_data([[1.0, 2.0]]), COV_N)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            EstimatorSpec("banana", "n")
        with pytest.raises(ValueError, match="divisor"):
            EstimatorSpec("covariance", "n-2")


class TestEstimateLoo:
    def test_constant_rows_give_zero_matrix(self):
        X = make_data([[1.0, 2.0]] * 5)
        w = estimate_loo(X, COV_N, 3)
        assert np.max(np.abs(w.matrix)) == 0.0
        assert w.n_used == 4

    def test_oils_obs57_eigenvalues(self, oils):
        values = eigh(estimate_loo(oils, COV_N, 57)).values
        expected = [452.747, 9.850, 9.545, 0.647, 0.369, 0.059, 0.036]
        np.testing.assert_allclose(np.round(values, 3), expected, atol=1e-12)

    def test_index_out_of_range(self, oils):
        with pytest.raises(DataError, match="out of range"):
            estimate_loo(oils, COV_N, 97)

    @pytest.mark.parametrize("spec", [COV_N, COV_N1, COR_N])
    def test_matches_physical_deletion(self, spec):
        X = gaussian_data(42, 10, [2.0, 1.0, 0.5])
        for i in range(1, X.n + 1):
            direct = estimate(X.drop_rows([i]), spec).matrix
            np.testing.assert_array_equal(
                estimate_loo(X, spec, i).matrix, direct
            )

    @pytest.mark.parametrize("spec", [COV_N, COV_N1, COR_N])
    def test_downdate_matches_physical_deletion(self, spec):
        X = gaussian_data(7, 12, [3.0, 1.0, 0.4, 0.1])
        engine = LooEngine(X, spec)
        for i in range(1, X.n + 1):
            direct = estimate(X.drop_rows([i]), spec).matrix
            np.testing.assert_allclose(
                engine._loo_stack(np.array([i - 1]))[0], direct, rtol=0, atol=1e-10
            )

    def test_correlation_loo_zero_variance(self):
        # the second column varies only through row 4; removing that row
        # leaves it constant, so the reduced correlation is undefined
        X = DataMatrix(
            np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 9.0]]),
            col_labels=["a", "b"],
        )
        with pytest.raises(ZeroVarianceError, match="'b'"):
            estimate_loo(X, COR_N, 4)
        with pytest.raises(ZeroVarianceError, match="'b'"):
            LooEngine(X, COR_N)._loo_stack(np.array([3]))

    @pytest.mark.parametrize("odd, rest", [(2.5, 0.1), (0.5, 0.013), (0.7, 0.1 + 0.013),
                                           (-3.0, 1.0 / 3)])
    def test_a_column_constant_without_one_row_is_refused_by_downdate_and_rebuild(
            self, odd, rest):
        # the downdate and the rebuild round a zero variance to a tiny
        # positive one for some of these columns; both refuse the estimate
        # without row 1 by comparison, and no other
        for n in range(4, 20):
            values = np.column_stack([np.arange(n) % 5 + 1.0, np.full(n, rest)])
            values[0, 1] = odd
            X = DataMatrix(values, col_labels=["a", "b"])
            engine = LooEngine(X, COR_N)
            message = "^column 'b' has zero variance without observation 1;"
            for build in (engine._loo_stack, engine._loo_rebuild):
                with pytest.raises(ZeroVarianceError, match=message):
                    build(np.arange(n))
                build(np.arange(1, n))
            with pytest.raises(ZeroVarianceError, match="^column 'b' has zero variance;"):
                estimate_loo(X, COR_N, 1)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_odd_rows_name_the_row_without_which_a_column_is_constant(self, seed):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(3, 8)), int(rng.integers(1, 5))
        values = rng.integers(0, 3, size=(n, p)).astype(float)
        want = np.full(p, -1)
        for j in range(p):
            for i in range(n):
                rest = np.delete(values[:, j], i)
                if np.all(rest == rest[0]) and values[i, j] != rest[0]:
                    want[j] = i
        odd = _odd_rows(values)
        assert (odd is None) == (want == -1).all()
        if odd is not None:
            assert odd.tolist() == want.tolist()

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_downdate_equivalence_randomised(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 15))
        p = int(rng.integers(1, 6))
        X = make_data(rng.normal(size=(n, p)) * rng.uniform(0.5, 4.0, size=p))
        engine = LooEngine(X, COV_N)
        i = int(rng.integers(1, n + 1))
        np.testing.assert_allclose(
            engine._loo_stack(np.array([i - 1]))[0],
            estimate(X.drop_rows([i]), COV_N).matrix,
            rtol=0,
            atol=1e-10,
        )


class TestEstimatorInvariances:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_row_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(8, 3))
        perm = rng.permutation(8)
        a = estimate(make_data(X), COV_N).matrix
        b = estimate(make_data(X[perm]), COV_N).matrix
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_translation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(9, 4))
        shift = rng.normal(size=4) * 10.0
        a = estimate(make_data(X), COV_N).matrix
        b = estimate(make_data(X + shift), COV_N).matrix
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_correlation_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(10, 3))
        scale = rng.uniform(0.1, 10.0, size=3)
        a = estimate(make_data(X), COR_N).matrix
        b = estimate(make_data(X * scale), COR_N).matrix
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)
