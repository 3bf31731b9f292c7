import math
import warnings

import numpy as np
import pytest

from eigensens import (
    DataMatrix,
    DegenerateEigenvaluesError,
    EigenSystem,
    LooEngine,
    UnsupportedEstimatorError,
    count_decompositions,
    eif_b_series,
    eigh,
    estimate,
    hybrid_influence,
    scia_series,
)
from eigensens.subspace_diag import influence_records

from conftest import COV_N, COR_N, axis_swap_data, gaussian_data, make_data
from reference import sci, sif_b, subspace_alignment


def tied_spectrum_data():
    return make_data([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def reduced_tie_data():
    """No tie in the full data; without row 5, eigenvalues 1 and 2 tie exactly."""
    return make_data([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [2.0, 0.0]])


def leading_vectors(matrix: np.ndarray, L: int) -> np.ndarray:
    """The L leading eigenvectors of ``matrix``, in plain numpy."""
    return np.linalg.eigh(matrix)[1][:, ::-1][:, :L]


def mean_sine(full_basis: np.ndarray, matrix: np.ndarray) -> float:
    """Mean sine between each column of ``full_basis`` and the span of the
    leading ``full_basis.shape[1]`` eigenvectors of ``matrix``."""
    top = leading_vectors(matrix, full_basis.shape[1])
    residual = full_basis - top @ (top.T @ full_basis)
    return float(np.mean(np.linalg.norm(residual, axis=0)))


def spectrum_planted_data(top_variance: float):
    """Eight points with exactly diagonal covariance diag(top_variance, 1).

    The first row sits at centered coordinates (1, 1) on both eigenvectors.
    """
    c = math.sqrt((8.0 * top_variance - 4.0) / 2.0)
    d = math.sqrt(2.0)
    rows = [
        [1.0, 1.0],
        [-1.0, -1.0],
        [1.0, -1.0],
        [-1.0, 1.0],
        [c, 0.0],
        [-c, 0.0],
        [0.0, d],
        [0.0, -d],
    ]
    return make_data(rows)


class TestSubspaceAlignment:
    def test_identical_subspaces(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.normal(size=(5, 2)))
        assert subspace_alignment(q, q) == pytest.approx(1.0, abs=1e-12)

    def test_full_space_on_both_sides(self):
        E = eigh(np.diag([3.0, 2.0, 1.0]))
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        assert subspace_alignment(E.vectors, q) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_spans(self):
        full = np.array([[1.0], [0.0]])
        loo = np.array([[0.0], [1.0]])
        assert subspace_alignment(full, loo) == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            subspace_alignment(np.eye(2), np.eye(3))

    def test_invariant_to_loo_basis_rotation(self):
        rng = np.random.default_rng(6)
        qa, _ = np.linalg.qr(rng.normal(size=(6, 2)))
        qb, _ = np.linalg.qr(rng.normal(size=(6, 2)))
        rot, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        a = subspace_alignment(qa, qb)
        b = subspace_alignment(qa, qb @ rot)
        assert a == pytest.approx(b, abs=1e-12)

    def test_invariant_to_sign_flips_of_full_basis(self):
        rng = np.random.default_rng(7)
        qa, _ = np.linalg.qr(rng.normal(size=(6, 2)))
        qb, _ = np.linalg.qr(rng.normal(size=(6, 2)))
        flipped = qa * np.array([-1.0, 1.0])
        assert subspace_alignment(qa, qb) == pytest.approx(
            subspace_alignment(flipped, qb), abs=1e-12
        )


class TestSifB:
    def test_duplicate_row_is_nearly_neutral(self):
        X = gaussian_data(21, 60, [2.0, 1.0, 0.5])
        values = X.values.copy()
        values[37] = values[12]
        X = make_data(values)
        assert abs(sif_b(X, COV_N, 2, 38)) < 0.5

    def test_full_dimension_is_zero(self, oils):
        with pytest.warns(RuntimeWarning, match="identically zero"):
            assert sif_b(oils, COV_N, 7, 4) == 0.0

    def test_tied_boundary_warns(self, oils):
        # two copies of the first column make eigenvalues 8 and 9 both zero
        first = oils.values[:, :1]
        X = DataMatrix(np.hstack([oils.values, first, first]), oils.row_labels)
        with pytest.warns(RuntimeWarning) as caught:
            sif_b(X, COV_N, 8, 1)
        assert any("eigenvalues 8 and 9 of the full-data estimate are nearly "
                   "tied" in str(w.message) for w in caught)

    def test_oils_top_spikes_are_the_switching_observations(self, oils):
        magnitudes = {
            i: abs(sif_b(oils, COV_N, 2, i))
            for i in range(1, oils.n + 1)
        }
        top7 = sorted(sorted(magnitudes, key=magnitudes.get, reverse=True)[:7])
        assert top7 == [42, 57, 58, 59, 60, 91, 93]

    def test_never_positive(self, oils):
        for i in (1, 42, 57, 96):
            assert sif_b(oils, COV_N, 2, i) <= 0.0

    def test_works_for_correlation_estimates(self, oils):
        value = sif_b(oils, COR_N, 2, 57)
        assert np.isfinite(value) and value <= 0.0

    def test_oils_obs58_matches_direct_deletion(self, oils):
        values = oils.values
        full = leading_vectors(np.cov(values.T, bias=True), 2)
        reduced = np.cov(np.delete(values, 57, axis=0).T, bias=True)
        direct = -(oils.n - 1) * mean_sine(full, reduced)
        assert sif_b(oils, COV_N, 2, 58) == pytest.approx(direct, rel=1e-10)


class TestEifB:
    def test_zero_at_the_mean(self, centered_with_mean_row):
        X, i = centered_with_mean_row
        series = eif_b_series(LooEngine(X, COV_N), 2)
        assert series[i - 1] == pytest.approx(0.0, abs=1e-12)

    def test_direct_formula_arithmetic(self):
        X = spectrum_planted_data(3.0)
        series = eif_b_series(LooEngine(X, COV_N), 1)
        assert series[0] == pytest.approx(-0.5, abs=1e-9)

    def test_oils_obs42_underestimates_badly(self, oils):
        empirical = eif_b_series(LooEngine(oils, COV_N), 2)[41]
        sample = sif_b(oils, COV_N, 2, 42)
        assert abs(empirical) < 0.1 * abs(sample)

    def test_oils_obs58_is_the_slope_along_contamination(self, oils):
        # Moving mass eps onto observation 58 turns the covariance (divisor
        # n) into (1-eps)*S + eps*(1-eps)*delta*delta^T; the retained
        # subspace tilts by a mean sine that grows like -EIF_B * eps.
        eps = 1e-5
        values = oils.values
        delta = values[57] - values.mean(axis=0)
        cov = np.cov(values.T, bias=True)
        full = leading_vectors(cov, 2)
        contaminated = (1.0 - eps) * cov + eps * (1.0 - eps) * np.outer(delta, delta)
        slope = mean_sine(full, contaminated) / eps
        empirical = eif_b_series(LooEngine(oils, COV_N), 2)[57]
        assert -empirical == pytest.approx(slope, rel=1e-2)

    def test_degenerate_pair_reported(self):
        with pytest.raises(DegenerateEigenvaluesError, match="1 and 2"):
            eif_b_series(LooEngine(tied_spectrum_data(), COV_N), 1)

    def test_rejects_correlation_spec(self, oils):
        with pytest.raises(UnsupportedEstimatorError):
            eif_b_series(LooEngine(oils, COR_N), 2)


class TestSci:
    def test_axis_swap_reaches_the_upper_bound(self):
        X, i = axis_swap_data()
        assert sci(X, COV_N, 1, i) == pytest.approx((X.n - 1) ** 2, abs=1e-8)

    def test_full_dimension_spans_are_identical(self):
        X = gaussian_data(31, 12, [2.0, 0.7])
        for i in (1, 5, 12):
            with pytest.warns(RuntimeWarning, match="identically zero"):
                assert sci(X, COV_N, 2, i) == pytest.approx(0.0, abs=1e-8)

    def test_oils_top_spikes_match_sif_b_spikes(self, oils):
        magnitudes = {
            i: sci(oils, COV_N, 2, i) for i in range(1, oils.n + 1)
        }
        top7 = sorted(sorted(magnitudes, key=magnitudes.get, reverse=True)[:7])
        assert top7 == [42, 57, 58, 59, 60, 91, 93]

    def test_within_bounds(self, oils):
        for i in (1, 42, 60):
            value = sci(oils, COV_N, 2, i)
            assert 0.0 <= value <= (oils.n - 1) ** 2


class TestScia:
    def test_zero_at_the_mean(self, centered_with_mean_row):
        X, i = centered_with_mean_row
        series = scia_series(LooEngine(X, COV_N), 2)
        assert series[i - 1] == pytest.approx(0.0, abs=1e-12)

    def test_direct_formula_arithmetic(self):
        X = spectrum_planted_data(4.0)
        series = scia_series(LooEngine(X, COV_N), 1)
        assert series[0] == pytest.approx(1.0 / 36.0, abs=1e-9)

    def test_tracks_sci_for_non_extreme_observations(self):
        X = gaussian_data(13, 60, [3.0, 1.5, 0.6, 0.25])
        E = eigh(estimate(X, COV_N))
        scores = (X.values - X.values.mean(axis=0)) @ E.vectors
        inside = np.all(np.abs(scores) <= 2.0 * np.sqrt(E.values), axis=1)
        series = scia_series(LooEngine(X, COV_N), 2)
        checked = 0
        for i in range(1, X.n + 1):
            if not inside[i - 1]:
                continue
            sample = sci(X, COV_N, 2, i)
            empirical = series[i - 1]
            assert abs(empirical - sample) <= 0.25 * max(sample, 1e-12)
            checked += 1
        assert checked >= 40

    def test_zero_eigenvalue_rejected(self):
        X = make_data([[1.0, 0.0], [-1.0, 0.0], [0.5, 1.0], [-0.5, -1.0]])
        engine = LooEngine(X, COV_N)
        engine.eigen = EigenSystem(np.array([0.0, -1.0]), np.eye(2), [])
        with pytest.raises(DegenerateEigenvaluesError, match="zero"):
            scia_series(engine, 1)


class TestSweeps:
    def test_empirical_series_use_one_decomposition(self, oils):
        with count_decompositions() as window:
            engine = LooEngine(oils, COV_N)
            b = eif_b_series(engine, 2)
            c = scia_series(engine, 2)
        assert window.total == 1
        assert b.shape == c.shape == (oils.n,)

    def test_full_dimension_gives_positive_zero(self, oils):
        engine = LooEngine(oils, COV_N)
        for series in (eif_b_series(engine, oils.p), scia_series(engine, oils.p)):
            assert np.all(series == 0.0)
            assert not np.any(np.signbit(series))

    def test_series_sign_conventions(self, oils):
        engine = LooEngine(oils, COV_N)
        assert np.all(eif_b_series(engine, 2) <= 0.0)
        assert np.all(scia_series(engine, 2) >= 0.0)

    def test_records_empirical_only(self, oils):
        records = influence_records(LooEngine(oils, COV_N), 2)
        assert len(records) == oils.n
        assert records[41].sif_b is None
        assert records[41].eif_b == eif_b_series(LooEngine(oils, COV_N), 2)[41]
        assert records[41].obs_label == oils.row_labels[41]

    def test_records_exact_mode(self, oils):
        records = influence_records(LooEngine(oils, COV_N), 2,
                                    exact=range(1, oils.n + 1))
        assert records[56].sif_b == pytest.approx(sif_b(oils, COV_N, 2, 57))
        assert records[56].sci == pytest.approx(sci(oils, COV_N, 2, 57))

    def test_records_note_on_degenerate_spectrum(self):
        records = influence_records(LooEngine(tied_spectrum_data(), COV_N), 1)
        assert all(r.eif_b is None and r.scia is None for r in records)
        assert all("nearly equal" in r.note for r in records)


@pytest.mark.parametrize("s", [1e-8, 1e-6, 1e6])
def test_tolerances_do_not_depend_on_units(oils, s):
    sX = DataMatrix(oils.values * s, oils.row_labels, oils.col_labels)
    assert eigh(estimate(sX, COV_N)).gap_warnings == []
    records = influence_records(LooEngine(sX, COV_N), 2)
    assert all(r.eif_b is not None for r in records)


# every exact path, sweep or per-row reference, warns alike
@pytest.mark.parametrize("call", [
    lambda X: influence_records(LooEngine(X, COV_N), 1, exact=[5]),
    lambda X: hybrid_influence(LooEngine(X, COV_N), 1, [5]),
    lambda X: sif_b(X, COV_N, 1, 5),
    lambda X: sci(X, COV_N, 1, 5),
], ids=["influence_records", "hybrid_influence", "sif_b", "sci"])
def test_reduced_tie_at_the_boundary_warns(call):
    X = reduced_tie_data()
    assert eigh(estimate(X, COV_N)).gap_warnings == []
    with pytest.warns(RuntimeWarning, match="eigenvalues 1 and 2 of the "
                      "leave-one-out estimate are nearly tied"):
        call(X)


def test_a_full_data_tie_warns_once_per_exact_pass():
    # eigenvalues 1.25, 1.25, 0.025: the full data ties at (1, 2), and no
    # reduced estimate does
    X = make_data([[1, 0, .1], [-1, 0, .1], [0, 1, -.1], [0, -1, -.1],
                   [2, 0, .2], [-2, 0, .2], [0, 2, -.2], [0, -2, -.2]])
    engine = LooEngine(X, COV_N)
    assert engine.eigen.gap_warnings == [(1, 2)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        influence_records(engine, 1, exact=range(1, X.n + 1))
    messages = [str(w.message) for w in caught]
    assert sum("of the full-data estimate are nearly tied" in m
               for m in messages) == 1
    assert not any("leave-one-out" in m for m in messages)
    # the per-row reference still warns once per row
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for i in range(1, X.n + 1):
            sif_b(X, COV_N, 1, i)
    assert sum("of the full-data estimate are nearly tied" in str(w.message)
               for w in caught) == X.n


@pytest.mark.parametrize("L", [0, 8])
@pytest.mark.parametrize("call", [
    lambda X, L: sif_b(X, COV_N, L, 1),
    lambda X, L: sci(X, COV_N, L, 1),
    lambda X, L: eif_b_series(LooEngine(X, COV_N), L),
    lambda X, L: influence_records(LooEngine(X, COV_N), L),
    # no empirical measures under correlation: the exact measures refuse
    lambda X, L: influence_records(LooEngine(X, COR_N), L),
    lambda X, L: hybrid_influence(LooEngine(X, COV_N), L, [1]),
], ids=["sif_b", "sci", "eif_b_series", "influence_records",
        "influence_records_cor", "hybrid_influence"])
def test_out_of_range_L_is_refused(oils, call, L):
    with pytest.raises(ValueError, match=rf"L={L} out of range 1\.\.7"):
        call(oils, L)
