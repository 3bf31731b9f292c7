import numpy as np
import pytest

from eigensens import (
    DegenerateEigenvaluesError,
    EigenSystem,
    LooEngine,
    UnsupportedEstimatorError,
    eif_b_series,
    eigen_influence,
    eigh,
    estimate,
    estimate_loo,
    loo_eigenvalue_table,
    scia_series,
)

from conftest import COV_N, COV_N1, COR_N, gaussian_data, make_data
from reference import (
    component_score,
    eif_covariance,
    eif_eigenvalue,
    eigenvalue_gradient_check,
    mean_vector,
    sif_eigenvalue,
)


def tied_spectrum_data():
    """Four axis points whose covariance is exactly 0.5 * identity."""
    return make_data([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


class TestComponentScore:
    def test_zero_at_the_mean(self, centered_with_mean_row):
        X, i = centered_with_mean_row
        E = eigh(estimate(X, COV_N))
        xbar = mean_vector(X)
        for l in range(1, X.p + 1):
            assert component_score(E, xbar, X.values[i - 1], l) == pytest.approx(0.0, abs=1e-12)

    def test_axis_aligned(self):
        E = eigh(np.diag([3.0, 1.0]))
        assert component_score(E, np.zeros(2), np.array([3.0, 0.0]), 1) == pytest.approx(3.0)

    def test_matches_direct_dot_product(self):
        rng = np.random.default_rng(4)
        X = gaussian_data(4, 20, [2.0, 1.0, 0.5])
        E = eigh(estimate(X, COV_N))
        xbar = mean_vector(X)
        for l in (1, 2, 3):
            i = int(rng.integers(1, 21))
            direct = float(np.dot(E.vectors[:, l - 1], X.values[i - 1] - xbar))
            assert component_score(E, xbar, X.values[i - 1], l) == direct


class TestLooApproximation:
    def test_oils_obs57(self, oils):
        approx = LooEngine(oils, COV_N).table_rows([57])[0]
        expected = [452.727, 9.599, 9.816, 0.647, 0.369, 0.059, 0.036]
        np.testing.assert_allclose(np.round(approx, 3), expected, atol=1e-12)
        assert approx[1] < approx[2]

    def test_scalar_case_is_exact(self):
        X = make_data([[1.0], [4.0], [2.5], [0.5], [6.0]])
        table = LooEngine(X, COV_N).table
        for i in range(1, 6):
            exact = estimate_loo(X, COV_N, i).matrix[0, 0]
            assert table[i - 1, 0] == pytest.approx(exact, abs=1e-14)

    def test_error_bounded_and_shrinking_with_n(self):
        medians = {}
        for n in (30, 60, 120):
            X = gaussian_data(5, n, [2.0, 1.3, 0.8, 0.4])
            engine = LooEngine(X, COV_N)
            spread = engine.eigen.values[0] - engine.eigen.values[-1]
            errors = []
            for i in range(1, n + 1):
                exact = eigh(estimate_loo(X, COV_N, i)).values
                err = np.max(np.abs(engine.table[i - 1] - exact))
                assert err <= 0.15 * spread
                errors.append(err)
            medians[n] = np.median(errors)
        assert medians[30] > medians[60] > medians[120]


class TestSifEigenvalue:
    def test_hand_computed_one_dimensional(self):
        # var({1,2,3}, n-1) = 1; removing the middle point leaves var 2
        X = make_data([[1.0], [2.0], [3.0]])
        assert sif_eigenvalue(X, COV_N1, 1, 2) == pytest.approx(-2.0, abs=1e-12)

    def test_duplicate_row_has_small_influence(self):
        X = gaussian_data(21, 60, [2.0, 1.0, 0.5])
        values = X.values.copy()
        values[37] = values[12]
        X = make_data(values)
        E = eigh(estimate(X, COV_N))
        for j in (1, 2, 3):
            s = sif_eigenvalue(X, COV_N, j, 38)
            assert abs(s) <= 2.0 * E.values[j - 1]

    def test_oils_obs57_second_eigenvalue(self, oils):
        E = eigh(estimate(oils, COV_N))
        s = sif_eigenvalue(oils, COV_N, 2, 57)
        loo2 = eigh(estimate_loo(oils, COV_N, 57)).values[1]
        assert s == pytest.approx(-95.0 * (loo2 - E.values[1]), abs=1e-9)
        assert round(loo2, 3) == pytest.approx(9.850)

    def test_refuses_degenerate_eigenvalue(self):
        X = tied_spectrum_data()
        with pytest.raises(DegenerateEigenvaluesError, match="tied"):
            sif_eigenvalue(X, COV_N, 1, 1)


class TestEifCovariance:
    def test_mean_row_gives_minus_sigma(self, centered_with_mean_row):
        X, i = centered_with_mean_row
        sigma = estimate(X, COV_N).matrix
        np.testing.assert_allclose(eif_covariance(X, i), -sigma, atol=1e-12)

    def test_two_point_one_dimensional(self):
        X = make_data([[0.0], [2.0]])
        assert eif_covariance(X, 1, COV_N)[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_approximates_scaled_loo_difference(self):
        X = gaussian_data(0, 80, [3.0, 1.0, 0.5])
        n = X.n
        sigma = estimate(X, COV_N).matrix
        for i in (5, 23, 71):
            sif_matrix = (n - 1) * (estimate_loo(X, COV_N, i).matrix - sigma)
            e = eif_covariance(X, i, COV_N)
            # the empirical form approximates minus the deletion difference
            assert np.linalg.norm(e + sif_matrix) <= 0.15 * np.linalg.norm(e)

    def test_rejects_correlation_spec(self, oils):
        with pytest.raises(UnsupportedEstimatorError, match="covariance"):
            eif_covariance(oils, 1, COR_N)


class TestEifEigenvalue:
    def test_mean_row_gives_minus_lambda(self, centered_with_mean_row):
        X, i = centered_with_mean_row
        E = eigh(estimate(X, COV_N))
        for j in (1, 2, 3):
            assert eif_eigenvalue(X, j, i) == pytest.approx(
                -E.values[j - 1], abs=1e-12
            )

    def test_one_dimensional_specialisation(self):
        X = make_data([[1.0], [2.0], [6.0]])
        xbar = float(mean_vector(X)[0])
        s2 = estimate(X, COV_N).matrix[0, 0]
        assert eif_eigenvalue(X, 1, 3) == pytest.approx(
            (6.0 - xbar) ** 2 - s2, abs=1e-12
        )

    def test_tracks_sif_for_non_extreme_observations(self):
        X = gaussian_data(9, 50, [2.0, 1.0, 0.5])
        n = X.n
        E = eigh(estimate(X, COV_N))
        scores = (X.values - mean_vector(X)) @ E.vectors
        inside = np.all(np.abs(scores) <= 2.0 * np.sqrt(E.values), axis=1)
        checked = 0
        for i in range(1, n + 1):
            if not inside[i - 1]:
                continue
            s = sif_eigenvalue(X, COV_N, 1, i)
            if abs(s) < 0.2 * E.values[0]:
                continue
            e = eif_eigenvalue(X, 1, i)
            assert abs(e - s) <= 0.10 * abs(s)
            checked += 1
        assert checked >= 10

    def test_correlation_spec_points_to_hybrid(self, oils):
        with pytest.raises(UnsupportedEstimatorError,
                           match=r"eigen_influence\(engine\)"):
            eif_eigenvalue(oils, 1, 1, COR_N)


class TestEigenInfluence:
    def test_constant_data_gives_zero(self):
        X = make_data([[2.0, 5.0]] * 6)
        eif, hif = eigen_influence(LooEngine(X, COV_N))
        assert np.all(hif == 0.0)
        assert np.all(eif == 0.0)

    def test_identity_with_approximation(self, oils):
        engine = LooEngine(oils, COV_N)
        _, hif = eigen_influence(engine)
        assert hif.shape == (oils.n, oils.p)
        assert np.all(hif + 95.0 * (engine.table - engine.eigen.values) == 0.0)

    def test_oils_obs57_second_eigenvalue(self, oils):
        engine = LooEngine(oils, COV_N)
        approx2 = engine.table_rows([57])[0][1]
        h = eigen_influence(engine)[1][56, 1]
        assert h == pytest.approx(-95.0 * (approx2 - engine.eigen.values[1]), abs=1e-9)
        assert round(approx2, 3) == pytest.approx(9.599)

    def test_empirical_matches_the_closed_form(self, oils):
        eif, _ = eigen_influence(LooEngine(oils, COV_N))
        for i in (1, 42, 57):
            for j in (1, 2, 7):
                assert eif[i - 1, j - 1] == pytest.approx(
                    eif_eigenvalue(oils, j, i), rel=1e-12, abs=1e-10
                )

    def test_supports_correlation_estimates(self, oils):
        eif, hif = eigen_influence(LooEngine(oils, COR_N))
        assert eif is None
        assert np.all(np.isfinite(hif))

    def test_supports_both_divisors(self, oils):
        a = eigen_influence(LooEngine(oils, COV_N))[1][56, 1]
        b = eigen_influence(LooEngine(oils, COV_N1))[1][56, 1]
        assert a != b
        assert np.isfinite(a) and np.isfinite(b)


class TestEigenvalueGradientCheck:
    def test_contamination_at_the_mean(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(10, 3))
        sigma = (a - a.mean(axis=0)).T @ (a - a.mean(axis=0)) / 10.0
        lam = eigh(sigma).values
        mu = rng.normal(size=3)
        for j in (1, 2, 3):
            fd, analytic = eigenvalue_gradient_check(sigma, mu, mu, j)
            assert analytic == pytest.approx(-lam[j - 1], abs=1e-12)
            assert fd == pytest.approx(-lam[j - 1], abs=1e-4)

    def test_explicit_two_dimensional_case(self):
        sigma = np.diag([3.0, 1.0])
        fd, analytic = eigenvalue_gradient_check(
            sigma, np.array([2.0, 0.0]), np.zeros(2), 1
        )
        assert analytic == pytest.approx(1.0, abs=1e-12)
        assert fd == pytest.approx(1.0, abs=1e-4)

    def test_error_halves_with_eps(self):
        rng = np.random.default_rng(42)
        ratios_ok = 0
        for _ in range(30):
            p = int(rng.integers(2, 6))
            a = rng.normal(size=(p + 4, p))
            sigma = (a - a.mean(axis=0)).T @ (a - a.mean(axis=0)) / (p + 4)
            x0 = rng.normal(size=p)
            mu = rng.normal(size=p)
            j = int(rng.integers(1, p + 1))
            fd1, analytic = eigenvalue_gradient_check(sigma, x0, mu, j, eps=1e-6)
            fd2, _ = eigenvalue_gradient_check(sigma, x0, mu, j, eps=5e-7)
            e1, e2 = abs(fd1 - analytic), abs(fd2 - analytic)
            if e2 > 0 and 1.6 <= e1 / e2 <= 2.4:
                ratios_ok += 1
        assert ratios_ok >= 24

    def test_eps_validation(self):
        with pytest.raises(ValueError, match="eps"):
            eigenvalue_gradient_check(np.diag([2.0, 1.0]), np.ones(2), np.zeros(2),
                                 1, eps=1e-3)

    def test_degenerate_eigenvalue_rejected(self):
        with pytest.raises(DegenerateEigenvaluesError):
            eigenvalue_gradient_check(np.eye(2), np.ones(2), np.zeros(2), 1)


class TestInfluenceInvariants:
    def test_basis_completeness(self, oils):
        engine = LooEngine(oils, COV_N)
        for i in range(1, oils.n + 1):
            assert np.sum(engine.table[i - 1]) == pytest.approx(
                np.trace(engine._loo_stack(np.array([i - 1]))[0]), abs=1e-8
            )

    def test_rayleigh_dominance(self, oils):
        table = loo_eigenvalue_table(LooEngine(oils, COV_N))
        for i in range(1, oils.n + 1):
            exact_top = eigh(estimate_loo(oils, COV_N, i)).values[0]
            assert exact_top >= table[i - 1, 0] - 1e-10

    def test_empirical_converges_to_sample_influence(self):
        # medians of |EIF - SIF| for the top eigenvalue should drop as the
        # sample grows; required in 18 of 20 replications
        wins = 0
        rng = np.random.default_rng(11)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            cov_half = q * np.sqrt([4.0, 2.0, 0.7])
            med = {}
            for n in (30, 240):
                X = make_data(rng.normal(size=(n, 3)) @ cov_half.T)
                diffs = []
                for i in range(1, n + 1):
                    s = sif_eigenvalue(X, COV_N, 1, i)
                    e = eif_eigenvalue(X, 1, i)
                    diffs.append(abs(e - s))
                med[n] = np.median(diffs)
            wins += med[30] > med[240]
        assert wins >= 18

    def test_invariant_to_eigenvector_sign_flips(self, oils):
        a, b = LooEngine(oils, COV_N), LooEngine(oils, COV_N)
        E = a.eigen
        b.eigen = EigenSystem(
            E.values.copy(),
            E.vectors * np.where(np.arange(E.p) % 2 == 0, -1.0, 1.0),
            list(E.gap_warnings),
        )
        np.testing.assert_allclose(a.table, b.table, rtol=0, atol=1e-9)
        for series in (eif_b_series, scia_series):
            np.testing.assert_allclose(series(a, 2), series(b, 2), rtol=0, atol=1e-9)
