"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` shows the same information through the test names.
"""

import time
from contextlib import contextmanager

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.stats import spearmanr

from eigensens import (
    LooEngine,
    count_decompositions,
    detect_near_switch,
    detect_switching,
    eigen_influence,
    eigh,
    estimate_loo,
    hybrid_influence,
    eigenvalue_gradient_check,
    influence_records,
    recommend_L,
    sci,
    scia_series,
    sif_b,
    eif_b_series,
)
from eigensens.dataset import DataMatrix

from conftest import COV_N


@contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {number} PASS ({elapsed:.2f}s): {description}")


def random_instance(rng, max_n=60, max_p=8):
    p = int(rng.integers(2, max_p + 1))
    n = int(rng.integers(max(p + 2, 10), max_n + 1))
    scales = rng.uniform(0.3, 3.0, size=p)
    return DataMatrix(rng.normal(size=(n, p)) * scales)


def test_criterion_1_golden_loo_eigenvalues(oils):
    with criterion(1, "exact eigenvalues after removing obs 57"):
        started = time.perf_counter()
        values = eigh(estimate_loo(oils, COV_N, 57)).values
        elapsed = time.perf_counter() - started
        expected = [452.747, 9.850, 9.545, 0.647, 0.369, 0.059, 0.036]
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-3)
        assert elapsed < 1.0


def test_criterion_2_golden_approximations(oils):
    with criterion(2, "approximated eigenvalues for obs 57 show the reversal"):
        started = time.perf_counter()
        approx = LooEngine(oils, COV_N).table_rows([57])[0]
        elapsed = time.perf_counter() - started
        expected = [452.727, 9.599, 9.816, 0.647, 0.369, 0.059, 0.036]
        np.testing.assert_allclose(approx, expected, rtol=0, atol=1e-3)
        assert approx[1] < approx[2]
        assert elapsed < 1.0


def test_criterion_3_detection_sets(oils):
    with criterion(3, "switching and near-switch sets on the oils data"):
        started = time.perf_counter()
        events = detect_switching(LooEngine(oils, COV_N))
        nears = detect_near_switch(LooEngine(oils, COV_N), 0.1, pairs=[(2, 3)])
        elapsed = time.perf_counter() - started

        by_pair = {}
        for ev in events:
            by_pair.setdefault(ev.pair, set()).add(ev.obs_index)
        assert by_pair.get((2, 3)) == {42, 57, 58, 59, 60, 91, 93}
        assert by_pair.get((1, 2)) is None
        assert by_pair.get((3, 4)) is None

        near_set = {ev.obs_index for ev in nears if ev.kind == "near_switch"}
        assert {28, 90, 94, 95} <= near_set
        assert elapsed < 2.0


def test_criterion_4_recommendation(oils):
    with criterion(4, "candidate L=2 is escalated to L=3"):
        advice = recommend_L(LooEngine(oils, COV_N), 2)
        assert advice.L == 3


def test_criterion_5_underestimation_property(oils):
    with criterion(5, "empirical measures underestimate at switching points"):
        flagged = [42, 57, 58, 59, 60, 91, 93]
        switching = np.zeros(oils.n, dtype=bool)
        switching[np.array(flagged) - 1] = True

        every = range(1, oils.n + 1)
        engine = LooEngine(oils, COV_N)
        ratios = {
            "|EIF_B|/|SIF_B|": np.abs(eif_b_series(engine, 2)) / np.abs(
                [sif_b(oils, COV_N, 2, i) for i in every]),
            "|SCIA|/|SCI|": np.abs(scia_series(engine, 2)) / np.abs(
                [sci(oils, COV_N, 2, i) for i in every]),
        }
        # The paper gives no size for the shortfall at switching points.
        # Obs 58 reaches |EIF_B|/|SIF_B| = 0.70 (its closed form agrees with a
        # finite-difference slope, test_subspace_diag), so each B ratio is held
        # below 1 and the factor of two applies to the median over switches.
        bounds = {"|EIF_B|/|SIF_B|": 1.0, "|SCIA|/|SCI|": 0.5}
        for name, ratio in ratios.items():
            for i in flagged:
                assert ratio[i - 1] < bounds[name], (
                    f"per observation: obs {i} {name}={ratio[i - 1]:.3f} "
                    f"is not below {bounds[name]}"
                )
        median = np.median(ratios["|EIF_B|/|SIF_B|"][switching])
        assert median < 0.5, (
            f"switching median: |EIF_B|/|SIF_B|={median:.3f} is not below 0.5"
        )
        # Away from switching points the empirical measures track the sample
        # ones, so the shortfall is specific to switches (a series shrunk
        # everywhere fails here).
        for name, ratio in ratios.items():
            median = np.median(ratio[~switching])
            assert 0.8 <= median <= 1.25, (
                f"non-switching median: {name}={median:.3f} is outside "
                "[0.8, 1.25]"
            )
        ratio_42 = ratios["|EIF_B|/|SIF_B|"][41]
        assert ratio_42 < 0.1, (
            f"per observation: obs 42 |EIF_B|/|SIF_B|={ratio_42:.3f} "
            "is not below 0.1"
        )

        for L in (1, 3):
            sample_b = np.array([
                sif_b(oils, COV_N, L, i) for i in range(1, 97)
            ])
            sample_c = np.array([
                sci(oils, COV_N, L, i) for i in range(1, 97)
            ])
            assert np.max(np.abs(sample_b)) < 1.0
            emp_b = eif_b_series(engine, L)
            emp_c = scia_series(engine, L)
            assert spearmanr(np.abs(emp_b), np.abs(sample_b)).statistic > 0.9
            assert spearmanr(np.abs(emp_c), np.abs(sample_c)).statistic > 0.9


def _check_identities(X):
    n = X.n
    engine = LooEngine(X, COV_N)
    E, table = engine.eigen, engine.table
    _, hif = eigen_influence(engine)
    assert np.max(np.abs(hif + (n - 1) * (table - E.values))) == 0.0
    for i in range(1, n + 1):
        trace = np.trace(engine.loo_block(i, i)[0])
        assert abs(np.sum(table[i - 1]) - trace) <= 1e-8
        exact_top = eigh(estimate_loo(X, COV_N, i)).values[0]
        assert table[i - 1, 0] <= exact_top + 1e-10


def test_criterion_6_algebraic_identities(oils):
    with criterion(6, "hybrid identity, trace completeness, Rayleigh bound"):
        started = time.perf_counter()
        _check_identities(oils)
        rng = np.random.default_rng(606)
        for _ in range(200):
            _check_identities(random_instance(rng))
        assert time.perf_counter() - started < 30.0


def test_criterion_7_oracle_equivalence():
    with criterion(7, "approximation error shrinks with n; detection agrees "
                      "with exact verification"):
        rng = np.random.default_rng(7)
        ordered = 0
        agree = 0
        total = 0
        for _ in range(50):
            p = int(rng.integers(2, 7))
            q, _ = np.linalg.qr(rng.normal(size=(p, p)))
            lam_pop = np.sort(rng.uniform(0.5, 4.0, size=p))[::-1]
            lam_pop += 0.4 * np.arange(p)[::-1]
            chol = np.linalg.cholesky((q * lam_pop) @ q.T)
            pool = rng.normal(size=(160, p)) @ chol.T
            medians = []
            for n in (20, 40, 80, 160):
                X = DataMatrix(pool[:n].copy())
                engine = LooEngine(X, COV_N)
                E, table = engine.eigen, engine.table
                errors = []
                for i in range(1, n + 1):
                    reduced = eigh(estimate_loo(X, COV_N, i))
                    errors.append(np.max(np.abs(table[i - 1] - reduced.values)))
                    # independent oracle: optimal eigenvector alignment
                    overlap = np.abs(E.vectors.T @ reduced.vectors)
                    rows, cols = linear_sum_assignment(-overlap)
                    aligned = np.empty(p)
                    aligned[rows] = reduced.values[cols]
                    for j in range(p - 1):
                        approx_says = table[i - 1, j] < table[i - 1, j + 1]
                        exact_says = aligned[j] < aligned[j + 1]
                        agree += approx_says == exact_says
                        total += 1
                medians.append(np.median(errors))
            ordered += all(a > b for a, b in zip(medians, medians[1:]))
        assert ordered >= 45, f"only {ordered}/50 seeds fully ordered"
        assert agree / total >= 0.95, f"agreement {agree / total:.4f}"


def test_criterion_8_gradient_check():
    with criterion(8, "finite differences match the analytic influence"):
        rng = np.random.default_rng(42)
        err_ok = 0
        ratio_ok = 0
        for _ in range(100):
            p = int(rng.integers(2, 7))
            a = rng.normal(size=(p + 3, p))
            centered = a - a.mean(axis=0)
            sigma = centered.T @ centered / (p + 3)
            x0 = rng.normal(size=p)
            mu = rng.normal(size=p)
            j = int(rng.integers(1, p + 1))
            fd1, analytic = eigenvalue_gradient_check(sigma, x0, mu, j, eps=1e-6)
            fd2, _ = eigenvalue_gradient_check(sigma, x0, mu, j, eps=5e-7)
            err1 = abs(fd1 - analytic)
            err2 = abs(fd2 - analytic)
            if err1 <= 1e-3 * (1.0 + abs(analytic)):
                err_ok += 1
            if err2 > 0 and 1.6 <= err1 / err2 <= 2.4:
                ratio_ok += 1
        assert err_ok == 100, f"error bound held for only {err_ok}/100"
        assert ratio_ok >= 90, f"halving ratio held for only {ratio_ok}/100"


def test_criterion_9_cost_contract(oils):
    with criterion(9, "hybrid sweep spends exactly 1 + |flagged| "
                      "decompositions"):
        engine = LooEngine(oils, COV_N)
        events = detect_near_switch(engine, 0.1, pairs=[(2, 3)])
        flagged = sorted({ev.obs_index for ev in events}
                         | {ev.obs_index
                            for ev in detect_switching(engine, pairs=[(2, 3)])})
        assert len(flagged) == 11
        # measure B is hybrid_influence; measure C is influence_records with
        # the flagged rows exact (the CLI's hybrid_c)
        sweeps = {
            "B": lambda: hybrid_influence(LooEngine(oils, COV_N), 2, flagged),
            "C": lambda: influence_records(LooEngine(oils, COV_N), 2, exact=flagged),
        }
        for measure, sweep in sweeps.items():
            with count_decompositions() as window:
                sweep()
            assert window.total == 1 + len(flagged), (
                f"measure {measure}: {window.total} decompositions"
            )
