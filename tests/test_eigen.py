import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigensens import (
    RankDeficiencyError,
    canonical_correlations,
    count_decompositions,
    decomposition_count,
    eigh,
    eigh_stack,
    estimate,
    pc_scores,
    projector,
    subspace,
)
from eigensens.eigen import GAP_TOL, NEGATIVE_CLAMP, Subspace

from conftest import COV_N, gaussian_data, make_data


def random_symmetric(rng, p, low=0.01, high=5.0):
    q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    lam = rng.uniform(low, high, size=p)
    return (q * lam) @ q.T


class TestEigh:
    def test_diagonal_matrix(self):
        E = eigh(np.diag([3.0, 1.0]))
        np.testing.assert_array_equal(E.values, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(E.vectors), np.eye(2), atol=1e-15)
        assert E.gap_warnings == []

    def test_identity_is_fully_degenerate(self):
        E = eigh(np.eye(3))
        np.testing.assert_array_equal(E.values, [1.0, 1.0, 1.0])
        assert E.gap_warnings == [(1, 2), (2, 3)]
        assert E.is_degenerate_at(2)

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        w = random_symmetric(rng, 5)
        E = eigh(w)
        rebuilt = (E.vectors * E.values) @ E.vectors.T
        np.testing.assert_allclose(rebuilt, w, atol=1e-8)

    def test_invariant_sweep_1000_random_matrices(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            p = int(rng.integers(1, 13))
            w = random_symmetric(rng, p)
            E = eigh(w)
            assert np.all(np.diff(E.values) <= 0)
            gram = E.vectors.T @ E.vectors
            assert np.max(np.abs(np.diag(gram) - 1.0)) <= 1e-10
            assert np.max(np.abs(gram - np.diag(np.diag(gram)))) <= 1e-8
            residual = w @ E.vectors - E.vectors * E.values
            for j in range(p):
                bound = 1e-8 * (1.0 + abs(E.values[j]))
                assert np.linalg.norm(residual[:, j]) <= bound
            trace = np.trace(w)
            assert abs(np.sum(E.values) - trace) <= 1e-8 * abs(trace)

    def test_deterministic_bit_for_bit(self):
        w = random_symmetric(np.random.default_rng(9), 6)
        a = eigh(w)
        b = eigh(w)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_sign_convention(self):
        rng = np.random.default_rng(17)
        w = random_symmetric(rng, 4)
        E = eigh(w)
        for j in range(4):
            col = E.vectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_tiny_negative_values_clamped(self):
        # rank-deficient covariance: n - 1 < p forces exact-zero eigenvalues
        X = gaussian_data(5, 4, [1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        E = eigh(estimate(X, COV_N))
        assert np.all(E.values >= 0.0)

    @pytest.mark.parametrize("s", [1e-6, 1e6, 1e8])
    def test_tolerances_follow_the_units(self, s):
        # the zero eigenvalues of a rank-deficient covariance stay clamped
        # and tied whatever the units of the data
        X = gaussian_data(5, 4, [1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        unit = eigh(estimate(X, COV_N))
        E = eigh(estimate(make_data(X.values * s), COV_N))
        assert np.all(E.values >= 0.0)
        assert E.gap_warnings == unit.gap_warnings

    def test_zero_matrix_is_fully_degenerate(self):
        E = eigh(np.zeros((3, 3)))
        np.testing.assert_array_equal(E.values, [0.0, 0.0, 0.0])
        assert E.gap_warnings == [(1, 2), (2, 3)]

    def test_accepts_symmetric_estimate(self, oils):
        E = eigh(estimate(oils, COV_N))
        assert E.p == 7
        assert E.values[0] > E.values[1]


def reference_system(mat):
    """The decomposition conventions, one matrix and one column at a time."""
    values, vectors = np.linalg.eigh(mat)
    order = np.argsort(values, kind="stable")[::-1]
    values, vectors = values[order], vectors[:, order]
    for c in range(vectors.shape[1]):
        column = np.abs(vectors[:, c])
        lead = next(r for r in range(len(column)) if column[r] == column.max())
        if vectors[lead, c] < 0.0:
            vectors[:, c] = -vectors[:, c]
    top = max(abs(v) for v in values)
    scale = top if top > 0.0 else 1.0
    for j, v in enumerate(values):
        if NEGATIVE_CLAMP * scale <= v < 0.0:
            values[j] = 0.0
    gaps = [(j + 1, j + 2) for j in range(len(values) - 1)
            if (values[j] - values[j + 1]) / scale < GAP_TOL]
    return values, vectors, gaps


def mixed_stack():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(2, 20))
    # columns a, b, a, a: an exact zero eigenvalue of multiplicity two
    duplicated = np.cov(np.c_[a, b, a, a].T)
    # symmetric orthogonal, exact in binary
    H = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
    inside = H @ np.diag([2.0, 1.0, 0.5, 0.9 * NEGATIVE_CLAMP * 2.0]) @ H
    outside = H @ np.diag([2.0, 1.0, 0.5, 1.1 * NEGATIVE_CLAMP * 2.0]) @ H
    # the eigenvector of eigenvalue 1 is (-1, 1)/sqrt(2): equal magnitudes
    tied_lead = np.array([[2.0, 1, 0, 0], [1, 2, 0, 0], [0, 0, 0.5, 0], [0, 0, 0, 0.25]])
    return np.stack([duplicated, np.zeros((4, 4)), inside, outside, tied_lead])


class TestEighStack:
    def test_mixed_stack_follows_the_conventions(self):
        mats = mixed_stack()
        with count_decompositions() as window:
            systems = eigh_stack(mats)
        assert window.total == len(mats)
        for mat, system in zip(mats, systems):
            values, vectors, gaps = reference_system(mat)
            assert np.array_equal(system.values, values)
            assert np.array_equal(system.vectors, vectors)
            assert system.gap_warnings == gaps
            alone = eigh(mat)
            assert np.array_equal(alone.values, values)
            assert np.array_equal(alone.vectors, vectors)
            assert alone.gap_warnings == gaps

    def test_mixed_stack_hits_every_branch(self):
        duplicated, zero, inside, outside, tied_lead = eigh_stack(mixed_stack())
        assert (3, 4) in duplicated.gap_warnings
        assert zero.gap_warnings == [(1, 2), (2, 3), (3, 4)]
        assert inside.values[3] == 0.0
        assert outside.values[3] < 0.0
        raw = np.linalg.eigh(mixed_stack()[4])[1][:2, 2]
        assert abs(raw[0]) == abs(raw[1]) and raw[0] == -raw[1]
        # the first of the tied entries is made positive
        assert tied_lead.vectors[0, 1] > 0.0 > tied_lead.vectors[1, 1]

    def test_empty_stack(self):
        with count_decompositions() as window:
            assert eigh_stack(np.zeros((0, 3, 3))) == []
        assert window.total == 0


class TestSubspaceAndProjector:
    def test_full_space_projector_is_identity(self):
        E = eigh(np.diag([4.0, 2.0, 1.0]))
        P = projector(subspace(E, 3))
        np.testing.assert_allclose(P, np.eye(3), atol=1e-12)

    def test_leading_axis(self):
        E = eigh(np.diag([3.0, 1.0]))
        S = subspace(E, 1)
        np.testing.assert_allclose(np.abs(S.basis[:, 0]), [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(projector(S), [[1.0, 0.0], [0.0, 0.0]],
                                   atol=1e-15)

    def test_L_out_of_range(self):
        E = eigh(np.diag([3.0, 1.0]))
        with pytest.raises(ValueError, match="out of range"):
            subspace(E, 0)
        with pytest.raises(ValueError, match="out of range"):
            subspace(E, 3)

    def test_degenerate_boundary_warns(self):
        E = eigh(np.eye(3))
        with pytest.warns(RuntimeWarning, match="nearly tied"):
            subspace(E, 1)

    def test_projector_idempotent_on_random_basis(self):
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.normal(size=(6, 3)))
        P = projector(Subspace(q, 3))
        assert np.max(np.abs(P @ P - P)) <= 1e-10
        np.testing.assert_allclose(P, P.T, atol=1e-12)
        assert np.trace(P) == pytest.approx(3.0, abs=1e-10)

    def test_projector_invariant_to_sign_flips(self):
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(rng.normal(size=(5, 2)))
        flipped = q * np.array([-1.0, 1.0])
        np.testing.assert_allclose(
            projector(Subspace(q, 2)), projector(Subspace(flipped, 2)),
            atol=1e-14,
        )


class TestPcScores:
    def test_identity_basis_returns_centered_data(self):
        X = make_data([[1.0, 2.0], [3.0, 4.0], [5.0, 9.0]])
        E = eigh(np.eye(2))
        S = Subspace(np.eye(2), 2)
        scores = pc_scores(X, S)
        np.testing.assert_allclose(scores, X.values - X.values.mean(axis=0),
                                   atol=1e-14)

    def test_first_axis_basis(self):
        X = make_data([[1.0, 5.0], [3.0, 5.0], [5.0, 5.0]])
        S = Subspace(np.array([[1.0], [0.0]]), 1)
        np.testing.assert_allclose(pc_scores(X, S).ravel(), [-2.0, 0.0, 2.0],
                                   atol=1e-14)

    def test_uncentered(self):
        X = make_data([[1.0], [2.0], [3.0]])
        S = Subspace(np.array([[1.0]]), 1)
        np.testing.assert_allclose(
            pc_scores(X, S, centered=False).ravel(), [1.0, 2.0, 3.0]
        )

    def test_dimension_mismatch(self):
        X = make_data([[1.0, 2.0, 3.0]] * 3)
        S = Subspace(np.eye(2), 2)
        with pytest.raises(ValueError, match="columns"):
            pc_scores(X, S)


class TestCanonicalCorrelations:
    def test_same_span_gives_ones(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(20, 2))
        mix = np.array([[2.0, 1.0], [0.5, 1.5]])
        r = canonical_correlations(A, A @ mix)
        np.testing.assert_allclose(r, [1.0, 1.0], atol=1e-10)

    def test_orthogonal_spans_give_zeros(self):
        # orthonormal columns of one centered matrix: A spans are mutually
        # orthogonal to B spans by construction
        rng = np.random.default_rng(8)
        core = rng.normal(size=(8, 4))
        core -= core.mean(axis=0)
        q, _ = np.linalg.qr(core)
        r = canonical_correlations(q[:, :2], q[:, 2:])
        np.testing.assert_allclose(r, [0.0, 0.0], atol=1e-8)

    def test_projector_product_oracle(self):
        rng = np.random.default_rng(12)
        A = rng.normal(size=(20, 2))
        B = rng.normal(size=(20, 2))
        r = canonical_correlations(A, B)
        qa, _ = np.linalg.qr(A - A.mean(axis=0))
        qb, _ = np.linalg.qr(B - B.mean(axis=0))
        pa = qa @ qa.T
        pb = qb @ qb.T
        cos2 = np.sort(np.linalg.eigvalsh(qa.T @ pb @ pa @ qa))[::-1]
        np.testing.assert_allclose(r**2, np.clip(cos2, 0, 1), atol=1e-8)

    def test_symmetry(self):
        rng = np.random.default_rng(21)
        A = rng.normal(size=(15, 3))
        B = rng.normal(size=(15, 3))
        np.testing.assert_allclose(
            canonical_correlations(A, B), canonical_correlations(B, A),
            atol=1e-10,
        )

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_invariance_under_invertible_recombination(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(18, 2))
        B = rng.normal(size=(18, 2))
        mix = rng.normal(size=(2, 2)) + 3.0 * np.eye(2)
        np.testing.assert_allclose(
            canonical_correlations(A @ mix, B),
            canonical_correlations(A, B),
            atol=1e-8,
        )

    def test_rank_deficiency_names_offending_matrix(self):
        rng = np.random.default_rng(30)
        good = rng.normal(size=(10, 2))
        flat = np.column_stack([np.ones(10), rng.normal(size=10)])
        with pytest.raises(RankDeficiencyError, match="second"):
            canonical_correlations(good, flat)
        with pytest.raises(RankDeficiencyError, match="first"):
            canonical_correlations(flat, good)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            canonical_correlations(np.zeros((5, 2)), np.zeros((5, 3)))


class TestDecompositionCounter:
    def test_counts_inside_window(self):
        with count_decompositions() as window:
            eigh(np.diag([2.0, 1.0]))
            eigh(np.diag([5.0, 4.0]))
        assert window.total == 2

    def test_counter_is_monotone(self):
        before = decomposition_count()
        eigh(np.eye(2))
        assert decomposition_count() == before + 1
