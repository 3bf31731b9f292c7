import os

# one BLAS thread: the small stacked LAPACK calls slow down badly when
# OpenBLAS worker threads compete with another process for the CPUs
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from eigensens import DataMatrix, EstimatorSpec, EventTable, load_oils, switching
from eigensens.switching import DEFAULT_NEAR_DELTA, KIND_SWITCH

COV_N = EstimatorSpec("covariance", "n")
COV_N1 = EstimatorSpec("covariance", "n-1")
COR_N = EstimatorSpec("correlation", "n")


@pytest.fixture(scope="session")
def oils() -> DataMatrix:
    return load_oils()


@pytest.fixture
def alignment_solves(monkeypatch) -> list[int]:
    """Sizes of the exact assignment solves rank alignment falls back to."""
    calls = []
    solve = switching._min_cost_assignment

    def spy(cost):
        calls.append(cost.shape[0])
        return solve(cost)

    monkeypatch.setattr(switching, "_min_cost_assignment", spy)
    return calls


def make_data(values) -> DataMatrix:
    return DataMatrix(np.asarray(values, dtype=float))


def gaussian_data(seed: int, n: int, scales) -> DataMatrix:
    rng = np.random.default_rng(seed)
    return make_data(rng.normal(size=(n, len(scales))) * np.asarray(scales))


def event_table(labels, rows, verified=None, delta=DEFAULT_NEAR_DELTA) -> EventTable:
    """A hand-built event table of ``(obs, pair low, approx_lo, approx_hi,
    kind)`` rows, in the order given, with ``verified`` as its verdict column
    and ``delta`` as its near-switch threshold."""
    obs, low, lo, hi, kinds = zip(*rows) if rows else ((),) * 5
    return EventTable(
        labels, np.array(obs, dtype=int), np.array(low, dtype=int),
        np.array(lo, dtype=float), np.array(hi, dtype=float),
        np.array([kind == KIND_SWITCH for kind in kinds], dtype=bool),
        None if verified is None else np.array(verified, dtype=bool), delta,
    )


@pytest.fixture
def centered_with_mean_row() -> tuple[DataMatrix, int]:
    """Data whose mean equals row 5 exactly (rows symmetric around it)."""
    c = np.array([1.0, -2.0, 0.5])
    v = np.array([2.0, 1.0, 0.0])
    w = np.array([-1.0, 3.0, 1.5])
    rows = [c + v, c - v, c + w, c - w, c]
    return make_data(rows), 5


@pytest.fixture(scope="session")
def planted_switch() -> tuple[DataMatrix, int]:
    """59 background rows plus one leverage point that switches pair (2,3)."""
    rng = np.random.default_rng(1)
    base = rng.normal(size=(59, 4)) @ np.diag([3.0, 0.9, 1.1, 0.3]) ** 0.5
    X = np.vstack([base, [0.0, 4.6, 0.0, 0.0]])
    return make_data(X), 60


@pytest.fixture(scope="session")
def planted_multipair() -> DataMatrix:
    """Leverage points that disrupt both the (2,3) and the (3,4) boundary."""
    rng = np.random.default_rng(23)
    base = rng.normal(size=(58, 5)) @ np.diag([5.0, 0.80, 0.85, 0.95, 0.10]) ** 0.5
    X = np.vstack([
        base,
        [0.0, 4.8, 0.0, 0.0, 0.0],
        [0.0, 0.0, 4.0, 0.0, 0.0],
    ])
    return make_data(X)


def axis_swap_data() -> tuple[DataMatrix, int]:
    """Axis-aligned points where removing the last row swaps the two axes.

    All points sit on a coordinate axis, so the two score columns are
    exactly orthogonal and the covariance is exactly diagonal before and
    after the removal.
    """
    rows = [
        [2.0, 0.0],
        [-2.0, 0.0],
        [0.0, 1.0],
        [0.0, -1.0],
        [0.0, 3.0],
    ]
    return make_data(rows), 5
