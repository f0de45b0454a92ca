import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tourval import (
    CR_LIMIT,
    RANDOM_INDEX,
    derive_weights,
    validate_pairwise,
    validate_weights,
)
from tourval import datasets
from tourval.errors import NumericError

# judgement matrix with circular preferences (A>B, B>C, C>A)
CIRCULAR_3X3 = [[1.0, 2.0, 0.5], [0.5, 1.0, 4.0], [2.0, 0.25, 1.0]]


def consistent_matrix(weights):
    w = np.asarray(weights, dtype=float)
    return w[:, None] / w[None, :]


class TestValidatePairwise:
    def test_accepts_reciprocal(self):
        got = validate_pairwise([[1.0, 2.0], [0.5, 1.0]])
        assert got.shape == (2, 2)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            validate_pairwise([[1.0, 2.0, 3.0], [0.5, 1.0, 2.0]])

    def test_rejects_too_small_and_too_large(self):
        with pytest.raises(ValueError):
            validate_pairwise([[1.0]])
        n = 16
        big = consistent_matrix(np.ones(n))
        with pytest.raises(ValueError):
            validate_pairwise(big)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            validate_pairwise([[1.0, -2.0], [-0.5, 1.0]])
        with pytest.raises(ValueError):
            validate_pairwise([[1.0, 0.0], [2.0, 1.0]])

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ValueError):
            validate_pairwise([[2.0, 2.0], [0.5, 1.0]])

    def test_rejects_broken_reciprocity(self):
        with pytest.raises(ValueError):
            validate_pairwise([[1.0, 2.0], [0.4, 1.0]])

    def test_tolerates_decimal_rendering(self):
        # 1/3 rendered with limited precision must still validate
        matrix = [[1.0, 3.0], [0.333333333, 1.0]]
        validate_pairwise(matrix)


class TestDeriveWeights:
    def test_two_by_two(self):
        report = derive_weights(validate_pairwise([[1.0, 3.0], [1 / 3, 1.0]]))
        assert report.weights == pytest.approx((0.75, 0.25), abs=1e-10)
        assert report.consistency_ratio == 0.0

    def test_known_three_by_three(self):
        matrix = consistent_matrix([0.6, 0.3, 0.1])
        report = derive_weights(validate_pairwise(matrix))
        assert report.weights == pytest.approx((0.6, 0.3, 0.1), abs=1e-8)
        assert report.lambda_max == pytest.approx(3.0, abs=1e-8)
        assert not report.inconsistent

    def test_weights_sum_to_one(self):
        report = derive_weights(validate_pairwise(CIRCULAR_3X3))
        assert sum(report.weights) == pytest.approx(1.0, abs=1e-12)

    def test_circular_judgements_flagged(self):
        report = derive_weights(validate_pairwise(CIRCULAR_3X3))
        assert report.lambda_max == pytest.approx(3.9167, abs=2e-3)
        assert report.consistency_ratio == pytest.approx(0.7903, abs=2e-3)
        assert report.inconsistent
        assert report.consistency_ratio > CR_LIMIT

    def test_iteration_budget_enforced(self):
        with pytest.raises(NumericError):
            derive_weights(validate_pairwise(CIRCULAR_3X3), max_iter=1)

    @given(st.integers(2, 10), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_recovers_generating_weights(self, n, seed):
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(n))
        w = np.clip(w, 1e-3, None)
        w = w / w.sum()
        report = derive_weights(validate_pairwise(consistent_matrix(w)))
        assert report.weights == pytest.approx(tuple(w), abs=1e-8)
        assert report.consistency_ratio == pytest.approx(0.0, abs=1e-6)


class TestRandomIndex:
    def test_classic_values(self):
        assert RANDOM_INDEX[1] == 0.0
        assert RANDOM_INDEX[2] == 0.0
        assert RANDOM_INDEX[3] == 0.58
        assert RANDOM_INDEX[9] == 1.45

    def test_covers_supported_orders(self):
        assert set(RANDOM_INDEX) == set(range(1, 16))


class TestValidateWeights:
    def test_published_column_within_loose_tolerance(self):
        weights = datasets.santiago_catalogue().weights
        assert validate_weights(weights, tolerance=0.01).ok

    def test_published_column_fails_tight_tolerance(self):
        weights = datasets.santiago_catalogue().weights
        check = validate_weights(weights, tolerance=0.001)
        assert not check.ok
        assert "0.998" in check.detail

    def test_out_of_unit_entries_reported(self):
        check = validate_weights([0.5, 1.2, -0.7])
        assert not check.ok
        assert "weights outside [0, 1] at indices [1, 2]" in check.detail

    def test_exact_sum_passes(self):
        assert validate_weights([0.25, 0.25, 0.5]).ok
