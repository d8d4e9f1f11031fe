import math

import numpy as np
import pytest

from zfprob.ensembles import case_spec, random_triangular
from zfprob.errors import (
    DimensionMismatchError,
    IterationLimitExceededError,
    SingularDiagonalError,
    SingularMatrixError,
)
from zfprob.linalg import int_determinant, qr_factorize
from zfprob.reduction import (
    LLLParams,
    ReductionResult,
    ReductionStats,
    is_lll_reduced,
    lll_reduce,
    lovasz_holds,
    orthogonality_defect,
    size_reduce_entry,
    sqrd,
    swap_and_retriangularize,
    vblast,
)

SQRT2 = math.sqrt(2.0)
R_4_9 = np.array([[4.0, 9.0], [0.0, 1.0]])
R_3X3 = np.array([[3.0, 1.5, 0.0], [0.0, 3.0, -1.51], [0.0, 0.0, 3.0]])
EYE2 = np.eye(2, dtype=np.int64)


def assert_is_permutation(z):
    z = np.asarray(z)
    assert np.all((z == 0) | (z == 1))
    assert np.all(z.sum(axis=0) == 1) and np.all(z.sum(axis=1) == 1)


class TestSizeReduceEntry:
    def test_large_multiplier(self):
        r, z, applied = size_reduce_entry(R_4_9, EYE2, 0, 1)
        assert applied
        np.testing.assert_allclose(r, [[4.0, 1.0], [0.0, 1.0]])
        np.testing.assert_array_equal(z, [[1, -2], [0, 1]])

    def test_three_by_three_middle_entry(self):
        z0 = np.eye(3, dtype=np.int64)
        r, z, applied = size_reduce_entry(R_3X3, z0, 1, 2)
        assert applied
        assert r[1, 2] == pytest.approx(1.49, abs=0)
        assert r[0, 2] == pytest.approx(1.5, abs=0)
        assert z[1, 2] == 1

    def test_noop_when_already_small(self):
        r0 = np.array([[2.0, 1.0], [0.0, 2.0]])
        r, z, applied = size_reduce_entry(r0, EYE2, 0, 1)
        assert not applied
        np.testing.assert_array_equal(r, r0)
        np.testing.assert_array_equal(z, EYE2)

    def test_lower_rows_untouched(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            r0 = np.triu(rng.standard_normal((4, 4)))
            r0[np.diag_indices(4)] = 1.0 + np.abs(r0[np.diag_indices(4)])
            i, k = sorted(rng.choice(4, size=2, replace=False))
            r, _, _ = size_reduce_entry(r0, np.eye(4, dtype=np.int64), i, k)
            np.testing.assert_array_equal(r[i + 1:, k], r0[i + 1:, k])
            assert abs(r[i, k]) <= 0.5 * abs(r[i, i]) + 1e-12

    def test_zero_pivot_raises(self):
        bad = np.array([[0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(SingularDiagonalError):
            size_reduce_entry(bad, EYE2, 0, 1)

    def test_bad_indices_raise(self):
        with pytest.raises(DimensionMismatchError):
            size_reduce_entry(R_4_9, EYE2, 1, 1)


class TestLovaszHolds:
    def test_fails_on_size_reduced_spiky_matrix(self):
        assert not lovasz_holds(np.array([[4.0, 1.0], [0.0, 1.0]]), 1, 0.75)

    def test_holds_on_balanced_matrix(self):
        r = np.array([[SQRT2, 0.0], [0.0, 2 * SQRT2]])
        assert lovasz_holds(r, 1, 1.0)

    def test_identity_boundary_equality(self):
        assert lovasz_holds(np.eye(3), 1, 1.0)
        assert lovasz_holds(np.eye(3), 2, 1.0)

    def test_index_range(self):
        with pytest.raises(DimensionMismatchError):
            lovasz_holds(np.eye(2), 0, 0.75)


class TestSwapAndRetriangularize:
    def test_balances_the_spiky_pair(self):
        r0 = np.array([[4.0, 1.0], [0.0, 1.0]])
        z0 = np.array([[1, -2], [0, 1]], dtype=np.int64)
        r, z, q = swap_and_retriangularize(r0, z0, np.eye(2), 1)
        assert r[0, 0] == pytest.approx(SQRT2, rel=1e-15)
        assert r[1, 1] == pytest.approx(2 * SQRT2, rel=1e-15)
        assert r[1, 0] == 0.0
        assert abs(np.prod(np.diag(r))) == pytest.approx(4.0, rel=1e-14)
        np.testing.assert_allclose(q.T @ r0 @ np.array([[0, 1], [1, 0]]), r, atol=1e-14)
        # z carries the original transform's columns, swapped
        np.testing.assert_array_equal(z, [[-2, 1], [1, 0]])

    def test_diagonal_swap(self):
        r, z, q = swap_and_retriangularize(np.diag([1.0, 3.0]), EYE2, np.eye(2), 1)
        np.testing.assert_allclose(np.diag(r), [3.0, 1.0], atol=1e-14)
        np.testing.assert_array_equal(z, [[0, 1], [1, 0]])

    def test_double_swap_is_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            r0 = np.triu(rng.standard_normal((n, n)))
            r0[np.diag_indices(n)] = 0.5 + np.abs(r0[np.diag_indices(n)])
            k = int(rng.integers(1, n))
            r1, z1, q1 = swap_and_retriangularize(r0, np.eye(n, dtype=np.int64),
                                                  np.eye(n), k)
            r2, z2, q2 = swap_and_retriangularize(r1, z1, q1, k)
            np.testing.assert_allclose(r2, r0, atol=1e-10)
            np.testing.assert_array_equal(z2, np.eye(n, dtype=np.int64))
            np.testing.assert_allclose(q2, np.eye(n), atol=1e-10)


class TestLLLReduce:
    def test_balances_spiky_2x2(self):
        result = lll_reduce(R_4_9, LLLParams(delta=0.75))
        np.testing.assert_allclose(result.r_bar, [[SQRT2, 0.0], [0.0, 2 * SQRT2]],
                                   atol=1e-9)
        result.check(R_4_9)
        assert result.stats.swaps == 1
        assert result.stats.size_reductions == 2
        assert int_determinant(result.z) in (-1, 1)

    def test_three_by_three_size_reduction_only(self):
        result = lll_reduce(R_3X3, LLLParams(delta=0.75))
        expected = np.array([[3.0, 1.5, 1.5], [0.0, 3.0, 1.49], [0.0, 0.0, 3.0]])
        np.testing.assert_allclose(result.r_bar, expected, atol=1e-12)
        z_expected = np.eye(3, dtype=np.int64)
        z_expected[1, 2] = 1
        np.testing.assert_array_equal(result.z, z_expected)
        assert result.stats.swaps == 0
        result.check(R_3X3)

    def test_outcome_is_delta_independent_here(self):
        baseline = lll_reduce(R_3X3, LLLParams(delta=0.75)).r_bar
        for delta in (0.3, 1.0):
            np.testing.assert_allclose(lll_reduce(R_3X3, LLLParams(delta=delta)).r_bar,
                                       baseline, atol=1e-12)
        two = lll_reduce(R_4_9, LLLParams(delta=0.75)).r_bar
        for delta in (0.3, 1.0):
            np.testing.assert_allclose(lll_reduce(R_4_9, LLLParams(delta=delta)).r_bar,
                                       two, atol=1e-12)

    def test_identity_is_a_fixed_point_with_zero_stats(self):
        result = lll_reduce(np.eye(4))
        np.testing.assert_array_equal(result.r_bar, np.eye(4))
        np.testing.assert_array_equal(result.z, np.eye(4, dtype=np.int64))
        assert result.stats == ReductionStats(0, 0, 0)

    def test_idempotent_on_own_output(self):
        for i in range(30):
            r = random_triangular(case_spec(90, i), 2 + i % 3)
            once = lll_reduce(r)
            twice = lll_reduce(once.r_bar)
            assert twice.stats.size_reductions == 0
            assert twice.stats.swaps == 0

    def test_output_passes_checker_at_same_delta(self):
        for i in range(40):
            delta = (0.3, 0.75, 0.99, 1.0)[i % 4]
            r = random_triangular(case_spec(91, i), 2 + i % 3)
            result = lll_reduce(r, LLLParams(delta=delta))
            report = is_lll_reduced(result.r_bar, delta)
            assert report.is_reduced, (i, delta, report)
            result.check(r)

    def test_iteration_cap(self):
        with pytest.raises(IterationLimitExceededError):
            lll_reduce(R_4_9, LLLParams(delta=0.75, max_iterations=1))

    def test_negative_diagonal_input_normalized(self):
        r = np.array([[2.0, 0.3], [0.0, -1.0]])
        result = lll_reduce(r)
        assert np.all(np.diag(result.r_bar) > 0)
        result.check(r)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            LLLParams(delta=0.25)
        with pytest.raises(ValueError):
            LLLParams(delta=1.01)
        LLLParams(delta=1.0)


class TestIsLLLReduced:
    def test_flags_oversized_entry(self):
        report = is_lll_reduced(R_4_9, 0.75)
        assert not report.size_ok
        assert report.first_violation == (0, 1)

    def test_accepts_balanced_matrix(self):
        report = is_lll_reduced(np.array([[SQRT2, 0.0], [0.0, 2 * SQRT2]]), 1.0)
        assert report.size_ok and report.lovasz_ok and report.is_reduced

    def test_boundary_half_entry_allowed(self):
        r = np.array([[3.0, 1.5, 1.5], [0.0, 3.0, 1.49], [0.0, 0.0, 3.0]])
        report = is_lll_reduced(r, 1.0)
        assert report.size_ok and report.lovasz_ok

    def test_lovasz_violation_reported(self):
        r = np.array([[4.0, 1.0], [0.0, 1.0]])
        report = is_lll_reduced(r, 0.75)
        assert report.size_ok and not report.lovasz_ok
        assert report.first_violation == (0, 1)


class TestOrderings:
    def test_sqrd_moves_short_column_first(self):
        result = sqrd(np.diag([3.0, 1.0]))
        np.testing.assert_array_equal(result.z, [[0, 1], [1, 0]])
        np.testing.assert_allclose(np.diag(result.r_bar), [1.0, 3.0], atol=1e-14)
        assert result.stats.swaps == 1

    def test_sqrd_keeps_sorted_input(self):
        result = sqrd(np.diag([1.0, 3.0]))
        np.testing.assert_array_equal(result.z, EYE2)
        assert result.stats.swaps == 0

    def test_sqrd_on_spiky_matrix(self):
        # column norms 4 vs sqrt(82): the first column already minimizes
        result = sqrd(R_4_9)
        np.testing.assert_array_equal(result.z, EYE2)

    def test_vblast_keeps_large_pivot_last(self):
        result = vblast(np.diag([1.0, 3.0]))
        np.testing.assert_array_equal(result.z, EYE2)

    def test_vblast_swaps_when_large_pivot_first(self):
        result = vblast(np.diag([3.0, 1.0]))
        np.testing.assert_array_equal(result.z, [[0, 1], [1, 0]])
        assert np.diag(result.r_bar)[1] == pytest.approx(3.0)

    def test_vblast_on_spiky_matrix(self):
        # candidate last pivots are 1 (keep) vs 4/sqrt(82) (swap); keep wins
        result = vblast(R_4_9)
        np.testing.assert_array_equal(result.z, EYE2)

    def test_orderings_always_permutations(self):
        for i in range(40):
            r = random_triangular(case_spec(92, i), 2 + i % 4)
            for strategy in (sqrd, vblast):
                result = strategy(r)
                assert_is_permutation(result.z)
                result.check(r)

    def test_sqrd_accepts_rectangular_input(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 3))
        result = sqrd(a)
        assert_is_permutation(result.z)
        result.check(qr_factorize(a).r)


class TestOrthogonalityDefect:
    def test_identity(self):
        assert orthogonality_defect(np.eye(4)) == pytest.approx(1.0)

    def test_spiky_matrix(self):
        assert orthogonality_defect(R_4_9) == pytest.approx(math.sqrt(82.0), rel=1e-12)

    def test_at_least_one(self):
        for i in range(25):
            r = random_triangular(case_spec(93, i), 3)
            assert orthogonality_defect(r) >= 1.0 - 1e-12

    def test_permutations_preserve_defect(self):
        for i in range(25):
            r = random_triangular(case_spec(94, i), 2 + i % 3)
            base = orthogonality_defect(r)
            for strategy in (sqrd, vblast):
                reordered = strategy(r).r_bar
                assert abs(orthogonality_defect(reordered) - base) <= 1e-9 * max(base, 1.0)

    def test_power_of_two_scaling_is_exact_at_n48(self):
        # the raw pivot products of these inputs over- and underflow
        r = random_triangular(case_spec(95, 0), 48)
        base = orthogonality_defect(r)
        assert math.isfinite(base)
        for scale in (2.0 ** -40, 2.0 ** 40):
            assert orthogonality_defect(scale * r) == base

    def test_orthogonal_factor_with_underflowing_pivot_product(self):
        # every pivot clears the floor, but their raw product underflows
        assert orthogonality_defect(np.diag([1.0] + [1e-13] * 30)) == 1.0

    @pytest.mark.parametrize("corner", [2.0 ** 21, 2.0 ** 22])
    def test_wide_dynamic_range_at_n48(self, corner):
        # one large entry over unit pivots: nothing is out of range
        r = np.eye(48)
        r[0, 47] = corner
        assert orthogonality_defect(r) == math.sqrt(1.0 + corner ** 2)
        result = lll_reduce(r)
        assert result.det_drift(r) == 0.0
        result.check(r)

    def test_overflowing_defect_refused(self):
        r = np.diag([1.0] + [1e-13] * 39)
        r[0, :] = 1.0
        with pytest.raises(SingularMatrixError) as raised:
            orthogonality_defect(r)
        assert type(raised.value) is SingularMatrixError


def test_det_drift_on_scaled_factor():
    r = 1e-8 * random_triangular(case_spec(95, 0), 48)
    bumped = r.copy()
    bumped[0, 0] *= 1.0 + 1e-6
    result = ReductionResult(r_bar=bumped, z=np.eye(48, dtype=np.int64), q_bar=np.eye(48),
                             stats=ReductionStats())
    assert result.det_drift(r) == pytest.approx(1e-6, rel=1e-6)
