import math

import numpy as np
import pytest

from zfprob.ensembles import case_spec, random_triangular
from zfprob.errors import (
    DimensionMismatchError,
    InvalidGridError,
    IterationLimitExceededError,
    RankDeficientError,
    SingularDiagonalError,
    SingularMatrixError,
)
from zfprob.linalg import (
    check_upper_triangular,
    int_determinant,
    positive_triangular,
    unit_scale,
)
from zfprob.probability import pzf_diagonal, pzf_empirical, pzf_monte_carlo, pzf_quadrature
from zfprob.reduction import (
    LLLCheckReport,
    LLLParams,
    ReductionStats,
    _contract,
    _det_drift,
    _lovasz_holds,
    _swap_inplace,
    is_lll_reduced,
    lll_reduce,
    orthogonality_defect,
    size_reduce_entry,
    sqrd,
    vblast,
)
from zfprob.rng import RngSpec
from zfprob.tolerances import (
    LLL_CHECK_SLACK,
    QUADRATURE_MAX_DIM,
    REDUCTION_RECONSTRUCTION_TOL,
)

SQRT2 = math.sqrt(2.0)
R_4_9 = np.array([[4.0, 9.0], [0.0, 1.0]])
R_3X3 = np.array([[3.0, 1.5, 0.0], [0.0, 3.0, -1.51], [0.0, 0.0, 3.0]])
EYE2 = np.eye(2, dtype=np.int64)


def assert_is_permutation(z):
    z = np.asarray(z)
    assert np.all((z == 0) | (z == 1))
    assert np.all(z.sum(axis=0) == 1) and np.all(z.sum(axis=1) == 1)


def scalar_lll_check(r, delta):
    """is_lll_reduced's report, one entry at a time: size violations before
    pair ones, each in column-major order."""
    r, _ = unit_scale(positive_triangular(r)[0])
    n = r.shape[0]
    size = [(i, k) for k in range(1, n) for i in range(k)
            if abs(r[i, k]) > 0.5 * r[i, i] + LLL_CHECK_SLACK * r[i, i]]
    pair = []
    for k in range(1, n):
        a, b, c = r[k - 1, k - 1], r[k - 1, k], r[k, k]
        lhs = delta * (a * a)
        if lhs > b * b + c * c + LLL_CHECK_SLACK * lhs:
            pair.append((k - 1, k))
    return LLLCheckReport(size_ok=not size, lovasz_ok=not pair,
                          first_violation=(size + pair or [None])[0])


def column_order(result):
    """Original column index at each position of an ordering's output."""
    return tuple(int(c) for c in np.argmax(result.z, axis=0))


def ill_conditioned(index):
    """Triangular factor with pivots spread over 1e-10 .. 1e4; condition
    numbers reach 1e18 and beyond."""
    rng = np.random.default_rng([77, index])
    n = 4 + index % 5
    r = np.triu(rng.standard_normal((n, n)))
    np.fill_diagonal(r, 10.0 ** rng.uniform(-10, 4, size=n))
    return r


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

    def test_non_integer_transform_refused(self):
        # an int64 cast would truncate 0.5 to 0 and return a singular z
        with pytest.raises(DimensionMismatchError):
            size_reduce_entry(R_4_9, [[0.5, 0.0], [0.0, 1.0]], 0, 1)
        _, z, _ = size_reduce_entry(R_4_9, [[1.0, 0.0], [0.0, 1.0]], 0, 1)
        np.testing.assert_array_equal(z, [[1, -2], [0, 1]])


class TestLovaszHolds:
    def test_fails_on_size_reduced_spiky_matrix(self):
        assert not _lovasz_holds(np.array([[4.0, 1.0], [0.0, 1.0]]), 1, 0.75)

    def test_holds_on_balanced_matrix(self):
        r = np.array([[SQRT2, 0.0], [0.0, 2 * SQRT2]])
        assert _lovasz_holds(r, 1, 1.0)

    def test_identity_boundary_equality(self):
        assert _lovasz_holds(np.eye(3), 1, 1.0)
        assert _lovasz_holds(np.eye(3), 2, 1.0)


def swapped(r, z, q, k):
    """_swap_inplace on copies, returning (r, z, q); z goes in as its list
    of columns and comes back as an int64 array."""
    r = np.array(r, dtype=float)
    z = np.array(z, dtype=np.int64).T.tolist()
    q = np.array(q, dtype=float)
    _swap_inplace(r, z, q, k)
    return r, np.array(z, dtype=np.int64).T, q


class TestSwapAndRetriangularize:
    def test_balances_the_spiky_pair(self):
        r0 = np.array([[4.0, 1.0], [0.0, 1.0]])
        z0 = np.array([[1, -2], [0, 1]], dtype=np.int64)
        r, z, q = swapped(r0, z0, np.eye(2), 1)
        assert r[0, 0] == pytest.approx(SQRT2, rel=1e-15)
        assert r[1, 1] == pytest.approx(2 * SQRT2, rel=1e-15)
        assert r[1, 0] == 0.0
        assert abs(np.prod(np.diag(r))) == pytest.approx(4.0, rel=1e-14)
        np.testing.assert_allclose(q.T @ r0 @ np.array([[0, 1], [1, 0]]), r, atol=1e-14)
        # z carries the original transform's columns, swapped
        np.testing.assert_array_equal(z, [[-2, 1], [1, 0]])

    def test_diagonal_swap(self):
        r, z, q = swapped(np.diag([1.0, 3.0]), EYE2, np.eye(2), 1)
        np.testing.assert_allclose(np.diag(r), [3.0, 1.0], atol=1e-14)
        np.testing.assert_array_equal(z, [[0, 1], [1, 0]])

    def test_double_swap_is_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            r0 = np.triu(rng.standard_normal((n, n)))
            r0[np.diag_indices(n)] = 0.5 + np.abs(r0[np.diag_indices(n)])
            k = int(rng.integers(1, n))
            r1, z1, q1 = swapped(r0, np.eye(n, dtype=np.int64),
                                                  np.eye(n), k)
            r2, z2, q2 = swapped(r1, z1, q1, k)
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

    def test_iteration_cap(self, monkeypatch):
        # a cap of 0.25 * n**2 = 1 pass at n = 2
        monkeypatch.setattr("zfprob.reduction.MAX_ITERATIONS_PER_N2", 0.25)
        with pytest.raises(IterationLimitExceededError):
            lll_reduce(R_4_9, LLLParams(delta=0.75))

    def test_negative_diagonal_input_normalized(self):
        r = np.array([[2.0, 0.3], [0.0, -1.0]])
        result = lll_reduce(r)
        assert np.all(np.diag(result.r_bar) > 0)
        result.check(r)

    def test_params_validation(self):
        with pytest.raises(InvalidGridError):
            LLLParams(delta=0.25)
        with pytest.raises(InvalidGridError):
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

    @pytest.mark.parametrize("delta", [0.3, 0.75, 0.99, 1.0])
    def test_matches_a_scalar_loop(self, delta):
        # random factors, their LLL outputs, outputs with one planted
        # violation, an oversized entry or a pivot grown past the pair test,
        # and both tests' boundaries, passed only through the slack
        rng = np.random.default_rng(41)
        factors = [np.array([[1.0, 0.5 + 1e-14], [0.0, 1.0]]),
                   np.diag([1.0, math.sqrt(delta) * (1.0 - 1e-14)])]
        for i in range(60):
            r = random_triangular(case_spec(41, i), 1 + i % 9)
            factors += [r, lll_reduce(r, LLLParams(delta=delta)).r_bar]
            n = r.shape[0]
            if n > 1:
                planted = factors[-1].copy()
                k = int(rng.integers(1, n))
                if i % 2:
                    row = int(rng.integers(0, k))
                    planted[row, k] = 0.6 * planted[row, row]
                else:
                    planted[k - 1, k - 1] *= 3.0
                factors.append(planted)
        seen = set()
        for r in factors:
            expected = scalar_lll_check(r, delta)
            assert is_lll_reduced(r, delta) == expected
            seen.add((expected.size_ok, expected.lovasz_ok))
        assert seen == {(True, True), (False, True), (True, False), (False, False)}

    @pytest.mark.parametrize("delta", [0.25, 1.01])
    def test_refuses_delta_as_lll_reduce_does(self, delta):
        with pytest.raises(InvalidGridError, match="delta must lie in"):
            is_lll_reduced(R_4_9, delta)


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
            # q_bar carries the input's row flips, so check() holds against it
            signs = np.random.default_rng([92, i]).choice([-1.0, 1.0], r.shape[0])
            for strategy in (sqrd, vblast):
                for factor in (r, signs[:, None] * r):
                    result = strategy(factor)
                    assert_is_permutation(result.z)
                    result.check(factor)

    def test_vblast_pivots_match_distance_oracle(self):
        # filled last to first, each pivot is the largest distance of one
        # unplaced column to the span of the other unplaced ones
        for i in range(30):
            n = 2 + i % 5
            r = random_triangular(case_spec(96, i), n)
            result = vblast(r)
            order = column_order(result)
            for p in range(n - 1, -1, -1):
                unplaced = order[: p + 1]
                distances = []
                for c in unplaced:
                    others = r[:, [o for o in unplaced if o != c]]
                    coef = np.linalg.lstsq(others, r[:, c], rcond=None)[0]
                    distances.append(np.linalg.norm(r[:, c] - others @ coef))
                assert result.r_bar[p, p] == pytest.approx(max(distances), rel=1e-10)

    @pytest.mark.parametrize("strategy, index, exact", [
        # orders from 400-bit arithmetic; a single projection per pick gets
        # each of these wrong, and sqrd used to refuse factor 194
        (vblast, 63, (2, 1, 0, 3, 4, 6, 5)),
        (sqrd, 52, (3, 1, 0, 2, 4, 5)),
        (sqrd, 194, (0, 2, 1, 3, 4, 5, 6, 7)),
    ])
    def test_ill_conditioned_orders_match_exact_arithmetic(self, strategy, index, exact):
        assert column_order(strategy(ill_conditioned(index))) == exact

    @pytest.mark.parametrize("strategy", [sqrd, vblast])
    def test_reordered_factor_is_judged_by_the_gate(self, strategy):
        # the gate accepts this factor (pivot 1e-13 of the largest entry),
        # and so it accepts the reordered one, whose pivots are 0.3 and 1e-13 / 0.3
        r = np.array([[1.0, 0.3], [0.0, 1e-13]])
        result = strategy(r)
        result.check(r)
        assert column_order(result) == (1, 0)
        np.testing.assert_allclose(result.r_bar.diagonal(), [0.3, 1e-13 / 0.3], rtol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_vblast_on_dual_basis_of_wide_range(self):
        # bidiagonal with pivots 1e-8, whose exact order is the identity;
        # R^-1 has entries up to 1e8**n: their squares leave the float range
        # at n=30, and the entries themselves do at n=41
        def bidiagonal(n):
            return np.diag(np.full(n, 1e-8)) + np.diag(np.ones(n - 1), 1)

        assert column_order(vblast(bidiagonal(30))) == tuple(range(30))
        with pytest.raises(SingularMatrixError):
            vblast(bidiagonal(41))


SCALE_FREE_FACTORS = [np.diag([1.0005, 1.0]), np.diag([1.0, 1.0005]), R_4_9, R_3X3] + [
    random_triangular(case_spec(97, i), 2 + i % 5) for i in range(12)]


@pytest.mark.parametrize("c", [2.0 ** -30, 2.0 ** 30, 1e15, 2.0 ** 520])
def test_orderings_and_reduced_check_are_scale_free(c):
    for r in SCALE_FREE_FACTORS:
        for strategy in (sqrd, vblast):
            np.testing.assert_array_equal(strategy(c * r).z, strategy(r).z)
    # a relative gap of 5e-4 is no tie at any scale
    np.testing.assert_array_equal(sqrd(c * np.diag([1.0005, 1.0])).z, [[0, 1], [1, 0]])
    np.testing.assert_array_equal(vblast(c * np.diag([1.0, 1.0005])).z, EYE2)
    assert not is_lll_reduced(c * np.array([[1.0, 0.5001], [0.0, 1.0]])).size_ok
    assert not is_lll_reduced(c * np.diag([1.0, 0.5]), 0.75).lovasz_ok


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
        for scale in (2.0 ** -40, 2.0 ** 40, 2.0 ** 520):
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
        assert result.det_drift == 0.0
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
    assert _det_drift(r, bumped) == pytest.approx(1e-6, rel=1e-6)


@pytest.mark.filterwarnings("error")
def test_reduction_loop_and_checks_at_large_scale():
    # squared entries of 2**520 * R overflow; the pair test and the error
    # norms compare them in units of a power of two, so nothing changes
    c = 2.0 ** 520
    for r in [np.array([[4.0, 1.0], [0.0, 1.0]]), R_4_9, R_3X3] + [
            random_triangular(case_spec(98, i), 2 + i % 5) for i in range(8)]:
        at_one, at_c = lll_reduce(r), lll_reduce(c * r)
        assert at_c.stats == at_one.stats
        np.testing.assert_array_equal(at_c.z, at_one.z)
        assert is_lll_reduced(c * r) == is_lll_reduced(r)
        assert is_lll_reduced(at_c.r_bar) == is_lll_reduced(at_one.r_bar)
        err = at_c.reconstruction_error
        assert err == at_one.reconstruction_error
        assert math.isfinite(err) and err <= REDUCTION_RECONSTRUCTION_TOL
        at_c.check(c * r)
    assert lll_reduce(c * np.array([[4.0, 1.0], [0.0, 1.0]])).stats.swaps == 1


SCALE_FACTORS = [np.array([[4.0, 1.0], [0.0, 1.0]]), R_4_9, R_3X3] + [
    random_triangular(case_spec(98, i), 2 + i % 5) for i in range(8)]


def estimates(r, sigma):
    found = [pzf_diagonal(np.diag(np.diag(r)), sigma),
             pzf_monte_carlo(r, sigma, 1000, RngSpec(seed=3)),
             pzf_empirical(r, sigma, 1000, RngSpec(seed=3))]
    if r.shape[0] <= QUADRATURE_MAX_DIM:
        found.append(pzf_quadrature(r, sigma))
    return found


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [2.0 ** -600, 2.0 ** -40, 2.0 ** 40, 2.0 ** 520])
def test_every_entry_point_is_scale_equivariant(c):
    # c is a power of two, so c * R has R's mantissas; every entry point
    # normalizes by the power of two of the largest entry, and so sees
    # the same numbers at every scale
    for r in SCALE_FACTORS:
        for reduce in (lll_reduce, sqrd, vblast):
            at_one, at_c = reduce(r), reduce(c * r)
            assert at_c.stats == at_one.stats
            np.testing.assert_array_equal(at_c.z, at_one.z)
            np.testing.assert_array_equal(at_c.q_bar, at_one.q_bar)
            np.testing.assert_array_equal(at_c.r_bar, c * at_one.r_bar)
            assert at_c.reconstruction_error == at_one.reconstruction_error
            assert is_lll_reduced(at_c.r_bar) == is_lll_reduced(at_one.r_bar)
        assert is_lll_reduced(c * r) == is_lll_reduced(r)
        assert orthogonality_defect(c * r) == orthogonality_defect(r)
        assert estimates(c * r, c * 0.5) == estimates(r, 0.5)
    assert lll_reduce(c * np.array([[4.0, 1.0], [0.0, 1.0]])).stats.swaps == 1


def test_transform_refuses_to_leave_int64():
    # pivots 1e-13 clear the floor, but z[0, 2] would be about 2.6e25
    r = np.array([[1e-13, 0.37, 0.0], [0.0, 1e-13, 0.71], [0.0, 0.0, 1.0]])
    with pytest.raises(SingularMatrixError, match="int64"):
        lll_reduce(r)
    # mu = 2: -2 * 2**62 leaves the range, while 2**62 - 2 * 2**61 does not
    with pytest.raises(SingularMatrixError, match="int64"):
        size_reduce_entry(R_4_9, [[2 ** 62, 0], [0, 1]], 0, 1)
    _, z, applied = size_reduce_entry(R_4_9, [[2 ** 61, 2 ** 62], [0, 1]], 0, 1)
    assert applied
    np.testing.assert_array_equal(z, [[2 ** 61, 0], [0, 1]])


@pytest.mark.filterwarnings("error")
def test_empty_factor_has_zero_reconstruction_error():
    empty = np.zeros((0, 0))
    for reduce in (lll_reduce, sqrd, vblast):
        result = reduce(empty)
        assert result.reconstruction_error == 0.0 and result.det_drift == 0.0
        result.check(empty)


def test_every_returned_result_passes_its_contract():
    # the float loop loses z on some of these factors (pivots 1e-10 .. 1e4);
    # a result it cannot stand behind is refused by the name of the failed test
    contract_refusals = {lll_reduce: 0, sqrd: 0, vblast: 0}
    for i in range(500):
        r = ill_conditioned(i)
        for reduce in contract_refusals:
            try:
                result = reduce(r)
            except SingularMatrixError as exc:
                if str(exc).startswith(("reconstruction error", "determinant drift")):
                    contract_refusals[reduce] += 1
                    assert type(exc) is SingularMatrixError
                else:  # the pivot gate, the int64 boundary
                    assert isinstance(exc, SingularDiagonalError) or "int64" in str(exc)
                continue
            except RankDeficientError:  # the gate, on sqrd's reordered factor
                assert reduce is sqrd
                continue
            result.check(r)
            positive_triangular(result.r_bar)
            assert _contract(r, check_upper_triangular(r), result.r_bar, result.z,
                             result.q_bar) == (result.reconstruction_error, result.det_drift)
    # here the loop loses z on 161 factors; sqrd's reordered factor fails the
    # gate on 44 and its factorization drifts on 30, and vblast returns all
    # 499 factors the gate lets in
    assert contract_refusals[lll_reduce] > 0 and contract_refusals[sqrd] > 0
    assert contract_refusals[vblast] == 0


def test_sampler_reorders_through_the_contract():
    # the sampler's reordered factor drifts by 2e-9 here; it is refused as
    # sqrd and vblast refuse theirs
    with pytest.raises(SingularMatrixError, match="^determinant drift .* exceeds 1e-09$"):
        pzf_monte_carlo(ill_conditioned(176), 0.3, 2000, RngSpec(seed=1))


@pytest.mark.parametrize("reduce, index, failed", [
    (lll_reduce, 0, "reconstruction error"),
    (sqrd, 13, "determinant drift"),
])
def test_refusal_names_the_failed_test(reduce, index, failed):
    with pytest.raises(SingularMatrixError, match=f"^{failed} .* exceeds 1e-09$"):
        reduce(ill_conditioned(index))


@pytest.mark.parametrize("reduce", [lll_reduce, sqrd, vblast])
def test_fields_are_what_check_measures(reduce):
    for i in range(10):
        r = random_triangular(case_spec(99, i), 2 + i % 4)
        flipped = np.where(np.arange(r.shape[0]) % 2, -1.0, 1.0)[:, None] * r
        for factor in (r, flipped):
            result = reduce(factor)
            result.check(factor)
            assert _contract(factor, check_upper_triangular(factor), result.r_bar, result.z,
                             result.q_bar) == (result.reconstruction_error, result.det_drift)
