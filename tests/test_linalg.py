import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zfprob.decode import ILSInstance, lift_estimate, zf_decode
from zfprob.ensembles import case_spec, random_triangular
from zfprob.errors import (
    DimensionMismatchError,
    NotDiagonalError,
    RankDeficientError,
    SingularDiagonalError,
    SingularMatrixError,
)
from zfprob.linalg import (
    check_upper_triangular,
    int_determinant,
    positive_triangular,
    qr_factorize,
    round_nearest,
)
from zfprob.probability import pzf_diagonal, pzf_empirical, pzf_monte_carlo, pzf_quadrature
from zfprob.reduction import (
    is_lll_reduced,
    lll_reduce,
    orthogonality_defect,
    size_reduce_entry,
    sqrd,
    vblast,
)
from zfprob.rng import RngSpec
from zfprob.tolerances import ORTHONORMALITY_TOL, QR_RECONSTRUCTION_TOL


class TestQRFactorize:
    def test_already_triangular_input(self):
        a = np.array([[4.0, 9.0], [0.0, 1.0]])
        f = qr_factorize(a)
        np.testing.assert_allclose(f.q1, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(f.r, a, atol=1e-14)

    def test_orthonormal_input_gets_identity_r(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        f = qr_factorize(a)
        np.testing.assert_allclose(f.r, np.eye(2), atol=1e-14)
        assert np.linalg.det(f.q1) != 0
        np.testing.assert_allclose(np.abs(f.q1), np.array([[0, 1], [1, 0]]), atol=1e-14)

    def test_random_rectangular_reconstruction(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 3))
        f = qr_factorize(a)
        assert np.linalg.norm(f.q1.T @ f.q1 - np.eye(3)) <= ORTHONORMALITY_TOL
        rel = np.linalg.norm(f.q1 @ f.r - a) / np.linalg.norm(a)
        assert rel <= QR_RECONSTRUCTION_TOL

    def test_positive_diagonal_always(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            a = rng.standard_normal((4, 4))
            f = qr_factorize(a)
            assert np.all(np.diag(f.r) > 0)

    def test_rank_deficient_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(RankDeficientError):
            qr_factorize(a)

    def test_wide_matrix_raises(self):
        with pytest.raises(DimensionMismatchError):
            qr_factorize(np.ones((2, 3)))

    @pytest.mark.filterwarnings("error")
    def test_large_scale_rank_test_does_not_overflow(self):
        # the squared column norms of 2^520 I leave the float range
        big = 2.0**520
        np.testing.assert_array_equal(qr_factorize(big * np.eye(3)).r, big * np.eye(3))
        np.testing.assert_array_equal(sqrd(big * np.eye(3)).z, np.eye(3))
        with pytest.raises(RankDeficientError):
            qr_factorize(big * np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]))


class TestRoundNearest:
    def test_half_ties_go_to_smaller_magnitude(self):
        assert [round_nearest(x) for x in (0.5, -0.5)] == [0, 0]
        assert [round_nearest(x) for x in (1.5, -1.5, 2.5)] == [1, -1, 2]

    def test_unambiguous_cases(self):
        assert [round_nearest(x) for x in (1.49, -1.51)] == [1, -2]

    def test_zf_coordinate_from_decode_example(self):
        assert round_nearest(-1.5031) == -2

    def test_scalar_returns_python_int(self):
        out = round_nearest(2.4)
        assert isinstance(out, int) and out == 2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            round_nearest(float("nan"))

    def test_refuses_magnitudes_beyond_int64(self):
        # a plain int64 cast turns these into -2**63 with only a RuntimeWarning
        for x in (1e19, -1e19, 2.0 ** 63, -(2.0 ** 63)):
            with pytest.raises(ValueError):
                round_nearest(x)
            with pytest.raises(ValueError):
                round_nearest(np.float64(x))
        with pytest.raises(SingularDiagonalError):
            lll_reduce([[1e-3, 1e17], [0.0, 1.0]])

    def test_return_types(self):
        for x in (2.4, np.float64(-2.6), 3, np.int64(-3), np.float32(0.5)):
            assert type(round_nearest(x)) is int

    @given(st.floats(min_value=-(2.0 ** 63 - 1024), max_value=2.0 ** 63 - 1024,
                     allow_nan=False))
    @example(0.5)
    @example(-0.5)
    @example(1.5)
    @example(-1.5)
    @example(-0.0)
    @example(2.0 ** 52 - 0.5)
    @example(2.0 ** 52 + 0.5)
    @example(-(2.0 ** 52 - 0.5))
    @example(2.0 ** 52 + 1)  # |x| - 0.5 is inexact here: ceil(|x| - 0.5) gives 2**52
    @example(2.0 ** 63 - 1024)
    @example(-(2.0 ** 63 - 1024))
    @settings(max_examples=300)
    def test_equals_exact_reference(self, x):
        # exact reference: floor of |x| plus one when the fraction passes 1/2
        a = Fraction(abs(x))
        exact = math.floor(a) + (a - math.floor(a) > Fraction(1, 2))
        exact = -exact if x < 0 else exact
        for v in (x, np.float64(x)):
            assert round_nearest(v) == exact
        whole = int(x)
        for v in (whole, np.int64(whole)):
            assert round_nearest(v) == whole

    @given(st.floats(min_value=-1e6, max_value=1e6),
           st.integers(min_value=-1000, max_value=1000))
    @settings(max_examples=200)
    def test_integer_shift_equivariance(self, x, k):
        # the tie rule breaks shift equivariance exactly on half-integers,
        # so stay away from them
        frac = abs(x - math.floor(x) - 0.5)
        if frac < 1e-6 or abs(x) + abs(k) > 1e8:
            return
        assert round_nearest(x + k) == round_nearest(x) + k


class TestIntDeterminant:
    def test_small_known_values(self):
        assert int_determinant(np.eye(3, dtype=np.int64)) == 1
        assert int_determinant(np.array([[0, 1], [1, 0]])) == -1
        assert int_determinant(np.array([[2, 0], [0, 3]])) == 6
        assert int_determinant(np.array([[1, 2], [2, 4]])) == 0

    def test_unimodular_product_stays_exact(self):
        # a long product of elementary integer column operations has
        # det +-1 by construction even when entries grow large
        rng = np.random.default_rng(5)
        z = np.eye(6, dtype=object)
        for _ in range(60):
            i, j = rng.choice(6, size=2, replace=False)
            mu = int(rng.integers(-3, 4))
            z[:, j] = z[:, j] + mu * z[:, i]
        z = np.array([[int(v) for v in row] for row in z])
        assert int_determinant(z) in (-1, 1)

    def test_matches_permutation_parity(self):
        perm = [2, 0, 1, 3]
        p = np.zeros((4, 4), dtype=np.int64)
        for col, row in enumerate(perm):
            p[row, col] = 1
        assert int_determinant(p) == 1  # 3-cycle, even parity


def _lll_edge(v):
    # no swaps; exact size reductions mu_01 = 2**31, mu_12 = +-2**32 and
    # mu_02 = s * 2**63 - v leave z[0, 2] = mu_12 * mu_01 - mu_02 = v
    s = 1 if v > 0 else -1
    r = [[1.0, 2.0 ** 31, float(s * 2 ** 63 - v)], [0.0, 1.0, s * 2.0 ** 32], [0.0, 0.0, 1.0]]
    return lll_reduce(r).z


def _size_reduce_edge(v):
    # mu = 2 on [[4, 9], [0, 1]]: z[0, 1] = b - 2 a, from int64 inputs a and b
    s = 1 if v > 0 else -1
    return size_reduce_entry([[4.0, 9.0], [0.0, 1.0]], [[-s, v - 2 * s], [0, 1]], 0, 1)[1]


def _lift_edge(v):
    s = 1 if v > 0 else -1
    return lift_estimate([[1, s * 2 ** 62], [0, 1]], [v - s * 2 ** 62, 1])


# integer result -> how to make one whose largest entry is exactly v
INT64_EDGES = {"lll_reduce": _lll_edge, "size_reduce_entry": _size_reduce_edge,
               "lift_estimate": _lift_edge}


@pytest.mark.parametrize("v", [2 ** 63 - 1, 2 ** 63, -2 ** 63], ids=["2^63-1", "2^63", "-2^63"])
@pytest.mark.parametrize("entry", sorted(INT64_EDGES))
def test_integer_results_share_one_symmetric_int64_boundary(entry, v):
    if abs(v) < 2 ** 63:
        got = INT64_EDGES[entry](v)
        assert got.dtype == np.int64 and v in got.ravel().tolist()
    else:
        with pytest.raises(SingularMatrixError, match="int64"):
            INT64_EDGES[entry](v)


def test_check_upper_triangular_flags_entry():
    with pytest.raises(DimensionMismatchError):
        check_upper_triangular(np.array([[1.0, 0.0], [0.5, 1.0]]))
    out = check_upper_triangular(np.array([[1.0, 2.0], [1e-14, 1.0]]))
    assert out[1, 0] == 0.0


@pytest.mark.parametrize("c", [2.0**-40, 1.0, 2.0**40], ids=["2^-40", "1", "2^40"])
def test_structure_tests_do_not_depend_on_scale(c):
    with pytest.raises(DimensionMismatchError):
        pzf_quadrature(c * np.array([[1.0, 0.0], [0.5, 1.0]]), 0.5 * c)
    with pytest.raises(NotDiagonalError):
        pzf_diagonal(c * np.array([[1.0, 0.005], [0.0, 1.0]]), 0.5 * c)
    # diagonal to a relative 1e-19; c is a power of two, so the value is exact
    got = pzf_diagonal(c * np.array([[1.0, 1e-19], [0.0, 1.0]]), 0.5 * c)
    assert got.value == pzf_diagonal(np.eye(2), 0.5).value


def test_pivot_floor_is_relative():
    # a perfectly conditioned factor passes at any scale
    np.testing.assert_array_equal(positive_triangular(1e-15 * np.eye(2))[0], 1e-15 * np.eye(2))
    big = random_triangular(case_spec(95, 0), 48)
    assert orthogonality_defect(2.0 ** -50 * big) == orthogonality_defect(big)
    # a pivot 1e-16 of the largest entry is refused at every scale, also by
    # the checker of reduced form
    for c in (1e-20, 1.0, 1e20):
        for call in (positive_triangular, is_lll_reduced, lll_reduce, orthogonality_defect):
            with pytest.raises(SingularDiagonalError):
                call(c * np.array([[1e-13, 1e3], [0.0, 1.0]]))


def _reduced(reduce):
    def call(r):
        result = reduce(r)
        result.check(r)  # q_bar carries any row flips, so this holds against the input
        return result.r_bar, result.z
    return call


def _estimate(estimator, *args):
    return lambda r: (estimator(r, 0.5, *args).value,)


FACTOR = np.array([[2.0, 1.3], [0.0, 0.5]])
DIAGONAL = np.diag([2.0, 0.5])

# every entry point that takes its factor through positive_triangular:
# name -> (a valid factor, a call whose outputs must not change when the
# factor's rows are sign-flipped)
GATED = {
    "positive_triangular": (FACTOR, lambda r: positive_triangular(r)[:1]),
    "is_lll_reduced": (FACTOR, lambda r: astuple(is_lll_reduced(r))),
    "lll_reduce": (FACTOR, _reduced(lll_reduce)),
    "sqrd": (FACTOR, _reduced(sqrd)),
    "vblast": (FACTOR, _reduced(vblast)),
    "orthogonality_defect": (FACTOR, lambda r: (orthogonality_defect(r),)),
    "pzf_quadrature": (FACTOR, _estimate(pzf_quadrature)),
    "pzf_monte_carlo": (FACTOR, _estimate(pzf_monte_carlo, 1000, RngSpec(seed=3))),
    "pzf_empirical": (FACTOR, _estimate(pzf_empirical, 1000, RngSpec(seed=3))),
    "pzf_diagonal": (DIAGONAL, _estimate(pzf_diagonal)),
    "ILSInstance": (FACTOR, lambda r: (zf_decode(ILSInstance(r=r, y_tilde=[0.3, -0.2],
                                                              sigma=1.0)).estimate,)),
}


def _set(i, j, value):
    def corrupt(r):
        r = r.copy()
        r[i, j] = value
        return r
    return corrupt


# corrupted input -> (how to make it from a valid factor, the error every
# gated entry point raises, or None for "same outputs as the valid factor")
REFUSALS = {
    "negative pivot": (lambda r: np.array([[1.0], [-1.0]]) * r, None),
    "pivot 1e-15": (_set(1, 1, 1e-15), SingularDiagonalError),
    "below-diagonal entry": (_set(1, 0, 0.5), DimensionMismatchError),
    "non-square": (lambda r: np.hstack([r, [[0.0], [1.0]]]), DimensionMismatchError),
    "non-finite": (_set(0, 1, math.nan), DimensionMismatchError),
}
EXCEPTIONS = {
    # y_tilde would have to flip with R's rows, so the instance refuses instead
    ("negative pivot", "ILSInstance"): SingularDiagonalError,
    ("below-diagonal entry", "pzf_diagonal"): NotDiagonalError,
}


@pytest.mark.parametrize("entry", sorted(GATED))
@pytest.mark.parametrize("row", sorted(REFUSALS))
def test_gated_entry_points_share_one_refusal_table(row, entry):
    factor, call = GATED[entry]
    corrupt, error = REFUSALS[row]
    error = EXCEPTIONS.get((row, entry), error)
    r = corrupt(factor)
    if error is None:
        for got, want in zip(call(r), call(factor), strict=True):
            np.testing.assert_array_equal(got, want)
    else:
        with pytest.raises(error) as raised:
            call(r)
        assert type(raised.value) is error
