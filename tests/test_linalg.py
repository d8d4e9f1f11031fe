import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfprob.decode import ILSInstance, zf_decode
from zfprob.errors import (
    DimensionMismatchError,
    NotDiagonalError,
    RankDeficientError,
    SingularDiagonalError,
)
from zfprob.linalg import (
    back_substitute,
    check_upper_triangular,
    det_upper_triangular,
    int_determinant,
    positive_triangular,
    qr_factorize,
    round_nearest,
)
from zfprob.probability import pzf_diagonal, pzf_empirical, pzf_monte_carlo, pzf_quadrature
from zfprob.reduction import lll_reduce, orthogonality_defect, vblast
from zfprob.rng import RngSpec
from zfprob.tolerances import ORTHONORMALITY_TOL, QR_RECONSTRUCTION_TOL

# hand back-substitution on [[1,0.44],[0,0.28]] x = [-0.7,-0.24]:
# x2 = -0.24/0.28, x1 = -0.7 - 0.44*x2
BACKSUB_ORACLE = (-0.3228571428571429, -0.857142857142857)


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
        assert f.q2.shape == (6, 3)
        full = np.hstack([f.q1, f.q2])
        assert np.linalg.norm(full.T @ full - np.eye(6)) <= ORTHONORMALITY_TOL

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


class TestRoundNearest:
    def test_half_ties_go_to_smaller_magnitude(self):
        np.testing.assert_array_equal(round_nearest([0.5, -0.5]), [0, 0])
        np.testing.assert_array_equal(round_nearest([1.5, -1.5, 2.5]), [1, -1, 2])

    def test_unambiguous_cases(self):
        np.testing.assert_array_equal(round_nearest([1.49, -1.51]), [1, -2])

    def test_zf_coordinate_from_decode_example(self):
        assert round_nearest(-1.5031) == -2

    def test_scalar_returns_python_int(self):
        out = round_nearest(2.4)
        assert isinstance(out, int) and out == 2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            round_nearest(float("nan"))

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


class TestBackSubstitute:
    def test_identity(self):
        np.testing.assert_allclose(back_substitute(np.eye(2), [3.0, -2.0]), [3.0, -2.0])

    def test_decode_example_data(self):
        r = np.array([[1.0, 0.44], [0.0, 0.28]])
        x = back_substitute(r, [-0.7, -0.24])
        np.testing.assert_allclose(x, BACKSUB_ORACLE, atol=1e-12)
        assert abs(x[0] - (-0.3229)) < 5e-4 and abs(x[1] - (-0.8571)) < 5e-4

    def test_constructed_round_trip(self):
        r = np.array([[2.0, 1.0], [0.0, 4.0]])
        np.testing.assert_allclose(back_substitute(r, r @ [1.0, 1.0]), [1.0, 1.0])

    def test_random_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = rng.integers(1, 7)
            r = np.triu(rng.standard_normal((n, n)))
            r[np.diag_indices(n)] = np.sign(np.diag(r)) * (0.5 + np.abs(np.diag(r)))
            if np.linalg.cond(r) > 1e6:
                continue
            x = rng.standard_normal(n)
            np.testing.assert_allclose(back_substitute(r, r @ x), x,
                                       atol=1e-9 * (1 + np.abs(x).max()))

    def test_singular_diagonal_raises(self):
        with pytest.raises(SingularDiagonalError):
            back_substitute(np.array([[1.0, 1.0], [0.0, 0.0]]), [1.0, 1.0])


class TestDetUpperTriangular:
    def test_examples(self):
        assert det_upper_triangular(np.array([[4.0, 9.0], [0.0, 1.0]])) == 4.0
        r = np.array([[math.sqrt(2), 0.0], [0.0, 2 * math.sqrt(2)]])
        assert abs(det_upper_triangular(r) - 4.0) < 1e-12
        assert det_upper_triangular(np.eye(5)) == 1.0

    def test_sign_normalization_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            r = np.triu(rng.standard_normal((3, 3)))
            flipped = np.diag([1.0, -1.0, 1.0]) @ r
            assert abs(abs(det_upper_triangular(np.triu(flipped)))
                       - abs(det_upper_triangular(r))) < 1e-12

    def test_rejects_non_triangular(self):
        with pytest.raises(DimensionMismatchError):
            det_upper_triangular(np.array([[1.0, 0.0], [1.0, 1.0]]))


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


def test_check_upper_triangular_flags_entry():
    with pytest.raises(DimensionMismatchError):
        check_upper_triangular(np.array([[1.0, 0.0], [0.5, 1.0]]))
    out = check_upper_triangular(np.array([[1.0, 2.0], [1e-14, 1.0]]))
    assert out[1, 0] == 0.0


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
    # y = R x, so flipping a row of R flips y with it
    "back_substitute": (FACTOR, lambda r: (back_substitute(r, r @ np.arange(r.shape[1])),)),
    "lll_reduce": (FACTOR, _reduced(lll_reduce)),
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
