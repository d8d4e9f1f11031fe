import numpy as np
import pytest

from zfprob.decode import (
    ILSInstance,
    ils_brute_force,
    lift_estimate,
    sic_decode,
    zf_decode,
)
from zfprob.ensembles import case_spec, random_instance
from zfprob.errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    NotUnimodularError,
    SingularDiagonalError,
)
from zfprob.reduction import lll_reduce, sqrd, vblast

R2 = np.array([[1.0, 0.44], [0.0, 0.28]])
Y2 = np.array([-0.7, -0.24])
# frozen from exact hand evaluation of the pipeline on (R2, Y2):
# ||y - R [0,-1]||, and the residual after the full reduction
RESIDUAL_ORIGINAL = 0.2630589287593181
RESIDUAL_REDUCED = 0.3671511950137164


def inst2(sigma=1.0):
    return ILSInstance(r=R2, y_tilde=Y2, sigma=sigma)


class TestZFDecode:
    def test_reference_pair_estimate_and_residual(self):
        out = zf_decode(inst2())
        np.testing.assert_array_equal(out.estimate, [0, -1])
        assert out.residual == pytest.approx(RESIDUAL_ORIGINAL, abs=1e-12)
        assert abs(out.residual - 0.2631) < 5e-4

    def test_identity_is_pure_rounding(self):
        out = zf_decode(ILSInstance(r=np.eye(2), y_tilde=[2.2, -3.4], sigma=1.0))
        np.testing.assert_array_equal(out.estimate, [2, -3])

    def test_residual_grows_after_full_reduction(self):
        red = lll_reduce(R2)
        y_bar = red.q_bar.T @ Y2
        out = zf_decode(ILSInstance(r=red.r_bar, y_tilde=y_bar, sigma=1.0))
        assert out.residual == pytest.approx(RESIDUAL_REDUCED, abs=1e-12)
        assert abs(out.residual - 0.3672) < 5e-4
        assert out.residual > RESIDUAL_ORIGINAL

    def test_four_decimal_rounded_reduced_pair(self):
        # the reduced pair as printed to four decimals, sign-normalized;
        # the residual must still land within the print tolerance
        r = np.array([[0.5215, -0.1994], [0.0, 0.5369]])
        y = np.array([-0.7194, -0.1733])
        out = zf_decode(ILSInstance(r=r, y_tilde=y, sigma=1.0))
        assert abs(out.residual - 0.3672) < 5e-4

    def test_residual_matches_definition(self):
        for i in range(30):
            inst = random_instance(case_spec(60, i), 2 + i % 3)
            out = zf_decode(inst)
            direct = float(np.linalg.norm(inst.y_tilde - inst.r @ out.estimate))
            assert abs(out.residual - direct) <= 1e-12

    def test_singular_r_rejected(self):
        with pytest.raises(SingularDiagonalError):
            ILSInstance(r=np.array([[1.0, 1.0], [0.0, 0.0]]),
                        y_tilde=[0.0, 0.0], sigma=1.0)


class TestSICDecode:
    def test_diagonal_equals_zf_exactly(self):
        for i in range(30):
            spec = case_spec(61, i)
            inst = random_instance(spec, 3)
            d = np.diag(np.abs(np.diag(inst.r)) + 0.1)
            di = ILSInstance(r=d, y_tilde=inst.y_tilde, sigma=inst.sigma)
            np.testing.assert_array_equal(sic_decode(di).estimate,
                                          zf_decode(di).estimate)

    def test_reference_pair(self):
        out = sic_decode(inst2())
        np.testing.assert_array_equal(out.estimate, [0, -1])

    def test_integer_observation_recovered_exactly(self):
        out = sic_decode(ILSInstance(r=np.eye(3), y_tilde=[4.0, -1.0, 0.0], sigma=1.0))
        np.testing.assert_array_equal(out.estimate, [4, -1, 0])
        assert out.residual == 0.0

    def test_cancellation_beats_plain_rounding_sometimes(self):
        # handcrafted: a large off-diagonal misleads ZF but not SIC
        r = np.array([[1.0, 0.9], [0.0, 0.4]])
        y = r @ np.array([1.0, 1.0]) + np.array([0.0, 0.15])
        inst = ILSInstance(r=r, y_tilde=y, sigma=0.3)
        assert sic_decode(inst).residual <= zf_decode(inst).residual + 1e-12


class TestLiftEstimate:
    def test_identity(self):
        np.testing.assert_array_equal(lift_estimate(np.eye(2, dtype=np.int64), [3, -1]),
                                      [3, -1])

    def test_column_swap(self):
        swap = np.array([[0, 1], [1, 0]])
        np.testing.assert_array_equal(lift_estimate(swap, [7, -2]), [-2, 7])

    def test_shear(self):
        z = np.array([[1, 1], [0, 1]])
        np.testing.assert_array_equal(lift_estimate(z, [1, -2]), [-1, -2])

    def test_non_unimodular_rejected(self):
        with pytest.raises(NotUnimodularError):
            lift_estimate(np.array([[2, 0], [0, 1]]), [1, 1])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            lift_estimate(np.eye(2, dtype=np.int64), [1, 2, 3])

    def test_non_integer_estimate_rejected(self):
        eye = np.eye(2, dtype=np.int64)
        for estimate in ([0.4, 1.6], [1.0, np.nan]):
            with pytest.raises(DimensionMismatchError):
                lift_estimate(eye, estimate)
        # whole numbers held as floats are accepted
        np.testing.assert_array_equal(lift_estimate(eye, [1.0, -2.0]), [1, -2])

    def test_round_trips_through_reorderings(self):
        for i in range(50):
            inst = random_instance(case_spec(62, i), 2 + i % 3)
            base = zf_decode(inst)
            for strategy in (sqrd, vblast):
                red = strategy(inst.r)
                y_bar = red.q_bar.T @ inst.y_tilde
                reduced = zf_decode(ILSInstance(r=red.r_bar, y_tilde=y_bar,
                                                sigma=inst.sigma))
                lifted = lift_estimate(red.z, reduced.estimate)
                np.testing.assert_array_equal(lifted, base.estimate)
                assert abs(reduced.residual - base.residual) <= 1e-9


class TestBruteForce:
    def test_identity_equals_zf(self):
        inst = ILSInstance(r=np.eye(2), y_tilde=[0.3, -0.4], sigma=1.0)
        np.testing.assert_array_equal(ils_brute_force(inst).estimate,
                                      zf_decode(inst).estimate)

    def test_lower_bounds_both_decoders(self):
        for i in range(40):
            inst = random_instance(case_spec(63, i), 2 + i % 3)
            best = ils_brute_force(inst)
            assert best.residual <= zf_decode(inst).residual + 1e-12
            assert best.residual <= sic_decode(inst).residual + 1e-12

    def test_reference_pair_bound(self):
        assert ils_brute_force(inst2()).residual <= 0.2631 + 5e-4

    def test_tie_breaks_lexicographically(self):
        inst = ILSInstance(r=np.eye(1), y_tilde=[0.5], sigma=1.0)
        out = ils_brute_force(inst)
        np.testing.assert_array_equal(out.estimate, [0])
        inst = ILSInstance(r=np.eye(1), y_tilde=[-0.5], sigma=1.0)
        np.testing.assert_array_equal(ils_brute_force(inst).estimate, [-1])

    def test_dimension_cap(self):
        inst = ILSInstance(r=np.eye(7), y_tilde=np.zeros(7), sigma=1.0)
        with pytest.raises(DimensionTooLargeError):
            ils_brute_force(inst)


class TestILSInstance:
    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            ILSInstance(r=np.eye(2), y_tilde=[0.0, 0.0], sigma=0.0)

    def test_sigma_must_be_finite(self):
        with pytest.raises(ValueError):
            ILSInstance(r=np.eye(2), y_tilde=[0.0, 0.0], sigma=np.inf)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            ILSInstance(r=np.eye(2), y_tilde=[0.0, 0.0, 0.0], sigma=1.0)

    def test_negative_diagonal_rejected(self):
        with pytest.raises(SingularDiagonalError):
            ILSInstance(r=np.array([[1.0, 0.0], [0.0, -1.0]]),
                        y_tilde=[0.0, 0.0], sigma=1.0)
