import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import nquad

from zfprob.ensembles import case_spec, random_triangular, role_spec
from zfprob.errors import (
    DimensionTooLargeError,
    NoConvergenceError,
    NotDiagonalError,
)
from zfprob.probability import (
    erf,
    pzf_diagonal,
    pzf_empirical,
    pzf_monte_carlo,
    pzf_quadrature,
)
from zfprob.rng import RngSpec

SQRT2 = math.sqrt(2.0)
R1 = np.array([[4.0, 9.0], [0.0, 1.0]])
R1_SIZE_REDUCED = np.array([[4.0, 1.0], [0.0, 1.0]])
R1_REDUCED = np.array([[SQRT2, 0.0], [0.0, 2 * SQRT2]])
R3 = np.array([[3.0, 1.5, 0.0], [0.0, 3.0, -1.51], [0.0, 0.0, 3.0]])
R3_REDUCED = np.array([[3.0, 1.5, 1.5], [0.0, 3.0, 1.49], [0.0, 0.0, 3.0]])

# frozen oracle values: adaptive cubature of the defining integral at
# epsabs 1e-12 (independent implementation, scipy.integrate.nquad)
ORACLE = {
    "r1": 0.3413125797751561,
    "r1_size_reduced": 0.6824615224955177,
    "r1_reduced": 0.8387588619719777,
    "r3": 0.6104639940109678,
    "r3_reduced": 0.6029568012365624,
}


def reference_integral(r, sigma):
    """Live dual-route oracle: adaptive cubature, independent of the
    panel scheme under test."""
    r = np.asarray(r, dtype=float)
    n = r.shape[0]
    pref = abs(np.prod(np.diag(r))) / (2 * math.pi * sigma * sigma) ** (n / 2)

    def integrand(*xi):
        v = r @ np.array(xi)
        return math.exp(-float(v @ v) / (2 * sigma * sigma))

    val, _ = nquad(integrand, [(-0.5, 0.5)] * n,
                   opts={"epsabs": 1e-11, "epsrel": 1e-11})
    return pref * val


class TestErf:
    def test_zero(self):
        assert erf(0.0) == 0.0

    @given(st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=100)
    def test_odd_symmetry(self, x):
        assert erf(-x) == -erf(x)

    def test_value_at_one(self):
        assert abs(erf(1.0) - 0.84270079) < 5e-9

    def test_against_arbitrary_precision(self):
        with mpmath.workdps(40):
            for x in np.linspace(-6.0, 6.0, 121):
                want = float(mpmath.erf(mpmath.mpf(float(x))))
                assert abs(erf(float(x)) - want) <= 1e-12


class TestDiagonal:
    def test_closed_form_product(self):
        est = pzf_diagonal(np.diag([SQRT2, 2 * SQRT2]), 0.5)
        assert abs(est.value - math.erf(1.0) * math.erf(2.0)) <= 1e-12
        assert abs(est.value - 0.8388) < 5e-4
        assert est.method == "Diagonal"

    def test_vanishing_noise_limit(self):
        assert pzf_diagonal(np.eye(3), 1e-4).value == pytest.approx(1.0, abs=1e-12)

    def test_huge_noise_limit(self):
        assert pzf_diagonal(np.eye(2), 1e6).value == pytest.approx(0.0, abs=1e-5)

    def test_sigma_out_of_range_next_to_r_rejected(self):
        # the estimators work on (R, sigma) / 2**e; here sigma / 2**e overflows
        with pytest.raises(ValueError, match="sigma"):
            pzf_diagonal(2.0 ** -600 * np.eye(2), 1e300)

    def test_off_diagonal_rejected(self):
        with pytest.raises(NotDiagonalError):
            pzf_diagonal(np.array([[1.0, 0.1], [0.0, 1.0]]), 1.0)

    def test_bit_identical_to_the_erf_product(self):
        # the closed form is half the unshifted slab mass; scipy's erf is odd
        # and 0.5 * d / (sqrt2 sigma) is d / (2 sqrt2 sigma) bit for bit
        rng = np.random.default_rng(73)
        for n in range(1, 7):
            for sigma in (0.05, 0.3, 0.8, 2.5, 40.0):
                d = rng.uniform(0.1, 5.0, size=n)
                want = float(np.prod(scipy.special.erf(d / (2.0 * math.sqrt(2.0) * sigma))))
                assert pzf_diagonal(np.diag(d), sigma).value == want, (n, sigma)

    def test_agrees_with_quadrature(self):
        for i in range(10):
            d = np.diag(0.5 + np.abs(random_triangular(case_spec(70, i), 3).diagonal()))
            a = pzf_diagonal(d, 0.8)
            b = pzf_quadrature(d, 0.8)
            assert abs(a.value - b.value) <= 1e-6


class TestQuadrature:
    @pytest.mark.parametrize("key,matrix,sigma", [
        ("r1", R1, 0.5),
        ("r1_size_reduced", R1_SIZE_REDUCED, 0.5),
        ("r1_reduced", R1_REDUCED, 0.5),
        ("r3", R3, 1.0),
        ("r3_reduced", R3_REDUCED, 1.0),
    ])
    def test_reference_matrices_against_frozen_oracle(self, key, matrix, sigma):
        est = pzf_quadrature(matrix, sigma)
        assert abs(est.value - ORACLE[key]) <= 2e-8
        assert est.error_bound == 1e-8
        assert est.method == "Quadrature"

    def test_four_decimal_reference_values(self):
        assert abs(pzf_quadrature(R1, 0.5).value - 0.3413) < 5e-4
        assert abs(pzf_quadrature(R1_SIZE_REDUCED, 0.5).value - 0.6825) < 5e-4
        assert abs(pzf_quadrature(R1_REDUCED, 0.5).value - 0.8388) < 5e-4
        assert abs(pzf_quadrature(R3, 1.0).value - 0.6105) < 5e-4
        assert abs(pzf_quadrature(R3_REDUCED, 1.0).value - 0.6030) < 5e-4

    def test_live_cross_check_on_random_matrices(self):
        for i, n in ((0, 2), (1, 2), (2, 3)):
            r = random_triangular(case_spec(71, i), n)
            got = pzf_quadrature(r, 0.6).value
            want = reference_integral(r, 0.6)
            assert abs(got - want) <= 1e-7, (i, got, want)

    def test_single_coordinate_closed_form(self):
        r = np.array([[1.7]])
        est = pzf_quadrature(r, 0.4)
        assert est.value == pytest.approx(math.erf(1.7 / (2 * SQRT2 * 0.4)), abs=1e-14)

    def test_below_two_dimensions_is_the_closed_form(self):
        empty = pzf_quadrature(np.zeros((0, 0)), 0.5)
        assert (empty.value, empty.evaluations, empty.method) == (1.0, 0, "Quadrature")
        for pivot, sigma in ((1.7, 0.4), (-0.3, 0.9), (5.0, 0.05)):
            est = pzf_quadrature(np.array([[pivot]]), sigma)
            assert est.value == pzf_diagonal(np.array([[pivot]]), sigma).value
            assert (est.evaluations, est.error_bound) == (1, 1e-8)

    def test_row_sign_flips_do_not_matter(self):
        for i in range(10):
            r = random_triangular(case_spec(72, i), 3)
            flipped = np.diag([1.0, -1.0, 1.0]) @ r
            a = pzf_quadrature(r, 0.7).value
            b = pzf_quadrature(np.triu(flipped), 0.7).value
            assert abs(a - b) <= 2e-8

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLargeError):
            pzf_quadrature(np.eye(5), 1.0)

    def test_unreachable_budget_raises(self):
        with pytest.raises(NoConvergenceError):
            pzf_quadrature(np.eye(4), 1e-5)

    def test_block_diagonal_probability_is_product_of_blocks(self):
        block = np.zeros((4, 4))
        block[0, 0] = 1.0
        block[1:, 1:] = R3
        p4 = pzf_quadrature(block, 1.0)
        p3 = pzf_quadrature(R3, 1.0)
        scalar = math.erf(1.0 / (2 * SQRT2))
        assert abs(p4.value - scalar * p3.value) <= 3e-8


class TestMonteCarlo:
    def test_bit_reproducible(self):
        a = pzf_monte_carlo(R1, 0.5, 50_000, RngSpec(seed=9))
        b = pzf_monte_carlo(R1, 0.5, 50_000, RngSpec(seed=9))
        assert a.value == b.value and a.error_bound == b.error_bound

    def test_agrees_with_quadrature_on_references(self):
        for matrix in (R1, R1_SIZE_REDUCED, R1_REDUCED):
            q = pzf_quadrature(matrix, 0.5)
            mc = pzf_monte_carlo(matrix, 0.5, 200_000, RngSpec(seed=2024))
            assert abs(mc.value - q.value) <= 3 * mc.error_bound

    def test_agrees_with_diagonal_closed_form(self):
        d = np.diag([SQRT2, 2 * SQRT2])
        closed = pzf_diagonal(d, 0.5)
        mc = pzf_monte_carlo(d, 0.5, 200_000, RngSpec(seed=77))
        assert abs(mc.value - closed.value) <= 3 * mc.error_bound

    def test_value_within_unit_interval(self):
        for i in range(10):
            r = random_triangular(case_spec(73, i), 2)
            est = pzf_monte_carlo(r, 0.5, 1000, RngSpec(seed=i))
            assert 0.0 <= est.value <= 1.0

    def test_minimum_sample_count(self):
        with pytest.raises(ValueError):
            pzf_monte_carlo(R1, 0.5, 999, RngSpec(seed=1))

    def test_seed_echoed(self):
        assert pzf_monte_carlo(R1, 0.5, 1000, RngSpec(seed=321)).seed == 321


class TestDensityRange:
    """The quadrature and Monte Carlo integrate |det R| / (2 pi sigma^2)^{n/2}
    times a Gaussian factor; a sigma that takes that prefactor out of the
    float range is refused by the value the caller gave."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("route", ["quad", "mc"])
    @pytest.mark.parametrize("sigma", [1e-300, 1e-155])  # volume 0; prefactor inf
    def test_refused_by_the_given_sigma(self, route, sigma):
        with pytest.raises(ValueError, match=f"sigma {sigma!r} is out of floating-point range"):
            if route == "quad":
                pzf_quadrature(R1, sigma)
            else:
                pzf_monte_carlo(R1, sigma, 2000, RngSpec(seed=1))

    def test_routes_without_the_density_still_answer(self):
        assert pzf_quadrature(np.array([[4.0]]), 1e-300).value == 1.0
        assert pzf_diagonal(np.diag([4.0, 1.0]), 1e-300).value == 1.0
        assert pzf_empirical(R1, 1e-300, 1000, RngSpec(seed=1)).value == 1.0


class TestEmpirical:
    def test_vanishing_noise_always_succeeds(self):
        est = pzf_empirical(np.eye(2), 1e-9, 2000, RngSpec(seed=5))
        assert est.value == 1.0 and est.error_bound == 1 / 2001

    def test_agrees_with_quadrature_on_reference(self):
        emp = pzf_empirical(R1, 0.5, 200_000, RngSpec(seed=2024))
        assert abs(emp.value - 0.3413) <= 3 * emp.error_bound

    def test_cross_method_consistency_on_random_instances(self):
        agreements = 0
        for i in range(20):
            spec = case_spec(999, i)
            n = 2 if i % 2 == 0 else 3
            r = random_triangular(spec, n)
            q = pzf_quadrature(r, 0.6)
            emp = pzf_empirical(r, 0.6, 100_000, role_spec(spec, 11))
            agreements += abs(emp.value - q.value) <= 3 * max(emp.error_bound, 1e-12)
        assert agreements >= 19

    def test_bit_reproducible(self):
        a = pzf_empirical(R3, 1.0, 20_000, RngSpec(seed=13))
        b = pzf_empirical(R3, 1.0, 20_000, RngSpec(seed=13))
        assert a.value == b.value

    def test_success_is_every_coordinate_within_one_half(self, monkeypatch):
        # through R = I and sigma = 1 the coordinates are the noise itself;
        # round_nearest takes a tie of exactly 1/2 to zero, so it succeeds
        above = np.nextafter(0.5, 1.0)
        noise = np.zeros((1000, 2))
        noise[:4] = [[0.5, -0.5], [-0.5, 0.25], [above, 0.0], [0.0, -above]]
        monkeypatch.setattr("zfprob.probability.gaussian_block",
                            lambda spec, start, count: noise.ravel()[start:start + count])
        assert pzf_empirical(np.eye(2), 1.0, 1000, RngSpec(seed=1)).value == 998 / 1000

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 2.0 ** 63])
    def test_coordinates_beyond_rounding_are_refused(self, bad, monkeypatch):
        noise = np.zeros((1000, 2))
        noise[7, 1] = bad
        monkeypatch.setattr("zfprob.probability.gaussian_block",
                            lambda spec, start, count: noise.ravel()[start:start + count])
        with pytest.raises(ValueError, match="cannot round"):
            pzf_empirical(np.eye(2), 1.0, 1000, RngSpec(seed=1))

    def test_minimum_trial_count(self):
        with pytest.raises(ValueError):
            pzf_empirical(R1, 0.5, 10, RngSpec(seed=1))
