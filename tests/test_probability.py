import contextlib
import io
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import nquad
from scipy.linalg import solve_triangular

import zfprob
import zfprob.cli
from zfprob.ensembles import _ROLE_MEASUREMENT, case_spec, random_triangular, role_spec
from zfprob.errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    LatticeError,
    NoConvergenceError,
    NotDiagonalError,
    SingularDiagonalError,
    SingularMatrixError,
)
from zfprob.probability import (
    MIN_SAMPLES,
    _EMPIRICAL_BLOCK,
    ProbabilityEstimate,
    _conditional_step,
    _empirical_estimates,
    _outer_value,
    _sidak_bracket,
    _slab_mass,
    _unit_model,
    erf,
    pzf_diagonal,
    pzf_empirical,
    pzf_monte_carlo,
    pzf_quadrature,
)
from zfprob.reduction import lll_reduce, sqrd, vblast
from zfprob.rng import RngSpec, gaussian_block
from zfprob.tolerances import QUADRATURE_NODES_PER_PANEL

from test_reduction import ill_conditioned  # tests/ is on sys.path under pytest

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


def baseline_factor(n):
    """The first two draws of this generator, upper entries standard normal
    and pivots |N(0,1)| + 1, at n = 16 and then n = 32."""
    rng = np.random.default_rng(5)
    for size in (16, 32):
        r = np.triu(rng.standard_normal((size, size)))
        np.fill_diagonal(r, np.abs(rng.standard_normal(size)) + 1.0)
        if size == n:
            return r
    raise ValueError(n)


# P_ZF of baseline_factor(n) at sigma 0.3, from Genz's quasi-Monte Carlo:
# scipy.stats.multivariate_normal.cdf(full(n, 0.5), mean=zeros(n),
#     cov=0.09 * inv(R) @ inv(R).T, lower_limit=full(n, -0.5), maxpts=2_000_000,
#     abseps=1e-12, releps=1e-12, rng=default_rng(seed))
# with seeds 1 and 2 gives 0.02840927 and 0.02840927 at n = 16 (5 s each) and
# 8.5154e-6 and 8.5162e-6 at n = 32 (11 s each); the constants are the means
BASELINE_REFERENCE = {16: 0.0284093, 32: 8.5158e-6}


def bracket(r, sigma):
    g, unit_sigma = _unit_model(r, sigma)
    return _sidak_bracket(g.unit, unit_sigma)


def assert_in_bracket(est, r, sigma, bounds=1):
    lower, upper = bracket(r, sigma)
    slack = bounds * est.error_bound
    assert lower - slack <= est.value <= upper + slack, (est, lower, upper)


class TestEstimateRefusals:
    @pytest.mark.parametrize("value", [1.5, -0.1, math.nan])
    def test_value_outside_the_unit_interval_refused(self, value):
        with pytest.raises(ValueError, match="outside"):
            ProbabilityEstimate(value=value, method="x", error_bound=0.0, evaluations=1)

    @pytest.mark.parametrize("bound", [-1.0, math.nan])
    def test_negative_or_nan_error_bound_refused(self, bound):
        with pytest.raises(ValueError, match="error_bound"):
            ProbabilityEstimate(value=0.5, method="x", error_bound=bound, evaluations=1)


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

    def test_sigma_is_checked_before_the_off_diagonal_entry(self):
        # bad in two ways: sigma / 2**1001 underflows, and entry (0, 1) is off
        # the diagonal; every estimator reports the sigma
        r = np.array([[2.0**1000, 2.0**990], [0.0, 2.0**1000]])
        estimators = (pzf_diagonal, pzf_quadrature,
                      lambda r, s: pzf_monte_carlo(r, s, 1000, RngSpec(seed=1)),
                      lambda r, s: pzf_empirical(r, s, 1000, RngSpec(seed=1)))
        for estimate in estimators:
            with pytest.raises(ValueError, match=r"^sigma 5e-324 is out of floating-point "
                                                 r"range next to R$"):
                estimate(r, 5e-324)

    def test_off_diagonal_rejected(self):
        # the entry is named as a float, not as a numpy scalar's repr
        with pytest.raises(NotDiagonalError, match=r"^entry \(0, 1\) = 0\.1 is non-negligible$"):
            pzf_diagonal(np.array([[1.0, 0.1], [0.0, 1.0]]), 1.0)
        # lower roundoff that the gate clears still counts; a lower entry the
        # gate refuses gets the gate's refusal, as at every entry point
        with pytest.raises(NotDiagonalError, match=r"^entry \(1, 0\) = 1e-12 "):
            pzf_diagonal(np.array([[1.0, 0.0], [1e-12, 1.0]]), 1.0)
        with pytest.raises(DimensionMismatchError, match=r"not upper triangular: entry \(1, 0\)"):
            pzf_diagonal(np.array([[1.0, 0.0], [1e-9, 1.0]]), 1.0)

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
        # the bracket answers: it is exact at n <= 1, with 1 / ||R^-1|| for the
        # pivot, which can move the closed form's value by a rounding
        empty = pzf_quadrature(np.zeros((0, 0)), 0.5)
        assert (empty.value, empty.evaluations, empty.method) == (1.0, 0, "Quadrature")
        for pivot, sigma in ((1.7, 0.4), (-0.3, 0.9), (5.0, 0.05)):
            est = pzf_quadrature(np.array([[pivot]]), sigma)
            closed = pzf_diagonal(np.array([[pivot]]), sigma).value
            assert abs(est.value - closed) <= 4 * np.spacing(closed)
            assert (est.evaluations, est.error_bound) == (0, 1e-12)

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

    def test_unreachable_budget_answers_the_bracket(self):
        # the first refinement would already pass the evaluation cap, and the
        # bracket is [1, 1]: its midpoint, with no evaluation spent
        est = pzf_quadrature(np.eye(4), 1e-5)
        assert (est.value, est.error_bound, est.evaluations) == (1.0, 4e-12, 0)

    @pytest.mark.parametrize("sigma", [0.1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("n", [2, 3])
    def test_every_value_lies_in_the_bracket(self, n, sigma):
        # none is refused: where the panels stop short, the bracket is narrow
        for i in range(6):
            r = random_triangular(case_spec(11, i), n)
            assert_in_bracket(pzf_quadrature(r, sigma), r, sigma)

    @pytest.mark.parametrize("sigma", [1e-8, 1e-10])
    def test_tiny_sigma_answers_the_narrow_bracket(self, sigma):
        # two refinements agree on 0 here, against a bracket of [1, 1]
        est = pzf_quadrature(R1, sigma)
        assert (est.value, est.error_bound, est.method) == (1.0, 2e-12, "Quadrature")

    @pytest.mark.parametrize("planted, sigma, want", [
        (0.3, 0.5, 0.3),         # inside [0.233, 0.341]: kept bit for bit
        (0.0, 0.5, None),        # outside a bracket wider than the target: refused
        (0.0, 1e-8, 1.0),        # outside a bracket narrower than it: the midpoint
    ])
    def test_converged_value_is_checked_against_the_bracket(self, planted, sigma, want,
                                                            monkeypatch):
        monkeypatch.setattr("zfprob.probability._outer_value",
                            lambda r, sigma, pref, panels: (planted, 1))
        if want is None:
            with pytest.raises(NoConvergenceError, match="outside the Sidak bracket"):
                pzf_quadrature(R1, sigma)
        else:
            assert pzf_quadrature(R1, sigma).value == want

    @pytest.mark.parametrize("sigma, want", [
        (0.5, None),   # a bracket wider than the target: refused
        (1e-8, 1.0),   # a bracket narrower than it: the midpoint
    ])
    def test_evaluation_cap_leaves_the_answer_to_the_bracket(self, sigma, want,
                                                             monkeypatch):
        # refinements that never agree run into the cap with no converged value
        calls = []

        def never_agree(r, sigma, pref, panels):
            calls.append(panels)
            return float(len(calls) % 2), 10**6

        monkeypatch.setattr("zfprob.probability._outer_value", never_agree)
        if want is None:
            with pytest.raises(NoConvergenceError, match="^no convergence within"):
                pzf_quadrature(R1, sigma)
        else:
            est = pzf_quadrature(R1, sigma)
            assert (est.value, est.evaluations) == (want, 10**6 * len(calls))

    def test_block_diagonal_probability_is_product_of_blocks(self):
        block = np.zeros((4, 4))
        block[0, 0] = 1.0
        block[1:, 1:] = R3
        p4 = pzf_quadrature(block, 1.0)
        p3 = pzf_quadrature(R3, 1.0)
        scalar = math.erf(1.0 / (2 * SQRT2))
        assert abs(p4.value - scalar * p3.value) <= 3e-8


def per_call_outer_value(r, sigma, pref, panels):
    """Reference: _outer_value with its tensor grid built on every call, one
    row of xi per outer coordinate; the shift and each row of R11 xi' summed
    term by term from the left, their squares added row by row, and the
    weighted values summed by np.sum."""
    d = r.shape[0] - 1
    r11 = r[0, 0]
    nodes, node_weights = np.polynomial.legendre.leggauss(QUADRATURE_NODES_PER_PANEL)
    edges = np.linspace(-0.5, 0.5, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 / panels
    x = (mid[:, None] + half * nodes[None, :]).ravel()
    w = np.tile(half * node_weights, panels)
    xi = np.stack([a.ravel() for a in np.meshgrid(*([x] * d), indexing="ij")])
    weights = np.ones(xi.shape[1])
    for a in np.meshgrid(*([w] * d), indexing="ij"):
        weights *= a.ravel()
    shift = sum(r[0, 1 + j] * xi[j] for j in range(d))
    rows = [sum(r[1 + i, 1 + j] * xi[j] for j in range(i, d)) for i in range(d)]
    outer = np.exp(-sum(t * t for t in rows) / (2.0 * sigma * sigma))
    vals = (sigma / r11) * math.sqrt(math.pi / 2.0) * _slab_mass(shift, r11, sigma) * outer
    return pref * float(np.sum(weights * vals)), weights.size


def quadrature_census(n, count):
    """(value, bound, evaluations) in hex, or the refusal's message, for the
    first count factors of case_spec(11, i) at n over a grid of sigma."""
    out = []
    for i in range(count):
        r = random_triangular(case_spec(11, i), n)
        for sigma in (3.0, 1.0, 0.5, 0.2, 0.1, 0.03, 0.01):
            try:
                est = pzf_quadrature(r, sigma)
                out.append((est.value.hex(), est.error_bound.hex(), est.evaluations))
            except NoConvergenceError as exc:
                out.append(str(exc))
    return out


class TestPanelGrid:
    """pzf_quadrature keeps each small tensor grid for the process: that
    must give the per-call grid's bits and hold no large grid."""

    @pytest.mark.parametrize("n, count, refusals", [(2, 40, 0), (3, 25, 0), (4, 6, 1)])
    def test_kept_grids_give_the_per_call_bits(self, n, count, refusals, monkeypatch):
        monkeypatch.setattr("zfprob.probability._PANEL_GRIDS", {})
        kept = quadrature_census(n, count)
        monkeypatch.setattr("zfprob.probability._outer_value", per_call_outer_value)
        assert quadrature_census(n, count) == kept
        # n = 4, i = 5 at sigma 0.03, whose Sidak bracket is wider than the target
        assert sum(isinstance(o, str) for o in kept) == refusals

    def test_kept_grids_are_read_only_and_within_the_bound(self, monkeypatch):
        grids, seen = {}, []
        monkeypatch.setattr("zfprob.probability._PANEL_GRIDS", grids)

        def spy(r, sigma, pref, panels):
            seen.append((panels, r.shape[0] - 1))
            return _outer_value(r, sigma, pref, panels)

        monkeypatch.setattr("zfprob.probability._outer_value", spy)
        for n in (2, 3, 4):
            pzf_quadrature(random_triangular(case_spec(11, 0), n), 0.1)
        assert max(panels for panels, d in seen if d == 3) >= 2
        bound = QUADRATURE_NODES_PER_PANEL ** 3
        small = {(p, d) for p, d in seen if (QUADRATURE_NODES_PER_PANEL * p) ** d <= bound}
        assert set(grids) == small
        for (panels, d), (xi, weights) in grids.items():
            assert xi.shape == (d, weights.size) and weights.size <= bound
            assert not xi.flags.writeable and not weights.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                weights[0] = 0.0


def invariance_quadrature_calls(seed):
    """The (factor, sigma) of every pzf_quadrature call of invariance --trials 40:
    one per distinct factor of each case."""
    calls = []

    def record(r, sigma):
        calls.append((r, sigma))
        return pzf_quadrature(r, sigma)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zfprob.cli, "pzf_quadrature", record)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert zfprob.cli.main(["invariance", "--trials", "40", "--seed", str(seed)]) == 0
    return calls


class TestQuadratureBits:
    """The kept grids, summed in numpy's elementwise loops and pairwise sum,
    give the bits of the per-call reference on the benchmark's factors."""

    @pytest.mark.parametrize("seed", [1, 20181])
    def test_invariance_factors_give_the_reference_bits(self, seed, monkeypatch):
        # 40 cases of three factors each, R and its two orderings, hold this many distinct ones
        calls = invariance_quadrature_calls(seed)
        assert len(calls) == {1: 68, 20181: 67}[seed]
        assert {_unit_model(r, 1.0)[0].unit.shape[0] for r, _ in calls} == {2, 3}
        got = [(e.value.hex(), e.evaluations) for e in (pzf_quadrature(*c) for c in calls)]
        monkeypatch.setattr("zfprob.probability._outer_value", per_call_outer_value)
        assert got == [(e.value.hex(), e.evaluations) for e in (pzf_quadrature(*c) for c in calls)]


def _thread_outputs(probe):
    """The whitespace-split output of the script probe, run in a fresh
    interpreter at OPENBLAS_NUM_THREADS=1 and at 2."""
    src = str(Path(zfprob.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=env)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout.split())
    return outs


# prints value.hex() and evaluations of an n = 3 and an n = 4 quadrature
THREAD_PROBE = """
from zfprob.ensembles import case_spec, random_triangular
from zfprob.probability import pzf_quadrature
for n, i, sigma in ((3, 5, 0.1), (4, 0, 0.2)):
    est = pzf_quadrature(random_triangular(case_spec(11, i), n), sigma)
    print(est.value.hex(), est.evaluations)
"""


def test_quadrature_bits_do_not_depend_on_the_blas_thread_count():
    # the grid is summed by numpy's loops, which run in one thread whatever
    # OpenBLAS's count; these grids double (n = 3) or octuple (n = 4) in
    # size, so a total above 20,000 means the last grid passed 10,000 points
    outs = _thread_outputs(THREAD_PROBE)
    assert outs[0] == outs[1]
    assert all(int(evaluations) > 20_000 for evaluations in outs[0][1::2])


# prints value.hex() and evaluations of quadratures on fixed upper-triangular
# factors at n = 2, 3 and 4, drawn by default_rng and made without a QR
KERNEL_PROBE = """
import numpy as np
from zfprob.probability import pzf_quadrature
rng = np.random.default_rng(37)
for n, sigma in ((2, 0.1), (2, 0.3), (3, 0.3), (3, 1.0), (4, 0.3), (4, 1.0)):
    est = pzf_quadrature(np.triu(rng.standard_normal((n, n))), sigma)
    print(est.value.hex(), est.evaluations)
"""


def test_quadrature_bits_do_not_depend_on_the_blas_kernel():
    # OpenBLAS picks its kernel for the CPU unless OPENBLAS_CORETYPE names one;
    # Nehalem's has no fused multiply-add, the kernels of later cores do.  Where
    # OpenBLAS ignores the variable, both runs use one kernel and this holds too.
    path = [str(Path(zfprob.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_CORETYPE="Nehalem",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", KERNEL_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(KERNEL_PROBE, {})
    assert out.split() == here.getvalue().split()
    assert all(int(evaluations) > 0 for evaluations in out.split()[1::2])


# prints value.hex() of an n = 16 and an n = 48 empirical estimate whose
# widest coordinate has spread 1/2, so the count depends on every boundary
EMPIRICAL_THREAD_PROBE = """
import numpy as np
from zfprob.ensembles import case_spec, random_triangular
from zfprob.probability import pzf_empirical
from zfprob.rng import RngSpec
for n in (16, 48):
    r = random_triangular(case_spec(16, n), n)
    sigma = 0.5 / float(np.max(np.linalg.norm(np.linalg.inv(r), axis=1)))
    print(pzf_empirical(r, sigma, 50_000, RngSpec(seed=n)).value.hex())
"""


def test_empirical_bits_do_not_depend_on_the_blas_thread_count():
    # each block's coordinates are one GEMM against the factor's map, which
    # OpenBLAS may split across its threads
    outs = _thread_outputs(EMPIRICAL_THREAD_PROBE)
    assert outs[0] == outs[1]
    assert all(0.0 < float.fromhex(value) < 1.0 for value in outs[0])


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

    @pytest.mark.parametrize("samples", [20_000, 100_000])
    @pytest.mark.parametrize("n", [16, 32])
    def test_answers_the_baseline_factors_within_three_bounds(self, n, samples):
        # uniform draws of xi answered 0.0273 +- 0.0193 and 2.5e-18 +- 2.4e-18
        # here, on an effective sample size of about 2
        est = pzf_monte_carlo(baseline_factor(n), 0.3, samples, RngSpec(seed=1))
        assert abs(est.value - BASELINE_REFERENCE[n]) <= 3 * est.error_bound

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_agrees_with_genz_quasi_monte_carlo(self, n):
        r = random_triangular(case_spec(18, n), n)
        inv = np.linalg.inv(r)
        want = scipy.stats.multivariate_normal(mean=np.zeros(n), cov=0.09 * inv @ inv.T).cdf(
            np.full(n, 0.5), lower_limit=np.full(n, -0.5), rng=np.random.default_rng(1))
        est = pzf_monte_carlo(r, 0.3, 20_000, RngSpec(seed=n))
        assert abs(est.value - want) <= 3 * est.error_bound

    def test_orderings_leave_the_estimate_unchanged(self):
        # the paper's first theorem: SQRD and V-BLAST leave P_ZF unchanged;
        # on common random numbers the estimates agree to rounding, while a
        # reduction that changes P_ZF moves the estimate by many bounds
        for r in [baseline_factor(16)] + [random_triangular(case_spec(19, n), n)
                                          for n in (3, 5, 8)]:
            rng = RngSpec(seed=r.shape[0])
            est = pzf_monte_carlo(r, 0.3, 5000, rng)
            for reordered in (sqrd(r).r_bar, vblast(r).r_bar):
                value = pzf_monte_carlo(reordered, 0.3, 5000, rng).value
                assert abs(value - est.value) <= 1e-12 * est.value
            reduced = pzf_monte_carlo(lll_reduce(r).r_bar, 0.3, 5000, rng)
            assert abs(reduced.value - est.value) > 10 * reduced.error_bound

    @pytest.mark.parametrize("shift", [-40.0, -10.0, -0.3, 0.0, 3.0, 40.0])
    def test_conditional_step_against_arbitrary_precision(self, shift):
        # the conditional N(-shift, 1) on [-1/2, 1/2], pivot 1: its log mass, and
        # each draw x cuts off the fraction u of that mass, counted from the end
        # of the slab farther from the mean
        u = np.array([1e-9, 0.3, 0.7, 1.0 - 1e-9])
        log_mass, x = _conditional_step(np.full(4, shift), 1.0, 1.0, np.log(u))

        def between(lo, hi):  # Phi(hi) - Phi(lo), from the tail that keeps digits
            return mpmath.ncdf(-lo) - mpmath.ncdf(-hi) if lo + hi > 0 else \
                mpmath.ncdf(hi) - mpmath.ncdf(lo)
        with mpmath.workdps(50):
            a = mpmath.mpf(shift) - 0.5
            mass = between(a, a + 1)
            assert log_mass == pytest.approx(float(mpmath.log(mass)), rel=1e-13)
            for ui, xi in zip(u, x):
                z = mpmath.mpf(float(xi)) + shift
                cut = between(z, a + 1) if shift > 0 else between(a, z)
                assert float(cut / mass) == pytest.approx(ui, rel=1e-6)

    def test_refuses_when_a_few_draws_carry_the_mean(self, monkeypatch):
        # no factor tried reaches the refusal (the effective sample size stayed
        # above 0.09 of the samples up to n = 64), so plant the weights: one
        # sample of weight 1, the rest e^-50
        def planted(shift, pivot, sigma, log_u):
            log_mass = np.full(log_u.shape, -50.0)
            log_mass[0] = 0.0
            return log_mass, np.zeros(log_u.shape)
        monkeypatch.setattr("zfprob.probability._conditional_step", planted)
        with pytest.raises(NoConvergenceError, match="effective sample size"):
            pzf_monte_carlo(np.eye(1), 0.5, 1000, RngSpec(seed=1))

    @pytest.mark.parametrize("sigma", [1e-300, 1e-155, 1e160])
    @pytest.mark.filterwarnings("error")
    def test_answers_sigma_beyond_the_density_range(self, sigma):
        est = pzf_monte_carlo(R1, sigma, 2000, RngSpec(seed=1))
        assert_in_bracket(est, R1, sigma)
        if sigma > 1.0:
            # every slab holds about p / (sqrt(2 pi) sigma) of its coordinate:
            # the erf difference keeps that where the two log-CDFs round equal
            assert est.value == pytest.approx(4.0 / (2.0 * math.pi) / sigma / sigma, rel=1e-2)
        else:
            assert est.value == 1.0


class TestSidakBracket:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32, 64])
    def test_every_estimator_lies_in_the_bracket(self, n):
        r = random_triangular(case_spec(20, n), n)
        norm = float(np.max(np.linalg.norm(np.linalg.inv(r), axis=1)))
        diagonal = np.diag(np.diag(r))
        for t in (0.05, 0.2, 0.5, 1.0):
            sigma = t / norm  # from a bracket of width 0 to a wide one
            assert_in_bracket(pzf_diagonal(diagonal, sigma), diagonal, sigma)
            # the sampled estimates within three standard errors
            assert_in_bracket(pzf_monte_carlo(r, sigma, 2000, RngSpec(seed=n)), r, sigma, 3)
            assert_in_bracket(pzf_empirical(r, sigma, 2000, RngSpec(seed=n)), r, sigma, 3)
            if n <= 4:
                try:
                    assert_in_bracket(pzf_quadrature(r, sigma), r, sigma)
                except NoConvergenceError:
                    pass

    def test_diagonal_bracket_is_the_closed_form(self):
        d = np.diag([SQRT2, 2 * SQRT2])
        lower, upper = bracket(d, 0.5)
        assert lower == pytest.approx(pzf_diagonal(d, 0.5).value, abs=1e-15)
        assert upper == pytest.approx(math.erf(1.0), abs=1e-15)


class TestDensityRange:
    """The quadrature's panels integrate |det R| / (2 pi sigma^2)^{n/2}
    times a Gaussian factor; where that prefactor leaves the float range
    they do not run, and Sidak's bracket answers from 0 evaluations."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r,sigma", [
        (R1, 1e-300),  # volume 0
        (R1, 1e-155),  # prefactor inf
        (R1, 1e160),  # sigma^2 overflows: volume inf
        (random_triangular(case_spec(11, 0), 4), 1e100),  # the power n/2 overflows
    ], ids=["1e-300", "1e-155", "1e160", "n4-1e100"])
    def test_bracket_answers_beyond_the_density_range(self, r, sigma):
        est = pzf_quadrature(r, sigma)
        assert est.evaluations == 0
        assert_in_bracket(est, r, sigma)

    def test_routes_without_the_density_still_answer(self):
        assert pzf_quadrature(np.array([[4.0]]), 1e-300).value == 1.0
        assert pzf_diagonal(np.diag([4.0, 1.0]), 1e-300).value == 1.0
        assert pzf_monte_carlo(R1, 1e-300, 1000, RngSpec(seed=1)).value == 1.0
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
        # a coordinate round_nearest refuses is refused as a success: its
        # trial fails, whatever its value, and the other trials still count
        noise = np.zeros((1000, 2))
        noise[7, 1] = bad
        monkeypatch.setattr("zfprob.probability.gaussian_block",
                            lambda spec, start, count: noise.ravel()[start:start + count])
        assert pzf_empirical(np.eye(2), 1.0, 1000, RngSpec(seed=1)).value == 999 / 1000

    def test_no_coordinates_is_every_trial_a_success(self):
        # at n = 0 there is no coordinate to miss its slab
        est = pzf_empirical(np.zeros((0, 0)), 0.3, 1000, RngSpec(seed=1))
        assert est.value == 1.0 and est == _one_shot_empirical(np.zeros((0, 0)), 0.3, 1000,
                                                               RngSpec(seed=1))

    def test_minimum_trial_count(self):
        with pytest.raises(ValueError):
            pzf_empirical(R1, 0.5, 10, RngSpec(seed=1))

    # at n = 18, 19, 27 and 35, columns give some coordinates other low bits
    # than rows do, at one or more of these block sizes; 2049 and 50,000
    # trials end on a block of 1 and of 848
    @pytest.mark.parametrize("trials", [1000, 2047, 2048, 2049, 50_000])
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 18, 19, 27, 35, 48])
    def test_streamed_blocks_equal_one_whole_draw(self, n, trials):
        r = random_triangular(case_spec(16, n), n)
        sigma = 0.5 / float(np.max(np.linalg.norm(np.linalg.inv(r), axis=1)))
        rng = RngSpec(seed=n)
        est = pzf_empirical(r, sigma, trials, rng)
        assert 0.0 < est.value < 1.0
        assert est == _one_shot_empirical(r, sigma, trials, rng)

    def test_map_equals_the_solve_reference_on_ill_conditioned_factors(self):
        # the estimator multiplies each block by sigma R^-1, formed once;
        # _one_shot_empirical solves the whole draw.  Factors with condition
        # numbers up to 1e18, at two fixed sigmas and at the sigma that puts
        # the widest coordinate's spread at 1/2
        counts = Counter()
        for i in range(200):
            r = ill_conditioned(i)
            edge = 0.5 / float(np.max(np.linalg.norm(np.linalg.inv(r), axis=1)))
            for sigma in (0.03, 0.3, edge):
                got, want = (_outcome(estimate, r, sigma, 2000, RngSpec(seed=i))
                             for estimate in (pzf_empirical, _one_shot_empirical))
                assert got == want, (i, sigma)
                key = ("edge" if sigma == edge else sigma,
                       got[0] if isinstance(got, tuple) else 0.0 < got.value < 1.0)
                counts[key] += 1
        # a trial whose coordinate overflows fails rather than refusing the
        # factor, so every one of these calls answers
        assert counts == {
            (0.03, False): 196, (0.03, True): 4,
            (0.3, False): 197, (0.3, True): 3,
            ("edge", True): 200,
        }

    def test_columns_count_as_rows_do_on_the_benchmark_cases(self):
        # the 12 cases of the benchmark's ensemble --n 16 invocations at
        # seed 1, whose seeds perfbench/bench.py derives as below
        seeds = np.random.default_rng([1, 2]).integers(1, 2**31 - 1, size=6)
        for seed in seeds:
            for i in range(2):
                spec = case_spec(int(seed), i)
                r = random_triangular(spec, 16)
                factors = (r, lll_reduce(r).r_bar)
                rng = role_spec(spec, _ROLE_MEASUREMENT)
                assert (_empirical_estimates(factors, 0.3, 50_000, rng)
                        == _row_layout_estimates(factors, 0.3, 50_000, rng))

    def test_shared_draws_equal_separate_calls(self):
        for i in range(6):  # the factors and measurement streams of ensemble --n 16 cases
            spec = case_spec(1, i)
            r = random_triangular(spec, 16)
            r_bar = lll_reduce(r).r_bar
            rng = role_spec(spec, _ROLE_MEASUREMENT)
            shared = _empirical_estimates((r, r_bar), 0.3, 50_000, rng)
            assert shared == [pzf_empirical(r, 0.3, 50_000, rng),
                              pzf_empirical(r_bar, 0.3, 50_000, rng)]

    @pytest.mark.parametrize("bad, trials, error, match", [
        (np.diag([1.0, 0.0]), 1000, SingularDiagonalError, "pivot"),
        (np.ones((2, 3)), 1000, DimensionMismatchError, "square"),
        (np.diag([1.0, 0.0]), 10, SingularDiagonalError, "pivot"),  # the factor first
        (np.eye(2), 999, ValueError, "need at least 1000 trials, got 999"),
    ])
    def test_refused_before_any_draw(self, bad, trials, error, match, monkeypatch):
        def no_draw(spec, start, count):
            raise AssertionError("drew noise for a refused call")
        monkeypatch.setattr("zfprob.probability.gaussian_block", no_draw)
        with pytest.raises(error, match=match):
            _empirical_estimates((R1, bad), 0.5, trials, RngSpec(seed=1))

    def test_a_map_past_the_float_range_is_refused_before_any_draw(self, monkeypatch):
        # unit off-diagonal entries over pivots 2**-44: R^-1 passes 1e308 by n = 30
        r = 2.0 ** -44 * np.eye(30) + np.triu(np.ones((30, 30)), 1)

        def no_draw(spec, start, count):
            raise AssertionError("drew noise for a refused call")
        monkeypatch.setattr("zfprob.probability.gaussian_block", no_draw)
        with pytest.raises(SingularMatrixError, match="out of floating-point range"):
            pzf_empirical(r, 0.5, 1000, RngSpec(seed=1))

    def test_memory_does_not_grow_with_trials(self):
        r = random_triangular(case_spec(16, 16), 16)
        pzf_empirical(r, 0.3, MIN_SAMPLES, RngSpec(seed=1))  # warm every lazy import
        tracemalloc.start()
        try:
            pzf_empirical(r, 0.3, 50_000, RngSpec(seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20  # one whole 50,000 x 16 noise matrix alone is 6.4 MB


def _outcome(estimate, *args):
    """estimate(*args), or the class and message of the refusal it raised."""
    try:
        return estimate(*args)
    except (ValueError, LatticeError) as exc:
        return type(exc), str(exc)


def _row_layout_estimates(factors, sigma, trials, rng):
    """_empirical_estimates with trials as rows: each block times each map's
    transpose, a trial passing when its row is within 1/2 everywhere."""
    models = [_unit_model(r, sigma) for r in factors]
    n = models[0][0].unit.shape[0]
    maps = [solve_triangular(g.unit, unit_sigma * np.eye(n), lower=False, check_finite=False)
            for g, unit_sigma in models]
    successes = [0] * len(models)
    for first in range(0, trials, _EMPIRICAL_BLOCK):
        count = min(_EMPIRICAL_BLOCK, trials - first)
        g = gaussian_block(rng, first * n, count * n).reshape(count, n)
        for k, m in enumerate(maps):
            with np.errstate(over="ignore", invalid="ignore"):
                coords = g @ m.T
            successes[k] += int(np.count_nonzero(np.all(np.abs(coords) <= 0.5, axis=1)))
    return [_empirical_estimate(hits, trials, rng) for hits in successes]


def _empirical_estimate(hits, trials, rng):
    """The estimate of hits successes in trials, as pzf_empirical states it."""
    value = hits / trials
    stderr = math.sqrt(value * (1.0 - value) / trials) or 1.0 / (trials + 1)
    return ProbabilityEstimate(value=value, method="Empirical", error_bound=stderr,
                               evaluations=trials, seed=rng.seed)


def _one_shot_empirical(r, sigma, trials, rng):
    """pzf_empirical as one draw of the whole noise matrix, the reference
    for the streamed blocks."""
    g, sigma = _unit_model(r, sigma)
    r, n = g.unit, g.unit.shape[0]
    noise = sigma * gaussian_block(rng, 0, trials * n).reshape(trials, n)
    if not np.isfinite(solve_triangular(r, sigma * np.eye(n), lower=False,
                                        check_finite=False)).all():
        raise SingularMatrixError("sigma R^-1 is out of floating-point range")
    with np.errstate(over="ignore", invalid="ignore"):
        coords = solve_triangular(r, noise.T, lower=False, check_finite=False)
    successes = int(np.count_nonzero(np.all(np.abs(coords) <= 0.5, axis=0)))
    return _empirical_estimate(successes, trials, rng)
