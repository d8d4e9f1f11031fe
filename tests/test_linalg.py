import math
import re
from dataclasses import astuple, fields, is_dataclass, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from zfprob.decode import ILSInstance, ils_brute_force, lift_estimate, sic_decode, zf_decode
from zfprob.ensembles import case_spec, random_instance, random_triangular
from zfprob.errors import (
    DimensionMismatchError,
    LatticeError,
    NotDiagonalError,
    RankDeficientError,
    SingularDiagonalError,
    SingularMatrixError,
)
from zfprob.linalg import (
    _gate,
    _solve_upper,
    check_upper_triangular,
    int_determinant,
    integer_entries,
    qr_factorize,
    round_nearest,
    unit_scale,
)
from zfprob.probability import pzf_diagonal, pzf_empirical, pzf_monte_carlo, pzf_quadrature
from zfprob.reduction import (
    ReductionResult,
    is_lll_reduced,
    lll_reduce,
    orthogonality_defect,
    size_reduce_entry,
    sqrd,
    vblast,
)
from zfprob.rng import RngSpec
from zfprob.tolerances import (
    ORTHONORMALITY_TOL,
    QR_RECONSTRUCTION_TOL,
    SOLVE_DIAG_MIN,
    UPPER_TRIANGULAR_TOL,
)

from test_reduction import ill_conditioned  # tests/ is on sys.path under pytest


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

    @pytest.mark.parametrize("c", [2.0**-600, 2.0**-30, 1.0, 2.0**30, 2.0**600],
                             ids=["2^-600", "2^-30", "1", "2^30", "2^600"])
    def test_rank_rule_is_the_gate(self, c):
        # a triangular input is its own R, so the two refuse the same factors;
        # 0.75 is the largest entry and already at unit scale
        refused = set()
        for rel in (1.0 - 1e-6, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-6):
            for sign in (1.0, -1.0):
                r = c * np.array([[0.75, 0.3], [0.0, sign * rel * SOLVE_DIAG_MIN]])
                try:
                    _gate(r)
                except SingularDiagonalError:
                    refused.add((rel, sign))
                    with pytest.raises(RankDeficientError, match="pivot 1"):
                        qr_factorize(r)
                    continue
                f = qr_factorize(r)
                np.testing.assert_array_equal(f.r, _gate(r).r)
        assert refused == {(rel, sign) for rel in (1.0 - 1e-6, 1.0 - 1e-12) for sign in (1.0, -1.0)}

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

    def test_an_r_past_the_float_range_is_refused_by_name(self):
        # finite inputs whose R is not: the column norm sqrt2 * 1.7e308, and
        # the reorderings' R, which lll_reduce does not form
        r = np.array([[1.7e308, 1e300, 1.7e308], [0.0, 1e300, 1.7e308], [0.0, 0.0, 1e300]])
        for call in (lambda: qr_factorize([[1.7e308], [1.7e308]]),
                     lambda: sqrd(r), lambda: vblast(r)):
            with pytest.raises(SingularMatrixError,
                               match="^R is out of floating-point range$") as raised:
                call()
            assert type(raised.value) is SingularMatrixError
        lll_reduce(r).check(r)

    def test_repr_shows_each_array_of_the_factor_once(self):
        assert repr(lll_reduce([[4.0, 9.0], [0.0, 1.0]])).count("1.41421356") == 1
        text = repr(qr_factorize([[1.0, 2.0], [3.0, 4.0]]))
        assert text.count("3.16227766") == 1 and "gated=_Gated(r=array(" in text


def _assert_solves_as_scipy(r, b):
    got = _solve_upper(r, b)
    want = solve_triangular(r, b, lower=False, check_finite=False)
    assert (got.shape, got.dtype, got.flags.f_contiguous, got.tobytes()) == \
        (want.shape, want.dtype, want.flags.f_contiguous, want.tobytes())


def _right_hand_sides(n, rng):
    return [rng.standard_normal(n), rng.standard_normal((n, 3)), np.eye(n),
            np.asfortranarray(rng.standard_normal((n, 2)))]


class TestSolveUpper:
    """_solve_upper is solve_triangular(r, b, check_finite=False) without its
    per-call checks: the same bits for C- and F-ordered factors and 1-D and
    2-D right-hand sides."""

    def test_gated_random_factors_from_0_to_64(self):
        for n in range(65):
            g = _gate(random_triangular(case_spec(29, n), n))
            rng = np.random.default_rng(n)
            for r in (g.r, g.unit, np.asfortranarray(g.r)):
                for b in _right_hand_sides(n, rng):
                    _assert_solves_as_scipy(r, b)

    def test_ill_conditioned_factors(self):
        for i in range(600):
            r = ill_conditioned(i)
            rng = np.random.default_rng(i)
            for order in "CF":
                for b in _right_hand_sides(r.shape[0], rng):
                    _assert_solves_as_scipy(np.asarray(r, order=order), b)

    @pytest.mark.parametrize("b", [np.zeros(0), np.zeros((0, 0)), np.zeros((0, 3))])
    def test_empty_system(self, b):
        _assert_solves_as_scipy(np.zeros((0, 0)), b)

    def test_a_zero_pivot_raises_as_scipy_does(self):
        r = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError) as scipy_error:
            solve_triangular(r, np.ones(2), check_finite=False)
        with pytest.raises(np.linalg.LinAlgError) as error:
            _solve_upper(r, np.ones(2))
        assert str(error.value) == str(scipy_error.value)


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
        # elimination leaves a zero pivot with nothing nonzero below it
        assert int_determinant(np.array([[1, 2, 3], [2, 4, 5], [0, 0, 1]])) == 0

    def test_non_square_refused(self):
        with pytest.raises(DimensionMismatchError,
                           match=r"^need a square matrix, got shape \(2, 3\)$"):
            int_determinant(np.zeros((2, 3), dtype=np.int64))

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


@pytest.mark.parametrize("order", ["C", "F"])
def test_check_upper_triangular_returns_triu_bytes_and_memory_order(order):
    rng = np.random.default_rng(21)
    for n in range(9):
        # lower entries of roundoff size pass the gate and are cleared
        a = np.triu(rng.standard_normal((n, n))) + 1e-13 * np.tril(rng.standard_normal((n, n)), -1)
        r = np.asarray(a, order=order)
        got, want = check_upper_triangular(r), np.triu(r)
        assert got.tobytes() == want.tobytes() and got.strides == want.strides
        assert (got.flags.c_contiguous, got.flags.f_contiguous) == (
            want.flags.c_contiguous, want.flags.f_contiguous)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("first, second", [((1, 0), (2, 0)), ((3, 0), (2, 1)), ((3, 2), (2, 0))])
def test_refusal_names_the_first_of_tied_lower_entries_in_row_major_order(first, second,
                                                                          order):
    r = np.triu(np.ones((4, 4)))
    r[first], r[second] = 0.5, -0.5
    # the rule the refusal keeps: argmax over |tril(r, -1)|, read row by row
    i, j = np.unravel_index(np.argmax(np.abs(np.tril(r, -1))), r.shape)
    with pytest.raises(DimensionMismatchError,
                       match=re.escape(f"entry ({i}, {j}) = {float(r[i, j])!r}")):
        check_upper_triangular(np.asarray(r, order=order))


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
    np.testing.assert_array_equal(_gate(1e-15 * np.eye(2)).r, 1e-15 * np.eye(2))
    big = random_triangular(case_spec(95, 0), 48)
    assert orthogonality_defect(2.0 ** -50 * big) == orthogonality_defect(big)
    # a pivot 1e-16 of the largest entry is refused at every scale, also by
    # the checker of reduced form
    for c in (1e-20, 1.0, 1e20):
        for call in (_gate, is_lll_reduced, lll_reduce, orthogonality_defect):
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

# every entry point that takes its factor through the gate, _gate:
# name -> (a valid factor, a call whose outputs must not change when the
# factor's rows are sign-flipped); the gate's own row is named for what it
# makes, the positive triangular factor
GATED = {
    "positive_triangular": (FACTOR, lambda r: (_gate(r).r,)),
    "is_lll_reduced": (FACTOR, lambda r: astuple(is_lll_reduced(r))),
    "lll_reduce": (FACTOR, _reduced(lll_reduce)),
    "sqrd": (FACTOR, _reduced(sqrd)),
    "vblast": (FACTOR, _reduced(vblast)),
    "orthogonality_defect": (FACTOR, lambda r: (orthogonality_defect(r),)),
    "pzf_quadrature": (FACTOR, _estimate(pzf_quadrature)),
    "pzf_monte_carlo": (FACTOR, _estimate(pzf_monte_carlo, 1000, RngSpec(seed=3))),
    "pzf_empirical": (FACTOR, _estimate(pzf_empirical, 1000, RngSpec(seed=3))),
    "pzf_diagonal": (DIAGONAL, _estimate(pzf_diagonal)),
    "ILSInstance": (FACTOR, lambda r: astuple(zf_decode(ILSInstance(
        r=r, y_tilde=_observation(r), sigma=1.0)))),
}


def _observation(r):
    """An observation made from the factor, so a row flip carries over to it;
    an input that is no real array gets a fixed one, since the gate refuses it."""
    if isinstance(r, np.ndarray) and r.dtype == float:
        return r[:, :2] @ [1.3, -0.6]
    return np.zeros(2)


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
    # a cast to float would drop the imaginary part, or fail with a bare error
    "complex entry": (lambda r: r + np.array([[0.0, 2j], [0.0, 0.0]]), DimensionMismatchError),
    "complex object entry": (lambda r: np.array([[r[0, 0], 1 + 2j], [0.0, r[1, 1]]], dtype=object),
                             DimensionMismatchError),
    "complex scalar": (lambda r: 1 + 2j, DimensionMismatchError),
    "ragged rows": (lambda r: [list(r[0]), list(r[1, 1:])], DimensionMismatchError),
    "string entries": (lambda r: r.astype(str), DimensionMismatchError),
}


@pytest.mark.parametrize("entry", sorted(GATED))
@pytest.mark.parametrize("row", sorted(REFUSALS))
def test_gated_entry_points_share_one_refusal_table(row, entry):
    factor, call = GATED[entry]
    corrupt, error = REFUSALS[row]
    r = corrupt(factor)
    if error is None:
        for got, want in zip(call(r), call(factor), strict=True):
            np.testing.assert_array_equal(got, want)
    else:
        with pytest.raises(error) as raised:
            call(r)
        assert type(raised.value) is error


# every entry point that takes sigma: name -> a call on (factor, sigma)
SIGMA_GATED = {
    "pzf_diagonal": pzf_diagonal,
    "pzf_quadrature": pzf_quadrature,
    "pzf_monte_carlo": lambda r, s: pzf_monte_carlo(r, s, 1000, RngSpec(seed=3)),
    "pzf_empirical": lambda r, s: pzf_empirical(r, s, 1000, RngSpec(seed=3)),
    "ILSInstance": lambda r, s: ILSInstance(r=r, y_tilde=_observation(r), sigma=s),
}

# the "bad sigma" row: each is refused before the factor is read
BAD_SIGMAS = (0.0, -1.0, math.nan, math.inf)


@pytest.mark.parametrize("entry", sorted(SIGMA_GATED))
@pytest.mark.parametrize("row", sorted(REFUSALS))
def test_entry_points_check_sigma_before_the_factor(row, entry):
    # sigma, then the factor through the gate, then what else the call reads;
    # FACTOR is not diagonal, so pzf_diagonal's scan comes after sigma too
    r = REFUSALS[row][0](FACTOR)
    for sigma in BAD_SIGMAS:
        with pytest.raises(ValueError, match="^sigma must be a positive finite real") as raised:
            SIGMA_GATED[entry](r, sigma)
        assert type(raised.value) is ValueError


# every entry point that takes integers through integer_entries: name -> a call
# reading the 2 x 2 matrix m, or its first row
INTEGER_GATED = {
    "integer_entries": integer_entries,
    "int_determinant": int_determinant,
    "lift_estimate Z": lambda m: lift_estimate(m, [1, 2]),
    "lift_estimate estimate": lambda m: lift_estimate(np.eye(2, dtype=np.int64), m[0]),
    "size_reduce_entry Z": lambda m: size_reduce_entry([[4.0, 9.0], [0.0, 1.0]], m, 0, 1),
}
# entry that is no whole real number -> (the entry, how the refusal names it)
INTEGER_REFUSALS = {
    "complex": (1 + 2j, "(1+2j)"),  # float() raised a bare TypeError
    "numpy complex": (np.complex128(1 + 0j), "(1+0j)"),  # float() dropped the imaginary part
    "string": ("a", "'a'"),  # float() raised a bare ValueError
    "numeric string": ("3", "'3'"),  # float() parsed it
    "fraction": (0.5, "0.5"),
    "NaN": (math.nan, "nan"),
    "infinity": (-math.inf, "-inf"),
}


@pytest.mark.parametrize("entry", sorted(INTEGER_GATED))
@pytest.mark.parametrize("row", sorted(INTEGER_REFUSALS))
def test_integer_entry_points_share_one_refusal_table(row, entry):
    bad, named = INTEGER_REFUSALS[row]
    call = INTEGER_GATED[entry]
    assert call([[1, 0], [0, 1]]) is not None
    with pytest.raises(DimensionMismatchError, match="^entries must be integers, found ") as exc:
        call([[bad, 0], [0, 1]])
    assert type(exc.value) is DimensionMismatchError
    assert named in str(exc.value)  # as given, or as the numpy scalar it became


def test_integer_entries_take_whole_real_numbers_of_any_type():
    got = integer_entries([[Fraction(4, 2), np.float32(3.0)], [True, np.int8(-1)]])
    assert got.tolist() == [[2, 3], [1, -1]] and all(type(v) is int for v in got.flat)


@pytest.mark.parametrize("a", [[[1 + 2j, 0.0], [0.0, 1.0]], np.array([1 + 2j], dtype=object),
                               ["1.5"]], ids=["complex", "complex object", "string"])
def test_unit_scale_refuses_what_is_not_real(a):
    # a float cast would drop the imaginary part with only a ComplexWarning
    with pytest.raises(DimensionMismatchError, match="must hold real numbers"):
        unit_scale(a)


# rows whose corruption keeps a float array of the factor's shape, so it can be
# written into an array that has already passed an entry point
IN_PLACE = ("below-diagonal entry", "non-finite", "pivot 1e-15")


@pytest.mark.parametrize("entry", sorted(GATED))
def test_entry_points_gate_a_plain_array_on_every_call(entry, gate_passes):
    # a caller's array is gated at each call: one changed after a call that
    # passed is refused, whatever a batch case passes along in between
    factor, call = GATED[entry]
    r = factor.copy()
    call(r)
    assert gate_passes[0] >= 1
    for row in IN_PLACE:
        corrupt, error = REFUSALS[row]
        r[...] = corrupt(factor)
        with pytest.raises(error):
            call(r)
        r[...] = factor


def test_a_gated_factor_passes_through_unchanged_and_read_only(gate_passes):
    r = np.array([[2.0, 1.3], [0.0, -0.5]])
    g = _gate(r)
    assert _gate(g) is g and g.source is r and gate_passes[0] == 1
    assert not g.r.flags.writeable
    assert not g.unit.flags.writeable
    assert not ILSInstance(r=g, y_tilde=[1.0, 2.0]).r.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        g.r[0, 0] = 1.0


def _bits(x):
    """x with every array as its dtype, shape and bytes and every float as
    its hex form, so == compares bits."""
    if is_dataclass(x):
        return tuple(_bits(getattr(x, f.name)) for f in fields(x))
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    return x.hex() if isinstance(x, float) else x


def test_one_gated_value_serves_every_entry_point_and_stays_unchanged():
    # a row flip and a scale that is no power of two, so r and unit differ
    r = 3.7 * random_triangular(case_spec(95, 1), 4) * np.array([[1.0], [-1.0], [1.0], [-1.0]])
    # and a diagonal factor with a flipped row, for the closed form
    d = 3.7 * np.diag([1.0, -0.6, 0.8, -1.3])
    y = np.array([0.3, -1.2, 2.0, 0.7])
    calls = (lll_reduce, lll_reduce, sqrd, vblast, is_lll_reduced, orthogonality_defect,
             lambda f: pzf_quadrature(f, 0.5),
             lambda f: pzf_monte_carlo(f, 0.5, 2000, RngSpec(seed=3)),
             lambda f: pzf_empirical(f, 0.5, 2000, RngSpec(seed=3)),
             lambda f: ILSInstance(r=f, y_tilde=y))
    for factor, factor_calls in ((r, calls), (d, (lambda f: pzf_diagonal(f, 0.5),))):
        g = _gate(factor)
        before = _bits(g)
        for call in factor_calls:
            assert _bits(call(g)) == _bits(call(factor.copy()))
        assert _bits(g) == before and g.source is factor
        # lll_reduce's in-place loop works on a copy of the stored unit factor
        assert not g.r.flags.writeable and not g.unit.flags.writeable


def test_qr_factorize_carries_the_gated_value_of_its_factor(gate_passes):
    # random factors at scales 1e-200 .. 1e200: f.r is the gate's read-only
    # factor, and the carried value is _gate(f.r) field for field, bits
    # included, at no gate pass of its own
    rng = np.random.default_rng(30)
    for k in range(3000):
        n = 1 + k % 6
        a = 10.0 ** rng.uniform(-200, 200) * rng.standard_normal((n + k % 3, n))
        gate_passes[0] = 0
        f = qr_factorize(a)
        g = f.gated
        assert gate_passes[0] == 1
        assert g.source is f.r and g.r is f.r and _bits(g) == _bits(_gate(f.r))
        assert not f.r.flags.writeable and not g.unit.flags.writeable


def test_reorderings_and_instances_carry_the_gated_value_of_their_factor():
    for i in range(300):
        r = ill_conditioned(i) if i % 2 else random_triangular(case_spec(30, i), 1 + i % 6)
        for reduce in (lll_reduce, sqrd, vblast):
            try:
                red = reduce(r)
            except (SingularMatrixError, RankDeficientError, SingularDiagonalError):
                continue
            assert red.gated.source is red.r_bar and not red.r_bar.flags.writeable
            assert _bits(red.gated) == _bits(_gate(red.r_bar))
            # the gated value is the result's only copy of its factor, so
            # r_bar cannot be replaced on its own
            with pytest.raises(TypeError, match="r_bar"):
                replace(red, r_bar=2.0 * red.r_bar)
            assert replace(red, z=-red.z).gated is red.gated
        # an instance keeps the gate's value for its own, flipped, factor,
        # and replace makes the value for the new one
        try:
            inst = ILSInstance(r=-r, y_tilde=np.ones(r.shape[0]))
        except SingularDiagonalError:
            continue
        g = inst.gated
        assert g.source is inst.r and g.r is inst.r and _bits(g) == _bits(_gate(inst.r))
        assert (g.signs == 1.0).all() and not g.unit.flags.writeable
        other = replace(inst, r=2.0 * r)
        assert other.gated.r is other.r and _bits(other.gated) == _bits(_gate(other.r))


def test_result_types_compare_by_identity():
    # each holds arrays, whose == is elementwise, so equal values compare
    # False rather than raise; a value equals only itself
    r = np.array([[4.0, 9.0], [0.0, 1.0]])

    def make():
        inst = ILSInstance(r=r, y_tilde=np.ones(2))
        return (_gate(r), qr_factorize(r), lll_reduce(r), inst, zf_decode(inst))

    for x, y in zip(make(), make()):
        assert x == x and not x != x
        assert not x == y and x != y


def test_a_random_instance_gates_its_factor_once(gate_passes):
    inst = random_instance(case_spec(30, 0), 4)
    assert gate_passes[0] == 1
    assert inst.gated.r is inst.r and _bits(inst.gated) == _bits(_gate(inst.r))


def _flip_census(count):
    """(r, y, sigma) for count factors, n = 2 .. 8, with 40% structural zeros
    above the diagonal and each pivot negative with probability 1/2; 15% have
    pivots spread over 1e-10 .. 1e4 and 5% a pivot under the floor.  A fifth
    of the observation's entries are 0."""
    rng = np.random.default_rng(32)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        r = np.triu(rng.standard_normal((n, n)))
        r[np.triu(rng.random((n, n)) < 0.4, 1)] = 0.0
        d = np.abs(np.diag(r)) + 0.1
        kind = rng.random()
        if kind < 0.15:
            d = 10.0 ** rng.uniform(-10, 4, size=n)
        elif kind < 0.2:
            d[int(rng.integers(n))] = 1e-15 * np.abs(r).max()
        np.fill_diagonal(r, np.where(rng.random(n) < 0.5, -d, d))
        y = rng.standard_normal(n)
        y[rng.random(n) < 0.2] = 0.0
        yield r, y, float(rng.uniform(0.2, 1.0))


FLIP_ENTRY_POINTS = {
    "lll_reduce": lambda r, y, sigma: lll_reduce(r),
    "sqrd": lambda r, y, sigma: sqrd(r),
    "vblast": lambda r, y, sigma: vblast(r),
    "is_lll_reduced": lambda r, y, sigma: is_lll_reduced(r),
    "orthogonality_defect": lambda r, y, sigma: orthogonality_defect(r),
    "pzf_diagonal": lambda r, y, sigma: pzf_diagonal(np.diag(np.diag(r)), sigma),
    "pzf_quadrature": lambda r, y, sigma: pzf_quadrature(r, sigma) if len(r) <= 3 else None,
    "pzf_monte_carlo": lambda r, y, sigma: pzf_monte_carlo(r, sigma, 1000, RngSpec(seed=32)),
    "pzf_empirical": lambda r, y, sigma: pzf_empirical(r, sigma, 1000, RngSpec(seed=32)),
    "ILSInstance": lambda r, y, sigma: ILSInstance(r=r, y_tilde=y, sigma=sigma),
    "zf_decode": lambda r, y, sigma: zf_decode(ILSInstance(r=r, y_tilde=y)),
    "sic_decode": lambda r, y, sigma: sic_decode(ILSInstance(r=r, y_tilde=y)),
    "ils_brute_force": lambda r, y, sigma: (ils_brute_force(ILSInstance(r=r, y_tilde=y))
                                            if len(r) <= 3 else None),
}


def _flip_outcome(entry, r, y, sigma):
    """(bits of the result but q_bar, q_bar) of one call, or a refusal's
    (type, message)."""
    try:
        out = FLIP_ENTRY_POINTS[entry](r, y, sigma)
    except (LatticeError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(out, ReductionResult):
        return _bits(replace(out, q_bar=None)), out.q_bar
    return _bits(out), None


def test_a_row_flip_changes_no_bit_of_any_entry_point():
    # Flipping rows of R (and of y) is an orthogonal map: every entry point
    # must answer a factor exactly as it answers its sign-normalized twin,
    # bits, refusal types and messages included; q_bar carries the flips.
    # Without the gate's + 0.0, the -0.0 a flip leaves below the diagonal
    # moves sqrd on 30 of these 200 factors, vblast on 34, pzf_monte_carlo
    # on 18 and ILSInstance on 173.
    differ = {}
    for r, y, sigma in _flip_census(200):
        signs = np.where(r.diagonal() < 0.0, -1.0, 1.0)
        twin = signs[:, None] * r + 0.0
        for entry in FLIP_ENTRY_POINTS:
            got = _flip_outcome(entry, r, y, sigma)
            want = _flip_outcome(entry, twin, signs * y, sigma)
            q_got, q_want = got[1], want[1]
            if isinstance(q_got, np.ndarray):
                same = got[0] == want[0] and np.array_equal(q_got, signs[:, None] * q_want)
            else:
                same = got == want
            if not same:
                differ[entry] = differ.get(entry, 0) + 1
    assert differ == {}


def _reference_gate(r):
    """The three-step gate as it stood before a gated factor was passed along:
    check_upper_triangular, then unit_scale, then the pivot floor and signs,
    whose flips' -0.0 the + 0.0 turns into 0.0.  Returns (factor, signs,
    exponent)."""
    r = np.asarray(r, dtype=float)
    if r.ndim != 2:
        raise DimensionMismatchError(f"R must be 2-dimensional, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise DimensionMismatchError("R contains non-finite entries")
    n, m = r.shape
    if n != m:
        raise DimensionMismatchError(f"R must be square, got shape {r.shape}")
    lower = np.tri(n, k=-1, dtype=bool)
    below = np.abs(r[lower])
    if below.size and np.max(below) > UPPER_TRIANGULAR_TOL * np.max(np.abs(r)):
        k = int(np.argmax(below))
        i, j = (int(index[k]) for index in np.nonzero(lower))
        raise DimensionMismatchError(
            f"R is not upper triangular: entry ({i}, {j}) = {float(r[i, j])!r}")
    r = np.where(lower, np.zeros(1, r.dtype), r)
    e = math.frexp(float(np.max(np.abs(r), initial=0.0)))[1]
    diag = np.abs(np.ldexp(r, -e).diagonal())
    if diag.size and diag.min() < SOLVE_DIAG_MIN:
        i = int(diag.argmin())
        raise SingularDiagonalError(
            f"R pivot {i} has magnitude {float(abs(r[i, i]))!r}, below {SOLVE_DIAG_MIN} * 2**{e}")
    signs = np.where(r.diagonal() < 0.0, -1.0, 1.0)
    return signs[:, None] * r + 0.0, signs, e


def _census_input(rng):
    """One random or edge input for the gate: n from 0 to 6, scales to 1e+-300,
    lower roundoff on both sides of the tolerance, pivots near the floor,
    non-finite entries, wrong shapes, and lists, ints, float32 and F order."""
    n = int(rng.integers(0, 7))
    scale = 10.0 ** rng.uniform(-300, 300) if rng.random() < 0.5 else 1.0
    r = np.triu(rng.standard_normal((n, n))) * scale
    if n > 1 and rng.random() < 0.3:  # lower roundoff, up to 100x the tolerance
        r[np.tri(n, k=-1, dtype=bool)] = (rng.standard_normal(n * (n - 1) // 2)
                                          * scale * 10.0 ** rng.uniform(-16, -8))
    if n and rng.random() < 0.2:  # a pivot near the floor
        i = int(rng.integers(n))
        r[i, i] = np.max(np.abs(r)) * 10.0 ** rng.uniform(-16, -12) * rng.choice([-1, 1])
    if n and rng.random() < 0.05:
        r.flat[int(rng.integers(r.size))] = rng.choice([math.nan, math.inf, -math.inf])
    if rng.random() < 0.05:
        r = np.zeros((n, n)) * rng.choice([1.0, -1.0])
    kind = rng.random()
    if kind < 0.05:
        return r.ravel()
    if kind < 0.10:
        return np.hstack([r, np.ones((n, 1))])
    if kind < 0.20:
        return r.tolist()
    if kind < 0.30 and np.all(np.isfinite(r)):
        return np.round(r / scale * 4).astype(int)
    if kind < 0.35 and scale == 1.0:
        return r.astype(np.float32)
    if kind < 0.50:
        return np.asfortranarray(r)
    return r


def test_single_pass_gate_matches_the_three_step_gate():
    rng = np.random.default_rng(26)
    outcomes = set()
    for _ in range(3000):
        x = _census_input(rng)
        try:
            want = _reference_gate(x)
        except (DimensionMismatchError, SingularDiagonalError) as exc:
            with pytest.raises(type(exc)) as raised:
                _gate(x)
            assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
            outcomes.add(type(exc).__name__)
            continue
        g = _gate(x)
        for got, ref in ((g.r, want[0]), (g.signs, want[1])):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes(order="A") == ref.tobytes(order="A")
            assert got.flags.c_contiguous == ref.flags.c_contiguous
            assert got.flags.f_contiguous == ref.flags.f_contiguous
        assert g.e == want[2] == unit_scale(want[0])[1]
        np.testing.assert_array_equal(g.unit, unit_scale(want[0])[0], strict=True)
        outcomes.add("passed")
    assert outcomes == {"passed", "DimensionMismatchError", "SingularDiagonalError"}
