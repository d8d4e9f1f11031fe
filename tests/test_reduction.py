import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import zfprob
import zfprob.reduction as reduction_module
from zfprob.ensembles import case_spec, random_triangular
from zfprob.errors import (
    DimensionMismatchError,
    InvalidGridError,
    IterationLimitExceededError,
    LatticeError,
    NotUnimodularError,
    RankDeficientError,
    SingularDiagonalError,
    SingularMatrixError,
)
from zfprob.linalg import (
    _gate,
    int64_entries,
    int_determinant,
    round_nearest,
)
from zfprob.probability import (
    _sidak_bracket,
    _unit_model,
    pzf_diagonal,
    pzf_empirical,
    pzf_monte_carlo,
    pzf_quadrature,
)
from zfprob.reduction import (
    LLLCheckReport,
    LLLParams,
    ReductionStats,
    _contract,
    _det_drift,
    _dual_basis,
    _perm_result,
    _sorted_order,
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
    ERF_ABS_ERROR,
    LLL_CHECK_SLACK,
    QUADRATURE_MAX_DIM,
    REDUCTION_RECONSTRUCTION_TOL,
    SOLVE_DIAG_MIN,
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
    r = _gate(r).unit
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
        assert r.flags.c_contiguous  # as the input, though the step runs on columns
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

    def test_transform_of_another_size_refused(self):
        with pytest.raises(DimensionMismatchError, match=r"Z must be 2x2, got \(3, 3\)"):
            size_reduce_entry(R_4_9, np.eye(3, dtype=np.int64), 0, 1)

    def test_non_integer_transform_refused(self):
        # an int64 cast would truncate 0.5 to 0 and return a singular z
        with pytest.raises(DimensionMismatchError):
            size_reduce_entry(R_4_9, [[0.5, 0.0], [0.0, 1.0]], 0, 1)
        _, z, _ = size_reduce_entry(R_4_9, [[1.0, 0.0], [0.0, 1.0]], 0, 1)
        np.testing.assert_array_equal(z, [[1, -2], [0, 1]])

    @pytest.mark.parametrize("pivot", [1.0, 1.25, 1.5, math.nextafter(2.0, 0.0), 0.7316, -1.0])
    @pytest.mark.parametrize("exponent", [-1, -20, -46])
    def test_one_ulp_above_half_a_pivot_applies_one(self, pivot, exponent):
        # the quotient is at least 1/2 + 2**-53 for a normal pivot, so mu is +-1, never 0;
        # r0 is at unit scale, and 2**-46 * 0.7316 clears the relative pivot floor
        pivot = math.ldexp(pivot, exponent)
        for sign in (1.0, -1.0):
            entry = sign * math.nextafter(abs(pivot) / 2, math.inf)
            r0 = np.array([[pivot, entry], [0.0, 0.5]])
            r, z, applied = size_reduce_entry(r0, EYE2, 0, 1)
            mu = -int(z[0, 1])
            assert applied and abs(mu) == 1
            assert r[0, 1] == entry - mu * pivot


class TestLovaszHolds:
    """The adjacent-pair condition, which lll_reduce tests inline: a
    size-reduced input swaps exactly where it fails."""

    def test_fails_on_size_reduced_spiky_matrix(self):
        assert lll_reduce([[4.0, 1.0], [0.0, 1.0]], LLLParams(delta=0.75)).stats.swaps == 1

    def test_holds_on_balanced_matrix(self):
        r = np.array([[SQRT2, 0.0], [0.0, 2 * SQRT2]])
        assert lll_reduce(r, LLLParams(delta=1.0)).stats == ReductionStats()

    def test_identity_boundary_equality(self):
        result = lll_reduce(np.eye(3), LLLParams(delta=1.0))
        assert result.stats == ReductionStats()
        np.testing.assert_array_equal(result.z, np.eye(3, dtype=np.int64))


def as_columns(r):
    """A matrix as lll_reduce holds its factor: one list of Python floats per column."""
    return np.array(r, dtype=float).T.tolist()


def from_columns(cols):
    return np.array(cols, dtype=float).T


def swapped(r, z, q, k):
    """_swap_inplace on copies, returning (r, z, q); r and z go in as their
    lists of columns and come back as a float and an int64 array."""
    cols = as_columns(r)
    z = np.array(z, dtype=np.int64).T.tolist()
    q = np.array(q, dtype=float)
    _swap_inplace(cols, z, q, k)
    return from_columns(cols), np.array(z, dtype=np.int64).T, q


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


def full_width_swap(cols, z, q, k):
    """_swap_inplace as first written, on columns: it rotates every column,
    the zeros left of column k-1 included, as the 2x2 product g^T applied to
    rows k-1 and k, then flips row k.  The reference for the bits of the swap
    that touches only the columns it changes and flips as it rotates."""
    cols[k - 1], cols[k] = cols[k], cols[k - 1]
    z[k - 1], z[k] = z[k], z[k - 1]
    a = cols[k - 1][k - 1]
    b = cols[k - 1][k]
    rho = math.hypot(a, b)
    if rho < SOLVE_DIAG_MIN:
        raise SingularDiagonalError(f"columns {k-1},{k} are numerically dependent")
    c = a / rho
    s = b / rho
    for col in cols:
        col[k - 1], col[k] = c * col[k - 1] + s * col[k], -s * col[k - 1] + c * col[k]
    g = np.array([[c, -s], [s, c]])
    q[:, [k - 1, k]] = q[:, [k - 1, k]] @ g
    for col in cols:
        col[k] = -col[k]
    q[:, k] = -q[:, k]
    cols[k - 1][k] = 0.0


def counted(monkeypatch, name, fn):
    """Put fn in the place of reduction's module-level name, and return a
    one-item list counting its calls, so a test can see that fn ran."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(reduction_module, name, counting)
    return calls


def test_swap_matches_the_full_width_swap_bit_for_bit():
    # every k at n = 2 .. 64: the rotation of q meets every tile edge of the BLAS kernel
    rng = np.random.default_rng(2013)
    for n in range(2, 65):
        r0 = np.triu(np.where(rng.random((n, n)) < 0.2, 0.0, rng.standard_normal((n, n))))
        r0[np.diag_indices(n)] = 0.1 + np.abs(rng.standard_normal(n))
        q0 = rng.standard_normal((n, n))
        z0 = rng.integers(-9, 10, (n, n)).tolist()
        for k in range(1, n):
            got, want = [], []
            for swap, out in ((_swap_inplace, got), (full_width_swap, want)):
                cols, z, q = as_columns(r0), [list(col) for col in z0], q0.copy()
                swap(cols, z, q, k)
                r = from_columns(cols)
                # the full-width flip leaves -0.0 left of column k-1 in row k
                assert not np.tril(r, -1).any()
                out += [np.triu(r).tobytes(), z, q.tobytes()]
            assert got == want, (n, k)


def scrambled_n48(seed):
    """A 48x48 factor scrambled by 48 random unimodular column operations,
    as the benchmark's reduce-n48 workload makes its inputs."""
    rng = np.random.default_rng([seed, 3])
    u = np.eye(48, dtype=np.int64)
    g = rng.standard_normal((48, 48))
    for _ in range(48):
        i, j = rng.choice(48, 2, replace=False)
        u[:, j] += int(rng.choice((-1, 1))) * u[:, i]
    _, r = np.linalg.qr(g @ u)
    return np.triu(np.where(np.diag(r) < 0.0, -1.0, 1.0)[:, None] * r) + 0.0


def lll_outcome(r, delta):
    try:
        res = lll_reduce(r, LLLParams(delta=delta))
    except LatticeError as exc:
        return type(exc), str(exc)
    return (res.r_bar.tobytes(), res.z.tobytes(), res.q_bar.tobytes(), res.stats,
            res.reconstruction_error.hex(), res.det_drift.hex())


@pytest.mark.parametrize("delta", [0.3, 0.75, 0.99, 1.0])
def test_lll_reduce_matches_the_full_width_swap_bit_for_bit(delta, monkeypatch):
    factors = [ill_conditioned(i) for i in range(500)] + [scrambled_n48(s) for s in (1, 2, 3)]
    got = [lll_outcome(r, delta) for r in factors]
    calls = counted(monkeypatch, "_swap_inplace", full_width_swap)
    want = [lll_outcome(r, delta) for r in factors]
    assert got == want
    assert calls[0] > 0
    # both results and refusals are compared
    assert sum(isinstance(o[0], bytes) for o in got) > 100
    assert sum(isinstance(o[0], type) for o in got) > 100


def dense_column(col, n):
    """A column of z as a list of n Python ints; a sparse {row: value}
    column, as lll_reduce and size_reduce_entry make them, is filled out."""
    return col if isinstance(col, list) else [col.get(row, 0) for row in range(n)]


def dense_size_reduce(cols, z, i, k):
    """_size_reduce_inplace as it was when z was a list of dense columns: it
    rewrites all n Python ints of column k, zeros included, and updates the
    factor's column one entry at a time.  The reference for the bits of the
    update that touches only the nonzero entries."""
    pivot, entry = cols[i][i], cols[k][i]
    if abs(pivot) < SOLVE_DIAG_MIN:
        raise SingularDiagonalError(f"pivot {i} has relative magnitude {abs(pivot)!r}")
    if abs(entry) <= 0.5 * abs(pivot):
        return False
    mu = round_nearest(entry / pivot)
    for row in range(i + 1):
        cols[k][row] -= mu * cols[i][row]
    n = len(z)
    z[k] = [a - mu * b for a, b in zip(dense_column(z[k], n), dense_column(z[i], n))]
    return True


def dense_transform(z):
    """_transform as it was when z was a list of dense columns."""
    n = len(z)
    z = [dense_column(col, n) for col in z]
    return int64_entries(z, "transform entry").reshape(n, n).T.copy()


def falling_pivots(seed, rate):
    """A 32x32 factor whose pivots fall by exp(-rate) a column: at rate 0.03
    LLL leaves a Z that is about half nonzero, at 0.2 one that leaves int64."""
    rng = np.random.default_rng([seed, 32])
    r = np.triu(rng.standard_normal((32, 32)))
    np.fill_diagonal(r, np.exp(-rate * np.arange(32)) * (0.5 + rng.random(32)))
    return r


@pytest.mark.parametrize("delta", [0.3, 0.75, 0.99, 1.0])
def test_lll_reduce_matches_the_dense_transform_bit_for_bit(delta, monkeypatch):
    factors = ([ill_conditioned(i) for i in range(500)] + [scrambled_n48(s) for s in (1, 2, 3)]
               + [falling_pivots(s, 0.03) for s in range(3)] + [falling_pivots(0, 0.2)])
    got = [lll_outcome(r, delta) for r in factors]
    reductions = counted(monkeypatch, "_size_reduce_inplace", dense_size_reduce)
    transforms = counted(monkeypatch, "_transform", dense_transform)
    want = [lll_outcome(r, delta) for r in factors]
    assert got == want
    assert reductions[0] > 0 and transforms[0] > 0
    # both results and refusals are compared, a dense Z and an int64 refusal among them
    assert sum(isinstance(o[0], bytes) for o in got) > 100
    assert sum(isinstance(o[0], type) for o in got) > 100
    assert any(isinstance(o[0], bytes) and np.count_nonzero(np.frombuffer(o[1], np.int64))
               > 0.45 * 32 * 32 for o in got[-4:])
    assert "int64" in got[-1][1]


def test_size_reduce_entry_matches_the_dense_transform_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(300):
        n = int(rng.integers(2, 7))
        r = np.triu(rng.standard_normal((n, n)) * 10.0 ** rng.integers(-1, 3))
        r[np.diag_indices(n)] = 0.05 + np.abs(rng.standard_normal(n))
        # mostly zeros, some entries near the int64 edge
        z = np.where(rng.random((n, n)) < 0.6, 0, rng.integers(-5, 6, (n, n))).tolist()
        if rng.random() < 0.2:
            z[int(rng.integers(n))][int(rng.integers(n))] = int(rng.choice((-1, 1))) * 2 ** 62
        i, k = sorted(int(v) for v in rng.choice(n, 2, replace=False))
        cases.append((r, z, i, k))

    def outcomes():
        out = []
        for r, z, i, k in cases:
            try:
                r_out, z_out, applied = size_reduce_entry(r, z, i, k)
            except LatticeError as exc:
                out.append((type(exc), str(exc)))
            else:
                out.append((r_out.tobytes(), z_out.tobytes(), applied))
        return out

    got = outcomes()
    reductions = counted(monkeypatch, "_size_reduce_inplace", dense_size_reduce)
    transforms = counted(monkeypatch, "_transform", dense_transform)
    assert got == outcomes()
    assert reductions[0] == len(cases) and transforms[0] > 0
    assert sum(o[-1] is True for o in got) > 50
    assert sum(o[-1] is False for o in got) > 20
    assert sum(isinstance(o[0], type) for o in got) > 5


# ill_conditioned indices whose outcome class, result or refusal, changed by
# design when the loop's rotation left BLAS for Python floats: {delta:
# {index: True if it is a result now}}.  The rotation's low bits moved, and
# the float measurement of the contract near its tolerance moved with them.
CLASS_CHANGED_BY_DESIGN = {0.99: {480: True, 497: False}, 1.0: {480: True, 497: False}}
# z_and_stats_digest(delta) as the loop gave it when its rotation ran through
# BLAS, before that change
Z_AND_STATS_DIGESTS = {
    0.3: "f39c86e4177ec37272b49da07f69a6c3d4dbe3b758aaaab06793ee5ff011adb9",
    0.75: "bd94ab11674a5490f06bde9bf7699fa3263f68b278ec9c0e336af0dc91e990f0",
    0.99: "681b6f979759d731745811b5ed2efce439de55e85c59cd2371ad63fc1ca0c859",
    1.0: "8ffb4a91f4cee91eb1c8449dd17802c2e0d3b912530dbbef4fd919b39de0c658",
}


def z_and_stats_digest(delta):
    """sha256 over lll_reduce's z bytes and stats, input by input, on
    scrambled_n48(1 .. 3) and ill_conditioned(i), i < 500, with "refused"
    for a refusal; the inputs in CLASS_CHANGED_BY_DESIGN are left out."""
    changed = CLASS_CHANGED_BY_DESIGN.get(delta, {})
    factors = ([scrambled_n48(s) for s in (1, 2, 3)]
               + [ill_conditioned(i) for i in range(500) if i not in changed])
    h = hashlib.sha256()
    for r in factors:
        try:
            res = lll_reduce(r, LLLParams(delta=delta))
        except LatticeError:
            h.update(hashlib.sha256(b"refused").digest())
        else:
            h.update(hashlib.sha256(res.z.tobytes() + repr(res.stats).encode()).digest())
    return h.hexdigest()


@pytest.mark.parametrize("delta", sorted(Z_AND_STATS_DIGESTS))
def test_z_and_stats_keep_their_bits(delta):
    assert z_and_stats_digest(delta) == Z_AND_STATS_DIGESTS[delta]
    for i, is_result in CLASS_CHANGED_BY_DESIGN.get(delta, {}).items():
        assert isinstance(lll_outcome(ill_conditioned(i), delta)[0], bytes) == is_result


def test_lll_reduce_r_bar_does_not_depend_on_the_blas_kernel(tmp_path):
    # OpenBLAS picks its kernel for the CPU unless OPENBLAS_CORETYPE names one;
    # Nehalem's has no fused multiply-add, the kernels of later cores do.  Where
    # OpenBLAS ignores the variable, both runs use one kernel and this holds too.
    # q_bar still accumulates the rotations through BLAS, so it is not compared.
    r = scrambled_n48(1)  # made here once: its QR depends on the kernel too
    np.save(tmp_path / "r.npy", r)
    script = ("import sys, numpy as np; from zfprob import lll_reduce; "
              "res = lll_reduce(np.load(sys.argv[1])); "
              "sys.stdout.write(res.r_bar.tobytes().hex() + ' ' + res.z.tobytes().hex())")
    path = [str(Path(zfprob.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_CORETYPE="Nehalem",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "r.npy")], env=env,
                         check=True, capture_output=True, text=True, timeout=120).stdout
    res = lll_reduce(r)
    assert res.stats.swaps > 0
    assert out.split() == [res.r_bar.tobytes().hex(), res.z.tobytes().hex()]


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


def test_orderings_keep_their_transform_from_2_to_the_minus_1020_to_2_to_the_1000():
    # vblast orders on the dual basis of the unit-scaled factor, as sqrd
    # orders on that factor: R^-1 of 2**-1020 * R would leave the float range
    r = np.array([[1.0, 0.3, -0.2], [0.0, 0.5, 0.7], [0.0, 0.0, 1e-5]])
    want = {strategy: strategy(r).z for strategy in (sqrd, vblast)}
    for p in range(-1020, 1001, 5):
        for strategy, z in want.items():
            np.testing.assert_array_equal(strategy(2.0 ** p * r).z, z, err_msg=f"p={p}")


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
            _gate(result.r_bar)
            assert _contract(r, result.r_bar, result.z,
                             result.q_bar) == (result.reconstruction_error, result.det_drift)
    # here the loop loses z on 161 factors; sqrd's reordered factor fails the
    # gate on 44 and its factorization drifts on 30, and vblast returns all
    # 499 factors the gate lets in
    assert contract_refusals[lll_reduce] > 0 and contract_refusals[sqrd] > 0
    assert contract_refusals[vblast] == 0


def _inside_the_bracket(estimate, r, sigma):
    """Whether estimate lies in Sidak's bracket for (r, sigma), give or take
    three of its bounds."""
    g, unit_sigma = _unit_model(r, sigma)
    lower, upper = _sidak_bracket(g.unit, unit_sigma)
    slack = 3 * estimate.error_bound
    return lower - slack <= estimate.value <= upper + slack


def test_sampler_reorders_through_the_contract():
    # the reordered factor is refused by the contract, as sqrd and vblast
    # refuse theirs: here it drifts by 2e-9 (176) or fails the gate's pivot
    # floor (0); the order only lowers the variance, so the sampler answers
    # in the gated order
    for index, error, match in ((176, SingularMatrixError, "^determinant drift .* exceeds 1e-09$"),
                                (0, RankDeficientError, "^matrix is rank deficient: ")):
        r = ill_conditioned(index)
        unit = _unit_model(r, 0.3)[0].unit
        order = _sorted_order(_dual_basis(unit), largest=True)
        with pytest.raises(error, match=match):
            _perm_result(_gate(unit), order[::-1])
        assert _inside_the_bracket(pzf_monte_carlo(r, 0.3, 2000, RngSpec(seed=1)), r, 0.3)


def test_sampler_reorders_the_unit_factor():
    # the sampler gates its unit factor again to reorder it: the reordered R
    # of the caller's gate value leaves the float range here, and the sampler
    # would fall back to the gated order and a bound of 2.3e-3
    r = np.array([[1e300, 1.7e308], [0.0, 1.7e308]])
    unit = _unit_model(r, 1e300)[0].unit
    order = _sorted_order(_dual_basis(unit), largest=True)
    with pytest.raises(SingularMatrixError, match="^R is out of floating-point range$"):
        _perm_result(_gate(r), order[::-1])
    estimate = pzf_monte_carlo(r, 1e300, 2000, RngSpec(seed=1))
    assert estimate.error_bound == 2 * ERF_ABS_ERROR
    assert abs(estimate.value - pzf_quadrature(r, 1e300).value) <= 1e-12


def test_sampler_answers_every_factor_the_gate_accepts():
    # in the dual order alone, 99 of these were answered: the reordered
    # factor failed the gate on 488 and the determinant drift test on 11
    counts = Counter()
    for i in range(600):
        r = ill_conditioned(i)
        try:
            estimate = pzf_monte_carlo(r, 0.3, 2000, RngSpec(seed=1))
        except SingularDiagonalError:  # the gate, on the factor itself
            counts["refused by the gate"] += 1
            continue
        assert _inside_the_bracket(estimate, r, 0.3), i
        counts["answered"] += 1
    assert counts == {"answered": 598, "refused by the gate": 2}


@pytest.mark.parametrize("reduce, index, failed", [
    (lll_reduce, 0, "reconstruction error"),
    (sqrd, 13, "determinant drift"),
])
def test_refusal_names_the_failed_test(reduce, index, failed):
    with pytest.raises(SingularMatrixError, match=f"^{failed} .* exceeds 1e-09$"):
        reduce(ill_conditioned(index))


def test_check_refuses_a_broken_result():
    result = lll_reduce(R_4_9)
    with pytest.raises(NotUnimodularError, match=r"^transform determinant is -?4, expected \+-1$"):
        dataclasses.replace(result, z=2 * result.z).check(R_4_9)
    flipped = result.r_bar * np.array([[1.0], [-1.0]])
    # r_bar is the gated value's factor, so a broken one is planted there
    broken = dataclasses.replace(result.gated, r=flipped)
    with pytest.raises(SingularDiagonalError, match="^reduced matrix has a non-positive pivot$"):
        dataclasses.replace(result, gated=broken).check(R_4_9)
    # an input that differs by 1e-12 passes the reconstruction test, then its zero pivot is refused
    near = lll_reduce([[1.0, 0.0], [0.0, 1e-12]])
    with pytest.raises(SingularMatrixError, match="^input factor has a zero pivot$"):
        near.check([[1.0, 0.0], [0.0, 0.0]])


def test_check_evaluates_the_determinant_once(monkeypatch):
    calls = []
    monkeypatch.setattr(reduction_module, "int_determinant",
                        lambda z: calls.append(z) or int_determinant(z))
    result = lll_reduce(R_4_9)
    with pytest.raises(NotUnimodularError, match=r"^transform determinant is -?4, "):
        dataclasses.replace(result, z=2 * result.z).check(R_4_9)
    assert len(calls) == 1


@pytest.mark.parametrize("reduce", [lll_reduce, sqrd, vblast])
def test_fields_are_what_check_measures(reduce):
    for i in range(10):
        r = random_triangular(case_spec(99, i), 2 + i % 4)
        flipped = np.where(np.arange(r.shape[0]) % 2, -1.0, 1.0)[:, None] * r
        for factor in (r, flipped):
            result = reduce(factor)
            result.check(factor)
            assert _contract(factor, result.r_bar, result.z,
                             result.q_bar) == (result.reconstruction_error, result.det_drift)
