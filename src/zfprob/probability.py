"""Estimators of the probability that rounding the unconstrained solution
recovers the true integer vector.

The target quantity is the Gaussian integral

    P = |det R| / (2 pi sigma^2)^{n/2} * integral over [-1/2, 1/2]^n
        of exp(-||R xi||^2 / (2 sigma^2)) d xi.

Four routes: a closed form for diagonal R, deterministic panel quadrature
for n <= 4 (with the innermost coordinate integrated exactly), plain Monte
Carlo on the same integral, all three built on one slab mass and one
density, and an empirical decoder simulation that checks them from outside.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import erf as _erf_array

from .errors import (
    DimensionTooLargeError,
    NoConvergenceError,
    NotDiagonalError,
)
from .linalg import check_sigma, positive_triangular, roundable_abs, unit_scale
from .rng import RngSpec, gaussian_block, uniform_block
from .tolerances import (
    DIAGONAL_OFFDIAG_TOL,
    ERF_ABS_ERROR,
    QUADRATURE_EVAL_CAP,
    QUADRATURE_MAX_DIM,
    QUADRATURE_NODES_PER_PANEL,
    QUADRATURE_TARGET,
)

__all__ = [
    "ProbabilityEstimate",
    "erf",
    "pzf_diagonal",
    "pzf_quadrature",
    "pzf_monte_carlo",
    "pzf_empirical",
]

MIN_SAMPLES = 1000

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(QUADRATURE_NODES_PER_PANEL)


@dataclass(frozen=True)
class ProbabilityEstimate:
    """A probability value with its provenance.

    error_bound is an absolute target for deterministic methods and one
    standard error for the sampled ones.  evaluations counts integrand
    evaluations, samples, or trials depending on the method.
    """

    value: float
    method: str
    error_bound: float
    evaluations: int
    seed: int | None = None

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ValueError(f"probability {self.value!r} outside [0, 1]")
        if self.error_bound < 0.0:
            raise ValueError("error_bound must be nonnegative")


def erf(x: float) -> float:
    """Error function, absolute error below 1e-12 over the real line."""
    return math.erf(x)


def _unit_model(r, sigma):
    """The gated factor and sigma, both divided by the power of two of the
    factor's largest entry: P_ZF depends on R / sigma alone, and the
    division is exact."""
    check_sigma(sigma)
    r, e = unit_scale(positive_triangular(r)[0])
    with np.errstate(over="ignore"):
        unit_sigma = float(np.ldexp(sigma, -e))
    if not 0.0 < unit_sigma < math.inf:
        raise ValueError(f"sigma {sigma!r} is out of floating-point range next to R")
    return r, unit_sigma


def _unit_density(r, sigma):
    """_unit_model plus the density's prefactor |det R| / (2 pi sigma^2)^{n/2},
    refusing sigma when the volume underflows to 0 or the prefactor overflows."""
    r, unit_sigma = _unit_model(r, sigma)
    volume = (2.0 * math.pi * unit_sigma * unit_sigma) ** (r.shape[0] / 2.0)
    if volume == 0.0 or not math.isfinite(pref := abs(float(np.prod(np.diag(r)))) / volume):
        raise ValueError(f"sigma {sigma!r} is out of floating-point range next to R")
    return r, unit_sigma, pref


def _slab_mass(shift, pivot, sigma):
    """erf((s + p/2) / (sqrt2 sigma)) - erf((s - p/2) / (sqrt2 sigma)): twice the
    mass of the slab |x| <= 1/2 for pivot p and the later coordinates' shift s."""
    half, root2sig = 0.5 * pivot, math.sqrt(2.0) * sigma
    return _erf_array((shift + half) / root2sig) - _erf_array((shift - half) / root2sig)


def _density(sigma, t):
    """The Gaussian factor exp(-||t||^2 / (2 sigma^2)) for each row t of the points R xi."""
    return np.exp(-np.sum(t * t, axis=1) / (2.0 * sigma * sigma))


def pzf_diagonal(r, sigma: float) -> ProbabilityEstimate:
    """Closed form for diagonal R: product over i of erf(r_ii / (2 sqrt2 sigma))."""
    r = np.asarray(r, dtype=float)
    # lower entries count too, so look before the triangular gate does
    if r.ndim == 2 and r.shape[0] == r.shape[1] and r.size:
        off = np.abs(r - np.diag(np.diag(r)))
        if np.max(off) > DIAGONAL_OFFDIAG_TOL * np.max(np.abs(r)):
            i, j = np.unravel_index(int(np.argmax(off)), off.shape)
            raise NotDiagonalError(f"entry ({i}, {j}) = {r[i, j]!r} is non-negligible")
    r, sigma = _unit_model(r, sigma)
    n = r.shape[0]
    value = float(np.prod(0.5 * _slab_mass(0.0, np.diag(r), sigma)))
    return ProbabilityEstimate(value=min(max(value, 0.0), 1.0), method="Diagonal",
                               error_bound=n * ERF_ABS_ERROR, evaluations=n)


def _panel_axis(panels: int):
    # Gauss-Legendre nodes/weights tiled over `panels` equal pieces of [-1/2, 1/2]
    edges = np.linspace(-0.5, 0.5, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 / panels
    x = (mid[:, None] + half * _GL_NODES[None, :]).ravel()
    w = np.tile(half * _GL_WEIGHTS, panels)
    return x, w


def _outer_value(r, sigma, pref, panels):
    """Integral over the outer n-1 coordinates of the exact inner-coordinate
    mass times the outer Gaussian factor, times the probability prefactor."""
    d = r.shape[0] - 1
    r11 = r[0, 0]
    x, w = _panel_axis(panels)
    axes = np.meshgrid(*([x] * d), indexing="ij")
    xi = np.stack([a.ravel() for a in axes], axis=1)
    weights = np.ones(xi.shape[0])
    for a in np.meshgrid(*([w] * d), indexing="ij"):
        weights *= a.ravel()
    shift = xi @ r[0, 1:]
    outer = _density(sigma, xi @ r[1:, 1:].T)
    vals = (sigma / r11) * math.sqrt(math.pi / 2.0) * _slab_mass(shift, r11, sigma) * outer
    return pref * float(weights @ vals), xi.shape[0]


def pzf_quadrature(r, sigma: float) -> ProbabilityEstimate:
    """Deterministic estimate for upper-triangular R, n <= 4.

    The innermost coordinate integrates exactly to an erf difference; the
    remaining coordinates use panel-subdivided Gauss-Legendre, doubling
    panel counts until two refinements agree to half of
    QUADRATURE_TARGET, the absolute error claimed.  Raises NoConvergence
    rather than return a value it cannot vouch for.
    """
    if np.ndim(r) == 2 and len(r) < 2:  # a diagonal factor: the closed form is exact
        return replace(pzf_diagonal(r, sigma), method="Quadrature",
                       error_bound=QUADRATURE_TARGET)
    r, sigma, pref = _unit_density(r, sigma)
    n = r.shape[0]
    if n > QUADRATURE_MAX_DIM:
        raise DimensionTooLargeError(
            f"deterministic quadrature supports n <= {QUADRATURE_MAX_DIM}, got {n}")
    # start fine enough that a panel cannot straddle the Gaussian ridge
    # unnoticed: panel width about sigma per column-norm unit
    col_scale = float(np.max(np.linalg.norm(r[:, 1:], axis=0)))
    panels = 1
    while panels * QUADRATURE_NODES_PER_PANEL * sigma < col_scale and panels < 512:
        panels *= 2
    total = 0
    prev = None
    while True:
        cost = (QUADRATURE_NODES_PER_PANEL * panels) ** (n - 1)
        if total + cost > QUADRATURE_EVAL_CAP:
            raise NoConvergenceError(
                f"evaluation cap {QUADRATURE_EVAL_CAP} reached at {panels} panels "
                f"without meeting target {QUADRATURE_TARGET}")
        est, points = _outer_value(r, sigma, pref, panels)
        total += points
        if prev is not None and abs(est - prev) < 0.5 * QUADRATURE_TARGET:
            value = min(max(est, 0.0), 1.0)
            return ProbabilityEstimate(value=value, method="Quadrature",
                                       error_bound=QUADRATURE_TARGET, evaluations=total)
        prev = est
        panels *= 2


def pzf_monte_carlo(r, sigma: float, samples: int, rng: RngSpec) -> ProbabilityEstimate:
    """Plain Monte Carlo on the defining integral with uniform xi draws.

    error_bound is one standard error of the mean, scaled by the
    prefactor.  Bit-reproducible for a fixed RngSpec.
    """
    r, sigma, pref = _unit_density(r, sigma)
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    n = r.shape[0]
    xi = uniform_block(rng, 0, samples * n).reshape(samples, n) - 0.5
    vals = _density(sigma, xi @ r.T)
    stderr = float(np.std(vals, ddof=1)) / math.sqrt(samples)
    value = min(max(pref * float(np.mean(vals)), 0.0), 1.0)
    return ProbabilityEstimate(value=value, method="MonteCarlo",
                               error_bound=pref * stderr, evaluations=samples,
                               seed=rng.seed)


def pzf_empirical(r, sigma: float, trials: int, rng: RngSpec) -> ProbabilityEstimate:
    """Simulate the decoder: success fraction over noise-only trials.

    The success event is translation invariant in the true vector, so the
    zero vector stands in for it; a trial succeeds when every rounded
    coordinate of R^{-1} noise is zero.  round_nearest takes ties toward
    zero, so that is when every coordinate has magnitude at most 1/2; a
    coordinate it would refuse raises its ValueError.  error_bound is the
    binomial standard error, or 1 / (trials + 1) at no or every success,
    the reach of the z = 1 Wilson interval.
    """
    r, sigma = _unit_model(r, sigma)
    if trials < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} trials, got {trials}")
    n = r.shape[0]
    noise = sigma * gaussian_block(rng, 0, trials * n).reshape(trials, n)
    # roundable_abs refuses a non-finite coordinate, so the solve need not look
    coords = solve_triangular(r, noise.T, lower=False, check_finite=False)
    successes = int(np.count_nonzero(np.all(roundable_abs(coords) <= 0.5, axis=0)))
    value = successes / trials
    stderr = math.sqrt(value * (1.0 - value) / trials) or 1.0 / (trials + 1)
    return ProbabilityEstimate(value=value, method="Empirical",
                               error_bound=stderr, evaluations=trials,
                               seed=rng.seed)

