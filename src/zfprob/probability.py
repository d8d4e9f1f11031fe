"""Estimators of the probability that rounding the unconstrained solution
recovers the true integer vector.

The target quantity is the Gaussian integral

    P = |det R| / (2 pi sigma^2)^{n/2} * integral over [-1/2, 1/2]^n
        of exp(-||R xi||^2 / (2 sigma^2)) d xi.

Four routes: a closed form for diagonal R; deterministic quadrature for
n <= 4, whose panels integrate the innermost coordinate exactly and the
outer ones against the density, and whose every answer is checked
against, or taken from, Sidak's bracket of marginal slab masses;
sequential conditioning, which samples the coordinates of R^{-1} v last
to first, each within its slab, and averages the product of the slab
masses; and an empirical decoder simulation that checks them from
outside.  The first three, and the bracket, are built on one slab mass.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import erf as _erf_array
from scipy.special import log_ndtr, ndtri_exp

from .errors import (
    DimensionTooLargeError,
    NoConvergenceError,
    NotDiagonalError,
)
from .linalg import check_sigma, positive_triangular, roundable_abs, unit_scale
from .reduction import _dual_basis, _perm_result, _sorted_order
from .rng import RngSpec, gaussian_block, uniform_block
from .tolerances import (
    DIAGONAL_OFFDIAG_TOL,
    ERF_ABS_ERROR,
    MC_MIN_ESS_FRACTION,
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
_EMPIRICAL_BLOCK = 2048  # trials per noise block: a block at n = 16 is 256 KB

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


def _slab_mass(shift, pivot, sigma):
    """erf((s + p/2) / (sqrt2 sigma)) - erf((s - p/2) / (sqrt2 sigma)): twice the
    mass of the slab |x| <= 1/2 for pivot p and the later coordinates' shift s."""
    half, root2sig = 0.5 * pivot, math.sqrt(2.0) * sigma
    return _erf_array((shift + half) / root2sig) - _erf_array((shift - half) / root2sig)


def _density(sigma, t):
    """The Gaussian factor exp(-||t||^2 / (2 sigma^2)) for each row t of the points R xi."""
    return np.exp(-np.sum(t * t, axis=1) / (2.0 * sigma * sigma))


def _sidak_bracket(r, sigma) -> tuple[float, float]:
    """(prod p_i, min p_i) for the unit model (r, sigma), where
    p_i = 0.5 * _slab_mass(0, 1 / ||row i of R^-1||, sigma), the closed form
    at the pivot coordinate i would get if placed last, is the mass of the
    slab |x_i| <= 1/2 in the marginal of x = R^-1 v.  Sidak's inequality
    (JASA 1967) puts P_ZF between the two; both are 1 at n = 0 and P_ZF at
    n = 1."""
    with np.errstate(over="ignore"):  # an infinite argument: p_i = 1
        p = 0.5 * _slab_mass(0.0, 1.0 / np.hypot.reduce(_dual_basis(r), axis=0), sigma)
    return float(np.prod(p)), float(np.min(p, initial=1.0))


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
    QUADRATURE_TARGET, the absolute error claimed, or until the next
    refinement would pass QUADRATURE_EVAL_CAP evaluations.  The panels
    run at n >= 2, where the density's prefactor |det R| / (2 pi sigma^2)^{n/2}
    is finite over a volume strictly between 0 and inf.  Sidak's bracket
    (_sidak_bracket) then decides: a converged value inside it, give or
    take the target, keeps its bits; otherwise a bracket narrower than the
    target answers with its midpoint, with the half-width (at least
    n * ERF_ABS_ERROR) as its bound; otherwise NoConvergenceError.  So
    n < 2, where the bracket is exact, and a sigma outside the density's
    range answer from the bracket with 0 evaluations.  evaluations counts
    the integrand evaluations spent either way.
    """
    r, sigma = _unit_model(r, sigma)
    n = r.shape[0]
    if n > QUADRATURE_MAX_DIM:
        raise DimensionTooLargeError(
            f"deterministic quadrature supports n <= {QUADRATURE_MAX_DIM}, got {n}")
    try:
        volume = (2.0 * math.pi * sigma * sigma) ** (n / 2.0)
    except OverflowError:  # a finite base whose power leaves the float range
        volume = math.inf
    # an infinite prefactor keeps the panels off, and the bracket answers
    pref = abs(float(np.prod(np.diag(r)))) / volume if 0.0 < volume < math.inf else math.inf
    # start fine enough that a panel cannot straddle the Gaussian ridge
    # unnoticed: panel width about sigma per column-norm unit
    col_scale = float(np.max(np.linalg.norm(r[:, 1:], axis=0), initial=0.0))
    panels = 1
    while panels * QUADRATURE_NODES_PER_PANEL * sigma < col_scale and panels < 512:
        panels *= 2
    total, prev, est = 0, None, None
    # refine until two values agree or the next refinement would pass the cap
    while n >= 2 and math.isfinite(pref) and est is None and (
            total + (QUADRATURE_NODES_PER_PANEL * panels) ** (n - 1) <= QUADRATURE_EVAL_CAP):
        value, points = _outer_value(r, sigma, pref, panels)
        total += points
        if prev is not None and abs(value - prev) < 0.5 * QUADRATURE_TARGET:
            est = value
        prev, panels = value, 2 * panels
    # two refinements can agree on a value the panels never resolved (0 where
    # P = 1 at sigma 1e-8), so the bracket has the last word
    lower, upper = _sidak_bracket(r, sigma)
    if est is not None and lower - QUADRATURE_TARGET <= est <= upper + QUADRATURE_TARGET:
        return ProbabilityEstimate(value=min(max(est, 0.0), 1.0), method="Quadrature",
                                   error_bound=QUADRATURE_TARGET, evaluations=total)
    if upper - lower >= QUADRATURE_TARGET:
        found = (f"no convergence within {QUADRATURE_EVAL_CAP} evaluations" if est is None
                 else f"converged value {est!r} lies outside the Sidak bracket")
        raise NoConvergenceError(
            f"{found}, and the bracket [{lower!r}, {upper!r}] is not narrower than "
            f"target {QUADRATURE_TARGET}")
    half = 0.5 * (upper - lower)
    return ProbabilityEstimate(value=lower + half, method="Quadrature",
                               error_bound=max(half, n * ERF_ABS_ERROR), evaluations=total)


def _conditional_step(shift, pivot, sigma, log_u):
    """One coordinate of sequential conditioning, over all samples at once.

    Given the later coordinates' shift s, the coordinate is N(-s/p, sigma^2/p^2)
    for pivot p.  Returns the log of its mass on [-1/2, 1/2], which is
    log(0.5 * _slab_mass(s, p, sigma)) up to rounding, and a draw from it
    truncated there: the point that cuts off the fraction exp(log_u) of
    that mass, counted from the end of the slab farther from the mean.
    """
    # an end that overflows is a whole half-line, and a mass that rounds to 0 has log -inf
    with np.errstate(over="ignore", divide="ignore"):
        a, b = (shift - 0.5 * pivot) / sigma, (shift + 0.5 * pivot) / sigma
        # the slab in standard units, reflected left of 0, where log_ndtr and
        # ndtri_exp keep their precision in the tail
        flip = shift > 0.0
        lo, hi = np.where(flip, -b, a), np.where(flip, -a, b)
        log_lo = log_ndtr(lo)
        # floored, so that log_lo - log_hi is not inf - inf where both CDFs underflow
        log_hi = np.maximum(log_ndtr(hi), -np.finfo(float).max)
        # a slab that holds the mean can be too narrow for the log-CDFs to
        # differ (sigma 1e160), while the erf difference keeps its precision
        log_mass = np.where(hi >= 0.0, np.log(0.5 * _slab_mass(shift, pivot, sigma)),
                            log_hi + np.log(-np.expm1(log_lo - log_hi)))
        z = np.clip(ndtri_exp(np.logaddexp(log_lo, log_u + log_mass)), lo, hi)
        x = (sigma * np.where(flip, -z, z) - shift) / pivot
    return log_mass, np.clip(x, -0.5, 0.5)


def pzf_monte_carlo(r, sigma: float, samples: int, rng: RngSpec) -> ProbabilityEstimate:
    """Sequential conditioning (Genz, JCGS 1992): x = R^{-1} v is drawn last
    coordinate first, each from its conditional normal truncated to
    [-1/2, 1/2], and a sample's weight is the product of those conditional
    masses, so P_ZF is the mean weight.

    A column permutation leaves P_ZF unchanged, so the columns are first
    ordered, largest conditional spread outermost: the sorted QR on the dual
    basis R^-T, largest residual first, picks reversed.  The reordered
    columns are re-triangularized as sqrd and vblast do theirs: a factor the
    gate refuses raises RankDeficientError, and one that fails the
    reductions' reconstruction or determinant contract raises
    SingularMatrixError naming the failed test.  Each coordinate takes one
    uniform_block value.  error_bound is one standard error of the
    mean weight, floored at n * ERF_ABS_ERROR as the closed form's is.
    Bit-reproducible for a fixed RngSpec.  Raises NoConvergenceError when
    the Kish effective sample size of the weights, (sum w)^2 / sum w^2, is
    below MC_MIN_ESS_FRACTION * samples: then a few draws carry the mean,
    and its standard error is no bound.
    """
    r, sigma = _unit_model(r, sigma)
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    n = r.shape[0]
    order = _sorted_order(_dual_basis(r), largest=True)
    r = _perm_result(r, r, np.ones(n), order[::-1]).r_bar
    # sample i takes uniforms [i * n, (i + 1) * n); rows are coordinates, so
    # each step reads contiguous memory
    log_u = np.log(uniform_block(rng, 0, samples * n).reshape(samples, n).T.copy())
    x = np.zeros((n, samples))
    log_w = np.zeros(samples)
    for k in range(n - 1, -1, -1):
        log_mass, x[k] = _conditional_step(r[k, k + 1:] @ x[k + 1:], r[k, k], sigma, log_u[k])
        log_w += log_mass
    # the weights over the largest, so their squares cannot underflow
    top = float(np.max(log_w))
    rel = np.exp(log_w - top) if top > -math.inf else np.zeros(samples)
    ess = float(np.sum(rel)) ** 2 / (float(rel @ rel) or 1.0)
    if ess < MC_MIN_ESS_FRACTION * samples:
        raise NoConvergenceError(
            f"effective sample size {ess:.3g} of {samples} samples is below "
            f"{MC_MIN_ESS_FRACTION} of them")
    w = np.exp(log_w)
    stderr = float(np.std(w, ddof=1)) / math.sqrt(samples)
    return ProbabilityEstimate(value=min(max(float(np.mean(w)), 0.0), 1.0), method="MonteCarlo",
                               error_bound=max(stderr, n * ERF_ABS_ERROR), evaluations=samples,
                               seed=rng.seed)


def _empirical_estimates(factors, sigma: float, trials: int, rng: RngSpec) -> list:
    """pzf_empirical on each factor, all on the one noise stream of rng: each
    block of _EMPIRICAL_BLOCK trials is drawn once and tested on every factor
    while it is in cache.  A block equals the same slice of one whole draw,
    and a column's triangular solve does not depend on its neighbours, so
    every estimate equals its own pzf_empirical call."""
    models = [_unit_model(r, sigma) for r in factors]
    if trials < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} trials, got {trials}")
    n = models[0][0].shape[0]
    successes = [0] * len(models)
    for first in range(0, trials, _EMPIRICAL_BLOCK):
        count = min(_EMPIRICAL_BLOCK, trials - first)
        g = gaussian_block(rng, first * n, count * n).reshape(count, n)
        for k, (r, unit_sigma) in enumerate(models):
            # roundable_abs refuses a non-finite coordinate, so the solve need not look
            coords = solve_triangular(r, (unit_sigma * g).T, lower=False, check_finite=False)
            successes[k] += int(np.count_nonzero(np.all(roundable_abs(coords) <= 0.5, axis=0)))
    estimates = []
    for hits in successes:
        value = hits / trials
        stderr = math.sqrt(value * (1.0 - value) / trials) or 1.0 / (trials + 1)
        estimates.append(ProbabilityEstimate(value=value, method="Empirical", error_bound=stderr,
                                             evaluations=trials, seed=rng.seed))
    return estimates


def pzf_empirical(r, sigma: float, trials: int, rng: RngSpec) -> ProbabilityEstimate:
    """Simulate the decoder: success fraction over noise-only trials.

    The success event is translation invariant in the true vector, so the
    zero vector stands in for it; a trial succeeds when every rounded
    coordinate of R^{-1} noise is zero.  round_nearest takes ties toward
    zero, so that is when every coordinate has magnitude at most 1/2; a
    coordinate it would refuse raises its ValueError.  error_bound is the
    binomial standard error, or 1 / (trials + 1) at no or every success,
    the reach of the z = 1 Wilson interval.  The trials stream through in
    blocks of _EMPIRICAL_BLOCK, so memory does not grow with trials; the
    value does not depend on the block size.
    """
    return _empirical_estimates([r], sigma, trials, rng)[0]
