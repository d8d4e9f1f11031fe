"""Seeded random instance generators shared by the CLI and the tests.

Each case takes its own RngSpec derived from (master seed, case index),
and within a case each role (matrix entries, noise, parameters, truth)
gets its own sub-stream.  That keeps every case independent, replayable
in isolation, and safe to generate in parallel.
"""

import numpy as np

from .decode import ILSInstance
from .linalg import qr_factorize
from .rng import RngSpec, derive_seed, gaussian_block, uniform_block

__all__ = [
    "case_spec",
    "role_spec",
    "random_model_matrix",
    "random_triangular",
    "random_instance",
    "random_unreduced_2x2",
]

_ROLE_MATRIX = 0
_ROLE_NOISE = 1
_ROLE_PARAMS = 2
_ROLE_TRUTH = 3

INSTANCE_SIGMA_RANGE = (0.3, 1.0)     # random_instance draws sigma from here
UNREDUCED_SIGMA_RANGE = (0.25, 0.9)   # random_unreduced_2x2 draws sigma from here


def case_spec(master_seed: int, index: int) -> RngSpec:
    """Independent stream for case number `index` of a master-seeded run."""
    return RngSpec(seed=derive_seed(master_seed, index))


def role_spec(spec: RngSpec, role: int) -> RngSpec:
    return RngSpec(seed=derive_seed(spec.seed, role))


def random_model_matrix(spec: RngSpec, m: int, n: int) -> np.ndarray:
    """m x n matrix of independent standard normal entries."""
    return gaussian_block(role_spec(spec, _ROLE_MATRIX), 0, m * n).reshape(m, n)


def random_triangular(spec: RngSpec, n: int) -> np.ndarray:
    """Triangular factor of a random square Gaussian matrix."""
    return qr_factorize(random_model_matrix(spec, n, n)).r


def _uniform_in(spec: RngSpec, role: int, count: int, lo: float, hi: float) -> np.ndarray:
    return lo + (hi - lo) * uniform_block(role_spec(spec, role), 0, count)


def random_instance(spec: RngSpec, n: int) -> ILSInstance:
    """Full decoding problem: random triangular R, integer truth in
    [-4, 4], Gaussian noise at a sigma drawn from INSTANCE_SIGMA_RANGE."""
    r = random_triangular(spec, n)
    sigma = float(_uniform_in(spec, _ROLE_PARAMS, 1, *INSTANCE_SIGMA_RANGE)[0])
    truth = np.floor(
        _uniform_in(spec, _ROLE_TRUTH, n, 0.0, 9.0)).astype(np.int64) - 4
    noise = gaussian_block(role_spec(spec, _ROLE_NOISE), 0, n)
    y = r @ truth + sigma * noise
    return ILSInstance(r=r, y_tilde=y, sigma=sigma)


def random_unreduced_2x2(spec: RngSpec):
    """2x2 upper triangular with |r_01| comfortably above half the first
    pivot, plus a noise level drawn from UNREDUCED_SIGMA_RANGE; the staple
    instance for the strict improvement suites.  Returns (r, sigma)."""
    sigma_lo, sigma_hi = UNREDUCED_SIGMA_RANGE
    u = uniform_block(role_spec(spec, _ROLE_PARAMS), 0, 5)
    r00 = 0.6 + 1.4 * u[0]
    ratio = 0.6 + 1.9 * u[1]
    sign = 1.0 if u[2] > 0.5 else -1.0
    r11 = 0.6 + 1.4 * u[3]
    sigma = sigma_lo + (sigma_hi - sigma_lo) * u[4]
    r = np.array([[r00, sign * ratio * r00], [0.0, r11]])
    return r, float(sigma)
