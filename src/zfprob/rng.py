"""Deterministic counter-based random numbers.

Draw i is a pure function of (seed, i), so any block of a stream can be
regenerated independently and in parallel without carrying generator state.
The uniform stage finalizes ``seed + (counter + 1) * GOLDEN`` with the
splitmix64 mixer; gaussians pair consecutive uniform counters through the
Box-Muller transform.  Identical (seed, index) always yields bit-identical
output, which is what makes experiment reports replayable.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ALGORITHM_ID",
    "RngSpec",
    "derive_seed",
    "uniform_block",
    "gaussian_block",
]

ALGORITHM_ID = "splitmix64-boxmuller-v1"

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1
_INV_2_53 = float(2.0 ** -53)


@dataclass(frozen=True)
class RngSpec:
    """Seed plus algorithm tag; the tag guards against silent replays
    with a different generator."""

    seed: int
    algorithm_id: str = ALGORITHM_ID

    def __post_init__(self):
        if not isinstance(self.seed, int):
            raise TypeError(f"seed must be an int, got {type(self.seed).__name__}")
        object.__setattr__(self, "seed", self.seed & _MASK64)


def _check_spec(spec: RngSpec):
    if spec.algorithm_id != ALGORITHM_ID:
        raise ValueError(
            f"unsupported rng algorithm {spec.algorithm_id!r}; this build provides {ALGORITHM_ID!r}")


def _finalize(x: np.ndarray) -> np.ndarray:
    # splitmix64 output mixer; uint64 arithmetic wraps mod 2**64 by design
    x = (x ^ (x >> np.uint64(30))) * _M1
    x = (x ^ (x >> np.uint64(27))) * _M2
    return x ^ (x >> np.uint64(31))


def _bits(seed: int, counters: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return _finalize(np.uint64(seed) + (counters + np.uint64(1)) * _GOLDEN)


def derive_seed(seed: int, index: int) -> int:
    """Derive an independent child seed for sub-stream ``index``.

    Used to give each parallel worker its own stream while keeping the
    whole experiment a function of one master seed.
    """
    if index < 0:
        raise ValueError("index must be non-negative")
    with np.errstate(over="ignore"):
        base = _finalize(np.array([seed & _MASK64], dtype=np.uint64))
        child = base ^ ((np.uint64(index & _MASK64) + np.uint64(1)) * _GOLDEN)
        return int(_finalize(child)[0])


def uniform_block(spec: RngSpec, start: int, count: int) -> np.ndarray:
    """Uniform draws on (0, 1] for counters start .. start+count-1."""
    _check_spec(spec)
    if start < 0 or count < 0:
        raise ValueError("start and count must be non-negative")
    counters = np.arange(start, start + count, dtype=np.uint64)
    bits = _bits(spec.seed, counters)
    # top 53 bits, shifted into (0, 1]; never returns exactly 0
    return ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53


def gaussian_block(spec: RngSpec, start: int, count: int) -> np.ndarray:
    """Standard normal draws for indices start .. start+count-1.

    Gaussian index i consumes uniform counters 2*(i//2) and 2*(i//2)+1;
    even indices take the cosine branch of Box-Muller, odd the sine.  Any
    block therefore reproduces exactly regardless of how the stream was
    chunked when first drawn.
    """
    _check_spec(spec)
    if start < 0 or count < 0:
        raise ValueError("start and count must be non-negative")
    idx = np.arange(start, start + count, dtype=np.uint64)
    pair = (idx >> np.uint64(1)) << np.uint64(1)
    u1 = ((_bits(spec.seed, pair) >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
    u2 = ((_bits(spec.seed, pair + np.uint64(1)) >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    even = (idx & np.uint64(1)) == 0
    return np.where(even, radius * np.cos(angle), radius * np.sin(angle))

