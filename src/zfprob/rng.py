"""Deterministic counter-based random numbers.

Draw i is a pure function of (seed, i), so any block of a stream can be
regenerated independently and in parallel without carrying generator state.
The uniform stage finalizes ``seed + (counter + 1) * GOLDEN`` with the
splitmix64 mixer; gaussians pair consecutive uniform counters through the
Box-Muller transform, which runs once per pair and yields both of its
normals.  Identical (seed, index) always yields bit-identical output, which
is what makes experiment reports replayable.
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

# splitmix64's increment and its mixer's two multipliers, as Python ints
_GOLDEN_INT, _M1_INT, _M2_INT = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_GOLDEN, _M1, _M2 = np.uint64(_GOLDEN_INT), np.uint64(_M1_INT), np.uint64(_M2_INT)
_MASK64 = (1 << 64) - 1
_INV_2_53 = float(2.0 ** -53)


@dataclass(frozen=True)
class RngSpec:
    """The seed of one stream, wrapped to 64 bits; every stream comes from
    the one generator named by ALGORITHM_ID."""

    seed: int

    def __post_init__(self):
        if not isinstance(self.seed, int):
            raise TypeError(f"seed must be an int, got {type(self.seed).__name__}")
        object.__setattr__(self, "seed", self.seed & _MASK64)


def _finalize(x: np.ndarray) -> np.ndarray:
    # splitmix64 output mixer; uint64 arithmetic wraps mod 2**64 by design
    x = (x ^ (x >> np.uint64(30))) * _M1
    x = (x ^ (x >> np.uint64(27))) * _M2
    return x ^ (x >> np.uint64(31))


def _finalize_int(x: int) -> int:
    # _finalize on one value in [0, 2**64), in Python ints masked to 64 bits
    x = ((x ^ (x >> 30)) * _M1_INT) & _MASK64
    x = ((x ^ (x >> 27)) * _M2_INT) & _MASK64
    return x ^ (x >> 31)


def _bits(seed: int, counters: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return _finalize(np.uint64(seed) + (counters + np.uint64(1)) * _GOLDEN)


def _unit(bits: np.ndarray) -> np.ndarray:
    # top 53 bits, shifted into (0, 1]; never returns exactly 0
    return ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53


def derive_seed(seed: int, index: int) -> int:
    """Derive an independent child seed for sub-stream ``index``.

    Used to give each parallel worker its own stream while keeping the
    whole experiment a function of one master seed.
    """
    if index < 0:
        raise ValueError("index must be non-negative")
    step = (((index & _MASK64) + 1) * _GOLDEN_INT) & _MASK64
    return _finalize_int(_finalize_int(seed & _MASK64) ^ step)


def uniform_block(spec: RngSpec, start: int, count: int) -> np.ndarray:
    """Uniform draws on (0, 1] for counters start .. start+count-1."""
    if start < 0 or count < 0:
        raise ValueError("start and count must be non-negative")
    return _unit(_bits(spec.seed, np.arange(start, start + count, dtype=np.uint64)))


def gaussian_block(spec: RngSpec, start: int, count: int) -> np.ndarray:
    """Standard normal draws for indices start .. start+count-1.

    Gaussian index i consumes uniform counters 2*(i//2) and 2*(i//2)+1;
    even indices take the cosine branch of Box-Muller, odd the sine.  Any
    block therefore reproduces exactly regardless of how the stream was
    chunked when first drawn.  Each pair touched is transformed once, into
    an even and an odd slot of one buffer, which is then cut to the block.
    """
    if start < 0 or count < 0:
        raise ValueError("start and count must be non-negative")
    first = start // 2
    counters = np.arange(first, (start + count + 1) // 2, dtype=np.uint64) << np.uint64(1)
    radius = np.sqrt(-2.0 * np.log(_unit(_bits(spec.seed, counters))))
    angle = 2.0 * np.pi * _unit(_bits(spec.seed, counters + np.uint64(1)))
    out = np.empty(2 * counters.size)
    np.multiply(radius, np.cos(angle), out=out[0::2])
    np.multiply(radius, np.sin(angle), out=out[1::2])
    return out[start - 2 * first:][:count]
