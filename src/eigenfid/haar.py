"""Haar-random pure states and Monte Carlo averaging.

Sampling draws 2d independent standard normals, forms d complex amplitudes,
and normalizes; the resulting distribution on the unit sphere is exactly the
Haar measure. A qubit sampler can also hand out the Bloch vectors of those
same states, computed in real arithmetic from the same draws, either all at
once or streamed in blocks of _BLOCK (4096) rows through about 0.3 MB of
reused buffers; the blocks continue one stream, so they hold exactly the
values of the single draw, and the stream ends where that draw leaves it.
Samplers are deterministic given (seed, dim), and parallel workers must use
independently derived child samplers rather than sharing one stream.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .densmat import DensityMatrix, PureState
from .errors import DimensionMismatch

_U64 = 2 ** 64
# sample counts are array lengths, so they must fit in an index
MAX_SAMPLES = int(np.iinfo(np.intp).max)
# rows per Bloch block. With 4096, a Monte Carlo estimate at 10^6 samples
# peaks at 8.5 B per sample under tracemalloc (80 B as one full-array pass),
# and at 2e4 samples it takes 1.9-2.7 ms against the full pass's 2.4-3.0 ms
# (best of 7 per run, 2-vCPU Xeon). On the benchmark's Monte Carlo sweep
# (20k samples a row, 2 workers) 8192-row blocks ran as fast but peaked at
# 35.8 MB RSS against 35.4 MB for 4096 and 36.7 MB for the full pass
_BLOCK = 4096


def _integral(value, lo: int, hi, what: str) -> int:
    """value as an int if it is an integral number in [lo, hi); NaN and bools fail."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not lo <= value < hi or value != int(value)):
        raise DimensionMismatch(f"{what}, got {value!r}")
    return int(value)


def sample_count(n) -> int:
    """n as an int number of samples in [0, MAX_SAMPLES]; anything else raises DimensionMismatch."""
    return _integral(n, 0, MAX_SAMPLES + 1,
                     "sample count must be a nonnegative integer that fits in an index")


@dataclass
class SeededSampler:
    """Stateful Haar sampler; identical (seed, dim) gives identical streams."""

    seed: int
    dim: int
    _rng: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.seed = _integral(self.seed, 0, _U64,
                              "seed must be an integer that fits in an unsigned 64-bit integer")
        self.dim = _integral(self.dim, 1, math.inf, "dimension must be an integer of at least 1")
        self._rng = np.random.default_rng(self.seed)

    def child(self, k: int) -> "SeededSampler":
        """Independently seeded sampler derived from (seed, k).

        Worker k of a parallel sweep gets child(k); streams never overlap.
        """
        k = _integral(k, 0, math.inf, "child index must be a nonnegative integer")
        derived = int(np.random.SeedSequence([self.seed, k]).generate_state(1, np.uint64)[0])
        return SeededSampler(seed=derived, dim=self.dim)

    def _normals(self, n: int) -> np.ndarray:
        return self._rng.standard_normal((sample_count(n), 2 * self.dim))

    def sample_amplitudes(self, n: int) -> np.ndarray:
        """n Haar-random unit vectors as rows of an (n, dim) complex array."""
        z = self._normals(n)
        v = z[:, : self.dim] + 1j * z[:, self.dim:]
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return v

    def sample_bloch(self, n: int) -> np.ndarray:
        """Bloch vectors of the qubit states sample_amplitudes(n) would return.

        Rows of an (n, 3) real array: bloch_blocks(n) copied into one array.
        The draw is the same, so the stream ends where sample_amplitudes(n)
        leaves it.
        """
        b = np.empty((3, sample_count(n)))
        for rows, block in self.bloch_blocks(n):
            b[:, rows] = block
        return b.T

    def bloch_blocks(self, n: int):
        """Yield (rows, bloch) for the Bloch vectors of sample_amplitudes(n), _BLOCK at a time.

        bloch is a contiguous (3, k) array whose columns are the Bloch vectors
        of the samples in rows, a slice of range(n). Blocks have k = _BLOCK rows
        except at the end, where no block is left with one row unless n is 1.
        Each block is drawn into a reused (k, 4) buffer, which continues the
        stream, so the values and the stream's end are those of one (n, 4)
        draw. bloch is scratch that the next block overwrites. With amplitudes
        (z0 + i z2, z1 + i z3) / |z|, the vector is
        (2 (z0 z1 + z2 z3), 2 (z0 z3 - z1 z2), z0^2 + z2^2 - z1^2 - z3^2) / |z|^2.
        """
        if self.dim != 2:
            raise DimensionMismatch(f"Bloch vectors need a qubit sampler, got dim={self.dim}")
        n = sample_count(n)
        size = min(n, _BLOCK)
        z = np.empty((size, 4))
        flat = np.empty(3 * size)  # a block of k rows is its first 3k entries, as (3, k)
        pq = np.empty((2, size))
        start = 0
        while start < n:
            # no lone last row: numpy multiplies a one-column block with a
            # matrix-vector kernel, which rounds differently from the product
            # over all columns, so the block before it gives up one row
            k = _BLOCK - 1 if n - start == _BLOCK + 1 else min(_BLOCK, n - start)
            self._rng.standard_normal(out=z[:k])
            z0, z1, z2, z3 = z[:k].T  # strided column views
            b = flat[:3 * k].reshape(3, k)
            p, q = pq[:, :k]
            # every product lands in a buffer: a temporary per operation costs
            # an allocation, and b[1] and b[2] are free until their turn
            np.multiply(z2, z3, out=b[1])
            np.multiply(z0, z1, out=b[0])
            b[0] += b[1]
            np.multiply(z1, z2, out=b[2])
            np.multiply(z0, z3, out=b[1])
            b[1] -= b[2]
            np.multiply(z0, z0, out=p)
            np.multiply(z2, z2, out=b[2])
            p += b[2]
            np.multiply(z1, z1, out=q)
            np.multiply(z3, z3, out=b[2])
            q += b[2]
            np.subtract(p, q, out=b[2])
            b[:2] *= 2.0
            p += q
            b /= p
            yield slice(start, start + k), b
            start += k


def sample_pure(sampler: SeededSampler) -> PureState:
    """One Haar-random pure state."""
    return PureState(sampler.sample_amplitudes(1)[0])


def random_density_matrix(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Full-rank random state G G^dag / tr(G G^dag) with Ginibre G."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    return DensityMatrix((m + m.conj().T) / 2)


def mc_average(
    f: Callable[[PureState], float], sampler: SeededSampler, n_samples: int
) -> tuple[float, float]:
    """Monte Carlo Haar average of f with its standard error.

    Returns (mean, stderr) where stderr uses the unbiased variance
    estimator. Needs n_samples >= 2 for the variance to exist.
    """
    if n_samples < 2:
        raise DimensionMismatch("need at least 2 samples for a standard error")
    amps = sampler.sample_amplitudes(n_samples)
    vals = np.array([f(PureState(a)) for a in amps], dtype=float)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_samples))
