"""Haar-random pure states and Monte Carlo averaging.

Sampling draws 2d independent standard normals, forms d complex amplitudes,
and normalizes; the resulting distribution on the unit sphere is exactly the
Haar measure. A qubit sampler can also hand out the Bloch vectors of those
same states, computed in real arithmetic from the same draws and streamed in
blocks of _BLOCK (4096) rows; the blocks continue one stream, so they hold
exactly the values of a single draw, and the stream ends where that draw
leaves it. The block buffers come from one workspace per thread, kept
between calls: with the Monte Carlo estimators' output block it is about
0.4 MB, so a sweep row maps no new memory for its blocks.
Samplers are deterministic given (seed, dim), and parallel workers must use
independently derived child samplers rather than sharing one stream.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from ._domain import integer
from .densmat import DensityMatrix, PureState
from .errors import DimensionMismatch

_SEED_MAX = 2 ** 64 - 1  # seeds are unsigned 64-bit integers
# an estimate holds one float per sample, so a count is at most the length of
# the largest float64 array numpy can size: 2**60 - 1 on a 64-bit machine
MAX_SAMPLES = int(np.iinfo(np.intp).max) // 8
# a random density matrix is a dim x dim complex (16 B) array, so dim is at
# most the side of the largest one numpy can size: 759250124 on a 64-bit machine
MAX_DIM = math.isqrt(int(np.iinfo(np.intp).max) // 16)
# rows per Bloch block. With 4096, a Monte Carlo estimate at 10^6 samples
# peaks at 8.5 B per sample under tracemalloc (80 B as one full-array pass),
# and at 2e4 samples it takes 1.9-2.7 ms against the full pass's 2.4-3.0 ms
# (best of 7 per run, 2-vCPU Xeon). On the benchmark's Monte Carlo sweep
# (20k samples a row, 2 workers) 8192-row blocks ran as fast but peaked at
# 35.8 MB RSS against 35.4 MB for 4096 and 36.7 MB for the full pass
_BLOCK = 4096


_workspace = threading.local()  # its __dict__ maps a shape to this thread's kept array


@contextmanager
def _scratch(shape: tuple) -> Iterator[np.ndarray]:
    """An uninitialized float array of shape, kept for the thread's next caller.

    The caller holds it until its with-block ends; one that asks while another
    holds it gets a fresh array, so interleaved generators never share memory.
    """
    kept = _workspace.__dict__
    buf = kept.pop(shape, None)
    if buf is None:
        buf = np.empty(shape)
    try:
        yield buf
    finally:
        kept[shape] = buf


def sample_count(n) -> int:
    """n as an int number of samples in [0, MAX_SAMPLES]; anything else raises DimensionMismatch."""
    return integer(n, "sample count", DimensionMismatch, 0, MAX_SAMPLES)


def _estimate_count(n) -> int:
    """sample_count(n) for a Monte Carlo estimate: its standard error needs n >= 2."""
    n = sample_count(n)
    if n < 2:
        raise DimensionMismatch("need at least 2 samples for a standard error")
    return n


def _mean_stderr(vals: np.ndarray) -> tuple[float, float]:
    """vals.mean() and vals.std(ddof=1) / sqrt(n), bit for bit, overwriting vals."""
    n = len(vals)
    mean = vals.sum() / n
    vals -= mean
    np.square(vals, out=vals)
    return float(mean), float(np.sqrt(vals.sum() / (n - 1)) / np.sqrt(n))


@dataclass
class SeededSampler:
    """Stateful Haar sampler; identical (seed, dim) gives identical streams."""

    seed: int
    dim: int
    _rng: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.seed = integer(self.seed, "seed", DimensionMismatch, 0, _SEED_MAX)
        self.dim = integer(self.dim, "dimension", DimensionMismatch, 1)
        self._rng = np.random.default_rng(self.seed)

    def child(self, k: int) -> "SeededSampler":
        """Independently seeded sampler derived from (seed, k).

        Worker k of a parallel sweep gets child(k); streams never overlap.
        """
        k = integer(k, "child index", DimensionMismatch)
        derived = int(np.random.SeedSequence([self.seed, k]).generate_state(1, np.uint64)[0])
        return SeededSampler(seed=derived, dim=self.dim)

    def sample_amplitudes(self, n: int) -> np.ndarray:
        """n Haar-random unit vectors as rows of an (n, dim) complex array.

        The draw is n x 2 dim floats, which is held to MAX_SAMPLES as well.
        """
        n = sample_count(n)
        if n * 2 * self.dim > MAX_SAMPLES:
            raise DimensionMismatch(f"{n} samples of dimension {self.dim} draw "
                                    f"{n * 2 * self.dim} floats, more than {MAX_SAMPLES}")
        z = self._rng.standard_normal((n, 2 * self.dim))
        v = z[:, : self.dim] + 1j * z[:, self.dim:]
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return v

    def bloch_blocks(self, n: int):
        """Yield (rows, bloch) for the Bloch vectors of sample_amplitudes(n), _BLOCK at a time.

        bloch is a contiguous (3, k) array whose columns are the Bloch vectors
        of the samples in rows, a slice of range(n). Blocks have k = _BLOCK rows
        except at the end, where no block is left with one row unless n is 1.
        Each block is drawn into a (k, 4) buffer, which continues the stream,
        so the values and the stream's end are those of one (n, 4) draw.
        bloch is scratch: asking this generator for its next block, or for
        its end, frees it for reuse. With amplitudes
        (z0 + i z2, z1 + i z3) / |z|, the vector is
        (2 (z0 z1 + z2 z3), 2 (z0 z3 - z1 z2), z0^2 + z2^2 - z1^2 - z3^2) / |z|^2.
        """
        if self.dim != 2:
            raise DimensionMismatch(f"Bloch vectors need a qubit sampler, got dim={self.dim}")
        n = sample_count(n)
        # a block of k rows takes the first k rows of z and the first 3k
        # entries of flat, as (3, k)
        with _scratch((_BLOCK, 4)) as z, _scratch((3 * _BLOCK,)) as flat, \
                _scratch((2, _BLOCK)) as pq:
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
                # every product lands in a buffer: a temporary per operation
                # costs an allocation, and b[1] and b[2] are free until their turn
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
    """Full-rank random state G G^dag / tr(G G^dag) with Ginibre G.

    dim is at most MAX_DIM; a larger one raises DimensionMismatch before
    anything is drawn.
    """
    dim = integer(dim, "dimension", DimensionMismatch, 1, MAX_DIM)
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
    amps = sampler.sample_amplitudes(_estimate_count(n_samples))
    return _mean_stderr(np.array([f(PureState(a)) for a in amps], dtype=float))
