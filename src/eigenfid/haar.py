"""Haar-random pure states and Monte Carlo averaging.

Sampling draws 2d independent standard normals, forms d complex amplitudes,
and normalizes; the resulting distribution on the unit sphere is exactly the
Haar measure. A qubit sampler can also hand out the Bloch vectors of those
same states, computed in real arithmetic from the same draws. Samplers are
deterministic given (seed, dim), and parallel workers must use independently
derived child samplers rather than sharing one stream.
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


def _integral(value, lo: int, hi, what: str) -> int:
    """value as an int if it is an integral number in [lo, hi); NaN and bools fail."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not lo <= value < hi or value != int(value)):
        raise DimensionMismatch(f"{what}, got {value!r}")
    return int(value)


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
        n = _integral(n, 0, math.inf, "sample count must be a nonnegative integer")
        return self._rng.standard_normal((n, 2 * self.dim))

    def sample_amplitudes(self, n: int) -> np.ndarray:
        """n Haar-random unit vectors as rows of an (n, dim) complex array."""
        z = self._normals(n)
        v = z[:, : self.dim] + 1j * z[:, self.dim:]
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return v

    def sample_bloch(self, n: int) -> np.ndarray:
        """Bloch vectors of the qubit states sample_amplitudes(n) would return.

        Rows of an (n, 3) real array. The draw is the same, so the stream ends
        where sample_amplitudes(n) leaves it. With amplitudes
        (z0 + i z2, z1 + i z3) / |z|, the vector is
        (2 (z0 z1 + z2 z3), 2 (z0 z3 - z1 z2), z0^2 + z2^2 - z1^2 - z3^2) / |z|^2.
        """
        if self.dim != 2:
            raise DimensionMismatch(f"Bloch vectors need a qubit sampler, got dim={self.dim}")
        z0, z1, z2, z3 = self._normals(n).T.copy()  # contiguous columns
        p, q = z0 * z0 + z2 * z2, z1 * z1 + z3 * z3
        b = np.empty((3, len(z0)))  # filled in place: every temporary costs page faults
        np.multiply(z0, z1, out=b[0])
        b[0] += z2 * z3
        np.multiply(z0, z3, out=b[1])
        b[1] -= z1 * z2
        np.subtract(p, q, out=b[2])
        b[:2] *= 2.0
        p += q
        b /= p
        return b.T


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
