"""Density-matrix diagnostics: spectra, fidelities, and eigenfidelity bounds.

The central quantity is the eigenfidelity r(rho), the largest eigenvalue of a
density matrix. It equals the best fidelity achievable between rho and any
pure target state, so 1 - r(rho) is the intrinsic error floor of whatever
dynamics produced rho. Everything else here (Schatten norms, purity, the
purity bracket gamma <= r <= (1+gamma)/2, passive states, effective
temperature) supports or consumes that number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._domain import array, integer, real
from .errors import (
    DimensionMismatch,
    InvalidDimension,
    InvalidOrder,
    NonHermitianInput,
)

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
ORTHO_TOL = 1e-10


def _read_only_copy(a) -> np.ndarray:
    """What a value type stores of an array argument: a C-order copy, read-only."""
    a = np.array(a, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Positive-semidefinite, unit-trace complex matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        a = array(self.matrix, "density matrix", NonHermitianInput, shape=(None, None))
        if np.abs(a - a.conj().T).max() > HERMITIAN_TOL:
            raise NonHermitianInput(
                f"matrix deviates from Hermiticity by {np.abs(a - a.conj().T).max():.3e}"
            )
        tr = float(np.trace(a).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise NonHermitianInput(f"trace is {tr!r}, expected 1")
        w = np.linalg.eigvalsh((a + a.conj().T) / 2)
        if w.min() < -PSD_TOL:
            raise NonHermitianInput(
                f"matrix is not positive semidefinite (min eigenvalue {w.min():.3e})"
            )
        object.__setattr__(self, "matrix", _read_only_copy(a))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, state: "PureState") -> "DensityMatrix":
        v = state.amplitudes
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        dim = integer(dim, "dimension", DimensionMismatch, 1)
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def diagonal(cls, populations) -> "DensityMatrix":
        p = array(populations, "populations", NonHermitianInput, dtype=float, shape=(None,))
        return cls(np.diag(p).astype(complex))


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = array(self.amplitudes, "state amplitudes", DimensionMismatch, shape=(None,))
        n = float(np.linalg.norm(v))
        if not abs(n - 1.0) <= HERMITIAN_TOL:
            raise DimensionMismatch(f"state norm is {n!r}, expected 1")
        object.__setattr__(self, "amplitudes", _read_only_copy(v))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @classmethod
    def from_vector(cls, v) -> "PureState":
        a = array(v, "state amplitudes", DimensionMismatch, shape=(None,))
        n = np.linalg.norm(a)
        if n == 0:
            raise DimensionMismatch("cannot normalize the zero vector")
        return cls(a / n)

    def density(self) -> DensityMatrix:
        return DensityMatrix.pure(self)


@dataclass(frozen=True, eq=False)
class EnergyBasis:
    """Strictly increasing energy levels with orthonormal basis columns."""

    levels: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        e = array(self.levels, "energy levels", DimensionMismatch, dtype=float, shape=(None,))
        b = array(self.basis, "basis", DimensionMismatch, shape=(len(e), len(e)))
        if not np.all(np.diff(e) > 0):
            raise DimensionMismatch("energy levels must be strictly increasing")
        if not np.abs(b.conj().T @ b - np.eye(len(e))).max() <= ORTHO_TOL:
            raise DimensionMismatch("basis columns are not orthonormal")
        object.__setattr__(self, "levels", _read_only_copy(e))
        object.__setattr__(self, "basis", _read_only_copy(b))

    @property
    def dim(self) -> int:
        return self.levels.shape[0]

    @classmethod
    def computational(cls, levels) -> "EnergyBasis":
        e = array(levels, "energy levels", DimensionMismatch, dtype=float, shape=(None,))
        return cls(e, np.eye(len(e), dtype=complex))


# ---------------------------------------------------------------------------
# spectra and fidelities

def eigendecompose(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues sorted descending and their orthonormal eigenvector columns, read-only.

    The input is symmetrized as (M + M^dag)/2 before decomposition to keep
    accumulated round-off from leaking into positivity checks downstream.
    """
    m = rho.matrix
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    w.flags.writeable = v.flags.writeable = False
    return w, v


def eigenfidelity(rho: DensityMatrix) -> float:
    """Largest eigenvalue of rho: the best fidelity to any pure target."""
    w, _ = eigendecompose(rho)
    return float(w[0])


def eigenerror(rho: DensityMatrix) -> float:
    """1 - eigenfidelity: the intrinsic infidelity due to mixedness."""
    return 1.0 - eigenfidelity(rho)


def closest_pure_state(rho: DensityMatrix) -> tuple[float, PureState]:
    """Eigenfidelity together with the pure state that attains it.

    When the top eigenvalue is degenerate any eigenvector of the top
    eigenspace attains the maximum; the one the decomposition yields is
    returned.
    """
    w, v = eigendecompose(rho)
    return float(w[0]), PureState.from_vector(v[:, 0])


def fidelity_to_pure(rho: DensityMatrix, phi: PureState) -> float:
    """Fidelity <phi|rho|phi> between rho and a pure target."""
    if rho.dim != phi.dim:
        raise DimensionMismatch(f"state dim {phi.dim} vs matrix dim {rho.dim}")
    v = phi.amplitudes
    return float(np.real(v.conj() @ rho.matrix @ v))


def _clamped_eigenvalues(rho: DensityMatrix) -> np.ndarray:
    # PSD slack in (-1e-10, 0) is clamped to zero, and then the spectrum is
    # renormalized to unit sum; anything worse was rejected at construction
    w, _ = eigendecompose(rho)
    clamped = np.clip(w, 0.0, None)
    if w[-1] < 0:  # the smallest: w is descending
        clamped /= clamped.sum()
    return clamped


def schatten_norm(rho: DensityMatrix, p: float) -> float:
    """Schatten p-norm (sum of eigenvalues**p)**(1/p) for a density matrix.

    Evaluated as r (sum (w/r)**p)**(1/p) with r the largest eigenvalue w, so
    no large order underflows and p = inf gives r, the limit of the norms. A
    small order whose norm passes the float range gives inf.
    """
    # an integer order past the float range is the p = inf limit
    p = real(p, "Schatten order", InvalidOrder, 0, lo_open=True, finite=False)
    w = _clamped_eigenvalues(rho)
    r = w.max()
    with np.errstate(over="ignore"):
        return float(r * np.sum((w / r) ** p) ** (1.0 / p))


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2), computed without eigendecomposition."""
    m = rho.matrix
    return float(np.real(np.trace(m @ m)))


def linear_entropy(rho: DensityMatrix) -> float:
    return 1.0 - purity(rho)


def eigenfidelity_bounds(rho: DensityMatrix) -> tuple[float, float]:
    """Purity bracket (gamma, (1+gamma)/2) around the eigenfidelity."""
    g = purity(rho)
    return g, (1.0 + g) / 2.0


# ---------------------------------------------------------------------------
# energetics

def passive_state(rho: DensityMatrix, basis: EnergyBasis) -> DensityMatrix:
    """Rearrange the spectrum of rho against the energy basis.

    Populations are sorted descending and paired with ascending energies,
    which is the unitarily reachable minimum-energy arrangement. The passive
    state shares the spectrum of rho, so its eigenfidelity is unchanged.
    """
    if rho.dim != basis.dim:
        raise DimensionMismatch(f"state dim {rho.dim} vs basis dim {basis.dim}")
    w = _clamped_eigenvalues(rho)  # already descending
    b = basis.basis
    m = (b * w) @ b.conj().T
    tr = float(np.trace(m).real)  # the basis is orthonormal to ORTHO_TOL only
    return DensityMatrix(m if abs(tr - 1.0) <= TRACE_TOL else m / tr)


def effective_temperature(rho: DensityMatrix, basis: EnergyBasis) -> float:
    """Temperature of the two-level thermal state with the same eigenfidelity.

    Solves r = 1/(1 + exp(-gap/T)) for T, with the Boltzmann constant set to
    one. Pure states map to T = 0 and the maximally mixed state to T = +inf.
    """
    if rho.dim != 2:
        raise InvalidDimension(f"effective temperature is defined for d=2, got d={rho.dim}")
    if basis.dim != 2:
        raise InvalidDimension("energy basis must be two-level")
    gap = float(basis.levels[1] - basis.levels[0])
    r = eigenfidelity(rho)
    # top eigenvalue of a qubit state lies in [1/2, 1]
    r = min(max(r, 0.5), 1.0)
    if r >= 1.0:
        return 0.0
    if r <= 0.5:
        return math.inf
    return gap / math.log(r / (1.0 - r))
