"""Qubit CPTP channels given by their four basis images E_ij = E[|i><j|].

Linearity gives the action on any state from the four images alone: stacked
as columns they form the 4x4 transfer matrix that acts on vec(rho), which is
how a channel is stored, applied, composed and concatenated. The
Haar-averaged output purity has the closed form

    gamma_bar = (1/3) tr(E00^2 + E00 E11 + E11^2 + E01 E10),

which brackets the channel eigenfidelity r_bar (the Haar average of the
output-state eigenfidelity) via gamma_bar <= r_bar <= (1 + gamma_bar)/2.
Average gate fidelity against a target unitary comes from the Choi matrix of
the gate-twisted channel traced against a fixed 4x4 averaging matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densmat import DensityMatrix
from .errors import CPViolation, DimensionMismatch, NonHermitianInput
from .haar import SeededSampler

TP_TOL = 1e-10
HERM_TOL = 1e-10
CP_TOL = 1e-8
UNITARY_TOL = 1e-12


def _as_2x2(m, name: str) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.shape != (2, 2):
        raise DimensionMismatch(f"{name} must be 2x2, got shape {a.shape}")
    return a


_IMAGES = ("E00", "E01", "E10", "E11")


@dataclass(frozen=True)
class QubitChannel:
    """CPTP qubit map; validated at construction.

    Internally the channel is its 4x4 natural transfer matrix S, acting on
    the row-major vec(rho); column 2i+j of S is vec(E_ij), and the public
    image fields are read-only views of those columns. apply is S vec(rho),
    compose a matrix product and concatenate a matrix power.

    cp_slack loosens only the complete-positivity tolerance. Channels built
    from truncated sums keep the default 1e-8; series approximants carry an
    O(approximation error) Choi slack and are constructed with a documented
    looser value. A composite is validated once, at CP_TOL plus the measured
    Choi residuals of its factors, so rounding in the product never trips
    the check and a factor's own defect is carried forward, not compounded.
    """

    E00: np.ndarray
    E01: np.ndarray
    E10: np.ndarray
    E11: np.ndarray
    cp_slack: float = CP_TOL

    def __post_init__(self):
        rows = np.stack([_as_2x2(getattr(self, name), name) for name in _IMAGES])
        rows = rows.reshape(4, 4)  # row 2i+j is vec(E_ij), so S = rows.T
        rows.setflags(write=False)
        object.__setattr__(self, "_transfer", rows.T)
        for name, row in zip(_IMAGES, rows):
            object.__setattr__(self, name, row.reshape(2, 2))
        tp = tp_residual(self)
        if tp > TP_TOL:
            raise NonHermitianInput(f"trace preservation broken: image traces off by {tp:.3e}")
        choi = _choi(self)
        if np.abs(choi - choi.conj().T).max() > HERM_TOL:
            raise NonHermitianInput(
                "E00 and E11 must be Hermitian and E10 must equal the adjoint of E01"
            )
        residual = cp_residual(self)
        if residual > self.cp_slack:
            raise CPViolation(
                f"Choi matrix has eigenvalue {-residual:.3e} below -{self.cp_slack:.1e}"
            )

    @classmethod
    def _from_transfer(cls, s: np.ndarray, cp_slack: float = CP_TOL) -> "QubitChannel":
        return cls(*s.T.reshape(4, 2, 2), cp_slack=cp_slack)

    @classmethod
    def from_images(cls, e00, e01, e11, cp_slack: float = CP_TOL) -> "QubitChannel":
        e01 = _as_2x2(e01, "E01")
        return cls(e00, e01, e01.conj().T, e11, cp_slack=cp_slack)

    @classmethod
    def identity(cls) -> "QubitChannel":
        return cls._from_transfer(np.eye(4, dtype=complex))

    @classmethod
    def depolarizing(cls) -> "QubitChannel":
        half = np.eye(2, dtype=complex) / 2
        z = np.zeros((2, 2), dtype=complex)
        return cls.from_images(half, z, half)

    @classmethod
    def from_unitary(cls, u) -> "QubitChannel":
        u = _as_2x2(u, "unitary")
        if np.abs(u.conj().T @ u - np.eye(2)).max() > UNITARY_TOL:
            raise NonHermitianInput("matrix is not unitary")
        # row-major vec(U rho U^dag) = (U kron conj(U)) vec(rho)
        return cls._from_transfer(np.kron(u, u.conj()))

    def images(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.E00, self.E01, self.E10, self.E11


@dataclass(frozen=True)
class TargetGate:
    """2x2 unitary target."""

    unitary: np.ndarray

    def __post_init__(self):
        u = _as_2x2(self.unitary, "gate")
        if np.abs(u.conj().T @ u - np.eye(2)).max() > UNITARY_TOL:
            raise NonHermitianInput("gate matrix is not unitary")
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "unitary", u)

    @classmethod
    def identity(cls) -> "TargetGate":
        return cls(np.eye(2, dtype=complex))

    @classmethod
    def x(cls) -> "TargetGate":
        return cls(np.array([[0, 1], [1, 0]], dtype=complex))


@dataclass(frozen=True)
class ChoiMatrix:
    """4x4 Choi matrix; Hermitian, with output partial trace equal to identity."""

    entries: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.entries, dtype=complex)
        if s.shape != (4, 4):
            raise DimensionMismatch(f"Choi matrix must be 4x4, got {s.shape}")
        if np.abs(s - s.conj().T).max() > HERM_TOL:
            raise NonHermitianInput("Choi matrix is not Hermitian")
        # tracing out the output (second) factor must give the identity,
        # which is trace preservation seen from the Choi side
        reduced = np.array([[np.trace(s[2*i:2*i+2, 2*j:2*j+2]) for j in (0, 1)] for i in (0, 1)])
        if np.abs(reduced - np.eye(2)).max() > 1e-8:
            raise NonHermitianInput("partial trace over the output is not the identity")
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "entries", s)


# ---------------------------------------------------------------------------
# action and composition

def apply(channel: QubitChannel, rho: DensityMatrix) -> DensityMatrix:
    """Channel action S vec(rho), by linearity over the four basis images."""
    if rho.dim != 2:
        raise DimensionMismatch(f"qubit channel applied to d={rho.dim} state")
    out = (channel._transfer @ rho.matrix.reshape(4)).reshape(2, 2)
    out = (out + out.conj().T) / 2
    w, v = np.linalg.eigh(out)
    if w.min() < -CP_TOL:
        raise CPViolation(f"output eigenvalue {w.min():.3e} below -{CP_TOL:.0e}")
    if w.min() < 0:
        # slack inside the tolerance band: project back onto valid states
        w = np.clip(w, 0.0, None)
        w /= w.sum()
        out = (v * w) @ v.conj().T
    return DensityMatrix(out)


def compose(outer: QubitChannel, inner: QubitChannel) -> QubitChannel:
    """outer after inner: the product of their transfer matrices."""
    slack = CP_TOL + cp_residual(outer) + cp_residual(inner)
    return QubitChannel._from_transfer(outer._transfer @ inner._transfer, cp_slack=slack)


def concatenate(channel: QubitChannel, count: int) -> QubitChannel:
    """count successive applications of the same channel: one matrix power.

    A single application is the channel itself, which is frozen and already
    validated.
    """
    if count < 1:
        raise DimensionMismatch("count must be at least 1")
    if count == 1:
        return channel
    slack = CP_TOL + count * cp_residual(channel)
    return QubitChannel._from_transfer(np.linalg.matrix_power(channel._transfer, count),
                                       cp_slack=slack)


# ---------------------------------------------------------------------------
# averaged diagnostics

def average_purity(channel: QubitChannel) -> float:
    """Haar-averaged output purity, in closed form."""
    e00, e01, e10, e11 = channel.images()
    g = np.trace(e00 @ e00 + e00 @ e11 + e11 @ e11 + e01 @ e10)
    return float(np.real(g)) / 3.0


def channel_eigenfidelity_bounds(channel: QubitChannel) -> tuple[float, float]:
    """Purity bracket (gamma_bar, (1+gamma_bar)/2) around the channel eigenfidelity."""
    g = average_purity(channel)
    return g, (1.0 + g) / 2.0


def channel_eigenerror_bounds(channel: QubitChannel) -> tuple[float, float]:
    """Linear-entropy bracket (S_bar/2, S_bar) around the channel eigenerror."""
    s_bar = 1.0 - average_purity(channel)
    return s_bar / 2.0, s_bar


def a_matrix() -> np.ndarray:
    """Haar average of rho^T kron rho for qubit pure states."""
    return np.array([
        [2, 0, 0, 1],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [1, 0, 0, 2],
    ], dtype=float) / 6.0


def choi_matrix(channel: QubitChannel, gate: TargetGate) -> ChoiMatrix:
    """Choi matrix of the map rho -> U^dag E[rho] U.

    Built as sum_ij |i><j| kron (U^dag E_ij U) with no 1/d factor, so that
    tr[(rho_a^T kron rho_a) S] = <a| U^dag E[rho_a] U |a> holds exactly.
    """
    u = gate.unitary
    s = np.zeros((4, 4), dtype=complex)
    imgs = {(0, 0): channel.E00, (0, 1): channel.E01,
            (1, 0): channel.E10, (1, 1): channel.E11}
    for (i, j), img in imgs.items():
        s[2*i:2*i+2, 2*j:2*j+2] = u.conj().T @ img @ u
    return ChoiMatrix(s)


def average_gate_fidelity(channel: QubitChannel, gate: TargetGate) -> float:
    """Haar-averaged fidelity between channel outputs and gate targets."""
    s = choi_matrix(channel, gate).entries
    return float(np.real(np.trace(a_matrix() @ s)))


# ---------------------------------------------------------------------------
# Monte Carlo estimators (vectorized over Haar samples)

def _output_entries(channel: QubitChannel, amps: np.ndarray):
    """Output density-matrix entries (00, 01, 11) for a batch of pure inputs."""
    a0, a1 = amps[:, 0], amps[:, 1]
    vec = np.empty((len(amps), 4), dtype=complex)  # row k is vec(rho_k)
    vec[:, 0] = np.abs(a0) ** 2
    np.multiply(a0, a1.conj(), out=vec[:, 1])
    np.conjugate(vec[:, 1], out=vec[:, 2])
    vec[:, 3] = np.abs(a1) ** 2
    out = vec @ channel._transfer[[0, 1, 3]].T
    return out[:, 0].real, out[:, 1], out[:, 2].real


def _mean_stderr(vals: np.ndarray) -> tuple[float, float]:
    if len(vals) < 2:
        raise DimensionMismatch("need at least 2 samples for a standard error")
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(len(vals)))


def mc_average_purity(channel: QubitChannel, sampler: SeededSampler, n_samples: int) -> tuple[float, float]:
    """Monte Carlo Haar average of the output purity."""
    amps = sampler.sample_amplitudes(n_samples)
    out00, out01, out11 = _output_entries(channel, amps)
    return _mean_stderr(out00**2 + out11**2 + 2 * np.abs(out01)**2)


def mc_channel_eigenfidelity(channel: QubitChannel, sampler: SeededSampler, n_samples: int) -> tuple[float, float]:
    """Monte Carlo Haar average of the output eigenfidelity.

    Uses the qubit closed form r = 1/2 + sqrt(1/4 - det) on the output
    entries, which avoids per-sample eigendecompositions.
    """
    amps = sampler.sample_amplitudes(n_samples)
    out00, out01, out11 = _output_entries(channel, amps)
    det = out00 * out11 - np.abs(out01) ** 2
    r = 0.5 + np.sqrt(np.clip(0.25 - det, 0.0, None))
    return _mean_stderr(r)


def mc_gate_fidelity(channel: QubitChannel, gate: TargetGate, sampler: SeededSampler,
                     n_samples: int) -> tuple[float, float]:
    """Monte Carlo Haar average of <a|U^dag E[rho_a] U|a>."""
    amps = sampler.sample_amplitudes(n_samples)
    out00, out01, out11 = _output_entries(channel, amps)
    targets = amps @ gate.unitary.T  # row k is U @ amps[k]
    b0, b1 = targets[:, 0], targets[:, 1]
    f = (np.abs(b0)**2 * out00 + np.abs(b1)**2 * out11
         + 2 * np.real(np.conj(b0) * b1 * out01))
    return _mean_stderr(f)


def _choi(channel: QubitChannel) -> np.ndarray:
    return np.block([[channel.E00, channel.E01], [channel.E10, channel.E11]])


def tp_residual(channel: QubitChannel) -> float:
    """Largest trace-preservation defect across the four images."""
    # row 0 plus row 3 of S holds tr E_ij, which must be 1 for i == j, else 0
    s = channel._transfer
    return float(np.abs(s[0] + s[3] - np.array([1.0, 0.0, 0.0, 1.0])).max())


def cp_residual(channel: QubitChannel) -> float:
    """Magnitude of the most negative Choi eigenvalue (0 if none)."""
    choi = _choi(channel)
    wmin = np.linalg.eigvalsh((choi + choi.conj().T) / 2).min()
    return float(max(0.0, -wmin))
