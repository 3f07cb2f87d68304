"""Qubit CPTP channels given by their four basis images E_ij = E[|i><j|].

Linearity gives the action on any state from the four images alone: stacked
as columns they form the 4x4 transfer matrix that acts on vec(rho), which is
how a channel is stored, applied, composed and concatenated. The
Haar-averaged output purity has the closed form

    gamma_bar = (1/3) tr(E00^2 + E00 E11 + E11^2 + E01 E10),

which brackets the channel eigenfidelity r_bar (the Haar average of the
output-state eigenfidelity) via gamma_bar <= r_bar <= (1 + gamma_bar)/2.
Average gate fidelity against a target unitary comes in closed form from the
real Pauli form of the gate-twisted channel, the affine map of Bloch vectors.
The Monte Carlo estimators stream the sampler's unchanged draw through Bloch
blocks of haar._BLOCK (4096) rows: a call holds 8 B per sample, the values
whose mean and standard error it returns, plus one block workspace of about
0.4 MB per thread, kept between calls, and its estimates equal a full-array
pass over the same draw bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._domain import array, integer, real
from .densmat import DensityMatrix, _read_only_copy
from .errors import CPViolation, DimensionMismatch, NonHermitianInput
from .haar import _BLOCK, SeededSampler, _estimate_count, _mean_stderr, _scratch

TP_TOL = 1e-10
HERM_TOL = 1e-10
CP_TOL = 1e-8
UNITARY_TOL = 1e-12
_TRACES = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)  # tr E_ij; complex, so no cast per check


_IMAGES = ("E00", "E01", "E10", "E11")


@dataclass(frozen=True, eq=False)
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
        # no finiteness check: the channel checks below fail on NaN and inf
        rows = np.array([array(getattr(self, name), name, NonHermitianInput, shape=(2, 2),
                               finite=False) for name in _IMAGES])
        rows = rows.reshape(4, 4)  # row 2i+j is vec(E_ij), so S = rows.T
        slack = real(self.cp_slack, "cp_slack", CPViolation, 0, finite=False)
        self._adopt(rows, slack, _check_transfers(rows.T[None], slack)[0])

    def _adopt(self, rows: np.ndarray, cp_slack, residual) -> "QubitChannel":
        rows.setflags(write=False)
        object.__setattr__(self, "cp_slack", cp_slack)
        object.__setattr__(self, "_transfer", rows.T)
        object.__setattr__(self, "_residual", float(residual))
        for name, row in zip(_IMAGES, rows):
            object.__setattr__(self, name, row.reshape(2, 2))
        return self

    @classmethod
    def _trusted(cls, s: np.ndarray, cp_slack, residual) -> "QubitChannel":
        """Channel of a transfer matrix that _check_transfers passed, not checked again."""
        return object.__new__(cls)._adopt(np.ascontiguousarray(s.T), cp_slack, residual)

    @classmethod
    def _from_transfer(cls, s: np.ndarray, cp_slack: float = CP_TOL) -> "QubitChannel":
        return cls._trusted(s, cp_slack, _check_transfers(s[None], cp_slack)[0])

    @classmethod
    def from_images(cls, e00, e01, e11, cp_slack: float = CP_TOL) -> "QubitChannel":
        e01 = array(e01, "E01", NonHermitianInput, shape=(2, 2), finite=False)
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
        u = TargetGate(u).unitary  # 2x2, finite and unitary: TargetGate checks it
        # row-major vec(U rho U^dag) = (U kron conj(U)) vec(rho)
        return cls._from_transfer(np.kron(u, u.conj()))

    def images(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.E00, self.E01, self.E10, self.E11


@dataclass(frozen=True, eq=False)
class TargetGate:
    """2x2 unitary target."""

    unitary: np.ndarray

    @np.errstate(over="ignore", invalid="ignore")  # an overflowing product fails, as NaN does
    def __post_init__(self):
        u = array(self.unitary, "gate", NonHermitianInput, shape=(2, 2))
        if not np.abs(u.conj().T @ u - np.eye(2)).max() <= UNITARY_TOL:
            raise NonHermitianInput("gate matrix is not unitary")
        object.__setattr__(self, "unitary", _read_only_copy(u))

    @classmethod
    def identity(cls) -> "TargetGate":
        return cls(np.eye(2, dtype=complex))

    @classmethod
    def x(cls) -> "TargetGate":
        return cls(np.array([[0, 1], [1, 0]], dtype=complex))


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """4x4 Choi matrix; Hermitian, with output partial trace equal to identity."""

    entries: np.ndarray

    @np.errstate(over="ignore", invalid="ignore")  # an overflowing residual fails, as NaN does
    def __post_init__(self):
        s = array(self.entries, "Choi matrix", NonHermitianInput, shape=(4, 4))
        if not np.abs(s - s.conj().T).max() <= HERM_TOL:
            raise NonHermitianInput("Choi matrix is not Hermitian")
        # tracing out the output (second) factor must give the identity,
        # which is trace preservation seen from the Choi side
        reduced = np.array([[np.trace(s[2*i:2*i+2, 2*j:2*j+2]) for j in (0, 1)] for i in (0, 1)])
        if not np.abs(reduced - np.eye(2)).max() <= 1e-8:
            raise NonHermitianInput("partial trace over the output is not the identity")
        object.__setattr__(self, "entries", _read_only_copy(s))


# ---------------------------------------------------------------------------
# action and composition

def apply(channel: QubitChannel, rho: DensityMatrix) -> DensityMatrix:
    """Channel action S vec(rho), by linearity over the four basis images."""
    if rho.dim != 2:
        raise DimensionMismatch(f"qubit channel applied to d={rho.dim} state")
    out = (channel._transfer @ rho.matrix.reshape(4)).reshape(2, 2)
    out = (out + out.conj().T) / 2
    # a trace defect within TP_TOL is projected away like negative weight
    # within CP_TOL below; a unit trace divides exactly
    out /= np.trace(out).real
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
    """count successive applications of the same channel: one matrix power, or
    for count 1 the channel itself, which is frozen and already validated."""
    count = integer(count, "count", DimensionMismatch, 1, strict=True)
    if count == 1:
        return channel
    s, slack, residual = _powers(channel._transfer[None], channel._residual, count)
    return QubitChannel._trusted(s[0], slack, residual[0])


def _powers(s: np.ndarray, residual, count: int) -> tuple:
    """(count-th powers, slacks CP_TOL + count residual, Choi residuals) of a checked stack.

    A power that fails its check raises the check's error class, with the
    count in front: the stack passed, only its power failed.
    """
    if count == 1:
        return s, np.full(len(s), CP_TOL), residual
    slack = CP_TOL + count * residual
    s = np.linalg.matrix_power(s, count)
    try:
        return s, slack, _check_transfers(s, slack)
    except (NonHermitianInput, CPViolation) as exc:
        raise type(exc)(f"{count}-fold power: {exc}") from None


# ---------------------------------------------------------------------------
# averaged diagnostics

def _purities(s: np.ndarray) -> np.ndarray:
    """Haar-averaged output purity of each transfer matrix in a (T, 4, 4) stack."""
    rows = np.ascontiguousarray(s.transpose(0, 2, 1))  # as a channel stores its images
    e00, e01, e10, e11 = rows.reshape(-1, 4, 2, 2).transpose(1, 0, 2, 3)
    g = np.trace(e00 @ e00 + e00 @ e11 + e11 @ e11 + e01 @ e10, axis1=1, axis2=2)
    return g.real / 3.0


def average_purity(channel: QubitChannel) -> float:
    """Haar-averaged output purity, in closed form."""
    return float(_purities(channel._transfer[None])[0])


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
    twisted = u.conj().T @ np.stack(channel.images()) @ u  # U^dag E_ij U
    return ChoiMatrix(twisted.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4))


def average_gate_fidelity(channel: QubitChannel, gate: TargetGate) -> float:
    """Haar-averaged fidelity (1 + d + tr M/3)/2 between outputs and gate targets, with (d, M)
    the Pauli form of rho -> U^dag E[rho] U and E[n n^T] = I/3 (Nielsen, PLA 303, 249)."""
    u = gate.unitary
    r = _pauli_form(np.kron(u, u.conj()).conj().T @ channel._transfer)
    return float((1.0 + r[0, 0] + np.trace(r[1:, 1:]) / 3.0) / 2.0)


# ---------------------------------------------------------------------------
# Monte Carlo estimators (vectorized over Haar samples, in real arithmetic)

# Pauli components (t, m) of a 2x2 matrix (t + m.sigma)/2 from its row-major vec,
# and back: vec = _TO_PAULI^dag (t, m) / 2
_TO_PAULI = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])
_FROM_PAULI = _TO_PAULI.conj().T / 2


def _pauli_form(s: np.ndarray) -> np.ndarray:
    """Real 4x4 map R of transfer matrix s in the Pauli basis: (t - 1, m) = R (1, n).

    n is the input Bloch vector, t the output trace and m the output Bloch
    vector. The trace is kept rather than taken as 1, since a channel passes
    its trace check only up to TP_TOL. Row 0 holds the defect t - 1, with
    its constant term tr(E00 + E11)/2 - 1 summed exactly: near a maximally
    mixed output 1 - t^2 competes with a small |m|^2, and one rounding of t
    would bias every sample alike.
    """
    r = (_TO_PAULI @ s @ _FROM_PAULI).real
    r[0, 0] = math.fsum([*s[0::3, 0::3].real.flat, -2.0]) / 2
    return r


def _mc_estimate(channel: QubitChannel, sampler: SeededSampler, n_samples: int,
                 fill) -> tuple[float, float]:
    """Mean and standard error of a per-sample value over n_samples Haar inputs.

    One loop over the sampler's Bloch blocks serves every estimator. For
    each block it forms the output trace defects d = t - 1 (k,) and Bloch
    vectors m (3, k) in the thread's kept output block, and fill(d, m, bloch,
    out) writes the block's values into its slice out of one (n,) array. A
    call holds 8 B per sample beside the thread's workspace; the values are
    those of one full-array pass over the same draws, bit for bit.
    """
    n = _estimate_count(n_samples)
    r = _pauli_form(channel._transfer)
    linear, constant = r[:, 1:], r[:, 0].tolist()
    vals = np.empty(n)
    # a block of k rows is the first 4k entries of flat, as (4, k)
    with _scratch((4 * _BLOCK,)) as flat:
        for rows, bloch in sampler.bloch_blocks(n):
            out = np.matmul(linear, bloch, out=flat[:4 * bloch.shape[1]].reshape(4, -1))
            for row, c in zip(out, constant):
                row += c
            fill(out[0], out[1:], bloch, vals[rows])
    return _mean_stderr(vals)


def mc_average_purity(channel: QubitChannel, sampler: SeededSampler, n_samples: int) -> tuple[float, float]:
    """Monte Carlo Haar average of the output purity (t^2 + |m|^2)/2."""

    def values(d, m, bloch, out):
        t = d + 1.0
        t *= t
        np.einsum("ij,ij->j", m, m, out=out)
        out += t
        out /= 2

    return _mc_estimate(channel, sampler, n_samples, values)


def mc_channel_eigenfidelity(channel: QubitChannel, sampler: SeededSampler, n_samples: int) -> tuple[float, float]:
    """Monte Carlo Haar average of the output eigenfidelity.

    The larger eigenvalue of the output (t + m.sigma)/2 is
    1/2 + sqrt(1 - t^2 + |m|^2)/2, the qubit closed form
    1/2 + sqrt(1/4 - det), which avoids per-sample eigendecompositions.
    1 - t^2 is formed as -d (2 + d) from the trace defect d = t - 1.
    """

    def values(d, m, bloch, out):
        np.einsum("ij,ij->j", m, m, out=out)
        d2 = d + 2.0
        d2 *= d
        out -= d2
        np.maximum(out, 0.0, out=out)
        np.sqrt(out, out=out)
        out *= 0.5
        out += 0.5

    return _mc_estimate(channel, sampler, n_samples, values)


def mc_gate_fidelity(channel: QubitChannel, gate: TargetGate, sampler: SeededSampler,
                     n_samples: int) -> tuple[float, float]:
    """Monte Carlo Haar average of <a|U^dag E[rho_a] U|a> = (t + (R_U n).m)/2.

    R_U rotates the input Bloch vector n to that of the target U|a>.
    """
    u = gate.unitary
    rotation = _pauli_form(np.kron(u, u.conj()))[1:, 1:]

    def values(d, m, bloch, out):
        np.einsum("ij,ij->j", rotation @ bloch, m, out=out)
        d += 1.0
        out += d
        out /= 2

    return _mc_estimate(channel, sampler, n_samples, values)


@np.errstate(over="ignore", invalid="ignore")
def _check_transfers(s: np.ndarray, cp_slack) -> np.ndarray:
    """Choi residuals of a (T, 4, 4) stack of transfer matrices checked as channels.

    A channel's checks (trace preservation, a Hermitian Choi matrix, complete
    positivity at cp_slack, a scalar or one value per row) run in order over
    the stack, each failing on NaN and so on a residual that overflows. The
    first row that fails one raises what that row alone would raise.
    """
    tp = _trace_defects(s)
    if not tp.max(initial=0.0) <= TP_TOL:
        k = int(np.argmax(~(tp.max(axis=1) <= TP_TOL)))
        raise NonHermitianInput(f"trace preservation broken: image traces off by {tp[k].max():.3e}")
    # Choi [[E00, E01], [E10, E11]]: entry (2i+a, 2j+b) is E_ij[a, b] = S[2a+b, 2i+j]
    choi = s.transpose(0, 2, 1).reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)
    adjoint = choi.conj().transpose(0, 2, 1)
    if not np.abs(choi - adjoint).max(initial=0.0) <= HERM_TOL:
        raise NonHermitianInput("E00 and E11 must be Hermitian and E10 must equal "
                                "the adjoint of E01")
    sym = (choi + adjoint) / 2  # every entry is finite now, but a sum may not be
    if not np.isfinite(sym).all():
        raise CPViolation("Choi matrix has entries past the float range")
    # 0 - min(w, 0) is max(0, -w) with +0 for any zero
    residual = 0.0 - np.minimum(np.linalg.eigvalsh(sym)[:, 0], 0.0)
    if not (residual <= cp_slack).all():
        k = int(np.argmax(~(residual <= cp_slack)))
        slack = np.broadcast_to(cp_slack, residual.shape)[k]
        raise CPViolation(f"Choi matrix has eigenvalue {-residual[k]:.3e} below -{slack:.1e}")
    return residual


def _trace_defects(s: np.ndarray) -> np.ndarray:
    return np.abs(s[..., 0, :] + s[..., 3, :] - _TRACES)  # |tr E_ij - delta_ij|: rows 0 + 3 of S


def tp_residual(channel: QubitChannel) -> float:
    """Largest trace-preservation defect across the four images."""
    return float(_trace_defects(channel._transfer).max())


def cp_residual(channel: QubitChannel) -> float:
    """Magnitude of the most negative Choi eigenvalue (0 if none), found at construction."""
    return channel._residual
