"""Resonant drive-qubit dynamics and the channels it induces on the qubit.

A qubit exchanging a single excitation with a bosonic drive mode couples the
levels |n, 0> and |n-1, 1>, which oscillate at frequency omega_n = g sqrt(n).
Tracing out a drive prepared with amplitudes b_n leaves a qubit channel whose
basis images are expectation values of per-level matrices F_ij(n) over the
photon-number weights |b_n|^2. This module builds drive distributions, the
exact truncated-sum channel, a second-order Taylor approximant in the photon
number, and the closed-form asymptotic eigenerror laws.

Times are handled in reduced form tau = g sqrt(nbar) t, the rotation angle
accumulated at the mean photon number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import QubitChannel
from .densmat import DensityMatrix, PureState
from .errors import (
    ApproximationDomain,
    DimensionMismatch,
    InvalidMean,
    TruncationError,
    UnsupportedParameters,
)

NORMALIZATION_TOL = 1e-12
MOMENT_TOL = 1e-9
DEFAULT_TAIL_TOL = 1e-12
TAYLOR2_CP_SLACK = 1e-3


def _moments(w: np.ndarray, n: np.ndarray) -> tuple[float, float]:
    """Mean and variance of photon numbers n under weights w."""
    mean = float(np.sum(w * n))
    return mean, float(np.sum(w * (n - mean) ** 2))


@dataclass(frozen=True)
class DriveDistribution:
    """Drive state amplitudes b_n on a contiguous photon-number window.

    mean and variance are the realized moments of |b_n|^2; requested
    parameters that differ (truncation, literal-width binomial mode) are
    recorded in metadata.
    """

    kind: str
    mean: float
    variance: float
    coefficients: np.ndarray
    n_min: int
    n_max: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        b = np.asarray(self.coefficients, dtype=complex).copy()
        if b.ndim != 1 or len(b) != self.n_max - self.n_min + 1:
            raise DimensionMismatch(
                f"need {self.n_max - self.n_min + 1} coefficients for window "
                f"[{self.n_min}, {self.n_max}], got {b.shape}"
            )
        if self.n_min < 0:
            raise UnsupportedParameters("photon numbers must be nonnegative")
        w = np.abs(b) ** 2
        if abs(w.sum() - 1.0) > NORMALIZATION_TOL:
            raise UnsupportedParameters(
                f"coefficients not normalized: sum |b_n|^2 = {w.sum():.15f}"
            )
        n = np.arange(self.n_min, self.n_max + 1)
        mean, var = _moments(w, n)
        if abs(mean - self.mean) > MOMENT_TOL or abs(var - self.variance) > MOMENT_TOL:
            raise UnsupportedParameters(
                f"stored moments ({self.mean}, {self.variance}) disagree with "
                f"realized ({mean}, {var})"
            )
        b.setflags(write=False)
        object.__setattr__(self, "coefficients", b)
        object.__setattr__(self, "metadata", dict(self.metadata))

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    @property
    def weights(self) -> np.ndarray:
        return np.abs(self.coefficients) ** 2

    @property
    def fano(self) -> float:
        if self.mean == 0:
            return math.nan
        return self.variance / self.mean


@dataclass(frozen=True)
class JCConfig:
    """Reduced interaction time plus the exchange rate behind it.

    coupling is the exchange rate g; tau = g sqrt(nbar) t is the primary
    time variable. Energies are counted in carrier photons, so no mode
    frequency is needed.
    """

    tau: float
    coupling: float = 1.0

    def __post_init__(self):
        if self.coupling <= 0:
            raise UnsupportedParameters(f"coupling must be positive, got {self.coupling}")
        if self.tau < 0:
            raise UnsupportedParameters(f"reduced time must be nonnegative, got {self.tau}")

    def interaction_time(self, nbar: float) -> float:
        """Physical duration t with tau = coupling * sqrt(nbar) * t."""
        if self.tau == 0:
            return 0.0
        if nbar <= 0:
            raise InvalidMean(
                "reduced time is undefined for a zero-mean drive; "
                "tau = g sqrt(nbar) t requires nbar > 0"
            )
        return self.tau / (self.coupling * math.sqrt(nbar))


@dataclass(frozen=True)
class FMatrixSet:
    """Per-level matrices whose drive expectation gives the channel images."""

    F00: np.ndarray
    F01: np.ndarray
    F10: np.ndarray
    F11: np.ndarray

    def __post_init__(self):
        for name in ("F00", "F01", "F10", "F11"):
            m = np.asarray(getattr(self, name), dtype=complex)
            if m.shape != (2, 2):
                raise DimensionMismatch(f"{name} must be 2x2")
            m = m.copy()
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        if abs(np.trace(self.F00) - 1) > 1e-12 or abs(np.trace(self.F11) - 1) > 1e-12:
            raise UnsupportedParameters("diagonal F matrices must have unit trace")
        if abs(np.trace(self.F01)) > 1e-12:
            raise UnsupportedParameters("F01 must be traceless")


# ---------------------------------------------------------------------------
# drive constructors

def poisson_drive(nbar: float, tail_tol: float = DEFAULT_TAIL_TOL) -> DriveDistribution:
    """Coherent-state amplitudes: |b_n|^2 Poisson with mean nbar.

    The window grows outward from the mean until the clipped tail mass is
    below tail_tol; the kept weights are renormalized.
    """
    if nbar <= 0:
        raise InvalidMean(f"mean photon number must be positive, got {nbar}")

    def logpmf(n: int) -> float:
        return -nbar + n * math.log(nbar) - math.lgamma(n + 1)

    lo = hi = int(nbar)
    total = math.exp(logpmf(lo))
    while total < 1.0 - tail_tol:
        p_lo = math.exp(logpmf(lo - 1)) if lo > 0 else -1.0
        p_hi = math.exp(logpmf(hi + 1))
        if p_lo >= p_hi:
            lo -= 1
            total += p_lo
        else:
            hi += 1
            total += p_hi
    n = np.arange(lo, hi + 1)
    w = np.exp([logpmf(int(k)) for k in n])
    w /= w.sum()
    mean, var = _moments(w, n)
    return DriveDistribution(
        kind="poisson", mean=mean, variance=var, coefficients=np.sqrt(w),
        n_min=int(lo), n_max=int(hi),
        metadata={"requested_mean": nbar, "tail_tol": tail_tol},
    )


def _binomial_weights(n_trials: int) -> np.ndarray:
    k = np.arange(n_trials + 1)
    logc = [math.lgamma(n_trials + 1) - math.lgamma(kk + 1) - math.lgamma(n_trials - kk + 1)
            for kk in k]
    return np.exp(np.array(logc) - n_trials * math.log(2.0))


def _require_integer(value: float, what: str) -> int:
    r = round(value)
    if abs(value - r) > 1e-9:
        raise UnsupportedParameters(f"{what} = {value} must be an integer")
    return int(r)


def binomial_drive(nbar: float, variance: float,
                   mode: str = "moment_matched") -> DriveDistribution:
    """Symmetric binomial photon-number distribution shifted to mean nbar.

    moment_matched picks width N = 4 variance centered on nbar, so the
    realized mean and variance equal the requested ones exactly.
    paper_literal uses width N = 2 variance with support ending at nbar; its
    realized moments are nbar - N/2 and N/4, and the mismatch with the
    requested values is flagged in metadata.
    """
    if nbar <= 0:
        raise InvalidMean(f"mean photon number must be positive, got {nbar}")
    if variance <= 0 or variance > nbar:
        raise UnsupportedParameters(
            f"need 0 < variance <= mean, got variance={variance}, mean={nbar}"
        )
    if mode == "moment_matched":
        n_trials = _require_integer(4 * variance, "width 4*variance")
        offset = _require_integer(nbar - 2 * variance, "support shift mean - 2*variance")
        metadata = {"mode": mode, "width": n_trials,
                    "requested_mean": nbar, "requested_variance": variance}
    elif mode == "paper_literal":
        n_trials = _require_integer(2 * variance, "width 2*variance")
        offset = _require_integer(nbar - n_trials, "support shift mean - width")
        metadata = {"mode": mode, "width": n_trials,
                    "requested_mean": nbar, "requested_variance": variance,
                    "moment_mismatch": True,
                    "realized_mean": nbar - n_trials / 2,
                    "realized_variance": n_trials / 4}
    else:
        raise UnsupportedParameters(f"unknown binomial mode {mode!r}")

    w = _binomial_weights(n_trials)
    n = offset + np.arange(n_trials + 1)
    if n[0] < 0:
        clipped = w[n < 0].sum()
        if clipped >= DEFAULT_TAIL_TOL:
            raise UnsupportedParameters(
                f"support would put mass {clipped:.3e} on negative photon numbers"
            )
        w = w[n >= 0]
        n = n[n >= 0]
        w = w / w.sum()
        metadata["clipped_mass"] = float(clipped)
    mean, var = _moments(w, n)
    return DriveDistribution(
        kind="binomial", mean=mean, variance=var, coefficients=np.sqrt(w),
        n_min=int(n[0]), n_max=int(n[-1]), metadata=metadata,
    )


def fock_drive(n_photons: int) -> DriveDistribution:
    """Single photon-number state: b_N = 1."""
    if n_photons < 0 or n_photons != int(n_photons):
        raise UnsupportedParameters(f"photon number must be a nonnegative integer, got {n_photons}")
    n_photons = int(n_photons)
    return DriveDistribution(
        kind="fock", mean=float(n_photons), variance=0.0,
        coefficients=np.array([1.0 + 0j]), n_min=n_photons, n_max=n_photons,
    )


def custom_drive(coefficients, n_min: int = 0) -> DriveDistribution:
    """Arbitrary complex amplitudes on a contiguous window starting at n_min."""
    b = np.asarray(coefficients, dtype=complex)
    if b.ndim != 1 or len(b) == 0:
        raise DimensionMismatch("coefficients must be a nonempty vector")
    norm = np.linalg.norm(b)
    if norm == 0:
        raise UnsupportedParameters("coefficients must not all vanish")
    b = b / norm
    n = np.arange(n_min, n_min + len(b))
    w = np.abs(b) ** 2
    mean, var = _moments(w, n)
    return DriveDistribution(
        kind="custom", mean=mean, variance=var, coefficients=b,
        n_min=int(n_min), n_max=int(n_min + len(b) - 1),
    )


# ---------------------------------------------------------------------------
# channel construction

def _angles(n_top: int, tau: float, nbar: float) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of tau sqrt(k/nbar) for k = 0 .. n_top."""
    if tau != 0 and nbar <= 0:
        raise InvalidMean(
            "reduced time is undefined for a zero-mean drive; "
            "tau = g sqrt(nbar) t requires nbar > 0"
        )
    if tau == 0:
        k = np.arange(n_top + 1)
        return np.ones_like(k, dtype=float), np.zeros_like(k, dtype=float)
    theta = tau * np.sqrt(np.arange(n_top + 1) / nbar)
    return np.cos(theta), np.sin(theta)


def f_matrices(n: int, tau: float, nbar: float, drive: DriveDistribution) -> FMatrixSet:
    """Per-level matrices F_ij(n) at reduced time tau.

    Off-diagonal entries carry amplitude ratios b_{n+1}/b_n and b_{n+2}/b_n;
    they are set to zero when b_n vanishes, which keeps the drive expectation
    of these matrices equal to the amplitude-product form used by
    build_channel_exact for every drive without zero interior coefficients.
    """
    if n < 0:
        raise UnsupportedParameters("photon number must be nonnegative")
    c, s = _angles(n + 2, tau, nbar)

    def amp(k: int) -> complex:
        if drive.n_min <= k <= drive.n_max:
            return complex(drive.coefficients[k - drive.n_min])
        return 0.0

    b0 = amp(n)
    if b0 != 0:
        r1 = amp(n + 1) / b0
        r2 = amp(n + 2) / b0
    else:
        r1 = r2 = 0.0
    f00 = np.array([[c[n] ** 2, np.conj(r1) * c[n] * s[n + 1]],
                    [r1 * c[n] * s[n + 1], s[n] ** 2]], dtype=complex)
    f00[1, 0] = np.conj(f00[0, 1])
    f11 = np.array([[s[n + 1] ** 2, -np.conj(r1) * s[n + 1] * c[n + 2]],
                    [0.0, c[n + 1] ** 2]], dtype=complex)
    f11[1, 0] = np.conj(f11[0, 1])
    f01 = np.array([[-r1 * c[n + 1] * s[n + 1], c[n] * c[n + 1]],
                    [-r2 * s[n + 1] * s[n + 2], r1 * c[n + 1] * s[n + 1]]], dtype=complex)
    return FMatrixSet(f00, f01, f01.conj().T, f11)


def build_channel_exact(drive: DriveDistribution, cfg: JCConfig) -> QubitChannel:
    """Qubit channel from the truncated expectation of F_ij over the drive.

    Off-diagonal sums are evaluated as amplitude products
    (e.g. sum_n conj(b_n) b_{n+1} c_{n+1} s_{n+1}), never as ratios, so
    drives with zero coefficients are handled exactly.
    """
    cfg.interaction_time(drive.mean)  # validates tau > 0 against zero-mean drives
    b = drive.coefficients
    n = drive.support
    w = np.abs(b) ** 2
    c, s = _angles(drive.n_max + 2, cfg.tau, drive.mean)

    # neighbor products on the contiguous window; entries past the edge are 0
    x1 = b[:-1] * np.conj(b[1:]) if len(b) > 1 else np.zeros(0, dtype=complex)
    y1 = np.conj(b[:-1]) * b[1:] if len(b) > 1 else np.zeros(0, dtype=complex)
    y2 = np.conj(b[:-2]) * b[2:] if len(b) > 2 else np.zeros(0, dtype=complex)
    n1 = n[:-1]
    n2 = n[:-2]

    e00 = np.zeros((2, 2), dtype=complex)
    e00[0, 0] = np.sum(w * c[n] ** 2)
    e00[1, 1] = np.sum(w * s[n] ** 2)
    e00[0, 1] = np.sum(x1 * c[n1] * s[n1 + 1])
    e00[1, 0] = np.conj(e00[0, 1])

    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = np.sum(w * s[n + 1] ** 2)
    e11[1, 1] = np.sum(w * c[n + 1] ** 2)
    e11[0, 1] = -np.sum(x1 * s[n1 + 1] * c[n1 + 2])
    e11[1, 0] = np.conj(e11[0, 1])

    e01 = np.zeros((2, 2), dtype=complex)
    e01[0, 0] = -np.sum(y1 * c[n1 + 1] * s[n1 + 1])
    e01[1, 1] = np.sum(y1 * c[n1 + 1] * s[n1 + 1])
    e01[0, 1] = np.sum(w * c[n] * c[n + 1])
    e01[1, 0] = -np.sum(y2 * s[n2 + 1] * s[n2 + 2])

    residual = max(abs(np.trace(e00) - 1), abs(np.trace(e11) - 1), abs(np.trace(e01)))
    if residual > 1e-8:
        raise TruncationError(
            f"trace-preservation residual {residual:.3e} exceeds 1e-8; "
            "drive support window is too small"
        )
    return QubitChannel(e00, e01, e01.conj().T, e11)


class _Jet:
    """Value and first two derivatives, propagated through products."""

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v: float, d1: float = 0.0, d2: float = 0.0):
        self.v, self.d1, self.d2 = v, d1, d2

    def __mul__(self, other):
        if isinstance(other, _Jet):
            return _Jet(self.v * other.v,
                        self.d1 * other.v + self.v * other.d1,
                        self.d2 * other.v + 2 * self.d1 * other.d1 + self.v * other.d2)
        return _Jet(self.v * other, self.d1 * other, self.d2 * other)

    __rmul__ = __mul__

    def __neg__(self):
        return _Jet(-self.v, -self.d1, -self.d2)


def _trig_jets(k: int, tau: float, nbar: float) -> tuple[_Jet, _Jet]:
    """cos theta(x) and sin theta(x) with theta(x) = tau sqrt((x+k)/nbar), at x = nbar."""
    a = nbar + k
    theta = tau * math.sqrt(a / nbar)
    d1 = tau / (2 * math.sqrt(nbar * a))
    d2 = -tau / (4 * math.sqrt(nbar) * a ** 1.5)
    c, s = math.cos(theta), math.sin(theta)
    return (_Jet(c, -s * d1, -c * d1 * d1 - s * d2),
            _Jet(s, c * d1, -s * d1 * d1 + c * d2))


def _fd_jet(f, x: float) -> _Jet:
    """Central finite differences with unit step, the photon-number spacing."""
    return _Jet(f(x), (f(x + 1) - f(x - 1)) / 2.0, f(x + 1) - 2 * f(x) + f(x - 1))


def build_channel_taylor2(nbar: float, variance: float, kind: str,
                          cfg: JCConfig) -> QubitChannel:
    """Second-order approximant E_ij = F_ij(nbar) + F_ij''(nbar) variance / 2.

    The trigonometric n-dependence is differentiated analytically; the
    distribution-dependent amplitude-ratio factors are differentiated by
    central finite differences with unit step. The result deviates from the
    truncated exact sum by O(higher moments), so the channel is constructed
    with a loosened complete-positivity slack.
    """
    if nbar <= 0:
        raise InvalidMean(f"mean photon number must be positive, got {nbar}")
    if variance < 0:
        raise UnsupportedParameters("variance must be nonnegative")
    if math.sqrt(variance) > nbar:
        raise ApproximationDomain(
            f"expansion requires spread <= mean, got sqrt(variance)="
            f"{math.sqrt(variance):.3f} > nbar={nbar}"
        )
    kind_l = kind.lower()
    if kind_l == "poisson":
        def r1(x: float) -> float:
            return math.sqrt(nbar / (x + 1))

        def r2(x: float) -> float:
            return nbar / math.sqrt((x + 1) * (x + 2))
    elif kind_l == "binomial":
        width = 4.0 * variance
        offset = nbar - 2.0 * variance

        def r1(x: float) -> float:
            k = x - offset
            if k + 1 <= 0:
                return 0.0
            return math.sqrt(max(width - k, 0.0) / (k + 1))

        def r2(x: float) -> float:
            k = x - offset
            if k + 1 <= 0:
                return 0.0
            return math.sqrt(max((width - k) * (width - k - 1), 0.0)
                             / ((k + 1) * (k + 2)))
    else:
        raise UnsupportedParameters(f"unsupported drive kind for expansion: {kind!r}")

    tau = cfg.tau
    c0, s0 = _trig_jets(0, tau, nbar)
    c1, s1 = _trig_jets(1, tau, nbar)
    c2, s2 = _trig_jets(2, tau, nbar)
    j1 = _fd_jet(r1, nbar)
    j2 = _fd_jet(r2, nbar)

    def val(j: _Jet) -> float:
        return j.v + 0.5 * j.d2 * variance

    e00 = np.array([[val(c0 * c0), val(j1 * c0 * s1)],
                    [val(j1 * c0 * s1), val(s0 * s0)]], dtype=complex)
    e11 = np.array([[val(s1 * s1), val(-(j1 * s1 * c2))],
                    [val(-(j1 * s1 * c2)), val(c1 * c1)]], dtype=complex)
    e01 = np.array([[val(-(j1 * c1 * s1)), val(c0 * c1)],
                    [val(-(j2 * s1 * s2)), val(j1 * c1 * s1)]], dtype=complex)
    return QubitChannel(e00, e01, e01.conj().T, e11, cp_slack=TAYLOR2_CP_SLACK)


def asymptotic_eigenerror_lower_bound(kind: str, nbar: float, variance: float,
                                      tau: float) -> float:
    """Large-nbar closed forms for the channel eigenerror lower bound.

    Poisson: (tau^2 + sin^2 tau) / (6 nbar).
    Binomial: tau^2 variance / (6 nbar^2) + sin^2 tau / (6 variance).
    The binomial form diverges as the variance goes to zero; that limit
    returns inf rather than raising.
    """
    if nbar <= 0:
        raise InvalidMean(f"mean photon number must be positive, got {nbar}")
    kind_l = kind.lower()
    if kind_l == "poisson":
        return (tau ** 2 + math.sin(tau) ** 2) / (6 * nbar)
    if kind_l == "binomial":
        if variance < 0:
            raise UnsupportedParameters("variance must be nonnegative")
        if variance == 0:
            return math.inf
        return (tau ** 2 * variance / (6 * nbar ** 2)
                + math.sin(tau) ** 2 / (6 * variance))
    raise UnsupportedParameters(f"no asymptotic law for drive kind {kind!r}")


# ---------------------------------------------------------------------------
# joint evolution

@dataclass(frozen=True)
class BipartiteState:
    """Joint drive-qubit amplitudes; row m-n_lo, column q holds <m, q|psi>."""

    amplitudes: np.ndarray
    n_lo: int

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex).copy()
        if a.ndim != 2 or a.shape[1] != 2:
            raise DimensionMismatch("amplitudes must have shape (levels, 2)")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def vector(self) -> np.ndarray:
        return self.amplitudes.ravel().copy()

    def qubit_density(self) -> DensityMatrix:
        rho = np.einsum("mi,mj->ij", self.amplitudes, self.amplitudes.conj())
        return DensityMatrix((rho + rho.conj().T) / 2)

    def drive_density(self) -> np.ndarray:
        return self.amplitudes @ self.amplitudes.conj().T


def evolve_bipartite(drive: DriveDistribution, qubit: PureState,
                     cfg: JCConfig) -> BipartiteState:
    """Exact joint evolution in the invariant two-level subspaces.

    Each pair (|m, 0>, |m-1, 1>) rotates by the angle tau sqrt(m/nbar);
    |0, 0> is stationary. The storage window extends one level past the
    drive support on each side to hold the exchanged excitation.
    """
    if qubit.dim != 2:
        raise DimensionMismatch("drive-qubit evolution needs a qubit state")
    cfg.interaction_time(drive.mean)
    lo = max(0, drive.n_min - 1)
    hi = drive.n_max + 1
    psi = np.zeros((hi - lo + 1, 2), dtype=complex)
    a0, a1 = qubit.amplitudes
    psi[drive.n_min - lo: drive.n_max - lo + 1, 0] = drive.coefficients * a0
    psi[drive.n_min - lo: drive.n_max - lo + 1, 1] = drive.coefficients * a1
    if cfg.tau != 0:
        for m in range(max(1, lo), hi + 1):
            theta = cfg.tau * math.sqrt(m / drive.mean)
            cm, sm = math.cos(theta), math.sin(theta)
            upper = psi[m - lo, 0]
            lower = psi[m - 1 - lo, 1] if m - 1 >= lo else 0.0
            psi[m - lo, 0] = cm * upper - sm * lower
            if m - 1 >= lo:
                psi[m - 1 - lo, 1] = sm * upper + cm * lower
    return BipartiteState(psi, lo)
