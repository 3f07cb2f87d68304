"""Quantum-speed-limit times and the photon cost of a target rotation.

In natural units hbar = g = 1 (times in 1/g, energies in hbar g), a rotation
by Bures angle theta under a Hamiltonian with mean <H> and spread dH cannot
beat t >= theta / dH (spread limit) nor t >= theta / <H> (mean-energy limit,
measured from the ground state). For the drive-qubit exchange interaction
both scales are sqrt(nbar), which ties the channel eigenerror to the drive's
mean photon number alone: at large nbar it follows the leading-order law
(theta^2 + sin^2 theta) / (6 nbar). That law is not a floor: the exact
channel's eigenerror lies below it at every point tested (nbar = 10 to 1000),
by about 1.2/nbar relative at theta = pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._domain import EXACT, real
from .densmat import PureState
from .errors import NonpositiveMeanEnergy, UnsupportedParameters
from .jcdrive import DriveDistribution, _mean, asymptotic_eigenerror_lower_bound

# the largest rotation angle a Bures angle check lets through: pi/2 and its rounding
_RIGHT_ANGLE = math.pi / 2 + 1e-15


@dataclass(frozen=True)
class HamiltonianMoments:
    """First two moments of the generator: mean energy and spread."""

    mean: float
    stdev: float

    def __post_init__(self):
        real(self.mean, "mean energy")
        real(self.stdev, "energy spread", lo=0)


@dataclass(frozen=True)
class RotationTarget:
    """Bures angle between input and target states, in [0, pi/2]."""

    theta: float

    def __post_init__(self):
        real(self.theta, "rotation angle", lo=0, hi=_RIGHT_ANGLE)


def mt_time(target: RotationTarget, moments: HamiltonianMoments) -> float:
    """Spread-based minimal time theta / dH.

    A vanishing spread means frozen dynamics: the time is reported as +inf
    rather than raised, except for the trivial theta = 0 target.
    """
    if target.theta == 0:
        return 0.0
    if moments.stdev == 0:
        return math.inf
    return target.theta / moments.stdev


def ml_time(target: RotationTarget, moments: HamiltonianMoments) -> float:
    """Mean-energy minimal time theta / <H>.

    The mean must be measured from the ground state and be positive; use
    jc_moments(..., measure_from_ground=True) for drive-qubit generators.
    """
    if target.theta == 0:
        return 0.0
    if moments.mean <= 0:
        raise NonpositiveMeanEnergy(
            f"mean energy above ground must be positive, got {moments.mean}"
        )
    return target.theta / moments.mean


def ground_energy(drive: DriveDistribution) -> float:
    """Lowest eigenvalue of the truncated exchange generator.

    The invariant pairs (|m, 0>, |m-1, 1>) have eigenvalues +-sqrt(m);
    the storage window for the drive extends one level above the support.
    """
    return -math.sqrt(drive.n_max + 1)


def _exchange_sum(drive: DriveDistribution) -> complex:
    """Z = sum sqrt(n+1) conj(b_n) b_{n+1} over the drive window."""
    b = drive.coefficients
    if len(b) < 2:
        return 0.0 + 0.0j
    n = drive.support[:-1]
    return complex(np.sum(np.sqrt(n + 1) * np.conj(b[:-1]) * b[1:]))


def jc_moments(drive: DriveDistribution, qubit: PureState,
               measure_from_ground: bool = False) -> HamiltonianMoments:
    """Exact <H> and dH of the exchange generator on the product state.

    Closed forms on the truncated window:
        <H>   = -2 Im(Z a_0 conj(a_1)),  Z = sum sqrt(n+1) conj(b_n) b_{n+1}
        <H^2> = nbar_realized + |a_1|^2
    With measure_from_ground the mean is shifted above the truncated ground
    energy, the form the mean-energy time limit requires. Both scales behave
    as sqrt(nbar) for phase-aligned coherent drives; see asymptotic_scale
    and phase_aligned_qubit.
    """
    if qubit.dim != 2:
        raise UnsupportedParameters("moments are defined for a qubit logical system")
    z = _exchange_sum(drive)
    a0, a1 = qubit.amplitudes
    mean = -2.0 * float(np.imag(z * a0 * np.conj(a1)))
    second = drive.mean + abs(a1) ** 2
    var = max(second - mean ** 2, 0.0)
    if measure_from_ground:
        mean = mean - ground_energy(drive)
    return HamiltonianMoments(mean=mean, stdev=math.sqrt(var))


def phase_aligned_qubit(drive: DriveDistribution) -> PureState:
    """Equal-weight qubit state whose phase maximizes |<H>| for this drive."""
    z = _exchange_sum(drive)
    phase = np.exp(1j * (np.angle(z) + math.pi / 2)) if z != 0 else 1.0
    return PureState(np.array([1.0, phase]) / math.sqrt(2.0))


def asymptotic_scale(drive: DriveDistribution) -> float:
    """Large-nbar energy scale sqrt(nbar) shared by <H> and dH."""
    return math.sqrt(drive.mean)


def bipartite_angle_check(theta_logical: float, drive_overlap: float) -> float:
    """Joint-state rotation angle when the drive also moves.

    cos(angle) = overlap * cos(theta) <= cos(theta), so the joint angle is
    never smaller than the logical one: the drive can only slow things down.
    """
    theta_logical = real(theta_logical, "logical angle", lo=0, hi=_RIGHT_ANGLE)
    drive_overlap = real(drive_overlap, "overlap", lo=0, hi=1 + 1e-15)
    return float(math.acos(min(drive_overlap, 1.0) * math.cos(theta_logical)))


def qsl_eigenerror_bound(theta: float, nbar: float) -> float:
    """Leading-order asymptotic eigenerror law (theta^2 + sin^2 theta) / (6 nbar)
    for a theta rotation.

    Since the reduced interaction time can be no smaller than the rotation
    angle, this is the coherent-drive asymptotic law evaluated at tau = theta.
    It is not a floor: the exact eigenerror lies below it at finite nbar.
    """
    theta = real(theta, "rotation angle", lo=-EXACT, hi=EXACT)
    return asymptotic_eigenerror_lower_bound("poisson", nbar, nbar, theta)


def small_angle_eigenerror_bound(theta: float, nbar: float) -> float:
    """Leading small-angle form theta^2 / (3 nbar)."""
    nbar = _mean(nbar)
    theta = real(theta, "rotation angle", lo=-EXACT, hi=EXACT)
    return theta ** 2 / (3 * nbar)


def required_mean_photons(theta: float, epsilon: float) -> float:
    """Photon budget at which the leading-order asymptotic law falls to epsilon.

    Inverts qsl_eigenerror_bound: nbar = (theta^2 + sin^2 theta) / (6 eps),
    the 1/epsilon energy cost of gate accuracy.
    """
    theta = real(theta, "rotation angle", lo=-EXACT, hi=EXACT)
    epsilon = real(epsilon, "target error", lo=0, lo_open=True)
    return (theta ** 2 + math.sin(theta) ** 2) / (6 * epsilon)
