"""Resonant drive-qubit dynamics and the channels it induces on the qubit.

A qubit exchanging a single excitation with a bosonic drive mode couples the
levels |n, 0> and |n-1, 1>, which oscillate at frequency omega_n = g sqrt(n).
Tracing out a drive prepared with amplitudes b_n leaves a qubit channel whose
basis images are expectation values of per-level matrices F_ij(n) over the
bands of |b><b| (DriveDistribution.bands). This module builds drives, the
exact truncated-sum channel, a second-order Taylor approximant in the photon
number, and the closed-form asymptotic eigenerror laws. The entries of F_ij(n)
are written once, in _images: the exact sum, f_matrices and the approximant
all call it.

Times are handled in reduced form tau = g sqrt(nbar) t, the rotation angle
accumulated at the mean photon number; units are natural, hbar = g = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._domain import EXACT, array, choice, integer, real, sequence
from .channel import CP_TOL, QubitChannel, _check_transfers
from .densmat import _normalized
from .errors import (
    ApproximationDomain,
    DimensionMismatch,
    InvalidMean,
    NonHermitianInput,
    TruncationError,
    UnsupportedParameters,
)

NORMALIZATION_TOL = 1e-12
DEFAULT_TAIL_TOL = 1e-12
TAYLOR2_CP_SLACK = 1e-3
_DRIVE_KINDS = ("poisson", "binomial", "fock", "custom")
# the kinds set by a mean and a variance: those a sweep, the second-order
# channel and the asymptotic law take
_MOMENT_KINDS = _DRIVE_KINDS[:2]


def _moments(w: np.ndarray, n: np.ndarray) -> tuple[float, float]:
    """Mean and variance of photon numbers n under weights w, in one scratch array:
    sum(w * n) and sum(w * (n - mean) ** 2), rounded as written."""
    scratch = np.multiply(w, n)
    mean = float(np.add.reduce(scratch))  # scratch.sum(), without its Python wrapper
    np.square(np.subtract(n, mean, out=scratch), out=scratch)
    scratch *= w
    return mean, float(np.add.reduce(scratch))


def _mean(nbar) -> float:
    """nbar as a float mean photon number in (0, 2**53]; InvalidMean otherwise."""
    return real(nbar, "mean photon number", InvalidMean, 0, EXACT, lo_open=True)


@dataclass(frozen=True, eq=False)
class DriveDistribution:
    """Drive state amplitudes b_n on a contiguous photon-number window.

    weights (|b_n|^2, squared once for the normalization check) are kept
    read-only, and bands is the one way the library reads a drive. mean and
    variance are the weights' moments, or a constructor's before its square
    root. Requested parameters that differ (truncation, clipping) are in
    metadata. The window ends at n_max = n_min + len(coefficients) - 1, both
    bounds ints in [0, 2**53]. The coefficients are checked as given (a
    float64 array is not converted), then copied once into the read-only
    complex array kept: with the weights, 24 B a level. A float64 input of
    L levels peaks at 32 L bytes, input included.
    """

    kind: str
    mean: float = field(init=False)
    variance: float = field(init=False)
    coefficients: np.ndarray
    n_min: int
    n_max: int = field(init=False)
    metadata: dict = field(default_factory=dict)
    weights: np.ndarray = field(init=False, repr=False)

    @np.errstate(over="ignore")  # |b_n|^2 past the float range is inf, and fails
    def __post_init__(self):
        self._adopt(choice(self.kind, _DRIVE_KINDS, "drive kind"), self.coefficients,
                    self.n_min, self.metadata)

    def _adopt(self, kind: str, coefficients, n_min, metadata: dict,
               moments: tuple[float, float] | None = None) -> DriveDistribution:
        """Check and store the drive; its moments are those of |b_n|^2
        unless the caller's (mean, variance) are given."""
        if not isinstance(metadata, dict):
            raise UnsupportedParameters(f"metadata must be a dict, got {type(metadata).__name__}")
        n_min = integer(n_min, "integer photon number n_min")
        b = array(coefficients, "coefficients", dtype=None, shape=(None,), finite=False)
        n_max = integer(n_min + len(b) - 1, "integer photon number n_max")
        w = np.abs(b)  # for real x, abs(x) == abs(complex(x)) exactly
        np.square(w, out=w)
        # written so that a NaN fails the check
        if not abs(w.sum() - 1.0) <= NORMALIZATION_TOL:
            raise UnsupportedParameters(
                f"coefficients not normalized: sum |b_n|^2 = {w.sum():.15f}"
            )
        mean, variance = moments or _moments(w, np.arange(n_min, n_max + 1))
        b = np.array(b, dtype=complex)
        b.setflags(write=False)
        w.setflags(write=False)
        for name, value in (("kind", kind), ("mean", mean), ("variance", variance),
                            ("coefficients", b), ("n_min", n_min), ("n_max", n_max),
                            ("metadata", dict(metadata)), ("weights", w)):
            object.__setattr__(self, name, value)
        return self

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    @property
    def bands(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(w, x1, y2), the bands of |b><b| that reach the qubit: weights,
        x1_n = b_n conj(b_{n+1}) and y2_n = conj(b_n) b_{n+2}, formed per call."""
        b = self.coefficients
        return self.weights, b[:-1] * np.conj(b[1:]), np.conj(b[:-2]) * b[2:]

    @property
    def fano(self) -> float:
        if self.mean == 0:
            return math.nan
        return self.variance / self.mean


@dataclass(frozen=True)
class JCConfig:
    """Reduced interaction time tau = g sqrt(nbar) t, the primary time variable.

    Units are natural, hbar = g = 1: times are in units of 1/g and energies
    in units of hbar g, so no coupling or mode frequency is needed.
    """

    tau: float

    def __post_init__(self):
        real(self.tau, "reduced time", lo=0, hi=EXACT)

    def interaction_time(self, nbar: float) -> float:
        """Duration t = tau / sqrt(nbar), in units of 1/g.

        A mean of 0 is accepted at tau = 0 only: a reduced time is undefined
        without a positive mean.
        """
        nbar = real(nbar, "mean photon number", InvalidMean, 0, EXACT, lo_open=self.tau != 0)
        if self.tau == 0:
            return 0.0
        return self.tau / math.sqrt(nbar)


# ---------------------------------------------------------------------------
# drive constructors

# the largest mean poisson_drive takes: its window there keeps 1.4e5 levels,
# built in 30-45 ms on a 2-vCPU Xeon VM
MAX_POISSON_MEAN = 1e8


# log n! for n below _LOG_FACTORIAL_LEVELS (512 KB), shared by every drive in
# the process and filled on demand, _LOG_FACTORIAL_BLOCK levels at a time
_LOG_FACTORIAL_LEVELS = 1 << 16
_LOG_FACTORIAL_BLOCK = 256
_log_factorial_table = np.empty(_LOG_FACTORIAL_LEVELS)
_log_factorial_filled = np.zeros(_LOG_FACTORIAL_LEVELS // _LOG_FACTORIAL_BLOCK, dtype=bool)


def _lgamma_map(start: int, stop: int) -> np.ndarray:
    """math.lgamma(n + 1) for n = start .. stop - 1: numpy has no lgamma."""
    return np.fromiter(map(math.lgamma, range(start + 1, stop + 1)), float, stop - start)


def _log_factorials(start: int, stop: int) -> np.ndarray:
    """log n! = math.lgamma(n + 1) for n = start .. stop - 1, read-only.

    Below _LOG_FACTORIAL_LEVELS the values are a view of the process's
    table. A block is marked filled only after all of it is written, so a
    fill that an exception (a SIGALRM time limit) stops partway is redone by
    the next call. A request that reaches past the table is computed whole.
    """
    if stop > _LOG_FACTORIAL_LEVELS:
        values = _lgamma_map(start, stop)
    else:
        table, filled, size = _log_factorial_table, _log_factorial_filled, _LOG_FACTORIAL_BLOCK
        for block in range(start // size, -(-stop // size)):
            if not filled[block]:
                lo, hi = block * size, (block + 1) * size
                table[lo:hi] = _lgamma_map(lo, hi)
                filled[block] = True
        values = table[start:stop]
    values.setflags(write=False)
    return values


def _poisson_logpmf(nbar: float, start: int, stop: int) -> np.ndarray:
    """log Poisson(nbar) pmf at n = start .. stop - 1.

    Bit for bit the scalar -nbar + n log(nbar) - lgamma(n + 1): a cumulative
    sum of logs would round differently.
    """
    return -nbar + np.arange(start, stop) * math.log(nbar) - _log_factorials(start, stop)


def _weights_drive(kind: str, w: np.ndarray, n_min: int, metadata: dict) -> DriveDistribution:
    """The drive with |b_n|^2 = w from level n_min: the moments are taken
    from w, which then holds the amplitudes sqrt(w). They round as these
    weights do, not as |sqrt(w)|^2 would."""
    moments = _moments(w, np.arange(n_min, n_min + len(w)))
    return object.__new__(DriveDistribution)._adopt(kind, np.sqrt(w, out=w), n_min, metadata,
                                                    moments)


def poisson_drive(nbar: float, tail_tol: float = DEFAULT_TAIL_TOL) -> DriveDistribution:
    """Coherent-state amplitudes: |b_n|^2 Poisson with mean nbar in (0, MAX_POISSON_MEAN].

    The pmf is taken on the levels within t = L/3 + sqrt(L^2/9 + 2 L nbar)
    of nbar, L = log(16 / tail_tol): by Bernstein's inequality each side
    beyond holds at most tail_tol/16 of the mass. Each tail is then trimmed
    of the outermost levels whose cumulative pmf stays within 7 tail_tol/16,
    and the kept weights are normalized by their sum. So the true mass left
    out is at most tail_tol, for every mean; metadata records the trimmed
    part as trimmed_mass. tail_tol is in (0, 1).
    """
    nbar = real(nbar, "mean photon number", InvalidMean, 0, MAX_POISSON_MEAN, lo_open=True)
    tail_tol = real(tail_tol, "tail_tol", lo=0, hi=1, lo_open=True, hi_open=True)
    # the bound is loose, so most of each side's tail_tol/2 goes to the trim,
    # which measures what it drops
    log_odds = math.log(16.0) - math.log(tail_tol)  # finite for any tail_tol
    reach = log_odds / 3 + math.sqrt(log_odds ** 2 / 9 + 2 * log_odds * nbar)
    lo = max(0, math.ceil(nbar - reach))
    p = np.exp(_poisson_logpmf(nbar, lo, math.floor(nbar + reach) + 1))
    # the levels whose running sum from either end stays within the budget;
    # cumsum is sequential, so each prefix rounds like total +=
    budget = 7 * tail_tol / 16
    below = int(np.cumsum(p).searchsorted(budget, "right"))
    above = len(p) - int(np.cumsum(p[::-1]).searchsorted(budget, "right"))
    trimmed = float(p[:below].sum() + p[above:].sum())
    w = p[below:above]
    return _weights_drive("poisson", w / w.sum(), lo + below,
                          {"requested_mean": nbar, "tail_tol": tail_tol,
                           "trimmed_mass": trimmed})


def _binomial_weights(n_trials: int) -> np.ndarray:
    lg = _log_factorials(0, n_trials + 1)
    logc = lg[-1] - lg
    logc -= lg[::-1]  # log C(n_trials, k)
    logc -= n_trials * math.log(2.0)
    return np.exp(logc, out=logc)


# binomial widths and shifts are products of the caller's numbers and may
# miss their integer by rounding: 4 * (0.7 * 45) = 125.99999999999999
_PRODUCT_SLACK = 1e-9


def _binomial_support(nbar: float, variance: float) -> tuple[int, int]:
    """The binomial drive's width 4 variance and support shift nbar - 2 variance,
    each an integer within _PRODUCT_SLACK; UnsupportedParameters otherwise."""
    return (integer(4 * variance, "width 4*variance", slack=_PRODUCT_SLACK),
            integer(nbar - 2 * variance, "support shift mean - 2*variance", lo=-EXACT,
                    slack=_PRODUCT_SLACK))


def binomial_drive(nbar: float, variance: float) -> DriveDistribution:
    """Symmetric binomial photon-number distribution shifted to mean nbar.

    The width N = 4 variance is centered on nbar, so the realized mean and
    variance equal the requested ones. The paper's literal drive at (nbar,
    V), of width 2V with its support ending at nbar, is this drive at
    (nbar - V, V/2), bit for bit.
    """
    # the width and shift bound the mean: both are integers of at most 2**53
    nbar = real(nbar, "mean photon number", InvalidMean, 0, lo_open=True)
    variance = real(variance, "variance", lo=0, hi=nbar, lo_open=True)
    n_trials, offset = _binomial_support(nbar, variance)
    metadata = {"width": n_trials, "requested_mean": nbar, "requested_variance": variance}

    w = _binomial_weights(n_trials)  # level offset + k has weight w[k]
    if offset < 0:
        clipped = w[:-offset].sum()
        if clipped >= DEFAULT_TAIL_TOL:
            raise UnsupportedParameters(
                f"support would put mass {clipped:.3e} on negative photon numbers"
            )
        w = w[-offset:]
        w = w / w.sum()
        metadata["clipped_mass"] = float(clipped)
    return _weights_drive("binomial", w, max(offset, 0), metadata)


def fock_drive(n_photons: int) -> DriveDistribution:
    """Single photon-number state: b_N = 1."""
    return _weights_drive("fock", np.ones(1), integer(n_photons, "photon number"), {})


def custom_drive(coefficients, n_min: int = 0) -> DriveDistribution:
    """Arbitrary complex amplitudes on a contiguous window starting at n_min."""
    b = array(coefficients, "coefficients", shape=(None,))
    return DriveDistribution(kind="custom", n_min=n_min, coefficients=_normalized(
        b, UnsupportedParameters, "coefficients must not all vanish"))


# ---------------------------------------------------------------------------
# channel construction

def _angles(k_lo: int, k_hi: int, tau, nbar: float) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of tau sqrt(k/nbar) for k = k_lo .. k_hi, on a trailing axis.

    tau is a scalar or an array of reduced times; its shape leads the result's.
    """
    k = np.arange(k_lo, k_hi + 1)
    if not nbar > 0:  # JCConfig.interaction_time lets only tau = 0 through; no 0/0
        shape = np.shape(tau) + k.shape
        return np.ones(shape), np.zeros(shape)
    theta = np.multiply.outer(tau, np.sqrt(k / nbar))
    return np.cos(theta), np.sin(theta)


def _images(at, w, x1, y2, total) -> np.ndarray:
    """E00, E01, E10, E11 from the per-level entries of F_ij(n), stacked on
    axis -3 in the order of QubitChannel.images().

    at(j, weight) gives cos and sin at level n + j for the levels that weight
    covers. w, x1, y2 are DriveDistribution.bands or their one-level forms:
    w weighs the diagonal terms, x1 the coherences and, as a conjugate
    reduction, the E01 exchange (cos and sin are real, so that is the sum
    over conj(x1)), y2 its next-neighbour term; total reduces each weighted
    term. E10 is E01^dag, taken after the array cast. Inputs meet only *
    (jets have no **), so window arrays, one level's scalars and jets all
    fit; a leading axis, if any, leads the result too. Each term is reduced
    over its own levels: zero-padding one would regroup numpy's pairwise sum
    and change its rounding.
    """
    (c0, s0), (c1, s1) = at(0, w), at(1, w)
    (c0x, _), (c1x, s1x), (c2x, _) = at(0, x1), at(1, x1), at(2, x1)
    (_, s1y), (_, s2y) = at(1, y2), at(2, y2)
    coh00 = total(x1 * c0x * s1x)
    coh11 = -total(x1 * s1x * c2x)
    exchange = np.conj(total(x1 * c1x * s1x))
    e = np.array([total(w * (c0 * c0)), coh00, np.conj(coh00), total(w * (s0 * s0)),
                  -exchange, total(w * c0 * c1), -total(y2 * s1y * s2y), exchange,
                  total(w * (s1 * s1)), coh11, np.conj(coh11), total(w * (c1 * c1))])
    e = np.concatenate((e[:8], e[[4, 6, 5, 7]].conj(), e[8:]))  # E10 = E01^dag
    return e.T.reshape(e.shape[1:] + (4, 2, 2))  # one leading axis at most


def f_matrices(n: int, tau: float, nbar: float, drive: DriveDistribution) -> tuple:
    """Per-level matrices (F00, F01, F10, F11) at reduced time tau, read-only
    and in the order of QubitChannel.images(): the one-level case of _images,
    with weights 1, conj(r1), r2 and no reduction.

    The weights are the band ratios (w, x1, y2)/w_n at level n, taken from
    r1 = b_{n+1}/b_n and r2 = b_{n+2}/b_n; they are zero when b_n vanishes,
    which keeps the drive expectation of these matrices equal to the bands'
    form used by build_channel_exact for every drive without zero interior
    coefficients. Ratios past the float range raise UnsupportedParameters.
    """
    n = integer(n, "photon number")
    JCConfig(tau=tau).interaction_time(nbar)  # tau >= 0; tau > 0 needs a mean
    c, s = _angles(n, n + 2, float(tau), float(nbar))  # c[j] = cos of level n + j
    b0, b1, b2 = (complex(drive.coefficients[k - drive.n_min])
                  if drive.n_min <= k <= drive.n_max else 0.0 for k in range(n, n + 3))
    r1, r2 = (b1 / b0, b2 / b0) if b0 != 0 else (0.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail below
        f = np.array(_images(lambda j, _: (c[j], s[j]), 1.0, np.conj(r1), r2, lambda x: x),
                     dtype=complex)
    if not np.isfinite(f).all():
        raise UnsupportedParameters(f"F matrices at level {n} are not finite")
    f.setflags(write=False)
    return tuple(f)


# elements of each (tau x window) temporary in build_channels_exact: at most
# this many, or one tau's row when the window alone is wider
_TAU_BLOCK_ELEMENTS = 1 << 16


def _exact_transfers(drive: DriveDistribution, taus) -> tuple[np.ndarray, np.ndarray]:
    """build_channels_exact as arrays: the checked (T, 4, 4) transfer matrices, residuals."""
    entries = sequence(taus, "taus", DimensionMismatch)  # checked as given, then converted
    for tau in entries:
        JCConfig(tau=tau).interaction_time(drive.mean)  # tau >= 0; tau > 0 needs a mean
    taus = np.array(entries, dtype=float)
    w, x1, y2 = drive.bands
    m = len(w)  # window levels n_min .. n_max; angles run to n_max + 2

    images = np.empty((len(taus), 4, 2, 2), dtype=complex)  # E00, E01, E10, E11 per tau
    step = max(1, _TAU_BLOCK_ELEMENTS // (m + 2))
    for start in range(0, len(taus), step):
        # column j of c and s is level n_min + j
        c, s = _angles(drive.n_min, drive.n_max + 2, taus[start:start + step], drive.mean)

        def at(j: int, weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return c[:, j:j + len(weight)], s[:, j:j + len(weight)]

        # np.sum(x, axis=1) bit for bit, without np.sum's Python wrapper
        images[start:start + step] = _images(at, w, x1, y2, lambda x: np.add.reduce(x, axis=1))
    images.setflags(write=False)
    s = images.reshape(-1, 4, 4).transpose(0, 2, 1)  # row 2i+j of S.T is vec(E_ij)
    try:
        return s, _check_transfers(s, CP_TOL)
    except NonHermitianInput as exc:
        # E00, E11 Hermitian and _images' E10 = E01^dag: only the trace check fails
        raise TruncationError(f"{exc}; drive support window is too small") from None


def build_channels_exact(drive: DriveDistribution, taus) -> list[QubitChannel]:
    """Qubit channels from the truncated expectation of F_ij over the drive,
    one per reduced time in taus, in order.

    The entries come from _images on (tau x window) arrays, weighted by
    DriveDistribution.bands, with total a sum over the window axis. Products,
    never ratios, handle drives with zero coefficients exactly. The window
    sums run over a leading tau axis, in blocks of taus, so the memory they
    take is bounded whatever len(taus) is: 64 B per window level for one tau
    (the two off-diagonal bands, a cos and a sin row, one product). The
    channels are checked as one stack; their images are read-only views of it.
    """
    return [QubitChannel._trusted(t, CP_TOL, r) for t, r in zip(*_exact_transfers(drive, taus))]


def build_channel_exact(drive: DriveDistribution, cfg: JCConfig) -> QubitChannel:
    """Qubit channel from the truncated expectation of F_ij over the drive:
    build_channels_exact at the single reduced time cfg.tau."""
    return build_channels_exact(drive, (cfg.tau,))[0]


class _Jet:
    """Value and first two derivatives, propagated through products."""

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v: float, d1: float = 0.0, d2: float = 0.0):
        self.v, self.d1, self.d2 = v, d1, d2

    def __mul__(self, other: _Jet) -> _Jet:
        return _Jet(self.v * other.v,
                    self.d1 * other.v + self.v * other.d1,
                    self.d2 * other.v + 2 * self.d1 * other.d1 + self.v * other.d2)


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
    central finite differences with unit step. The entries come from
    _images on these jets, weighted 1, r1, r2 (jets too), with total
    the Taylor value above. The result deviates from the truncated exact sum by
    O(higher moments), so the channel is constructed with a loosened
    complete-positivity slack.
    """
    nbar = _mean(nbar)
    variance = real(variance, "variance", lo=0)
    if math.sqrt(variance) > nbar:
        raise ApproximationDomain(
            f"expansion requires spread <= mean, got sqrt(variance)="
            f"{math.sqrt(variance):.3f} > nbar={nbar}"
        )
    if choice(kind, _MOMENT_KINDS, "drive kind") == "poisson":
        def r1(x: float) -> float:
            return math.sqrt(nbar / (x + 1))
    else:
        width = 4.0 * variance
        offset = nbar - 2.0 * variance

        def r1(x: float) -> float:
            k = x - offset
            if k + 1 <= 0:
                return 0.0
            return math.sqrt(max(width - k, 0.0) / (k + 1))

    def r2(x: float) -> float:  # b_{n+2}/b_n, which is 0 wherever either step is
        return r1(x) * r1(x + 1)

    def val(j: _Jet) -> float:
        return j.v + 0.5 * j.d2 * variance

    try:  # at tiny means nbar - 1 + 1 or nbar * nbar rounds to 0
        jets = [_trig_jets(k, cfg.tau, nbar) for k in range(3)]  # cos, sin at nbar + k
        images = _images(lambda j, _: jets[j], _Jet(1.0), _fd_jet(r1, nbar), _fd_jet(r2, nbar),
                         val)
    except ZeroDivisionError:
        images = math.nan
    if not np.isfinite(images).all():
        raise ApproximationDomain(f"derivative jets are not finite at nbar={nbar}")
    return QubitChannel(*images, cp_slack=TAYLOR2_CP_SLACK)


def asymptotic_eigenerror_lower_bound(kind: str, nbar: float, variance: float,
                                      tau: float) -> float:
    """Large-nbar closed forms for the channel eigenerror lower bound.

    Poisson: (tau^2 + sin^2 tau) / (6 nbar).
    Binomial: tau^2 variance / (6 nbar^2) + sin^2 tau / (6 variance), which
    alone reads the variance (checked for both) and returns inf, not an
    error, in its divergent limit of zero variance.
    """
    nbar = _mean(nbar)
    tau = real(tau, "reduced time", lo=-EXACT, hi=EXACT)
    variance = real(variance, "variance", lo=0)
    if choice(kind, _MOMENT_KINDS, "drive kind") == "poisson":
        return (tau ** 2 + math.sin(tau) ** 2) / (6 * nbar)
    if variance == 0:
        return math.inf
    drift = tau ** 2 * variance  # / (6 nbar^2), which is subnormal below nbar ~ 1e-154
    drift = drift / (6 * nbar ** 2) if nbar > 1e-150 else drift / nbar / (6 * nbar)
    return drift + math.sin(tau) ** 2 / (6 * variance)
