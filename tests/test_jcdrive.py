"""Drive distributions and the exact drive-qubit exchange channel."""

from __future__ import annotations

import contextlib
import inspect
import math
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from eigenfid import jcdrive
from eigenfid import (
    DensityMatrix,
    DriveDistribution,
    JCConfig,
    PureState,
    QubitChannel,
    asymptotic_eigenerror_lower_bound,
    apply,
    binomial_drive,
    build_channel_exact,
    build_channel_taylor2,
    build_channels_exact,
    channel_eigenerror_bounds,
    concatenate,
    cp_residual,
    eigenerror,
    custom_drive,
    f_matrices,
    fock_drive,
    poisson_drive,
    random_density_matrix,
)
from eigenfid._domain import EXACT, integer, real
from eigenfid.channel import CP_TOL
from eigenfid.errors import (
    ApproximationDomain,
    DimensionMismatch,
    InvalidMean,
    TruncationError,
    UnsupportedParameters,
)

KET0_Q = PureState(np.array([1.0, 0.0]))
KET1_Q = PureState(np.array([0.0, 1.0]))


def _random_qubit(rng) -> PureState:
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return PureState(z / np.linalg.norm(z))


# ---------------------------------------------------------------------------
# drive constructors

class TestPoissonDrive:
    def test_vacuum_weight_at_unit_mean(self):
        drive = poisson_drive(1.0)
        k0 = 0 - drive.n_min
        assert abs(abs(drive.coefficients[k0]) ** 2 - math.exp(-1.0)) < 1e-12

    def test_weights_proportional_to_poisson_pmf(self):
        drive = poisson_drive(7.5)
        pmf = oracles.poisson_pmf(drive.support, 7.5)
        np.testing.assert_allclose(drive.weights * pmf.sum(), pmf, atol=1e-15)

    def test_unit_fano_at_large_mean(self):
        drive = poisson_drive(100.0)
        assert abs(drive.fano - 1.0) < 1e-6
        assert abs(drive.mean - 100.0) < 1e-6
        assert drive.n_max - drive.n_min <= 200

    def test_normalized(self):
        drive = poisson_drive(30.0)
        assert abs(np.sum(drive.weights) - 1.0) < 1e-14

    def test_metadata(self):
        drive = poisson_drive(5.0, tail_tol=1e-10)
        assert drive.metadata == {"requested_mean": 5.0, "tail_tol": 1e-10}

    @pytest.mark.parametrize("nbar", [0.0, -2.0])
    def test_rejects_nonpositive_mean(self, nbar):
        with pytest.raises(InvalidMean):
            poisson_drive(nbar)

    @pytest.mark.parametrize("nbar", [math.nan, math.inf])
    def test_rejects_non_finite_mean(self, nbar):
        with pytest.raises(InvalidMean):
            poisson_drive(nbar)

    @pytest.mark.parametrize("tail_tol", [math.nan, math.inf, 0.0, -1e-12])
    def test_rejects_a_tail_tolerance_outside_its_domain(self, tail_tol):
        with pytest.raises(UnsupportedParameters):
            poisson_drive(5.0, tail_tol=tail_tol)


class TestBinomialDrive:
    def test_moment_matched_realizes_requested_moments(self):
        drive = binomial_drive(25.0, 5.0)
        assert abs(drive.mean - 25.0) < 1e-9
        assert abs(drive.variance - 5.0) < 1e-9
        assert drive.n_min == 15 and drive.n_max == 35
        assert drive.metadata["width"] == 20

    def test_weights_match_shifted_symmetric_binomial(self):
        drive = binomial_drive(25.0, 5.0)
        pmf = oracles.binom_pmf(drive.support - 15, 20, 0.5)
        np.testing.assert_allclose(drive.weights, pmf, atol=1e-14)

    def test_unit_fano_matches_poisson_moments(self):
        drive = binomial_drive(100.0, 100.0)
        assert abs(drive.mean - 100.0) < 1e-9
        assert abs(drive.fano - 1.0) < 1e-9

    def test_takes_a_mean_and_a_variance_only(self):
        assert list(inspect.signature(binomial_drive).parameters) == ["nbar", "variance"]

    def test_the_paper_literal_drive_is_the_shifted_half_variance_drive(self, time_limit):
        # the paper's drive at (nbar, V): width 2V, support ending at nbar,
        # clipped at 0 as binomial_drive clips; it is binomial_drive(nbar - V, V/2)
        built = clipped = 0
        with time_limit(30):
            for nbar in np.arange(0.5, 100.5, 0.5):
                for variance in np.arange(0.5, nbar + 0.5, 0.5):
                    try:
                        drive = binomial_drive(nbar - variance, variance / 2)
                    except (InvalidMean, UnsupportedParameters):
                        continue
                    width = int(2 * variance)
                    n = np.arange(nbar - width, nbar + 1, dtype=int)
                    w = _scalar_binomial_weights(width)
                    if n[0] < 0:
                        w, n = w[n >= 0], n[n >= 0]
                        w = w / w.sum()
                        clipped += 1
                    assert (drive.n_min, drive.n_max) == (n[0], n[-1]), (nbar, variance)
                    assert np.array_equal(drive.coefficients, np.sqrt(w)), (nbar, variance)
                    assert (drive.mean, drive.variance) == _copied_moments(w, n), (nbar, variance)
                    built += 1
        assert built > 5000 and clipped > 500

    def test_rejects_fractional_width(self):
        with pytest.raises(UnsupportedParameters):
            binomial_drive(25.0, 5.3)

    def test_rejects_fractional_shift(self):
        with pytest.raises(UnsupportedParameters):
            binomial_drive(25.3, 5.0)

    def test_rejects_heavy_negative_tail(self):
        with pytest.raises(UnsupportedParameters):
            binomial_drive(2.0, 2.0)

    def test_clips_negligible_negative_tail(self):
        drive = binomial_drive(19.0, 10.0)
        assert drive.n_min == 0
        assert 0 < drive.metadata["clipped_mass"] < 1e-12
        assert abs(np.sum(drive.weights) - 1.0) < 1e-14

    @pytest.mark.parametrize("nbar,var", [(10.0, 0.0), (10.0, -1.0), (10.0, 11.0), (0.0, 1.0)])
    def test_domain_errors(self, nbar, var):
        with pytest.raises((UnsupportedParameters, InvalidMean)):
            binomial_drive(nbar, var)

    @pytest.mark.parametrize("nbar", [math.nan, math.inf])
    def test_rejects_non_finite_mean(self, nbar):
        with pytest.raises(InvalidMean):
            binomial_drive(nbar, 2.0)

    @pytest.mark.parametrize("var", [math.nan, math.inf])
    def test_rejects_non_finite_variance(self, var):
        with pytest.raises(UnsupportedParameters):
            binomial_drive(10.0, var)

    def test_rejects_a_width_that_overflows(self):
        with pytest.raises(UnsupportedParameters):
            binomial_drive(1e308, 1e308)


class TestFockDrive:
    def test_single_level(self):
        drive = fock_drive(6)
        assert drive.mean == 6.0
        assert drive.variance == 0.0
        assert drive.n_min == drive.n_max == 6
        np.testing.assert_array_equal(drive.coefficients, [1.0 + 0j])

    def test_vacuum_allowed(self):
        assert fock_drive(0).mean == 0.0

    @pytest.mark.parametrize("n", [-1, 2.5])
    def test_rejects_bad_photon_number(self, n):
        with pytest.raises(UnsupportedParameters):
            fock_drive(n)

    @pytest.mark.parametrize("n", [math.nan, math.inf])
    def test_rejects_non_finite_photon_number(self, n):
        with pytest.raises(UnsupportedParameters):
            fock_drive(n)


class TestCustomDrive:
    def test_normalizes_and_reports_moments(self):
        drive = custom_drive([1.0, 1.0], n_min=3)
        assert abs(drive.mean - 3.5) < 1e-12
        assert abs(drive.variance - 0.25) < 1e-12
        np.testing.assert_allclose(np.abs(drive.coefficients), [2**-0.5] * 2, atol=1e-14)

    def test_keeps_phases(self):
        drive = custom_drive([1.0, 1.0j], n_min=0)
        assert abs(drive.coefficients[1] / drive.coefficients[0] - 1.0j) < 1e-12

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch):
            custom_drive([])

    def test_rejects_zero_vector(self):
        with pytest.raises(UnsupportedParameters):
            custom_drive([0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, math.nan)])
    def test_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(UnsupportedParameters):
            custom_drive([bad, 1.0])

    @pytest.mark.parametrize("n_min", [math.nan, math.inf])
    def test_rejects_non_finite_window_start(self, n_min):
        with pytest.raises(UnsupportedParameters):
            custom_drive([1.0, 1.0], n_min=n_min)

    @pytest.mark.parametrize("n_min", [True, "2", None])
    def test_rejects_a_window_start_that_is_not_a_number(self, n_min):
        with pytest.raises(UnsupportedParameters, match="must be a number"):
            custom_drive([1.0, 1.0], n_min=n_min)


class TestDriveDistribution:
    @pytest.mark.parametrize("kind", ["Poisson", "thermal", np.array(["x"]),
                                      np.array(["custom"]), None])
    def test_the_kind_is_a_drive_kind(self, kind):
        with pytest.raises(UnsupportedParameters, match="^drive kind must be one of "
                                                        r"\('poisson', 'binomial', 'fock', "
                                                        r"'custom'\), got "):
            DriveDistribution(kind, [1.0], 0)

    def test_rejects_negative_window(self):
        with pytest.raises(UnsupportedParameters):
            DriveDistribution("custom", np.array([1.0 + 0j]), -1)

    def test_rejects_unnormalized(self):
        with pytest.raises(UnsupportedParameters):
            DriveDistribution("custom", np.array([2.0 + 0j]), 2)

    def test_nan_fails_the_checks(self):
        with pytest.raises(UnsupportedParameters):
            DriveDistribution("custom", np.array([math.nan + 0j]), 2)

    def test_the_window_end_is_derived_from_the_coefficients(self):
        drive = DriveDistribution("custom", [0.6, 0.0, 0.8], 2, {"source": "test"})
        assert (drive.n_min, drive.n_max, drive.metadata) == (2, 4, {"source": "test"})
        with pytest.raises(TypeError):
            DriveDistribution("custom", [0.6, 0.0, 0.8], 2, n_max=4)
        with pytest.raises(UnsupportedParameters, match="^metadata must be a dict, got int$"):
            DriveDistribution("custom", [0.6, 0.0, 0.8], 2, 4)

    def test_the_window_end_is_held_to_two_to_the_53(self):
        assert DriveDistribution("custom", [1.0], 2 ** 53).n_max == 2 ** 53
        with pytest.raises(UnsupportedParameters,
                           match=r"n_max must be in \[0, 2\*\*53\], got 9007199254740993$"):
            DriveDistribution("custom", [0.6, 0.8], 2 ** 53)

    @pytest.mark.parametrize("b", [[0.5 ** 0.5] * 2, [0.6, 0.8j], [0.6, 0.0, -0.8], [1, 0]])
    def test_stores_the_moments_of_the_weights(self, b):
        drive = DriveDistribution("custom", b, 2)
        w = np.abs(np.asarray(b, dtype=complex)) ** 2
        mean, variance = jcdrive._moments(w, drive.support)
        assert (drive.mean.hex(), drive.variance.hex()) == (mean.hex(), variance.hex())
        with pytest.raises(TypeError):
            DriveDistribution("custom", b, 2, mean=mean)

    @pytest.mark.parametrize("build,args", [
        (poisson_drive, (7.0,)), (poisson_drive, (900.0,)), (binomial_drive, (16.0, 4.0)),
        (binomial_drive, (2.0, 1.0)), (fock_drive, (3,)),
    ])
    def test_family_drives_store_the_moments_of_their_weights(self, build, args, monkeypatch):
        # the weights as the constructor made them, before their square root
        weights = []
        moments = jcdrive._moments
        monkeypatch.setattr(jcdrive, "_moments",
                            lambda w, n: weights.append(w.copy()) or moments(w, n))
        drive = build(*args)
        assert len(weights) == 1
        mean, variance = moments(weights[0], drive.support)
        assert (drive.mean.hex(), drive.variance.hex()) == (mean.hex(), variance.hex())
        np.testing.assert_array_equal(drive.coefficients, np.sqrt(weights[0]))

    def test_a_far_window_is_not_rejected_by_its_own_rounding(self):
        # the moments of |sqrt(w)|^2 and of w differ by about 1e-7 here, past
        # the absolute tolerance at which declared moments were compared
        drive = binomial_drive(1e9, 100.0)
        assert abs(drive.mean - 1e9) < 1e-3 and abs(drive.variance - 100.0) < 1e-6

    @pytest.mark.parametrize("n_min", [
        1.5, True, False, 2.000001, "2", None, math.nan, math.inf, np.float64(1.5),
        np.bool_(True),
    ])
    def test_rejects_bounds_that_are_not_integers(self, n_min):
        with pytest.raises(UnsupportedParameters, match="integer photon number"):
            DriveDistribution("custom", np.array([0.5 ** 0.5] * 2), n_min)

    @pytest.mark.parametrize("n_min", [np.float64(1.0), np.int64(1), np.int32(1), 1.0, 1])
    def test_stores_integral_bounds_as_int(self, n_min):
        drive = DriveDistribution("custom", np.array([0.5 ** 0.5] * 2), n_min)
        assert (type(drive.n_min), type(drive.n_max)) == (int, int)
        assert (drive.n_min, drive.n_max) == (1, 2)

    @pytest.mark.parametrize("b", [
        ["a"], ["1"], [b"1"], [None], [1.0, None], [[1.0], [1.0, 2.0]],
        np.array([1.0], dtype=object), {"x": 1.0},
    ])
    def test_rejects_coefficients_that_are_not_numbers(self, b):
        with pytest.raises(UnsupportedParameters, match="coefficients must be"):
            DriveDistribution("custom", b, 2)
        with pytest.raises(UnsupportedParameters, match="coefficients must be"):
            custom_drive(b)


class TestJCConfig:
    def test_rejects_negative_time(self):
        with pytest.raises(UnsupportedParameters):
            JCConfig(tau=-0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_fields(self, bad):
        with pytest.raises(UnsupportedParameters):
            JCConfig(tau=bad)

    def test_interaction_time_inverts_reduced_time(self):
        # natural units: t = tau / sqrt(nbar) in units of 1/g
        assert JCConfig(tau=math.pi).interaction_time(25.0) == math.pi / 5.0

    def test_zero_time_works_for_any_mean(self):
        assert JCConfig(tau=0.0).interaction_time(0.0) == 0.0

    def test_positive_time_needs_positive_mean(self):
        with pytest.raises(InvalidMean):
            JCConfig(tau=1.0).interaction_time(0.0)


# ---------------------------------------------------------------------------
# per-level matrices

class TestFMatrices:
    def test_frozen_interaction(self):
        drive = poisson_drive(5.0)
        f00, f01, _, f11 = f_matrices(3, 0.0, 5.0, drive)
        np.testing.assert_allclose(f00, [[1, 0], [0, 0]], atol=1e-14)
        np.testing.assert_allclose(f11, [[0, 0], [0, 1]], atol=1e-14)
        np.testing.assert_allclose(f01, [[0, 1], [0, 0]], atol=1e-14)

    def test_full_exchange_at_quarter_period(self):
        # tau sqrt(1/nbar) = pi/2 swaps the excitation at level one
        drive = fock_drive(1)
        f00 = f_matrices(1, math.pi / 2, 1.0, drive)[0]
        np.testing.assert_allclose(f00, np.diag([0.0, 1.0]), atol=1e-12)

    def test_trace_identities(self, rng):
        drive = poisson_drive(12.0)
        for n in rng.integers(0, 30, size=8):
            f00, f01, f10, f11 = f_matrices(int(n), 1.3, 12.0, drive)
            assert abs(np.trace(f00) - 1.0) < 1e-12
            assert abs(np.trace(f11) - 1.0) < 1e-12
            assert abs(np.trace(f01)) < 1e-12
            np.testing.assert_allclose(f10, f01.conj().T, atol=1e-14)

    def test_expectation_reproduces_channel_images(self):
        drive = poisson_drive(9.0)
        cfg = JCConfig(tau=1.1)
        chan = build_channel_exact(drive, cfg)
        sums = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
        for n, w in zip(drive.support, drive.weights):
            for k, m in enumerate(f_matrices(int(n), cfg.tau, drive.mean, drive)):
                sums[k] += w * m
        for got, want in zip(sums, chan.images()):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rejects_negative_level(self):
        with pytest.raises(UnsupportedParameters):
            f_matrices(-1, 1.0, 5.0, poisson_drive(5.0))


# ---------------------------------------------------------------------------
# exact channel

class TestBuildChannelExact:
    def test_zero_time_is_identity(self):
        for drive in (poisson_drive(4.0), fock_drive(3), binomial_drive(25.0, 5.0)):
            chan = build_channel_exact(drive, JCConfig(tau=0.0))
            np.testing.assert_allclose(chan.E00, [[1, 0], [0, 0]], atol=1e-14)
            np.testing.assert_allclose(chan.E01, [[0, 1], [0, 0]], atol=1e-14)
            np.testing.assert_allclose(chan.E11, [[0, 0], [0, 1]], atol=1e-14)

    def test_fock_quarter_period_scrambles_ground_state(self):
        chan = build_channel_exact(fock_drive(7), JCConfig(tau=math.pi / 4))
        out = apply(chan, DensityMatrix.diagonal([1.0, 0.0]))
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)
        assert abs(eigenerror(out) - 0.5) <= 1e-15

    def test_trace_preservation_residual(self):
        chan = build_channel_exact(poisson_drive(25.0), JCConfig(tau=math.pi / 2))
        assert abs(np.trace(chan.E00) - 1.0) < 1e-10
        assert abs(np.trace(chan.E11) - 1.0) < 1e-10
        assert abs(np.trace(chan.E01)) < 1e-10

    def test_truncation_guard_trips_on_lost_mass(self):
        # 5e-9 is above the channel's trace tolerance, so the guard names it too
        for lost in (0.5, 5e-9):
            drive = SimpleNamespace(
                mean=5.0,
                coefficients=np.array([math.sqrt(1.0 - lost) + 0j]),
                support=np.array([5]),
                n_min=5,
                n_max=5,
            )
            with pytest.raises(TruncationError):
                build_channel_exact(drive, JCConfig(tau=0.3))

    def test_fock_channel_costs_only_its_window(self):
        # angles are computed for levels N .. N + 2, never 0 .. N
        n_photons, tau = 10 ** 7, 1.0
        drive = fock_drive(n_photons)
        tracemalloc.start()
        try:
            chan = build_channel_exact(drive, JCConfig(tau=tau))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        t0, t1 = tau, tau * math.sqrt((n_photons + 1) / n_photons)
        np.testing.assert_allclose(chan.E00, np.diag([math.cos(t0) ** 2, math.sin(t0) ** 2]),
                                   atol=1e-12)
        np.testing.assert_allclose(chan.E11, np.diag([math.sin(t1) ** 2, math.cos(t1) ** 2]),
                                   atol=1e-12)
        np.testing.assert_allclose(chan.E01, [[0.0, math.cos(t0) * math.cos(t1)], [0.0, 0.0]],
                                   atol=1e-12)

    def test_vacuum_drive_needs_zero_time(self):
        with pytest.raises(InvalidMean):
            build_channel_exact(fock_drive(0), JCConfig(tau=0.5))

    def test_partial_trace_consistency(self, rng):
        drives = [
            poisson_drive(7.0),
            binomial_drive(25.0, 5.0),
            fock_drive(3),
            custom_drive(rng.standard_normal(5) + 1j * rng.standard_normal(5), n_min=2),
        ]
        for _ in range(5):
            for drive in drives:
                tau = float(rng.uniform(0.0, math.pi))
                cfg = JCConfig(tau=tau)
                qubit = _random_qubit(rng)
                chan = build_channel_exact(drive, cfg)
                via_channel = apply(chan, DensityMatrix.pure(qubit))
                joint, _ = oracles.dense_evolve(drive.coefficients, drive.n_min,
                                                qubit.amplitudes, tau, drive.mean)
                np.testing.assert_allclose(
                    oracles.partial_trace_qubit(joint.reshape(-1, 2)), via_channel.matrix,
                    atol=1e-10
                )


def _per_tau_images(drive, tau: float) -> tuple:
    """E00, E01, E11 of one reduced time, summed level by level over the window.

    The single-time formulas with index arrays: the reference the batched
    (tau x window) sums must reproduce bit for bit.
    """
    b = drive.coefficients
    n = np.arange(len(b))
    w = np.abs(b) ** 2
    k = np.arange(drive.n_min, drive.n_max + 3)
    theta = tau * np.sqrt(k / drive.mean) if tau else np.zeros(len(k))
    c, s = np.cos(theta), np.sin(theta)
    x1, y1, y2 = b[:-1] * np.conj(b[1:]), np.conj(b[:-1]) * b[1:], np.conj(b[:-2]) * b[2:]
    n1, n2 = n[:-1], n[:-2]
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
    return e00, e01, e11


_BATCH_DRIVES = {
    "poisson": lambda: poisson_drive(7.0),
    "poisson-wide": lambda: poisson_drive(900.0),
    "binomial": lambda: binomial_drive(25.0, 5.0),
    "binomial-clipped": lambda: binomial_drive(2.0, 1.0),
    "fock": lambda: fock_drive(3),
    "fock-large": lambda: fock_drive(10 ** 6),
    # zero interior coefficients, complex phases, a window off the vacuum
    "custom-gaps": lambda: custom_drive([0.3, 0.0, 0.5j, 0.0, 0.0, -0.4 + 0.2j, 0.6], n_min=2),
    "custom-single": lambda: custom_drive([1j], n_min=4),
    # windows of the sizes the domain benchmark evaluates: 215 to 662 levels
    "poisson-542": lambda: poisson_drive(542.0),
    "poisson-1219.5": lambda: poisson_drive(1219.5),
    "binomial-535": lambda: binomial_drive(535.0, 53.5),
    "binomial-330.5": lambda: binomial_drive(330.5, 165.25),
}
_BATCH_TAUS = (0.0, 0.1, 0.7, math.pi / 2, 2.0, math.pi, 5.9, 0.7, 0.0)


_NOT_A_SEQUENCE = "taus must be a list, tuple, range or 1-D array, got "
_BAD_TAUS = [
    (1.0, DimensionMismatch, _NOT_A_SEQUENCE + "float"),
    (None, DimensionMismatch, _NOT_A_SEQUENCE + "NoneType"),
    ("1.0", DimensionMismatch, _NOT_A_SEQUENCE + "str"),
    (np.float64(1.0), DimensionMismatch, _NOT_A_SEQUENCE + "float64"),
    ({"a": 1}, DimensionMismatch, _NOT_A_SEQUENCE + "dict"),
    ({1.0, 2.0}, DimensionMismatch, _NOT_A_SEQUENCE + "set"),
    (np.array([[1.0]]), DimensionMismatch, _NOT_A_SEQUENCE + "shape (1, 1)"),
    # a nested list is a sequence whose entry is not a reduced time
    ([[1.0]], UnsupportedParameters, "reduced time must be a real number, got [1.0]"),
    (["x"], UnsupportedParameters, "reduced time must be a real number, got 'x'"),
    ([None], UnsupportedParameters, "reduced time must be a real number, got None"),
    ([True], UnsupportedParameters, "reduced time must be a real number, got True"),
]


class TestBuildChannelsExact:
    @pytest.mark.parametrize("taus, error, text", _BAD_TAUS,
                             ids=[repr(taus) for taus, _, _ in _BAD_TAUS])
    def test_reduced_times_are_checked_as_given(self, taus, error, text):
        with pytest.raises(error, match=re.escape(text)):
            build_channels_exact(poisson_drive(10.0), taus)

    @pytest.mark.parametrize("taus", [[], (), np.empty(0)], ids=repr)
    def test_no_reduced_times_give_no_channels(self, taus):
        assert build_channels_exact(poisson_drive(10.0), taus) == []

    @pytest.mark.parametrize("name", list(_BATCH_DRIVES))
    def test_matches_the_per_tau_sums_bit_for_bit(self, name):
        drive = _BATCH_DRIVES[name]()
        channels = build_channels_exact(drive, _BATCH_TAUS)
        assert len(channels) == len(_BATCH_TAUS)
        for tau, chan in zip(_BATCH_TAUS, channels):
            e00, e01, e11 = _per_tau_images(drive, tau)
            assert np.array_equal(chan.E00, e00)
            assert np.array_equal(chan.E01, e01)
            assert np.array_equal(chan.E11, e11)
            single = build_channel_exact(drive, JCConfig(tau=tau))
            assert np.array_equal(single.images(), chan.images())

    @pytest.mark.parametrize("budget", [1, 20, 5000])
    def test_tau_blocks_leave_the_channels_unchanged(self, monkeypatch, budget):
        drives = [_BATCH_DRIVES[name]() for name in ("poisson-wide", "custom-gaps")]
        taus = np.linspace(0.0, 2 * math.pi, 37)
        whole = [build_channels_exact(d, taus) for d in drives]
        monkeypatch.setattr(jcdrive, "_TAU_BLOCK_ELEMENTS", budget)
        for drive, want in zip(drives, whole):
            got = build_channels_exact(drive, taus)
            assert all(np.array_equal(a.images(), b.images()) for a, b in zip(got, want))

    @pytest.mark.parametrize("name", list(_BATCH_DRIVES))
    def test_channels_are_those_a_fresh_check_builds(self, name):
        for chan in build_channels_exact(_BATCH_DRIVES[name](), _BATCH_TAUS):
            fresh = QubitChannel(*chan.images())
            for got, want in zip(chan.images(), fresh.images()):
                assert np.array_equal(got, want)
                assert not got.flags.writeable
                with pytest.raises(ValueError):
                    got[0, 0] = 0.5
            assert (chan.cp_slack, cp_residual(chan)) == (fresh.cp_slack, cp_residual(fresh))

    def test_no_times_give_no_channels(self):
        assert build_channels_exact(poisson_drive(7.0), ()) == []

    def test_vacuum_drive_takes_only_zero_times(self):
        (chan,) = build_channels_exact(fock_drive(0), (0.0,))
        np.testing.assert_array_equal(chan.E00, [[1, 0], [0, 0]])
        with pytest.raises(InvalidMean):
            build_channels_exact(fock_drive(0), (0.0, 0.5))

    def test_rejects_a_negative_time_anywhere(self):
        with pytest.raises(UnsupportedParameters):
            build_channels_exact(poisson_drive(7.0), (0.5, -0.1))

    def test_truncation_guard_names_the_first_bad_time(self):
        drive = SimpleNamespace(mean=5.0, coefficients=np.array([math.sqrt(0.5) + 0j]),
                                n_min=5, n_max=5)
        with pytest.raises(TruncationError, match="5.000e-01"):
            build_channels_exact(drive, (0.0, 0.3, 1.0))

    def test_wide_drive_temporaries_stay_bounded(self):
        # 64 times over a 10^5-level window: one unblocked (tau x window)
        # complex temporary alone would take 64 * 10^5 * 16 B = 102 MB
        levels = np.arange(100_000)
        drive = custom_drive(np.exp(-(((levels - 50_000) / 15_000.0) ** 2)))
        taus = np.linspace(0.05, math.pi, 64)
        tracemalloc.start()
        try:
            channels = build_channels_exact(drive, taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(channels) == 64
        assert peak < 16 * 2 ** 20
        for i in (0, 31, 63):
            want = _per_tau_images(drive, taus[i])
            assert np.array_equal(channels[i].E00, want[0])
            assert np.array_equal(channels[i].E01, want[1])


# ---------------------------------------------------------------------------
# vectorized constructions against the scalar rules they replaced

def _scalar_poisson(nbar: float, tail_tol: float) -> tuple[int, int, np.ndarray]:
    """Window and renormalized weights from the level-by-level greedy loop."""
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
    w = np.exp([logpmf(k) for k in range(lo, hi + 1)])
    w /= w.sum()
    return lo, hi, w


def _scalar_binomial_weights(n_trials: int) -> np.ndarray:
    logc = [math.lgamma(n_trials + 1) - math.lgamma(k + 1) - math.lgamma(n_trials - k + 1)
            for k in range(n_trials + 1)]
    return np.exp(np.array(logc) - n_trials * math.log(2.0))


def _assert_poisson_matches_scalar(nbar: float, tail_tol: float) -> None:
    drive = poisson_drive(nbar, tail_tol=tail_tol)
    lo, hi, w = _scalar_poisson(nbar, tail_tol)
    assert (drive.n_min, drive.n_max) == (lo, hi), nbar
    assert np.array_equal(drive.coefficients, np.sqrt(w)), nbar
    n = np.arange(lo, hi + 1)
    mean = float(np.sum(w * n))
    assert drive.mean == mean, nbar
    assert drive.variance == float(np.sum(w * (n - mean) ** 2)), nbar


# none of these means makes the greedy rule hang; it never ends for some
# means from about 1.2e3 up, at 1208.3197359978 for example
_POISSON_GRID = sorted({*np.logspace(-3, math.log10(2e3), 41).tolist(), 1.0, 2.0, 3.0, 100.0})
# above the grid, plus three means at which the rule never ends
_LARGE_POISSON_MEANS = sorted({*np.logspace(math.log10(2e3), 5, 12).tolist(),
                               1399.7442202159666, 2754.0, 3000.0})

_BINOMIAL_DRIVES = {
    "moment-matched": lambda: binomial_drive(25.0, 5.0),
    # the paper's literal drives at (25, 5) and (600, 300)
    "paper-literal": lambda: binomial_drive(20.0, 2.5),
    "clipped": lambda: binomial_drive(19.0, 10.0),
    "wide": lambda: binomial_drive(1000.0, 200.0),
    "wide-paper-literal": lambda: binomial_drive(300.0, 150.0),
}


def test_time_limit_stops_a_loop_that_never_ends(time_limit):
    with pytest.raises(TimeoutError), time_limit(0.05):
        while True:
            pass


class TestScalarRules:
    @pytest.mark.parametrize("tail_tol", [1e-12, 1e-10, 1e-6])
    def test_poisson_drive_matches_the_greedy_loop(self, time_limit, tail_tol):
        with time_limit(20):
            for nbar in _POISSON_GRID:
                _assert_poisson_matches_scalar(nbar, tail_tol)

    @pytest.mark.parametrize("nbar", _LARGE_POISSON_MEANS)
    def test_large_means_match_the_greedy_loop_or_both_never_end(self, time_limit, nbar):
        # the scalar loop takes about 6 ms at nbar = 1e5 on a 2-vCPU Xeon VM
        def within_limit(build):
            with contextlib.suppress(TimeoutError), time_limit(0.2):
                return build()
            return None

        drive = within_limit(lambda: poisson_drive(nbar))
        scalar = within_limit(lambda: _scalar_poisson(nbar, 1e-12))
        assert (drive is None) == (scalar is None), nbar
        if drive is not None:
            lo, hi, w = scalar
            assert (drive.n_min, drive.n_max) == (lo, hi), nbar
            assert np.array_equal(drive.coefficients, np.sqrt(w)), nbar

    @pytest.mark.parametrize("nbar", [0.3, 7.0, 50.0, 900.0])
    def test_window_chunks_leave_the_drive_unchanged(self, monkeypatch, time_limit, nbar):
        # one level per side and chunk: every step crosses a chunk boundary
        monkeypatch.setattr(jcdrive, "_WINDOW_CHUNK_LEVELS", 1)
        monkeypatch.setattr(jcdrive, "_WINDOW_CHUNK_SIGMAS", 0)
        with time_limit(20):
            _assert_poisson_matches_scalar(nbar, 1e-12)

    def test_default_search_takes_one_pass(self, monkeypatch):
        # the first chunk pair holds the whole window at the default
        # tail_tol, so the log-weights are computed once, and on no more
        # than 12 + 7.5 sigma levels on either side of int(nbar)
        calls = []
        logpmf = jcdrive._poisson_logpmf

        def spy(nbar, start, stop):
            calls.append((start, stop))
            return logpmf(nbar, start, stop)

        monkeypatch.setattr(jcdrive, "_poisson_logpmf", spy)
        for nbar in _POISSON_GRID:
            calls.clear()
            poisson_drive(nbar)
            assert len(calls) == 1, (nbar, calls)
            (start, stop), reach = calls[0], 12 + 7.5 * math.sqrt(nbar)
            assert int(nbar) - start <= reach and stop - 1 - int(nbar) <= reach, (nbar, calls)

    def test_search_memory_stays_bounded(self, time_limit):
        # at this mean the rounded running sum stalls below 1 - tail_tol and
        # the search never ends; whether it ends or is stopped, it holds no
        # more than one chunk at a time
        tracemalloc.start()
        try:
            with contextlib.suppress(TimeoutError), time_limit(0.3):
                poisson_drive(3000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_binomial_weights_match_the_comprehension(self, time_limit):
        with time_limit(20):
            for n_trials in [*range(0, 40), 399, 400, 4001, 40_000]:
                assert np.array_equal(jcdrive._binomial_weights(n_trials),
                                      _scalar_binomial_weights(n_trials)), n_trials

    @pytest.mark.parametrize("name", list(_BINOMIAL_DRIVES))
    def test_binomial_drive_matches_the_comprehension(self, name):
        drive = _BINOMIAL_DRIVES[name]()
        width = drive.metadata["width"]
        w = _scalar_binomial_weights(width)[width + 1 - len(drive.coefficients):]
        w = w / w.sum() if "clipped_mass" in drive.metadata else w
        assert np.array_equal(drive.coefficients, np.sqrt(w))


# ---------------------------------------------------------------------------
# the process's log-factorial table

_TABLE_LEVELS, _TABLE_BLOCK = jcdrive._LOG_FACTORIAL_LEVELS, jcdrive._LOG_FACTORIAL_BLOCK


@pytest.fixture
def fresh_table(monkeypatch):
    """An empty log-factorial table for this test: the module's lives for the process.
    Unfilled entries are NaN, so a block marked filled too early shows."""
    table = np.full(_TABLE_LEVELS, math.nan)
    filled = np.zeros(_TABLE_LEVELS // _TABLE_BLOCK, dtype=bool)
    monkeypatch.setattr(jcdrive, "_log_factorial_table", table)
    monkeypatch.setattr(jcdrive, "_log_factorial_filled", filled)
    return SimpleNamespace(table=table, filled=filled)


def _lgamma_map(start: int, stop: int) -> np.ndarray:
    return np.array([math.lgamma(n + 1) for n in range(start, stop)])


def _lgamma_spy(monkeypatch, fail_after: int = -1) -> list:
    """Record each n + 1 that math.lgamma is asked for. Once, after fail_after
    calls, raise TimeoutError instead, as a SIGALRM time limit does."""
    calls, lgamma = [], math.lgamma

    def spy(x):
        nonlocal fail_after
        if len(calls) == fail_after:
            fail_after = -1
            raise TimeoutError("time limit")
        calls.append(x)
        return lgamma(x)

    monkeypatch.setattr(math, "lgamma", spy)
    return calls


_B = _TABLE_BLOCK
_TABLE_WINDOWS = [
    (0, 1), (0, _B - 1), (0, _B), (0, _B + 1), (1, _B), (_B - 1, _B), (_B - 1, _B + 1),
    (_B, 2 * _B), (_B + 1, 3 * _B - 1), (5 * _B - 1, 9 * _B + 1), (12345, 23456),
    (_TABLE_LEVELS - _B - 1, _TABLE_LEVELS), (_TABLE_LEVELS - 1, _TABLE_LEVELS),
    (0, _TABLE_LEVELS), (_TABLE_LEVELS - 3, _TABLE_LEVELS + 1), (0, _TABLE_LEVELS + 1),
    (_TABLE_LEVELS + 10, _TABLE_LEVELS + 300),
]


class TestLogFactorialTable:
    @pytest.mark.parametrize("start, stop", _TABLE_WINDOWS)
    def test_values_are_the_lgamma_map_bit_for_bit(self, fresh_table, start, stop):
        for _ in range(2):  # cold, then from the filled table
            assert np.array_equal(jcdrive._log_factorials(start, stop), _lgamma_map(start, stop))

    @pytest.mark.parametrize("start, stop", [(3, 700), (0, _TABLE_LEVELS + 1)])
    def test_values_are_read_only(self, fresh_table, start, stop):
        values = jcdrive._log_factorials(start, stop)
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0.0

    def test_past_the_table_nothing_is_filled(self, fresh_table):
        jcdrive._log_factorials(_TABLE_LEVELS - 3, _TABLE_LEVELS + 1)
        assert not fresh_table.filled.any()

    @pytest.mark.parametrize("start, stop", [(0, 1), (_B - 1, _B + 1), (300, 1000),
                                             (5 * _B, 7 * _B)])
    def test_a_cold_call_evaluates_only_the_blocks_it_overlaps(self, monkeypatch, fresh_table,
                                                               start, stop):
        calls = _lgamma_spy(monkeypatch)
        jcdrive._log_factorials(start, stop)
        first, last = start // _B * _B, -(-stop // _B) * _B
        assert sorted(calls) == list(range(first + 1, last + 1))
        assert first >= start - (_B - 1) and last <= stop + (_B - 1)
        calls.clear()
        jcdrive._log_factorials(start, stop)
        assert calls == []

    def test_a_fill_stopped_partway_is_redone(self, monkeypatch, fresh_table):
        # the fill of the request's second block raises 10 levels in
        calls = _lgamma_spy(monkeypatch, fail_after=_B + 10)
        with pytest.raises(TimeoutError):
            jcdrive._log_factorials(0, 3 * _B)
        assert fresh_table.filled[:3].tolist() == [True, False, False]
        calls.clear()
        values = jcdrive._log_factorials(0, 3 * _B)
        assert sorted(calls) == list(range(_B + 1, 3 * _B + 1))  # the unmarked blocks, whole
        assert fresh_table.filled[:3].all()
        assert np.array_equal(values, _lgamma_map(0, 3 * _B))

    def test_drives_read_the_table(self, monkeypatch, fresh_table):
        poisson_drive(100.0)
        binomial_drive(25.0, 5.0)
        calls = _lgamma_spy(monkeypatch)
        poisson_drive(100.0)
        binomial_drive(25.0, 5.0)
        assert calls == []


# ---------------------------------------------------------------------------
# drives checked as given against the drive code that checked a complex copy

def _copied_moments(w: np.ndarray, n: np.ndarray) -> tuple[float, float]:
    mean = float(np.sum(w * n))
    return mean, float(np.sum(w * (n - mean) ** 2))


def _copied_drive(kind, coefficients, n_min, metadata=None, moments=None):
    """DriveDistribution as it was: its checks run on a complex copy. Its
    scalar arguments are checked by the library's domain checks, as they are
    today, and its window ends where the coefficients do. It stores the
    given moments, or those of |b_n|^2 when none are."""
    n_min = integer(n_min, "integer photon number n_min")
    b = np.asarray(coefficients, dtype=complex).copy()
    if b.ndim != 1 or len(b) == 0:
        raise DimensionMismatch(f"coefficients must be a nonempty vector, got shape {b.shape}")
    n_max = integer(n_min + len(b) - 1, "integer photon number n_max")
    w = np.abs(b) ** 2
    if not abs(w.sum() - 1.0) <= jcdrive.NORMALIZATION_TOL:
        raise UnsupportedParameters(
            f"coefficients not normalized: sum |b_n|^2 = {w.sum():.15f}"
        )
    mean, variance = moments or _copied_moments(w, np.arange(n_min, n_max + 1))
    return SimpleNamespace(kind=kind, mean=mean, variance=variance, coefficients=b,
                           n_min=n_min, n_max=n_max, metadata=dict(metadata or {}))


def _copied_poisson_drive(nbar: float, tail_tol: float = 1e-12):
    # the greedy loop's window and weights equal poisson_drive's bit for bit
    # (TestScalarRules); what follows them is the code under test
    lo, hi, w = _scalar_poisson(nbar, tail_tol)
    return _copied_drive("poisson", np.sqrt(w), lo,
                         {"requested_mean": nbar, "tail_tol": tail_tol},
                         _copied_moments(w, np.arange(lo, hi + 1)))


def _copied_binomial_weights(n_trials: int) -> np.ndarray:
    lg = np.fromiter(map(math.lgamma, range(1, n_trials + 2)), float, n_trials + 1)
    logc = math.lgamma(n_trials + 1) - lg - lg[::-1]
    return np.exp(logc - n_trials * math.log(2.0))


def _copied_binomial_drive(nbar: float, variance: float):
    nbar = real(nbar, "mean photon number", InvalidMean, 0, lo_open=True)
    variance = real(variance, "variance", lo=0, hi=nbar, lo_open=True)
    n_trials = integer(4 * variance, "width 4*variance", slack=1e-9)
    offset = integer(nbar - 2 * variance, "support shift mean - 2*variance",
                     lo=-EXACT, slack=1e-9)
    metadata = {"width": n_trials, "requested_mean": nbar, "requested_variance": variance}
    w = _copied_binomial_weights(n_trials)
    n = offset + np.arange(n_trials + 1)
    if n[0] < 0:
        clipped = w[n < 0].sum()
        if clipped >= jcdrive.DEFAULT_TAIL_TOL:
            raise UnsupportedParameters(
                f"support would put mass {clipped:.3e} on negative photon numbers"
            )
        w = w[n >= 0]
        n = n[n >= 0]
        w = w / w.sum()
        metadata["clipped_mass"] = float(clipped)
    return _copied_drive("binomial", np.sqrt(w), int(n[0]), metadata, _copied_moments(w, n))


def _copied_fock_drive(n_photons):
    n_photons = integer(n_photons, "photon number")
    return _copied_drive("fock", np.array([1.0 + 0j]), n_photons, {}, (float(n_photons), 0.0))


def _copied_custom_drive(coefficients, n_min=0):
    b = np.asarray(coefficients, dtype=complex)
    if b.ndim != 1 or len(b) == 0:
        raise DimensionMismatch(f"coefficients must be a nonempty vector, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise UnsupportedParameters("coefficients must be finite, got a non-finite entry")
    norm = np.linalg.norm(b)
    if norm == 0:
        raise UnsupportedParameters("coefficients must not all vanish")
    return _copied_drive("custom", b / norm, n_min)


def _outcome(build, *args, **kwargs) -> tuple:
    """Everything a drive holds, byte for byte, or its error's class and message."""
    try:
        d = build(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return (d.kind, d.mean, d.variance, d.coefficients.dtype, d.coefficients.tobytes(),
            type(d.n_min), type(d.n_max), d.n_min, d.n_max, repr(d.metadata))


_COPIED = {poisson_drive: _copied_poisson_drive, binomial_drive: _copied_binomial_drive,
           fock_drive: _copied_fock_drive, custom_drive: _copied_custom_drive,
           DriveDistribution: _copied_drive}
_HALF = 0.5 ** 0.5
_REFERENCE_CASES = [
    *[(poisson_drive, (nbar,), {}) for nbar in
      (1e-3, 0.3, 1.0, 2.0, 7.0, 100.0, 900.0, 2e3, 5e4, 1e5)],
    (poisson_drive, (50.0,), {"tail_tol": 1e-6}),
    # widths up to 4e5, clipped tails, failed normalizations and shifts; each
    # (nbar, V) is followed by the paper's literal drive there, (nbar - V, V/2)
    *[(binomial_drive, args, {})
      for nbar in (2.0, 10.0, 19.0, 25.0, 1e3, 4e3, 1e4, 1e5)
      for fano in (0.1, 0.25, 0.5, 1.0)
      for args in ((nbar, fano * nbar), (nbar - fano * nbar, fano * nbar / 2))],
    (binomial_drive, (10.0, 0.0), {}), (binomial_drive, (10.0, 11.0), {}),
    (binomial_drive, (10.0, 2.6), {}), (binomial_drive, (20.0, 2.5), {}),
    *[(fock_drive, (n,), {}) for n in (0, 3, 10 ** 6, 2.5, -1, 4.0)],
    *[(custom_drive, (b,), {"n_min": n_min})
      for b in ([0.3, 0.0, 0.5j, 0.0, -0.4 + 0.2j], [3, 4], np.float32([0.6, 0.8]),
                np.linspace(-1.0, 2.0, 101), [1j])
      for n_min in (0, 7, 2.0000000001, 2.5)],
    (custom_drive, ([],), {}), (custom_drive, ([0.0, 0.0],), {}),
    (custom_drive, ([math.nan, 1.0],), {}), (custom_drive, ([[1.0, 0.0]],), {}),
    (custom_drive, ([1.0],), {"n_min": math.inf}),
    *[(DriveDistribution, ("custom", b, 2), {})
      for b in ([_HALF, _HALF], np.array([_HALF, -_HALF]), np.float32([_HALF, _HALF]),
                np.complex64([_HALF, 1j * _HALF]), [_HALF, 1j * _HALF], [1, 0])],
    (DriveDistribution, ("custom", [_HALF, _HALF], 2 ** 53), {}),  # ends past 2**53
    (DriveDistribution, ("custom", [2.0], 2), {}),
    (DriveDistribution, ("custom", [1.0], 2), {}),
    (DriveDistribution, ("custom", [1.0], -1), {}),
    (DriveDistribution, ("custom", [[1.0]], 2), {}),
    (DriveDistribution, ("custom", 1.0, 2), {}),
    (DriveDistribution, ("custom", [math.nan], 2), {}),
]


class TestDrivesCheckedAsGiven:
    @pytest.mark.parametrize("build,args,kwargs", _REFERENCE_CASES,
                             ids=[f"{c[0].__name__}-{i}" for i, c in enumerate(_REFERENCE_CASES)])
    def test_drives_and_errors_match_the_complex_copy_checks(self, time_limit, build, args,
                                                             kwargs):
        with time_limit(20):
            assert _outcome(build, *args, **kwargs) == _outcome(_COPIED[build], *args, **kwargs)

    def test_moments_round_as_written(self, rng):
        for size in (1, 2, 7, 1000, 100_001):
            w, n = rng.random(size), np.arange(3, 3 + size)
            assert jcdrive._moments(w, n) == _copied_moments(w, n)

    @pytest.mark.parametrize("variance,levels,per_level", [
        (1e5, 300_001, 36),  # keeps 300001 of 400001 levels; 64 B a level on a complex copy
        (5e4, 200_001, 28),  # 200001 levels wide, fails its normalization check; was 56
    ])
    def test_wide_binomial_drive_transients_stay_bounded(self, variance, levels, per_level):
        tracemalloc.start()
        try:
            try:
                result = binomial_drive(1e5, variance)
            except UnsupportedParameters as exc:
                result = exc
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= per_level * levels, peak / levels
        if variance == 1e5:
            assert len(result.coefficients) == levels
        else:
            assert "not normalized" in str(result)


# ---------------------------------------------------------------------------
# second-order approximant

class TestBuildChannelTaylor2:
    def test_zero_time_is_identity(self):
        chan = build_channel_taylor2(50.0, 50.0, "poisson", JCConfig(tau=0.0))
        np.testing.assert_allclose(chan.E00, [[1, 0], [0, 0]], atol=1e-12)
        np.testing.assert_allclose(chan.E01, [[0, 1], [0, 0]], atol=1e-12)

    def test_close_to_exact_sum_at_large_mean(self):
        cfg = JCConfig(tau=math.pi / 2)
        exact = build_channel_exact(poisson_drive(400.0), cfg)
        approx = build_channel_taylor2(400.0, 400.0, "poisson", cfg)
        for a, b in zip(approx.images(), exact.images()):
            assert np.abs(a - b).max() <= 1e-3

    def test_zero_variance_collapses_to_central_matrices(self):
        tau, nbar = 0.7, 100.0
        chan = build_channel_taylor2(nbar, 0.0, "poisson", JCConfig(tau=tau))
        f00, f01, _, f11 = f_matrices(100, tau, nbar, poisson_drive(nbar))
        np.testing.assert_allclose(chan.E00, f00, atol=1e-12)
        np.testing.assert_allclose(chan.E01, f01, atol=1e-12)
        np.testing.assert_allclose(chan.E11, f11, atol=1e-12)

    def test_zero_variance_binomial_has_no_neighbor_terms(self):
        tau, nbar = 0.7, 9.0
        chan = build_channel_taylor2(nbar, 0.0, "binomial", JCConfig(tau=tau))
        c = [math.cos(tau * math.sqrt(k / nbar)) for k in (9, 10)]
        s = [math.sin(tau * math.sqrt(k / nbar)) for k in (9, 10)]
        np.testing.assert_allclose(chan.E00, np.diag([c[0] ** 2, s[0] ** 2]), atol=1e-14)
        np.testing.assert_allclose(chan.E11, np.diag([s[1] ** 2, c[1] ** 2]), atol=1e-14)
        np.testing.assert_allclose(
            chan.E01, [[0.0, c[0] * c[1]], [0.0, 0.0]], atol=1e-14
        )

    @pytest.mark.parametrize("kind", ["poisson", "binomial"])
    def test_error_shrinks_as_mean_doubles(self, kind):
        cfg = JCConfig(tau=math.pi / 2)
        dists = []
        for nbar in (100.0, 200.0, 400.0, 800.0):
            var = nbar if kind == "poisson" else 0.1 * nbar
            drive = (poisson_drive(nbar) if kind == "poisson"
                     else binomial_drive(nbar, var))
            exact = build_channel_exact(drive, cfg)
            approx = build_channel_taylor2(nbar, var, kind, cfg)
            dists.append(
                max(np.linalg.norm(a - b)
                    for a, b in zip(approx.images(), exact.images()))
            )
        assert all(a > b for a, b in zip(dists, dists[1:]))

    @pytest.mark.parametrize("tau,bound", [(1.0, 0.1), (math.pi / 2, 0.13)])
    def test_second_neighbour_ratio_vanishes_past_the_support_top(self, tau, bound):
        # a one-trial drive (V < 0.5) puts nbar + 1 past its top level, where
        # b_{n+2}/b_n is 0 as b_{n+1}/b_n is; a ratio positive there misses
        # the exact E01 by 0.121 at tau = 1 and 0.161 at pi/2
        cfg = JCConfig(tau=tau)
        exact = build_channel_exact(binomial_drive(10.5, 0.25), cfg)
        approx = build_channel_taylor2(10.5, 0.25, "binomial", cfg)
        assert np.abs(approx.E01 - exact.E01).max() <= bound

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(InvalidMean):
            build_channel_taylor2(0.0, 1.0, "poisson", JCConfig(tau=1.0))

    def test_rejects_negative_variance(self):
        with pytest.raises(UnsupportedParameters):
            build_channel_taylor2(10.0, -1.0, "poisson", JCConfig(tau=1.0))

    def test_rejects_spread_wider_than_mean(self):
        with pytest.raises(ApproximationDomain):
            build_channel_taylor2(4.0, 25.0, "poisson", JCConfig(tau=1.0))

    # a kind is spelled exactly, and an array never reaches ==
    @pytest.mark.parametrize("kind", ["thermal", "Poisson", "POISSON", np.array(["poisson"])])
    def test_rejects_unknown_kind(self, kind):
        with pytest.raises(UnsupportedParameters, match="drive kind"):
            build_channel_taylor2(100.0, 100.0, kind, JCConfig(tau=1.0))


# ---------------------------------------------------------------------------
# concatenated gates

def _dense_gate(drive: DriveDistribution, tau: float, rho: np.ndarray) -> np.ndarray:
    """One gate with a fresh drive, by dense evolution of rho's eigenvectors."""
    weights, vectors = np.linalg.eigh(rho)
    out = np.zeros((2, 2), dtype=complex)
    for p, vec in zip(weights, vectors.T):
        amps, _ = oracles.dense_evolve(drive.coefficients, drive.n_min, vec, tau, drive.mean)
        out += p * oracles.partial_trace_qubit(amps.reshape(-1, 2))
    return out


class TestConcatenatedGates:
    @pytest.mark.parametrize("count", [2, 5])
    @pytest.mark.parametrize("make_drive", [lambda: poisson_drive(6.0),
                                            lambda: binomial_drive(16.0, 4.0)],
                             ids=["poisson", "binomial"])
    def test_matches_repeated_dense_evolution(self, rng, make_drive, count):
        drive, tau = make_drive(), 1.1
        rho = random_density_matrix(rng, 2)
        expected = rho.matrix
        for _ in range(count):
            expected = _dense_gate(drive, tau, expected)
        chan = concatenate(build_channel_exact(drive, JCConfig(tau=tau)), count)
        np.testing.assert_allclose(apply(chan, rho).matrix, expected, atol=1e-10)

    def test_long_concatenation_keeps_the_default_cp_tolerance(self):
        chan = build_channel_exact(poisson_drive(25.0), JCConfig(tau=math.pi / 2))
        assert concatenate(chan, 60).cp_slack <= 2 * CP_TOL

    def test_series_channel_carries_its_residual_forward(self):
        # the 4-fold residual exceeds the single channel's own slack, so
        # only a tolerance built from measured residuals accepts it
        chan = build_channel_taylor2(4.0, 2.0, "binomial", JCConfig(tau=0.3))
        concatenate(chan, 4)


# ---------------------------------------------------------------------------
# asymptotic law

class TestAsymptoticLowerBound:
    def test_poisson_closed_form(self):
        val = asymptotic_eigenerror_lower_bound("poisson", 1000.0, 1000.0, math.pi / 2)
        assert abs(val - (math.pi**2 / 4 + 1) / 6000.0) < 1e-15

    def test_zero_time(self):
        assert asymptotic_eigenerror_lower_bound("poisson", 10.0, 10.0, 0.0) == 0.0

    def test_binomial_at_unit_fano_matches_poisson(self):
        for tau in (0.3, 1.0, math.pi / 2):
            p = asymptotic_eigenerror_lower_bound("poisson", 50.0, 50.0, tau)
            b = asymptotic_eigenerror_lower_bound("binomial", 50.0, 50.0, tau)
            assert abs(p - b) < 1e-12 * max(p, 1.0)

    def test_binomial_diverges_at_zero_variance(self):
        assert asymptotic_eigenerror_lower_bound("binomial", 10.0, 0.0, 1.0) == math.inf

    def test_tracks_exact_channel_bound(self):
        cfg = JCConfig(tau=math.pi / 2)
        chan = build_channel_exact(poisson_drive(1000.0), cfg)
        lo, _ = channel_eigenerror_bounds(chan)
        law = asymptotic_eigenerror_lower_bound("poisson", 1000.0, 1000.0, cfg.tau)
        assert abs(lo / law - 1.0) < 0.05

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(InvalidMean):
            asymptotic_eigenerror_lower_bound("poisson", 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("kind", ["thermal", "Poisson", "POISSON", np.array(["poisson"])])
    def test_rejects_unknown_kind(self, kind):
        with pytest.raises(UnsupportedParameters, match="drive kind"):
            asymptotic_eigenerror_lower_bound(kind, 10.0, 10.0, 1.0)


# ---------------------------------------------------------------------------
# one per-level kernel against the entry blocks it replaced

def _hand_written_exact(drive, taus) -> np.ndarray:
    """E00, E01, E11 per tau from the window sums written entry by entry."""
    b = drive.coefficients
    m = len(b)
    w = np.abs(b) ** 2
    x1 = b[:-1] * np.conj(b[1:])
    y1 = np.conj(b[:-1]) * b[1:]
    y2 = np.conj(b[:-2]) * b[2:]
    k = np.arange(drive.n_min, drive.n_max + 3)
    theta = np.multiply.outer(np.asarray(taus, dtype=float), np.sqrt(k / drive.mean))
    c, s = np.cos(theta), np.sin(theta)
    images = np.zeros((len(taus), 3, 2, 2), dtype=complex)
    e00, e01, e11 = (images[:, j] for j in range(3))
    e00[:, 0, 0] = np.sum(w * c[:, :m] ** 2, axis=1)
    e00[:, 1, 1] = np.sum(w * s[:, :m] ** 2, axis=1)
    e00[:, 0, 1] = np.sum(x1 * c[:, :m - 1] * s[:, 1:m], axis=1)
    e00[:, 1, 0] = np.conj(e00[:, 0, 1])

    e11[:, 0, 0] = np.sum(w * s[:, 1:m + 1] ** 2, axis=1)
    e11[:, 1, 1] = np.sum(w * c[:, 1:m + 1] ** 2, axis=1)
    e11[:, 0, 1] = -np.sum(x1 * s[:, 1:m] * c[:, 2:m + 1], axis=1)
    e11[:, 1, 0] = np.conj(e11[:, 0, 1])

    exchange = np.sum(y1 * c[:, 1:m] * s[:, 1:m], axis=1)
    e01[:, 0, 0] = -exchange
    e01[:, 1, 1] = exchange
    e01[:, 0, 1] = np.sum(w * c[:, :m] * c[:, 1:m + 1], axis=1)
    e01[:, 1, 0] = -np.sum(y2 * s[:, 1:m - 1] * s[:, 2:m], axis=1)
    return images


def _hand_written_f_matrices(n: int, tau: float, nbar: float, drive) -> tuple:
    """F00, F01, F11 of one level written entry by entry with amplitude ratios."""
    theta = tau * np.sqrt(np.arange(n, n + 3) / nbar)
    c, s = np.cos(theta), np.sin(theta)

    def amp(k: int) -> complex:
        if drive.n_min <= k <= drive.n_max:
            return complex(drive.coefficients[k - drive.n_min])
        return 0.0

    b0 = amp(n)
    r1, r2 = (amp(n + 1) / b0, amp(n + 2) / b0) if b0 != 0 else (0.0, 0.0)
    f00 = np.array([[c[0] ** 2, np.conj(r1) * c[0] * s[1]],
                    [r1 * c[0] * s[1], s[0] ** 2]], dtype=complex)
    f00[1, 0] = np.conj(f00[0, 1])
    f11 = np.array([[s[1] ** 2, -np.conj(r1) * s[1] * c[2]],
                    [0.0, c[1] ** 2]], dtype=complex)
    f11[1, 0] = np.conj(f11[0, 1])
    f01 = np.array([[-r1 * c[1] * s[1], c[0] * c[1]],
                    [-r2 * s[1] * s[2], r1 * c[1] * s[1]]], dtype=complex)
    return f00, f01, f11


class _RefJet:
    """Value and first two derivatives, with the products and negation that
    the hand-written Taylor entries take."""

    def __init__(self, v: float, d1: float = 0.0, d2: float = 0.0):
        self.v, self.d1, self.d2 = v, d1, d2

    def __mul__(self, other):
        return _RefJet(self.v * other.v,
                       self.d1 * other.v + self.v * other.d1,
                       self.d2 * other.v + 2 * self.d1 * other.d1 + self.v * other.d2)

    def __neg__(self):
        return _RefJet(-self.v, -self.d1, -self.d2)


def _hand_written_taylor2(nbar: float, variance: float, kind: str, tau: float) -> tuple:
    """E00, E01, E11 of the second-order approximant written entry by entry."""
    if kind == "poisson":
        def r1(x: float) -> float:
            return math.sqrt(nbar / (x + 1))
    else:
        width, offset = 4.0 * variance, nbar - 2.0 * variance

        def r1(x: float) -> float:
            k = x - offset
            return 0.0 if k + 1 <= 0 else math.sqrt(max(width - k, 0.0) / (k + 1))

    def r2(x: float) -> float:
        return r1(x) * r1(x + 1)

    def ref(j) -> _RefJet:
        return _RefJet(j.v, j.d1, j.d2)

    (c0, s0), (c1, s1), (c2, s2) = ([ref(j) for j in jcdrive._trig_jets(k, tau, nbar)]
                                    for k in range(3))
    j1, j2 = ref(jcdrive._fd_jet(r1, nbar)), ref(jcdrive._fd_jet(r2, nbar))

    def val(j: _RefJet) -> float:
        return j.v + 0.5 * j.d2 * variance

    e00 = np.array([[val(c0 * c0), val(j1 * c0 * s1)],
                    [val(j1 * c0 * s1), val(s0 * s0)]], dtype=complex)
    e11 = np.array([[val(s1 * s1), val(-(j1 * s1 * c2))],
                    [val(-(j1 * s1 * c2)), val(c1 * c1)]], dtype=complex)
    e01 = np.array([[val(-(j1 * c1 * s1)), val(c0 * c1)],
                    [val(-(j2 * s1 * s2)), val(j1 * c1 * s1)]], dtype=complex)
    return e00, e01, e11


_KERNEL_DRIVES = {
    **_BATCH_DRIVES,
    "poisson-small": lambda: poisson_drive(0.1),
    "poisson-2e3": lambda: poisson_drive(2e3),
    "binomial-paper-literal": lambda: binomial_drive(20.0, 2.5),  # the paper's at (25, 5)
    "binomial-wide": lambda: binomial_drive(1000.0, 200.0),
    "fock-one": lambda: fock_drive(1),
    "custom-gaps-at-vacuum": lambda: custom_drive([0.0, 0.7, 0.0, 0.2, 0.1j]),
}
_KERNEL_TAUS = np.concatenate([[0.0], np.linspace(0.05, 2 * math.pi, 39)])

# drives without zero interior coefficients, where the level sums of the ratio
# form equal the amplitude products
_RATIO_DRIVES = {
    "poisson": lambda: poisson_drive(9.0),
    "binomial": lambda: binomial_drive(25.0, 5.0),
    "binomial-paper-literal": lambda: binomial_drive(20.0, 2.5),
    "binomial-clipped": lambda: binomial_drive(2.0, 1.0),
    "custom": lambda: custom_drive([0.3, -0.5j, 0.4 + 0.2j, 0.6, 0.1 - 0.1j], n_min=2),
    "custom-at-vacuum": lambda: custom_drive([0.5, 0.5j, -0.5, 0.5]),
}


class TestOneKernel:
    @pytest.mark.parametrize("name", list(_KERNEL_DRIVES))
    def test_exact_channels_equal_the_entry_by_entry_sums(self, name):
        drive = _KERNEL_DRIVES[name]()
        want = _hand_written_exact(drive, _KERNEL_TAUS)
        for chan, (e00, e01, e11) in zip(build_channels_exact(drive, _KERNEL_TAUS), want):
            assert np.array_equal(chan.E00, e00)
            assert np.array_equal(chan.E01, e01)
            assert np.array_equal(chan.E11, e11)

    @pytest.mark.parametrize("kind", ["poisson", "binomial"])
    def test_taylor2_equals_the_entry_by_entry_jets(self, kind):
        for nbar in (30.0, 200.0, 1000.0):
            for variance in (0.25 * nbar, 0.5 * nbar, nbar):
                for tau in (0.0, 0.3, 1.0, 2.5):
                    chan = build_channel_taylor2(nbar, variance, kind, JCConfig(tau=tau))
                    e00, e01, e11 = _hand_written_taylor2(nbar, variance, kind, tau)
                    assert np.array_equal(chan.E00, e00), (nbar, variance, tau)
                    assert np.array_equal(chan.E01, e01), (nbar, variance, tau)
                    assert np.array_equal(chan.E11, e11), (nbar, variance, tau)

    @pytest.mark.parametrize("name", list(_KERNEL_DRIVES))
    def test_f_matrices_equal_the_ratio_entries_to_one_ulp(self, name):
        # x ** 2 on a numpy scalar calls libm pow, which may round the last
        # bit differently from the kernel's x * x
        drive = _KERNEL_DRIVES[name]()
        nbar = drive.mean if drive.mean > 0 else 1.0
        lo = max(0, drive.n_min - 2)
        for n in range(lo, min(drive.n_max + 2, lo + 10) + 1):
            for tau in (0.0, 0.3, math.pi / 2, 2.9):
                f00, f01, f10, f11 = f_matrices(n, tau, nbar, drive)
                for got, want in zip((f00, f01, f11),
                                     _hand_written_f_matrices(n, tau, nbar, drive)):
                    np.testing.assert_array_max_ulp(got.real, want.real, maxulp=1)
                    np.testing.assert_array_max_ulp(got.imag, want.imag, maxulp=1)
                np.testing.assert_array_equal(f10, f01.conj().T)

    @pytest.mark.parametrize("name", list(_RATIO_DRIVES))
    def test_level_sums_of_f_matrices_give_the_exact_channel(self, name):
        drive = _RATIO_DRIVES[name]()
        for tau in (0.4, 1.1, math.pi / 2, 3.0):
            chan = build_channel_exact(drive, JCConfig(tau=tau))
            sums = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
            for n, w in zip(drive.support, drive.weights):
                for k, m in enumerate(f_matrices(int(n), tau, drive.mean, drive)):
                    sums[k] += w * m
            for got, want in zip(sums, chan.images()):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestOneKernelCall:
    """_images gives all four images, so each caller's E10 is the kernel's."""

    @pytest.mark.parametrize("name", list(_KERNEL_DRIVES))
    def test_exact_e10_is_the_adjoint_of_e01(self, name):
        for chan in build_channels_exact(_KERNEL_DRIVES[name](), _KERNEL_TAUS):
            assert np.array_equal(chan.E10, chan.E01.conj().T)

    @pytest.mark.parametrize("name", [*_RATIO_DRIVES, "custom-gaps", "custom-single", "fock",
                                      "custom-gaps-at-vacuum"])
    def test_f_matrices_e10_is_the_adjoint_of_e01_at_every_level(self, name):
        drive = {**_KERNEL_DRIVES, **_RATIO_DRIVES}[name]()
        nbar = drive.mean if drive.mean > 0 else 1.0
        # every level of the window, and one past each edge
        for n in range(max(0, drive.n_min - 1), drive.n_max + 2):
            for tau in (0.0, 0.3, math.pi / 2, 2.9):
                _, f01, f10, _ = f_matrices(n, tau, nbar, drive)
                assert np.array_equal(f10, f01.conj().T)

    @pytest.mark.parametrize("kind", ["poisson", "binomial"])
    def test_taylor2_e10_is_the_adjoint_of_e01(self, kind):
        for nbar in (30.0, 200.0):
            for tau in (0.0, 0.3, 1.0, 2.5):
                chan = build_channel_taylor2(nbar, 0.5 * nbar, kind, JCConfig(tau=tau))
                assert np.array_equal(chan.E10, chan.E01.conj().T)

    def test_an_exact_build_holds_at_most_80_bytes_per_window_level(self):
        # |b_n|^2, two amplitude products, a cos and a sin row and one product
        # temporary: 72 B per level
        drive = binomial_drive(1e5, 1e5)
        levels = len(drive.coefficients)
        cfg = JCConfig(tau=1.0)
        build_channel_exact(drive, cfg)  # warm: process-wide tables are filled
        tracemalloc.start()
        try:
            build_channel_exact(drive, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert levels == 300_001
        assert peak <= 80 * levels, peak / levels


class TestFMatricesDomain:
    @pytest.mark.parametrize("tau", [math.nan, -1.0, math.inf, -math.inf])
    def test_rejects_a_time_outside_its_domain(self, tau):
        with pytest.raises(UnsupportedParameters):
            f_matrices(3, tau, 5.0, poisson_drive(5.0))

    @pytest.mark.parametrize("nbar", [math.nan, math.inf, 0.0, -2.0])
    def test_positive_time_needs_a_positive_finite_mean(self, nbar):
        with pytest.raises(InvalidMean):
            f_matrices(3, 1.0, nbar, poisson_drive(5.0))

    @pytest.mark.parametrize("nbar", [math.nan, math.inf, -1.0])
    def test_interaction_time_rejects_a_mean_outside_its_domain(self, nbar):
        with pytest.raises(InvalidMean):
            JCConfig(tau=1.0).interaction_time(nbar)

    def test_zero_time_at_zero_mean_is_the_frozen_interaction(self):
        f00, f01, _, f11 = f_matrices(0, 0.0, 0.0, fock_drive(0))
        np.testing.assert_array_equal(f00, [[1, 0], [0, 0]])
        np.testing.assert_array_equal(f11, [[0, 0], [0, 1]])
        np.testing.assert_array_equal(f01, [[0, 1], [0, 0]])

    def test_a_ratio_past_the_float_range_is_a_typed_error_without_a_warning(self):
        # b_1 / b_0 overflows: the entries are inf and NaN, which numpy would warn about
        drive = custom_drive([1e-310, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnsupportedParameters, match="level 0"):
                f_matrices(0, 1.0, 1.0, drive)

    def test_returns_the_images_order_as_read_only_complex_arrays(self):
        drive = poisson_drive(5.0)
        f = f_matrices(4, 1.0, 5.0, drive)
        assert type(f) is tuple and len(f) == 4
        for m in f:
            assert (m.dtype, m.shape, m.flags.writeable) == (complex, (2, 2), False)
        np.testing.assert_array_equal(f[2], f[1].conj().T)
        with pytest.raises(ValueError):
            f[0][0, 0] = 2.0


class TestClosedFormDomain:
    @pytest.mark.parametrize("nbar", [math.nan, math.inf])
    @pytest.mark.parametrize("kind", ["poisson", "binomial"])
    def test_asymptotic_law_rejects_a_mean_that_is_not_finite(self, kind, nbar):
        with pytest.raises(InvalidMean):
            asymptotic_eigenerror_lower_bound(kind, nbar, 2.0, 1.0)

    def test_asymptotic_law_rejects_a_nan_variance(self):
        with pytest.raises(UnsupportedParameters):
            asymptotic_eigenerror_lower_bound("binomial", 10.0, math.nan, 1.0)

    @pytest.mark.parametrize("kind, variance, tau", [
        ("poisson", 10.0, math.nan), ("poisson", 10.0, math.inf), ("poisson", 10.0, -math.inf),
        ("binomial", 2.0, math.nan), ("binomial", 2.0, math.inf),
        ("binomial", math.inf, 0.0), ("binomial", math.inf, 1.0),
    ])
    def test_asymptotic_law_rejects_a_time_or_variance_that_is_not_finite(self, kind, variance,
                                                                          tau):
        with pytest.raises(UnsupportedParameters):
            asymptotic_eigenerror_lower_bound(kind, 10.0, variance, tau)

    @pytest.mark.parametrize("kind", [None, 3, b"poisson", ["poisson"]])
    def test_a_drive_kind_that_is_not_a_string_is_a_typed_error(self, kind):
        with pytest.raises(UnsupportedParameters):
            asymptotic_eigenerror_lower_bound(kind, 10.0, 10.0, 1.0)
        with pytest.raises(UnsupportedParameters):
            build_channel_taylor2(10.0, 10.0, kind, JCConfig(tau=1.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nbar", [1e-150, 1e-154, 1e-160, 1e-200, 1e-300, 5e-324])
    @pytest.mark.parametrize("tau", [0.0, 1.0, 3.0])
    def test_binomial_law_at_a_tiny_mean_is_its_value_or_inf(self, nbar, tau):
        # 6 nbar^2 is subnormal or 0 below nbar ~ 1e-154; the value is not
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            variance = mpmath.mpf(1e-200)
            want = (mpmath.mpf(tau) ** 2 * variance / (6 * mpmath.mpf(nbar) ** 2)
                    + mpmath.sin(tau) ** 2 / (6 * variance))
        got = asymptotic_eigenerror_lower_bound("binomial", nbar, 1e-200, tau)
        assert got == pytest.approx(float(want), rel=1e-15)

    @pytest.mark.parametrize("nbar, variance, tau", [
        (10.0, 1.0, 0.3), (25.0, 5.0, math.pi / 2), (1e3, 100.0, 2.5), (1e5, 1e4, 1.0),
        (1.1e-150, 1e-160, 1.0),
    ])
    def test_binomial_law_keeps_its_expression_where_nbar_squared_is_normal(self, nbar,
                                                                            variance, tau):
        want = tau ** 2 * variance / (6 * nbar ** 2) + math.sin(tau) ** 2 / (6 * variance)
        assert asymptotic_eigenerror_lower_bound("binomial", nbar, variance, tau) == want

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind, nbar", [
        ("poisson", 1e-100), ("poisson", 1e-160), ("poisson", 1e-300), ("poisson", 5e-324),
        ("binomial", 1e-160), ("binomial", 1e-300),
    ])
    def test_taylor2_at_a_tiny_mean_is_outside_its_domain(self, kind, nbar):
        # Poisson ratios at nbar - 1 divide by nbar - 1 + 1, which rounds to 0
        # below nbar ~ 1e-16; the angle jets divide by sqrt(nbar * nbar), 0
        # below nbar ~ 1e-162
        with pytest.raises(ApproximationDomain, match="derivative jets are not finite"):
            build_channel_taylor2(nbar, 0.0, kind, JCConfig(tau=1.0))

    @pytest.mark.parametrize("nbar", [math.nan, math.inf])
    @pytest.mark.parametrize("kind", ["poisson", "binomial"])
    def test_taylor2_rejects_a_mean_that_is_not_finite(self, kind, nbar):
        with pytest.raises(InvalidMean):
            build_channel_taylor2(nbar, 2.0, kind, JCConfig(tau=0.3))

    @pytest.mark.parametrize("kind", ["poisson", "binomial"])
    def test_taylor2_rejects_a_nan_variance(self, kind):
        with pytest.raises(UnsupportedParameters):
            build_channel_taylor2(10.0, math.nan, kind, JCConfig(tau=0.3))

    @pytest.mark.parametrize("n", [2.5, math.nan, math.inf, -1, -0.5])
    def test_f_matrices_rejects_a_level_that_is_not_a_nonnegative_integer(self, n):
        with pytest.raises(UnsupportedParameters):
            f_matrices(n, 1.0, 5.0, poisson_drive(5.0))

    def test_f_matrices_takes_an_integral_float_level(self):
        drive = poisson_drive(5.0)
        for a, b in zip(f_matrices(3.0, 1.0, 5.0, drive), f_matrices(3, 1.0, 5.0, drive)):
            np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# scalar arguments: a non-number or a bool is a typed error, not a TypeError

_NOT_NUMBERS = {
    "poisson-mean-str": (lambda: poisson_drive("5"), InvalidMean),
    "poisson-mean-none": (lambda: poisson_drive(None), InvalidMean),
    "poisson-mean-bool": (lambda: poisson_drive(True), InvalidMean),
    "poisson-tail-tol-str": (lambda: poisson_drive(5.0, tail_tol="x"), UnsupportedParameters),
    "binomial-mean-str": (lambda: binomial_drive("5", 1), InvalidMean),
    "binomial-mean-bool": (lambda: binomial_drive(True, 0.25), InvalidMean),
    "binomial-variance-str": (lambda: binomial_drive(5, "1"), UnsupportedParameters),
    "jcconfig-tau-str": (lambda: JCConfig(tau="1"), UnsupportedParameters),
    "jcconfig-tau-bool": (lambda: JCConfig(tau=True), UnsupportedParameters),
    "interaction-time-mean-str": (lambda: JCConfig(tau=1.0).interaction_time("5"), InvalidMean),
    "fock-bool": (lambda: fock_drive(True), UnsupportedParameters),
    "fock-str": (lambda: fock_drive("3"), UnsupportedParameters),
    "f-matrices-level-bool": (lambda: f_matrices(True, 1.0, 5.0, poisson_drive(5.0)),
                              UnsupportedParameters),
    "taylor2-mean-str": (lambda: build_channel_taylor2("5", 1.0, "poisson", JCConfig(tau=0.3)),
                         InvalidMean),
    "taylor2-variance-str": (
        lambda: build_channel_taylor2(5.0, "1", "poisson", JCConfig(tau=0.3)),
        UnsupportedParameters),
    "asymptotic-mean-str": (lambda: asymptotic_eigenerror_lower_bound("poisson", "5", 1.0, 1.0),
                            InvalidMean),
    "asymptotic-tau-str": (lambda: asymptotic_eigenerror_lower_bound("poisson", 5.0, 1.0, "1"),
                           UnsupportedParameters),
    "asymptotic-variance-str": (
        lambda: asymptotic_eigenerror_lower_bound("binomial", 5.0, "1", 1.0),
        UnsupportedParameters),
}


class TestScalarArguments:
    @pytest.mark.parametrize("name", list(_NOT_NUMBERS))
    def test_a_non_number_raises_a_typed_error(self, name):
        call, error = _NOT_NUMBERS[name]
        with pytest.raises(error, match="must be"):
            call()

    @pytest.mark.parametrize("n_min", [2.0000000001, 1.9999999999, 2.5])
    def test_a_window_start_must_be_an_exact_integer(self, n_min):
        with pytest.raises(UnsupportedParameters, match="must be an integer"):
            custom_drive([1.0], n_min=n_min)

    def test_an_integral_float_window_start_is_kept_as_int(self):
        drive = custom_drive([1.0, 1.0], n_min=2.0)
        assert (type(drive.n_min), drive.n_min, drive.n_max) == (int, 2, 3)

    def test_binomial_products_keep_their_rounding_slack(self):
        # 4 * (0.7 * 45) = 125.99999999999999 and 63 - 2 * (0.7 * 45) = 7e-15
        drive = binomial_drive(63.0, 0.7 * 45)
        assert (drive.metadata["width"], drive.n_min, drive.n_max) == (126, 0, 126)
