"""Speed-limit times and the photon budget of the leading-order eigenerror law."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

import oracles
from eigenfid import (
    DensityMatrix,
    HamiltonianMoments,
    JCConfig,
    PureState,
    RotationTarget,
    asymptotic_eigenerror_lower_bound,
    binomial_drive,
    bipartite_angle_check,
    custom_drive,
    fock_drive,
    jc_moments,
    ml_time,
    mt_time,
    phase_aligned_qubit,
    poisson_drive,
    qsl_eigenerror_bound,
    required_mean_photons,
    schatten_norm,
    small_angle_eigenerror_bound,
)
from eigenfid.errors import (
    EigenfidError,
    InvalidMean,
    NonpositiveMeanEnergy,
    UnsupportedParameters,
)
from eigenfid.qsl import asymptotic_scale, ground_energy

KET0_Q = PureState(np.array([1.0, 0.0]))
KET1_Q = PureState(np.array([0.0, 1.0]))


def _random_qubit(rng) -> PureState:
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return PureState(z / np.linalg.norm(z))


# ---------------------------------------------------------------------------
# targets and moments containers

class TestContainers:
    def test_moments_reject_negative_spread(self):
        with pytest.raises(UnsupportedParameters):
            HamiltonianMoments(mean=1.0, stdev=-0.1)

    @pytest.mark.parametrize("theta", [-0.1, math.pi / 2 + 0.1])
    def test_target_range(self, theta):
        with pytest.raises(UnsupportedParameters):
            RotationTarget(theta)

    def test_target_endpoints_allowed(self):
        assert RotationTarget(0.0).theta == 0.0
        assert RotationTarget(math.pi / 2).theta == math.pi / 2


class TestSpeedLimitTimes:
    def test_mt_zero_angle(self):
        assert mt_time(RotationTarget(0.0), HamiltonianMoments(0.0, 0.0)) == 0.0

    def test_mt_closed_form(self):
        t = mt_time(RotationTarget(math.pi / 2), HamiltonianMoments(0.0, 10.0))
        assert abs(t - math.pi / 20) < 1e-14

    def test_mt_frozen_dynamics(self):
        assert mt_time(RotationTarget(1.0), HamiltonianMoments(5.0, 0.0)) == math.inf

    def test_ml_zero_angle(self):
        assert ml_time(RotationTarget(0.0), HamiltonianMoments(1.0, 1.0)) == 0.0

    def test_ml_closed_form(self):
        t = ml_time(RotationTarget(math.pi / 2), HamiltonianMoments(10.0, 3.0))
        assert abs(t - math.pi / 20) < 1e-14

    def test_ml_rejects_nonpositive_mean(self):
        with pytest.raises(NonpositiveMeanEnergy):
            ml_time(RotationTarget(1.0), HamiltonianMoments(0.0, 1.0))


# ---------------------------------------------------------------------------
# exchange-generator moments

class TestJcMoments:
    def test_fock_with_ground_qubit(self):
        m = jc_moments(fock_drive(9), KET0_Q)
        assert m.mean == 0.0
        assert abs(m.stdev - 3.0) < 1e-12

    def test_fock_with_excited_qubit(self):
        m = jc_moments(fock_drive(9), KET1_Q)
        assert m.mean == 0.0
        assert abs(m.stdev - math.sqrt(10.0)) < 1e-12

    def test_vacuum_dark_state(self):
        m = jc_moments(fock_drive(0), KET0_Q)
        assert m.mean == 0.0 and m.stdev == 0.0

    def test_matches_dense_hamiltonian_oracle(self, rng):
        drives = [poisson_drive(8.0), fock_drive(4),
                  custom_drive(rng.standard_normal(6) + 1j * rng.standard_normal(6), 1)]
        for drive in drives:
            for _ in range(4):
                qubit = _random_qubit(rng)
                m = jc_moments(drive, qubit)
                mean, var = oracles.dense_moments(
                    drive.coefficients, drive.n_min, qubit.amplitudes, 1.0, 1.0
                )
                assert abs(m.mean - mean) < 1e-12
                assert abs(m.stdev - math.sqrt(max(var, 0.0))) < 1e-10

    def test_moment_circle_identity(self, rng):
        # <H>^2 + dH^2 depends only on the realized mean and excited weight
        drive = poisson_drive(40.0)
        for _ in range(10):
            qubit = _random_qubit(rng)
            m = jc_moments(drive, qubit)
            radius = drive.mean + abs(qubit.amplitudes[1]) ** 2
            assert abs(m.mean**2 + m.stdev**2 - radius) < 1e-10

    def test_rejects_non_qubit(self):
        with pytest.raises(UnsupportedParameters):
            jc_moments(poisson_drive(4.0), PureState(np.array([1.0, 0, 0])))


class TestAsymptoticScales:
    def test_scale_value(self):
        drive = poisson_drive(100.0)
        assert asymptotic_scale(drive) == math.sqrt(drive.mean)

    def test_phase_aligned_state_maximizes_mean_energy(self, rng):
        drive = custom_drive(rng.standard_normal(8) + 1j * rng.standard_normal(8), 2)
        aligned = phase_aligned_qubit(drive)
        best = jc_moments(drive, aligned).mean
        assert best >= -1e-12
        for _ in range(30):
            other = jc_moments(drive, _random_qubit(rng)).mean
            assert abs(other) <= best + 1e-10

    def test_mean_energy_asymptote_for_aligned_coherent_drive(self):
        drive = poisson_drive(100.0)
        m = jc_moments(drive, phase_aligned_qubit(drive))
        assert abs(m.mean / asymptotic_scale(drive) - 1.0) < 1e-6

    def test_spread_asymptote_for_ground_state_qubit(self):
        drive = poisson_drive(100.0)
        m = jc_moments(drive, KET0_Q)
        assert abs(m.stdev / asymptotic_scale(drive) - 1.0) < 1e-8

    def test_spread_asymptote_for_equal_weight_qubit(self):
        drive = poisson_drive(100.0)
        qubit = PureState(np.array([1.0, 1.0]) / math.sqrt(2.0))
        m = jc_moments(drive, qubit)
        assert abs(m.stdev / asymptotic_scale(drive) - 1.0) < 0.1

    def test_ground_energy_of_truncated_window(self):
        assert ground_energy(fock_drive(9)) == -math.sqrt(10.0)

    def test_ground_shift_enables_mean_energy_limit(self, rng):
        drive = poisson_drive(25.0)
        qubit = _random_qubit(rng)
        raw = jc_moments(drive, qubit)
        shifted = jc_moments(drive, qubit, measure_from_ground=True)
        assert abs(shifted.mean - (raw.mean - ground_energy(drive))) < 1e-12
        assert shifted.mean > 0
        assert shifted.stdev == raw.stdev
        t = ml_time(RotationTarget(math.pi / 2), shifted)
        assert 0 < t < math.inf


# ---------------------------------------------------------------------------
# joint rotation angle

class TestBipartiteAngle:
    def test_perfect_overlap(self):
        assert abs(bipartite_angle_check(0.7, 1.0) - 0.7) < 1e-14

    def test_orthogonal_drive_states(self):
        assert abs(bipartite_angle_check(0.3, 0.0) - math.pi / 2) < 1e-14

    def test_worked_value(self):
        got = bipartite_angle_check(math.pi / 4, 0.5)
        assert abs(got - math.acos(0.5 * math.sqrt(2) / 2)) < 1e-14
        assert abs(got - 1.2094) < 1e-4

    def test_joint_angle_never_below_logical(self, rng):
        for _ in range(50):
            theta = float(rng.uniform(0, math.pi / 2))
            overlap = float(rng.uniform(0, 1))
            assert bipartite_angle_check(theta, overlap) >= theta - 1e-12

    @pytest.mark.parametrize("theta,overlap", [(-0.1, 0.5), (2.0, 0.5), (0.5, -0.1), (0.5, 1.1)])
    def test_range_errors(self, theta, overlap):
        with pytest.raises(UnsupportedParameters):
            bipartite_angle_check(theta, overlap)


# ---------------------------------------------------------------------------
# leading-order asymptotic eigenerror law

class TestEigenerrorFloor:
    def test_zero_angle(self):
        assert qsl_eigenerror_bound(0.0, 10.0) == 0.0

    def test_quarter_rotation_value(self):
        val = qsl_eigenerror_bound(math.pi / 2, 1000.0)
        assert abs(val - (math.pi**2 / 4 + 1) / 6000.0) < 1e-18

    def test_same_expression_as_drive_law(self):
        for theta in (0.1, 0.7, math.pi / 2):
            for nbar in (10.0, 128.0, 1000.0):
                assert qsl_eigenerror_bound(theta, nbar) == \
                    asymptotic_eigenerror_lower_bound("poisson", nbar, nbar, theta)

    def test_monotone_in_photon_number_and_angle(self):
        nbars = [10.0, 20.0, 40.0, 80.0]
        vals = [qsl_eigenerror_bound(1.0, n) for n in nbars]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        thetas = np.linspace(0.01, math.pi / 2, 30)
        vals = [qsl_eigenerror_bound(float(t), 50.0) for t in thetas]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_small_angle_form(self):
        full = qsl_eigenerror_bound(0.01, 100.0)
        lead = small_angle_eigenerror_bound(0.01, 100.0)
        assert abs(lead / full - 1.0) < 1e-4

    @pytest.mark.parametrize("fn", [qsl_eigenerror_bound, small_angle_eigenerror_bound])
    def test_rejects_nonpositive_mean(self, fn):
        with pytest.raises(InvalidMean):
            fn(1.0, 0.0)


class TestRequiredPhotons:
    def test_inverts_the_floor(self):
        for eps in (1e-4, 1e-3, 1e-2):
            nbar = required_mean_photons(math.pi / 2, eps)
            assert abs(qsl_eigenerror_bound(math.pi / 2, nbar) - eps) < 1e-15

    def test_budget_scales_inversely_with_error(self):
        eps = np.logspace(-4, -2, 9)
        nbar = [required_mean_photons(math.pi / 2, e) for e in eps]
        slope = np.polyfit(np.log(eps), np.log(nbar), 1)[0]
        assert abs(slope + 1.0) < 0.01

    def test_rejects_nonpositive_error(self):
        with pytest.raises(UnsupportedParameters):
            required_mean_photons(1.0, 0.0)


class TestClosedFormDomain:
    @pytest.mark.parametrize("nbar", [math.nan, math.inf])
    @pytest.mark.parametrize("law", [qsl_eigenerror_bound, small_angle_eigenerror_bound])
    def test_rejects_a_mean_that_is_not_finite(self, law, nbar):
        with pytest.raises(InvalidMean):
            law(0.5, nbar)

    @pytest.mark.parametrize("law", [qsl_eigenerror_bound, small_angle_eigenerror_bound])
    def test_names_a_bad_angle_as_a_rotation_angle(self, law):
        text = "rotation angle must be in [-2**53, 2**53], got 1e+308"
        with pytest.raises(UnsupportedParameters, match=f"^{re.escape(text)}$"):
            law(1e308, 10.0)


class TestTypedDomainErrors:
    """Every entry point fails on NaN, infinity where the domain is finite,
    bools and non-numbers with a package error, never a NaN result or a bare
    TypeError or ValueError."""

    _CASES = [
        (HamiltonianMoments, (math.nan, math.nan), UnsupportedParameters),
        (HamiltonianMoments, (math.nan, 1.0), UnsupportedParameters),
        (HamiltonianMoments, (math.inf, 1.0), UnsupportedParameters),
        (HamiltonianMoments, (1.0, math.inf), UnsupportedParameters),
        (HamiltonianMoments, (1.0, math.nan), UnsupportedParameters),
        (HamiltonianMoments, (1.0, "x"), UnsupportedParameters),
        (HamiltonianMoments, ("x", 1.0), UnsupportedParameters),
        (HamiltonianMoments, (1.0, True), UnsupportedParameters),
        (RotationTarget, ("x",), UnsupportedParameters),
        (RotationTarget, (math.nan,), UnsupportedParameters),
        (RotationTarget, (None,), UnsupportedParameters),
        (RotationTarget, (True,), UnsupportedParameters),
        (small_angle_eigenerror_bound, (math.nan, 10.0), UnsupportedParameters),
        (small_angle_eigenerror_bound, (math.inf, 10.0), UnsupportedParameters),
        (small_angle_eigenerror_bound, ("x", 10.0), UnsupportedParameters),
        (small_angle_eigenerror_bound, (0.5, "x"), InvalidMean),
        (small_angle_eigenerror_bound, (0.5, True), InvalidMean),
        (required_mean_photons, (math.nan, 1e-3), UnsupportedParameters),
        (required_mean_photons, (math.inf, 1e-3), UnsupportedParameters),
        (required_mean_photons, (1.0, math.nan), UnsupportedParameters),
        (required_mean_photons, (1.0, math.inf), UnsupportedParameters),
        (required_mean_photons, (1.0, "x"), UnsupportedParameters),
        (required_mean_photons, (None, 1e-3), UnsupportedParameters),
    ]

    @pytest.mark.parametrize("fn, args, error", _CASES,
                             ids=[f"{fn.__name__}{args!r}" for fn, args, _ in _CASES])
    def test_rejects(self, fn, args, error):
        with pytest.raises(error):
            fn(*args)

    def test_finite_values_still_pass(self):
        assert HamiltonianMoments(-2.0, 0.0).mean == -2.0
        assert RotationTarget(np.float64(0.5)).theta == 0.5
        assert small_angle_eigenerror_bound(-0.1, 10) == pytest.approx(0.01 / 30)
        assert required_mean_photons(np.float64(0.0), 1e-3) == 0.0


# each call takes one argument that is an integer too large for a float, or
# math.inf in its place; the huge integer must meet the same fate as inf
_HUGE = 10 ** 400
_HUGE_CASES = {
    "poisson_drive": lambda x: poisson_drive(x),
    "binomial_drive": lambda x: binomial_drive(x, 1.0),
    "asymptotic_eigenerror_lower_bound": lambda x: asymptotic_eigenerror_lower_bound(
        "poisson", x, x, 1.0),
    "schatten_norm": lambda x: schatten_norm(DensityMatrix(np.diag([0.75, 0.25])), x),
    "small_angle_eigenerror_bound": lambda x: small_angle_eigenerror_bound(0.5, x),
    "required_mean_photons": lambda x: required_mean_photons(x, 1e-3),
    "HamiltonianMoments": lambda x: HamiltonianMoments(x, 1.0),
    "JCConfig": lambda x: JCConfig(tau=x),
}


def _fate(call, x):
    try:
        return call(x)
    except EigenfidError as exc:
        return type(exc)


@pytest.mark.parametrize("name", list(_HUGE_CASES))
def test_an_integer_past_the_float_range_is_treated_as_inf(name):
    call = _HUGE_CASES[name]
    fate = _fate(call, math.inf)
    assert _fate(call, _HUGE) == fate
    # every call but the Schatten norm, whose order may be inf, rejects both
    assert (fate == 0.75) if name == "schatten_norm" else issubclass(fate, EigenfidError)
