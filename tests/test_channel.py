"""Qubit channels: action, composition, average fidelities, Choi form."""

from __future__ import annotations

import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

import eigenfid
import oracles
from conftest import random_channel
from eigenfid import (
    ChoiMatrix,
    DensityMatrix,
    EnergyBasis,
    JCConfig,
    PureState,
    QubitChannel,
    SeededSampler,
    TargetGate,
    a_matrix,
    apply,
    average_gate_fidelity,
    average_purity,
    binomial_drive,
    build_channel_exact,
    channel_eigenerror_bounds,
    channel_eigenfidelity_bounds,
    choi_matrix,
    compose,
    concatenate,
    cp_residual,
    eigenfidelity,
    mc_average,
    mc_average_purity,
    mc_channel_eigenfidelity,
    mc_gate_fidelity,
    poisson_drive,
    purity,
    random_density_matrix,
    tp_residual,
)
from eigenfid.channel import (
    CP_TOL,
    _check_transfers,
    _mc_estimate,
    _pauli_form,
    _powers,
    _purities,
)
from eigenfid.errors import CPViolation, DimensionMismatch, EigenfidError, NonHermitianInput
from eigenfid.haar import _BLOCK, MAX_SAMPLES

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def _haar_qubit(rng) -> PureState:
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return PureState(z / np.linalg.norm(z))


# ---------------------------------------------------------------------------
# construction

class TestConstruction:
    def test_identity_images(self):
        chan = QubitChannel.identity()
        np.testing.assert_array_equal(chan.E00, KET0)
        np.testing.assert_array_equal(chan.E11, KET1)

    def test_from_images_fills_adjoint(self, rng):
        chan = random_channel(rng)
        rebuilt = QubitChannel.from_images(chan.E00, chan.E01, chan.E11)
        np.testing.assert_allclose(rebuilt.E10, chan.E01.conj().T, atol=1e-15)

    def test_rejects_trace_increasing_images(self):
        with pytest.raises(NonHermitianInput):
            QubitChannel(KET0 * 1.5, np.zeros((2, 2)), np.zeros((2, 2)), KET1)

    def test_rejects_mismatched_off_diagonal_images(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NonHermitianInput):
            QubitChannel(KET0, bad, bad, KET1)

    def test_transpose_map_is_not_completely_positive(self):
        e01 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(CPViolation):
            QubitChannel(KET0, e01, e01.conj().T, KET1)

    def test_from_unitary_requires_unitary(self):
        with pytest.raises(NonHermitianInput):
            QubitChannel.from_unitary(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_gate_requires_unitary(self):
        with pytest.raises(NonHermitianInput):
            TargetGate(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_choi_requires_hermitian(self):
        with pytest.raises(NonHermitianInput):
            ChoiMatrix(np.eye(4) + 1j * np.eye(4))

    def test_choi_requires_trace_preservation(self):
        with pytest.raises(NonHermitianInput):
            ChoiMatrix(np.diag([2.0, 0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("entry", [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 1, 0), (3, 1, 1)])
    def test_rejects_non_finite_images(self, bad, entry):
        images = [KET0.copy(), np.zeros((2, 2), dtype=complex),
                  np.zeros((2, 2), dtype=complex), KET1.copy()]
        k, i, j = entry
        images[k][i, j] = bad
        with pytest.raises(NonHermitianInput):
            QubitChannel(*images)

    def test_rejects_nan_cp_slack(self):
        with pytest.raises(CPViolation):
            QubitChannel(KET0, np.zeros((2, 2)), np.zeros((2, 2)), KET1, cp_slack=math.nan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_unitaries_must_be_finite(self, bad):
        u = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(NonHermitianInput):
            TargetGate(u)
        with pytest.raises(NonHermitianInput):
            QubitChannel.from_unitary(u)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("entry", [(1, 1), (0, 3)])
    def test_choi_rejects_non_finite_entries(self, bad, entry):
        s = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
        s[entry] = bad
        with pytest.raises(NonHermitianInput):
            ChoiMatrix(s)

    def test_images_are_immutable(self, rng):
        chan = random_channel(rng)
        with pytest.raises(ValueError):
            chan.E00[0, 0] = 1.0

    def test_residual_diagnostics_are_small(self, rng):
        chan = random_channel(rng)
        assert tp_residual(chan) < 1e-12
        assert cp_residual(chan) < 1e-10


# ---------------------------------------------------------------------------
# action

class TestApply:
    def test_identity_channel(self, rng):
        rho = random_density_matrix(rng, 2)
        out = apply(QubitChannel.identity(), rho)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_depolarizing_channel(self, rng):
        rho = random_density_matrix(rng, 2)
        out = apply(QubitChannel.depolarizing(), rho)
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-14)

    def test_bit_flip_unitary(self):
        chan = QubitChannel.from_unitary(TargetGate.x().unitary)
        out = apply(chan, DensityMatrix(KET0))
        np.testing.assert_allclose(out.matrix, KET1, atol=1e-14)

    def test_matches_transfer_matrix_oracle(self, rng):
        for _ in range(10):
            chan = random_channel(rng)
            rho = random_density_matrix(rng, 2)
            out = apply(chan, rho)
            ref = oracles.transfer_apply(chan.images(), rho.matrix)
            np.testing.assert_allclose(out.matrix, ref, atol=1e-12)

    def test_rejects_wrong_input_dimension(self, rng):
        with pytest.raises(DimensionMismatch):
            apply(QubitChannel.identity(), random_density_matrix(rng, 3))

    def test_clamps_tiny_negative_output_population(self):
        a = 5e-10
        chan = QubitChannel(
            np.diag([1.0 + a, -a]).astype(complex),
            np.zeros((2, 2), dtype=complex),
            np.zeros((2, 2), dtype=complex),
            np.diag([-a, 1.0 + a]).astype(complex),
        )
        out = apply(chan, DensityMatrix(KET0))
        assert abs(eigenfidelity(out) - 1.0) < 1e-9
        assert abs(np.trace(out.matrix) - 1.0) < 1e-12

    def test_rejects_output_outside_clamp_band(self):
        a = 1e-4
        chan = QubitChannel.from_images(
            np.diag([1.0 + a, -a]).astype(complex),
            np.zeros((2, 2), dtype=complex),
            np.diag([-a, 1.0 + a]).astype(complex),
            cp_slack=1e-3,
        )
        with pytest.raises(CPViolation):
            apply(chan, DensityMatrix(KET0))

    @pytest.mark.parametrize("count", [1, 10, 100, 1000, 5000])
    def test_projects_a_trace_defect_within_tp_tol(self, count):
        # from C = 100 on, the trace defect (1e-12 to 5e-11) is within TP_TOL
        # but not within a state's trace tolerance (1e-12)
        chan = concatenate(build_channel_exact(binomial_drive(100.0, 20.0), JCConfig(tau=1.0)),
                           count)
        out = apply(chan, DensityMatrix(KET0))
        ref = oracles.transfer_apply(chan.images(), KET0)
        assert abs(np.trace(out.matrix).real - 1.0) <= 1e-12
        np.testing.assert_allclose(out.matrix, ref, atol=1e-9)


# ---------------------------------------------------------------------------
# composition

class TestCompose:
    def test_identity_is_neutral(self, rng):
        chan = random_channel(rng)
        left = compose(QubitChannel.identity(), chan)
        right = compose(chan, QubitChannel.identity())
        for a, b in zip(left.images(), chan.images()):
            np.testing.assert_allclose(a, b, atol=1e-14)
        for a, b in zip(right.images(), chan.images()):
            np.testing.assert_allclose(a, b, atol=1e-14)

    def test_depolarizing_absorbs(self, rng):
        chan = random_channel(rng)
        out = compose(QubitChannel.depolarizing(), chan)
        np.testing.assert_allclose(out.E00, np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(out.E01, np.zeros((2, 2)), atol=1e-12)

    def test_matches_sequential_application(self, rng):
        outer, inner = random_channel(rng), random_channel(rng)
        combined = compose(outer, inner)
        for _ in range(5):
            rho = random_density_matrix(rng, 2)
            direct = apply(outer, apply(inner, rho))
            np.testing.assert_allclose(
                apply(combined, rho).matrix, direct.matrix, atol=1e-12
            )

    def test_matches_transfer_matrix_product(self, rng):
        outer, inner = random_channel(rng), random_channel(rng)
        combined = compose(outer, inner)
        t_prod = oracles.transfer_matrix(outer.images()) @ oracles.transfer_matrix(inner.images())
        np.testing.assert_allclose(
            oracles.transfer_matrix(combined.images()), t_prod, atol=1e-10
        )

    def test_associativity(self, rng):
        a, b, c = (random_channel(rng) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        for x, y in zip(left.images(), right.images()):
            np.testing.assert_allclose(x, y, atol=1e-10)

    def test_concatenate_counts_applications(self, rng):
        chan = random_channel(rng)
        three = concatenate(chan, 3)
        manual = compose(chan, compose(chan, chan))
        for x, y in zip(three.images(), manual.images()):
            np.testing.assert_allclose(x, y, atol=1e-10)

    def test_concatenate_once_is_identity_operation(self, rng):
        chan = random_channel(rng)
        for x, y in zip(concatenate(chan, 1).images(), chan.images()):
            np.testing.assert_allclose(x, y, atol=1e-15)

    def test_concatenate_once_returns_the_channel(self, rng):
        chan = random_channel(rng)
        assert concatenate(chan, 1) is chan

    @pytest.mark.parametrize("count", [0, -1, 2.5, math.nan, math.inf, 3.0, True, False, "2",
                                       np.float64(2.0), np.bool_(True)])
    def test_concatenate_rejects_zero(self, rng, count):
        # and every other count that is not an integer of at least 1
        with pytest.raises(DimensionMismatch):
            concatenate(random_channel(rng), count)

    @pytest.mark.parametrize("count", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_concatenate_takes_numpy_integers(self, rng, count):
        chan = random_channel(rng)
        for x, y in zip(concatenate(chan, count).images(), concatenate(chan, 3).images()):
            np.testing.assert_array_equal(x, y)


# ---------------------------------------------------------------------------
# average purity and bounds

class TestAveragePurity:
    def test_identity(self):
        assert abs(average_purity(QubitChannel.identity()) - 1.0) < 1e-14

    def test_depolarizing(self):
        assert abs(average_purity(QubitChannel.depolarizing()) - 0.5) < 1e-14

    def test_unitary(self, rng):
        chan = QubitChannel.from_unitary(oracles.random_unitary(rng, 2))
        assert abs(average_purity(chan) - 1.0) < 1e-12

    def test_range(self, rng):
        for _ in range(20):
            g = average_purity(random_channel(rng))
            assert 0.5 - 1e-12 <= g <= 1.0 + 1e-12

    def test_matches_bloch_quadrature_oracle(self, rng):
        for _ in range(5):
            chan = random_channel(rng)
            ref = oracles.purity_quadrature(chan.images())
            assert abs(average_purity(chan) - ref) < 1e-10

    def test_matches_monte_carlo(self, rng):
        chan = random_channel(rng)
        exact = average_purity(chan)
        mean, err = mc_average_purity(chan, SeededSampler(21, 2), 100_000)
        assert abs(mean - exact) <= 3 * err


class TestChannelBounds:
    def test_identity(self):
        assert channel_eigenfidelity_bounds(QubitChannel.identity()) == (1.0, 1.0)

    def test_depolarizing(self):
        lo, hi = channel_eigenfidelity_bounds(QubitChannel.depolarizing())
        assert abs(lo - 0.5) < 1e-14 and abs(hi - 0.75) < 1e-14

    def test_error_bounds_complement_fidelity_bounds(self, rng):
        chan = random_channel(rng)
        flo, fhi = channel_eigenfidelity_bounds(chan)
        elo, ehi = channel_eigenerror_bounds(chan)
        assert abs(elo - (1 - fhi)) < 1e-14
        assert abs(ehi - (1 - flo)) < 1e-14

    def test_brackets_average_eigenfidelity(self, rng):
        for _ in range(5):
            chan = random_channel(rng)
            lo, hi = channel_eigenfidelity_bounds(chan)
            rbar = oracles.rbar_quadrature(chan.images())
            assert lo - 1e-9 <= rbar <= hi + 1e-9

    def test_monte_carlo_eigenfidelity_in_interval(self, rng):
        chan = random_channel(rng)
        lo, hi = channel_eigenfidelity_bounds(chan)
        mean, err = mc_channel_eigenfidelity(chan, SeededSampler(4, 2), 50_000)
        assert lo - 3 * err <= mean <= hi + 3 * err
        ref = oracles.rbar_quadrature(chan.images())
        assert abs(mean - ref) <= 3 * err


# drives of the 40-digit bracket oracle's covered range (see its docstring)
_ORACLE_DRIVES = {
    **{f"poisson-{nbar:g}": (lambda nbar=nbar: poisson_drive(nbar))
       for nbar in (1.0, 10.0, 100.0, 1000.0)},
    **{f"binomial-{nbar:g}-{fano:g}": (
        lambda nbar=nbar, fano=fano: binomial_drive(nbar, fano * nbar))
       for nbar, fano in ((25.0, 0.2), (100.0, 0.5), (250.0, 1.0))},
}


@pytest.mark.parametrize("name", list(_ORACLE_DRIVES))
def test_eigenerror_bracket_matches_a_40_digit_oracle(name, time_limit):
    # the worst measured is 5.2e-11, at Poisson nbar = 1e3, tau = 0.05, C = 1,
    # where 1 - purity cancels most of the digits
    drive = _ORACLE_DRIVES[name]()
    with time_limit(20):
        for tau in (0.05, 0.3, 1.0, math.pi / 2, 3.0):
            gate = build_channel_exact(drive, JCConfig(tau=tau))
            for count in (1, 4, 64):
                got = channel_eigenerror_bounds(concatenate(gate, count))[0]
                want = oracles.eigenerror_lower_mp(drive.coefficients, drive.n_min, drive.mean,
                                                   tau, count)
                assert abs(got - want) <= 1e-9 * want, (tau, count, got, want)


# ---------------------------------------------------------------------------
# stacked checks, purity and powers

_Z = np.zeros((2, 2), dtype=complex)
_UPPER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def _nan_coherence() -> tuple:
    e01 = _Z.copy()
    e01[0, 1] = math.nan
    return KET0, e01, e01.conj().T, KET1


# images of a row that fails one check, and what it fails
_BROKEN_ROWS = {
    "trace": lambda: (KET0 * 1.5, _Z, _Z, KET1),
    "infinite-trace": lambda: (np.diag([math.inf, 0.0]).astype(complex), _Z, _Z, KET1),
    "hermiticity": lambda: (KET0, _UPPER, _UPPER, KET1),
    "nan-coherence": _nan_coherence,
    "positivity": lambda: (KET0, _UPPER.T, _UPPER, KET1),  # the transpose map
}


def _transfers(rows) -> np.ndarray:
    """(T, 4, 4) stack of the transfer matrices of image tuples, built by the oracle."""
    return np.stack([oracles.transfer_matrix(images) for images in rows])


def _purity_2x2(channel) -> float:
    """The closed form on the channel's own 2x2 images, one channel at a time."""
    e00, e01, e10, e11 = channel.images()
    return float(np.real(np.trace(e00 @ e00 + e00 @ e11 + e11 @ e11 + e01 @ e10))) / 3.0


class TestStackedChecks:
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("broken", sorted(_BROKEN_ROWS))
    def test_a_broken_row_raises_what_it_raises_alone(self, rng, broken, k):
        rows = [random_channel(rng).images() for _ in range(5)]
        rows[k] = _BROKEN_ROWS[broken]()
        with pytest.raises(EigenfidError) as alone:
            QubitChannel(*rows[k])
        with pytest.raises(EigenfidError) as stacked:
            _check_transfers(_transfers(rows), CP_TOL)
        assert type(stacked.value) is type(alone.value)
        assert str(stacked.value) == str(alone.value)

    def test_each_row_has_its_own_slack(self, rng):
        rows = [random_channel(rng).images() for _ in range(4)]
        rows[2] = _BROKEN_ROWS["positivity"]()
        s = _transfers(rows)
        slack = np.full(4, CP_TOL)
        slack[2] = 1.5
        assert _check_transfers(s, slack)[2] == cp_residual(QubitChannel(*rows[2], cp_slack=1.5))
        slack[2] = 0.5
        with pytest.raises(CPViolation) as stacked:
            _check_transfers(s, slack)
        with pytest.raises(CPViolation) as alone:
            QubitChannel(*rows[2], cp_slack=0.5)
        assert str(stacked.value) == str(alone.value)

    def test_residuals_are_those_of_each_channel(self, rng):
        channels = [random_channel(rng) for _ in range(6)] + [QubitChannel.identity()]
        residual = _check_transfers(_transfers([c.images() for c in channels]), CP_TOL)
        assert residual.tolist() == [cp_residual(c) for c in channels]
        # max(0, -w) is +0.0 whatever the sign of a zero eigenvalue
        assert math.copysign(1.0, cp_residual(QubitChannel.identity())) == 1.0

    def test_an_empty_stack_passes(self):
        assert _check_transfers(np.zeros((0, 4, 4), dtype=complex), CP_TOL).shape == (0,)

    def test_stacked_purity_is_the_2x2_formula_bit_for_bit(self, rng):
        channels = [random_channel(rng) for _ in range(6)]
        channels += [QubitChannel.identity(), QubitChannel.depolarizing(),
                     concatenate(channels[0], 5)]
        got = _purities(np.stack([c._transfer for c in channels]))
        assert got.tolist() == [_purity_2x2(c) for c in channels]
        assert [average_purity(c) for c in channels] == got.tolist()

    @pytest.mark.parametrize("count", [2, 3, 8, 64])
    def test_a_stacked_power_is_each_concatenation_bit_for_bit(self, rng, count):
        # what a sweep does for the rows of one C
        channels = [random_channel(rng) for _ in range(5)]
        residual = np.array([cp_residual(c) for c in channels])
        power = np.linalg.matrix_power(np.stack([c._transfer for c in channels]), count)
        power_residual = _check_transfers(power, CP_TOL + count * residual)
        for c, p, r in zip(channels, power, power_residual):
            cat = concatenate(c, count)
            assert np.array_equal(p, cat._transfer)
            assert (r, CP_TOL + count * cp_residual(c)) == (cp_residual(cat), cat.cp_slack)

    @pytest.mark.parametrize("count", [1, 2, 8])
    def test_powers_is_the_concatenation_rule_of_a_stack(self, rng, count):
        channels = [random_channel(rng) for _ in range(4)]
        stack = np.stack([c._transfer for c in channels])
        residual = np.array([cp_residual(c) for c in channels])
        power, slack, power_residual = _powers(stack, residual, count)
        if count == 1:
            # one application: the stack itself, at the default slack
            assert power is stack and power_residual is residual
            assert slack.tolist() == [CP_TOL] * len(channels)
            return
        for c, p, s, r in zip(channels, power, slack, power_residual):
            cat = concatenate(c, count)
            assert np.array_equal(p, cat._transfer)
            assert (r, s) == (cp_residual(cat), cat.cp_slack)

    def test_a_power_that_fails_its_check_names_the_count(self):
        # the channel passes; the rounding of 40 squarings breaks its power's trace
        chan = build_channel_exact(poisson_drive(25.0), JCConfig(tau=1.0))
        with pytest.raises(NonHermitianInput, match=r"^1099511627776-fold power: trace "
                                                     r"preservation broken: image traces off by"):
            concatenate(chan, 2 ** 40)
        # the transpose map: trace preserving, Hermitian, not CP, and its own cube
        swap = np.eye(4)[[0, 2, 1, 3]][None]
        with pytest.raises(CPViolation, match=r"^3-fold power: Choi matrix has eigenvalue "
                                              r"-1\.000e\+00 below -1\.0e-08$"):
            _powers(swap, np.zeros(1), 3)


# ---------------------------------------------------------------------------
# gate fidelity

class TestAMatrix:
    def test_exact_entries(self):
        expected = np.array(
            [
                [2, 0, 0, 1],
                [0, 1, 0, 0],
                [0, 0, 1, 0],
                [1, 0, 0, 2],
            ]
        ) / 6.0
        np.testing.assert_allclose(a_matrix(), expected, atol=1e-15)

    def test_monte_carlo_fourth_moments(self):
        total = np.zeros((4, 4), dtype=complex)
        sampler = SeededSampler(77, 2)
        n = 1_000_000
        chunk = 100_000
        for k in range(n // chunk):
            amps = sampler.child(k).sample_amplitudes(chunk)
            outer = np.einsum("ni,nj->nij", amps, amps.conj())
            total += np.einsum("nij,nkl->ikjl", outer.transpose(0, 2, 1), outer).reshape(4, 4)
        est = total / n
        assert np.abs(est - a_matrix()).max() < 2e-3


class TestChoiMatrix:
    def test_identity_channel_identity_gate(self):
        s = choi_matrix(QubitChannel.identity(), TargetGate.identity())
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 1.0
        np.testing.assert_allclose(s.entries, expected, atol=1e-14)

    def test_per_state_fidelity_reproduced(self, rng):
        for _ in range(4):
            chan = random_channel(rng)
            gate = TargetGate(oracles.random_unitary(rng, 2))
            s = choi_matrix(chan, gate).entries
            for _ in range(25):
                alpha = _haar_qubit(rng).amplitudes
                proj = np.outer(alpha, alpha.conj())
                via_choi = np.real(np.trace(np.kron(proj.T, proj) @ s))
                out = apply(chan, DensityMatrix(proj)).matrix
                target = gate.unitary @ alpha
                direct = np.real(target.conj() @ out @ target)
                assert abs(via_choi - direct) < 1e-10

    def test_blocks_are_the_twisted_images_bit_for_bit(self, rng):
        # block (i, j) is U^dag E_ij U, one image at a time
        for _ in range(20):
            chan = random_channel(rng)
            u = TargetGate(oracles.random_unitary(rng, 2)).unitary
            want = np.zeros((4, 4), dtype=complex)
            for (i, j), img in zip([(0, 0), (0, 1), (1, 0), (1, 1)], chan.images()):
                want[2 * i:2 * i + 2, 2 * j:2 * j + 2] = u.conj().T @ img @ u
            assert np.array_equal(choi_matrix(chan, TargetGate(u)).entries, want)


class TestAverageGateFidelity:
    def test_unitary_channel_with_its_own_gate(self, rng):
        u = oracles.random_unitary(rng, 2)
        chan = QubitChannel.from_unitary(u)
        assert abs(average_gate_fidelity(chan, TargetGate(u)) - 1.0) < 1e-12

    def test_depolarizing_with_any_gate(self, rng):
        chan = QubitChannel.depolarizing()
        gate = TargetGate(oracles.random_unitary(rng, 2))
        assert abs(average_gate_fidelity(chan, gate) - 0.5) < 1e-12

    def test_identity_channel_with_bit_flip_gate(self):
        fbar = average_gate_fidelity(QubitChannel.identity(), TargetGate.x())
        assert abs(fbar - 1.0 / 3.0) < 1e-12

    def test_matches_monte_carlo(self, rng):
        chan = random_channel(rng)
        gate = TargetGate(oracles.random_unitary(rng, 2))
        exact = average_gate_fidelity(chan, gate)
        mean, err = mc_gate_fidelity(chan, gate, SeededSampler(8, 2), 100_000)
        assert abs(mean - exact) <= 3 * err

    def test_matches_a_40_digit_oracle_and_the_choi_route(self, rng):
        # exact drive channels, once and concatenated, and Stinespring channels
        exact = []
        for drive in [poisson_drive(nbar) for nbar in (10.0, 100.0, 1000.0)] + [
                binomial_drive(100.0, 25.0)]:
            for tau in (0.3, 1.5, 2.9):
                chan = build_channel_exact(drive, JCConfig(tau=tau))
                exact += [chan, concatenate(chan, 4)]
        for chan in exact + [random_channel(rng) for _ in range(40)]:
            for gate in (TargetGate.x(), TargetGate.identity(),
                         TargetGate(oracles.random_unitary(rng, 2))):
                fbar = average_gate_fidelity(chan, gate)
                assert abs(fbar - oracles.gate_fidelity_mp(chan.images(), gate.unitary)) <= 4.4e-16
                via_choi = np.trace(a_matrix() @ choi_matrix(chan, gate).entries).real
                assert abs(fbar - via_choi) <= 4.4e-16

    def test_never_exceeds_eigenfidelity_ceiling(self, rng):
        for _ in range(10):
            chan = random_channel(rng)
            gate = TargetGate(oracles.random_unitary(rng, 2))
            fbar = average_gate_fidelity(chan, gate)
            rbar = oracles.rbar_quadrature(chan.images())
            _, hi = channel_eigenfidelity_bounds(chan)
            assert fbar <= rbar + 1e-9
            assert rbar <= hi + 1e-9


# ---------------------------------------------------------------------------
# Monte Carlo determinism and cross-checks

class TestMonteCarlo:
    def test_same_seed_same_estimate(self, rng):
        chan = random_channel(rng)
        a = mc_average_purity(chan, SeededSampler(3, 2), 1000)
        b = mc_average_purity(chan, SeededSampler(3, 2), 1000)
        assert a == b

    def test_eigenfidelity_estimator_matches_per_sample_diagonalization(self, rng):
        chan = random_channel(rng)
        sampler = SeededSampler(17, 2)
        mean, _ = mc_channel_eigenfidelity(chan, sampler, 400)
        amps = SeededSampler(17, 2).sample_amplitudes(400)
        vals = []
        for a in amps:
            out = apply(chan, DensityMatrix(np.outer(a, a.conj()))).matrix
            vals.append(max(np.linalg.eigvalsh(out)))
        assert abs(mean - np.mean(vals)) < 1e-10

    def test_purity_estimator_consistent_with_apply(self, rng):
        chan = random_channel(rng)
        mean, _ = mc_average_purity(chan, SeededSampler(29, 2), 300)
        amps = SeededSampler(29, 2).sample_amplitudes(300)
        vals = [
            purity(apply(chan, DensityMatrix(np.outer(a, a.conj()))))
            for a in amps
        ]
        assert abs(mean - np.mean(vals)) < 1e-10

    def test_one_sample_has_no_standard_error(self, rng):
        with pytest.raises(DimensionMismatch):
            mc_channel_eigenfidelity(random_channel(rng), SeededSampler(8, 2), 1)

    def test_stderr_shrinks_with_samples(self, rng):
        chan = random_channel(rng)
        _, small = mc_average_purity(chan, SeededSampler(6, 2), 1_000)
        _, big = mc_average_purity(chan, SeededSampler(6, 2), 64_000)
        assert big < small / math.sqrt(32)


# ---------------------------------------------------------------------------
# the Monte Carlo estimators in real Bloch arithmetic, against the complex
# amplitude path they replaced (kept here as the reference)

def _complex_entries(channel, amps: np.ndarray):
    a0, a1 = amps[:, 0], amps[:, 1]
    vec = np.empty((len(amps), 4), dtype=complex)  # row k is vec(rho_k)
    vec[:, 0] = np.abs(a0) ** 2
    np.multiply(a0, a1.conj(), out=vec[:, 1])
    np.conjugate(vec[:, 1], out=vec[:, 2])
    vec[:, 3] = np.abs(a1) ** 2
    out = vec @ oracles.transfer_matrix(channel.images())[[0, 1, 3]].T
    return out[:, 0].real, out[:, 1], out[:, 2].real


def _mean_stderr(vals: np.ndarray) -> tuple:
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(len(vals)))


def _complex_purity(channel, sampler, n: int) -> tuple:
    out00, out01, out11 = _complex_entries(channel, sampler.sample_amplitudes(n))
    return _mean_stderr(out00**2 + out11**2 + 2 * np.abs(out01)**2)


def _complex_eigenfidelity(channel, sampler, n: int) -> tuple:
    out00, out01, out11 = _complex_entries(channel, sampler.sample_amplitudes(n))
    det = out00 * out11 - np.abs(out01) ** 2
    return _mean_stderr(0.5 + np.sqrt(np.clip(0.25 - det, 0.0, None)))


def _complex_gate_fidelity(channel, gate, sampler, n: int) -> tuple:
    amps = sampler.sample_amplitudes(n)
    out00, out01, out11 = _complex_entries(channel, amps)
    targets = amps @ gate.unitary.T
    b0, b1 = targets[:, 0], targets[:, 1]
    return _mean_stderr(np.abs(b0)**2 * out00 + np.abs(b1)**2 * out11
                        + 2 * np.real(np.conj(b0) * b1 * out01))


_DRIVES = {
    "poisson-10": lambda: poisson_drive(10.0),
    "poisson-100": lambda: poisson_drive(100.0),
    "poisson-1000": lambda: poisson_drive(1000.0),
    "binomial-100-20": lambda: binomial_drive(100.0, 20.0),
    "binomial-400-100": lambda: binomial_drive(400.0, 100.0),
}
_TAUS = (0.01, 0.1, 0.5, 1.0, math.pi / 2, 3.0)
_COUNTS = (1, 8, 64)


def _gate_channels(drive):
    for tau in _TAUS:
        gate = build_channel_exact(drive, JCConfig(tau=tau))
        for count in _COUNTS:
            yield concatenate(gate, count)


_needs_extended = pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                                     reason="needs an extended-precision long double")


def _assert_estimators_match_complex_reference(channels, rng, n: int = 5000) -> None:
    """Standard errors within 4.4e-16 of the complex evaluation of the same
    draws, and means within 4.4e-16 (two ulp near 1) of its long-double one.
    The complex means are no reference for the library's: over the exact
    gate channels they stray up to 1.1e-15 from the long-double ones
    (Poisson nbar = 1e3, C = 64, tau = pi/2), where the library strays 2.4e-16."""
    for seed, chan in enumerate(channels):
        gate = TargetGate(oracles.random_unitary(rng))
        got = [mc_average_purity(chan, SeededSampler(seed, 2), n),
               mc_channel_eigenfidelity(chan, SeededSampler(seed, 2), n),
               mc_gate_fidelity(chan, gate, SeededSampler(seed, 2), n)]
        errs = [_complex_purity(chan, SeededSampler(seed, 2), n)[1],
                _complex_eigenfidelity(chan, SeededSampler(seed, 2), n)[1],
                _complex_gate_fidelity(chan, gate, SeededSampler(seed, 2), n)[1]]
        for (mean, err), ref_err, want in zip(got, errs, _extended_estimates(chan, gate, seed, n)):
            assert abs(np.longdouble(mean) - want) <= 4.4e-16, (seed, mean, float(want))
            assert abs(err - ref_err) <= 4.4e-16, (seed, err, ref_err)


def _extended_estimates(channel, gate, seed: int, n: int) -> tuple:
    """Long-double purity, eigenfidelity and gate fidelity of the sampler's draws."""
    z = np.random.default_rng(seed).standard_normal((n, 4)).astype(np.longdouble)
    amps = (z[:, :2] + 1j * z[:, 2:]).astype(np.clongdouble)
    amps /= np.sqrt((z * z).sum(axis=1))[:, None]
    vec = np.stack([amps[:, 0] * amps[:, 0].conj(), amps[:, 0] * amps[:, 1].conj(),
                    amps[:, 1] * amps[:, 0].conj(), amps[:, 1] * amps[:, 1].conj()], axis=1)
    s = oracles.transfer_matrix(channel.images()).astype(np.clongdouble)
    o00, o01, o10, o11 = (vec @ s.T).T
    pur = (o00 * o00 + o11 * o11 + 2 * o01 * o10).real
    det = (o00 * o11 - o01 * o10).real
    eig = 0.5 + np.sqrt(np.clip(0.25 - det, 0.0, None))
    b = amps @ gate.unitary.T.astype(np.clongdouble)
    fid = (b[:, 0].conj() * (o00 * b[:, 0] + o01 * b[:, 1])
           + b[:, 1].conj() * (o10 * b[:, 0] + o11 * b[:, 1])).real
    return pur.mean(), eig.mean(), fid.mean()


class TestPauliForm:
    def test_matches_bloch_affine_oracle(self, rng):
        for _ in range(20):
            images = random_channel(rng).images()
            r = _pauli_form(oracles.transfer_matrix(images))
            m, c = oracles.bloch_affine(images)
            np.testing.assert_allclose(r[1:, 1:], m, rtol=0, atol=1e-15)
            np.testing.assert_allclose(r[1:, 0], c, rtol=0, atol=1e-15)
            np.testing.assert_allclose(r[0], 0.0, rtol=0, atol=1e-15)

    def test_trace_row_of_a_map_that_changes_the_trace(self, rng):
        for _ in range(20):
            g = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
            e00, e11 = (x + x.conj().T for x in g)
            e01 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            images = (e00, e01, e01.conj().T, e11)
            r = _pauli_form(oracles.transfer_matrix(images))
            trace = [np.trace(e00 + e11).real / 2 - 1,
                     np.trace(e01 + e01.conj().T).real / 2,
                     np.trace(1j * (e01.conj().T - e01)).real / 2,
                     np.trace(e00 - e11).real / 2]
            np.testing.assert_allclose(r[0], trace, rtol=0, atol=1e-14)
            m, c = oracles.bloch_affine(images)
            np.testing.assert_allclose(r[1:, 1:], m, rtol=0, atol=1e-14)
            np.testing.assert_allclose(r[1:, 0], c, rtol=0, atol=1e-14)

    def test_unitary_block_is_the_bloch_rotation(self, rng):
        for _ in range(20):
            u = oracles.random_unitary(rng)
            rot = _pauli_form(np.kron(u, u.conj()))[1:, 1:]
            np.testing.assert_allclose(rot @ rot.T, np.eye(3), rtol=0, atol=1e-14)
            assert abs(np.linalg.det(rot) - 1.0) < 1e-14
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            rho = (np.eye(2) + n[0] * oracles.SX + n[1] * oracles.SY + n[2] * oracles.SZ) / 2
            out = u @ rho @ u.conj().T
            want = [np.trace(out @ s).real for s in (oracles.SX, oracles.SY, oracles.SZ)]
            np.testing.assert_allclose(rot @ n, want, rtol=0, atol=1e-14)


class TestRealBlochEstimators:
    @_needs_extended
    def test_random_channels_match_complex_reference(self, rng):
        _assert_estimators_match_complex_reference([random_channel(rng) for _ in range(12)], rng)

    @_needs_extended
    @pytest.mark.parametrize("drive", sorted(_DRIVES))
    def test_exact_gate_channels_match_complex_reference(self, rng, drive):
        _assert_estimators_match_complex_reference(_gate_channels(_DRIVES[drive]()), rng)

    @_needs_extended
    @pytest.mark.parametrize("drive", [poisson_drive(4.0), poisson_drive(100.0),
                                       binomial_drive(16.0, 4.0), binomial_drive(100.0, 20.0)],
                             ids=["poisson-4", "poisson-100", "binomial-16-4", "binomial-100-20"])
    def test_within_two_ulp_of_extended_precision(self, rng, drive):
        # includes near-maximally-mixed outputs (small n-bar, C = 64), where
        # 1 - t^2 competes with a small |m|^2
        for seed, chan in enumerate(_gate_channels(drive)):
            gate = TargetGate(oracles.random_unitary(rng))
            want = _extended_estimates(chan, gate, seed, 5000)
            got = (mc_average_purity(chan, SeededSampler(seed, 2), 5000)[0],
                   mc_channel_eigenfidelity(chan, SeededSampler(seed, 2), 5000)[0],
                   mc_gate_fidelity(chan, gate, SeededSampler(seed, 2), 5000)[0])
            for g, w in zip(got, want):
                assert abs(np.longdouble(g) - w) <= 4.4e-16, (seed, g, float(w))

    @pytest.mark.parametrize("dim", [1, 3])
    def test_estimators_need_a_qubit_sampler(self, dim):
        chan = build_channel_exact(poisson_drive(4.0), JCConfig(tau=1.0))
        gate = TargetGate.identity()
        for estimate in (lambda s: mc_average_purity(chan, s, 100),
                         lambda s: mc_channel_eigenfidelity(chan, s, 100),
                         lambda s: mc_gate_fidelity(chan, gate, s, 100)):
            with pytest.raises(DimensionMismatch):
                estimate(SeededSampler(3, dim))


# ---------------------------------------------------------------------------
# the estimators stream the draw through Bloch blocks; the full-array
# evaluation they replaced is kept in oracles as the bit-for-bit reference

_STREAM_COUNTS = (2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7, 20000)


def _stream_channels():
    for drive in (poisson_drive(25.0), binomial_drive(100.0, 20.0)):
        for tau in (0.3, math.pi / 2):
            gate = build_channel_exact(drive, JCConfig(tau=tau))
            for count in (1, 4):
                yield concatenate(gate, count)


def _rotation(gate: TargetGate) -> np.ndarray:
    u = gate.unitary
    return _pauli_form(np.kron(u, u.conj()))[1:, 1:]


class TestStreamedEstimators:
    CHANNELS = list(_stream_channels())
    GATES = (TargetGate.x(), TargetGate(oracles.random_unitary(np.random.default_rng(41))))

    @pytest.mark.parametrize("n", _STREAM_COUNTS)
    def test_means_and_stderrs_equal_the_full_array_pass(self, n):
        for k, chan in enumerate(self.CHANNELS):
            r = _pauli_form(chan._transfer)
            for seed in (k, 2 ** 64 - 1 - k):
                got = [mc_average_purity(chan, SeededSampler(seed, 2), n),
                       mc_channel_eigenfidelity(chan, SeededSampler(seed, 2), n)]
                want = [oracles.full_mc_purity(r, seed, n),
                        oracles.full_mc_eigenfidelity(r, seed, n)]
                for gate in self.GATES:
                    got.append(mc_gate_fidelity(chan, gate, SeededSampler(seed, 2), n))
                    want.append(oracles.full_mc_gate_fidelity(r, _rotation(gate), seed, n))
                assert got == want, (k, seed)

    @pytest.mark.parametrize("n", _STREAM_COUNTS)
    def test_per_sample_outputs_equal_the_full_array_pass(self, n):
        # a one-column block would take numpy's matrix-vector product, which
        # rounds some columns differently; the means rarely show it
        for k, chan in enumerate(self.CHANNELS):
            parts = []

            def capture(d, m, bloch, out):
                parts.append(np.vstack([d, m]))
                out[:] = 0.0

            for seed in (k, 2 ** 64 - 1 - k):
                parts.clear()
                _mc_estimate(chan, SeededSampler(seed, 2), n, capture)
                d, m = oracles.full_outputs(_pauli_form(chan._transfer),
                                            oracles.full_bloch(seed, n))
                np.testing.assert_array_equal(np.hstack(parts), np.vstack([d, m]))

    @pytest.mark.parametrize("n", [2, _BLOCK + 1, 20000])
    def test_stream_ends_where_amplitudes_leave_it(self, n):
        chan, gate = self.CHANNELS[1], self.GATES[1]
        for estimate in (lambda s: mc_average_purity(chan, s, n),
                         lambda s: mc_channel_eigenfidelity(chan, s, n),
                         lambda s: mc_gate_fidelity(chan, gate, s, n)):
            a, b = SeededSampler(19, 2), SeededSampler(19, 2)
            estimate(a)
            b.sample_amplitudes(n)
            np.testing.assert_array_equal(a.sample_amplitudes(8), b.sample_amplitudes(8))

    def test_a_million_samples_hold_under_ten_bytes_each(self):
        # the per-sample values (8 B each) plus the block buffers; the
        # full-array pass held about 80 B per sample
        chan, n = self.CHANNELS[2], 10 ** 6
        mc_channel_eigenfidelity(chan, SeededSampler(2, 2), 100)
        tracemalloc.start()
        try:
            mc_channel_eigenfidelity(chan, SeededSampler(2, 2), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * n, peak / n

    def test_a_warm_estimate_holds_its_values_and_no_new_block_buffers(self):
        # the block workspace is kept per thread, so once warm a call holds
        # its 8 B per sample and little more: 485 KiB more with buffers per call
        chan, n = self.CHANNELS[2], 20000
        mc_channel_eigenfidelity(chan, SeededSampler(2, 2), n)
        tracemalloc.start()
        try:
            mc_channel_eigenfidelity(chan, SeededSampler(3, 2), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n + 128 * 1024, (peak - 8 * n) / 1024

    def test_estimates_on_threads_equal_the_sequential_values(self):
        # each thread keeps its own workspace, so concurrent calls share no buffer
        jobs = [(chan, seed) for chan in self.CHANNELS for seed in (31, 32)]
        assert len(jobs) == 16

        def estimate(job):
            chan, seed = job
            return mc_channel_eigenfidelity(chan, SeededSampler(seed, 2), 3 * _BLOCK + 7)

        want = [estimate(job) for job in jobs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert list(pool.map(estimate, jobs)) == want

    def test_each_estimator_streams_one_draw_of_n(self, monkeypatch):
        # the estimators draw only through bloch_blocks, which a tracer can wrap
        calls = []
        blocks = SeededSampler.bloch_blocks

        def counted(sampler, n):
            calls.append(n)
            return blocks(sampler, n)

        monkeypatch.setattr(SeededSampler, "bloch_blocks", counted)
        chan, gate, n = self.CHANNELS[1], self.GATES[0], _BLOCK + 9
        for estimate in (lambda s: mc_average_purity(chan, s, n),
                         lambda s: mc_channel_eigenfidelity(chan, s, n),
                         lambda s: mc_gate_fidelity(chan, gate, s, n)):
            calls.clear()
            estimate(SeededSampler(5, 2))
            assert calls == [n]

    @pytest.mark.parametrize("n", [MAX_SAMPLES + 1, 10 ** 29, 2.5, -1])
    def test_rejects_a_count_that_is_not_an_index(self, n):
        with pytest.raises(DimensionMismatch):
            mc_channel_eigenfidelity(self.CHANNELS[0], SeededSampler(3, 2), n)

    @pytest.mark.parametrize("n", [2 ** 60, MAX_SAMPLES + 1])
    def test_rejects_a_count_numpy_cannot_size_before_drawing(self, n):
        # one 8-byte value per sample: past MAX_SAMPLES numpy cannot size the
        # estimate's array, and the check comes before any draw
        chan, gate = self.CHANNELS[0], self.GATES[0]
        for estimate in (lambda s: mc_average_purity(chan, s, n),
                         lambda s: mc_channel_eigenfidelity(chan, s, n),
                         lambda s: mc_gate_fidelity(chan, gate, s, n),
                         lambda s: mc_average(purity, s, n)):
            sampler = SeededSampler(3, 2)
            with pytest.raises(DimensionMismatch, match="sample count must be in"):
                estimate(sampler)
            np.testing.assert_array_equal(sampler.sample_amplitudes(4),
                                          SeededSampler(3, 2).sample_amplitudes(4))


# every frozen dataclass that holds arrays compares by identity: a generated
# field-wise __eq__ would ask numpy for the truth value of an array
_ARRAY_HOLDERS = {
    "QubitChannel": QubitChannel.identity,
    "TargetGate": TargetGate.identity,
    "ChoiMatrix": lambda: choi_matrix(QubitChannel.identity(), TargetGate.identity()),
    "DensityMatrix": lambda: DensityMatrix(np.eye(2) / 2),
    "PureState": lambda: PureState(np.array([1.0, 0.0])),
    "EnergyBasis": lambda: EnergyBasis(np.array([0.0, 1.0]), np.eye(2)),
    "DriveDistribution": lambda: poisson_drive(4.0),
}


def test_array_holders_are_the_public_dataclasses_with_array_fields():
    # the annotation is a string under `from __future__ import annotations`
    holders = {name for name in eigenfid.__all__
               if isinstance(cls := getattr(eigenfid, name), type) and is_dataclass(cls)
               and any(f.type == "np.ndarray" for f in fields(cls))}
    assert holders == set(_ARRAY_HOLDERS)


@pytest.mark.parametrize("name", list(_ARRAY_HOLDERS))
def test_array_holders_compare_and_hash_by_identity(name):
    a, b = _ARRAY_HOLDERS[name](), _ARRAY_HOLDERS[name]()
    assert type(a).__name__ == name
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a)
    assert len({a, a, b}) == 2


@pytest.mark.parametrize("name", list(_ARRAY_HOLDERS))
def test_array_holders_keep_read_only_copies(name):
    held = _ARRAY_HOLDERS[name]()
    # the same value built again from writable arrays, which are then overwritten
    inputs = {f.name: getattr(held, f.name) for f in fields(held) if f.init}
    inputs = {k: np.array(v) if isinstance(v, np.ndarray) else v for k, v in inputs.items()}
    built = type(held)(**inputs)
    for obj in (held, built):
        arrays = [k for k, v in vars(obj).items() if isinstance(v, np.ndarray)]
        assert arrays and not [k for k in arrays if getattr(obj, k).flags.writeable]
    kept = {k: v.copy() for k, v in vars(built).items() if isinstance(v, np.ndarray)}
    for v in inputs.values():
        if isinstance(v, np.ndarray):
            v[...] = 7
    for k, v in kept.items():
        np.testing.assert_array_equal(getattr(built, k), v, err_msg=k)
