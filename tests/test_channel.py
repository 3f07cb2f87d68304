"""Qubit channels: action, composition, average fidelities, Choi form."""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from conftest import random_channel
from eigenfid import (
    ChoiMatrix,
    DensityMatrix,
    PureState,
    QubitChannel,
    SeededSampler,
    TargetGate,
    a_matrix,
    apply,
    average_gate_fidelity,
    average_purity,
    channel_eigenerror_bounds,
    channel_eigenfidelity_bounds,
    choi_matrix,
    compose,
    concatenate,
    cp_residual,
    eigenfidelity,
    mc_average_purity,
    mc_channel_eigenfidelity,
    mc_gate_fidelity,
    purity,
    random_density_matrix,
    tp_residual,
)
from eigenfid.errors import CPViolation, DimensionMismatch, NonHermitianInput

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

    def test_concatenate_rejects_zero(self, rng):
        with pytest.raises(DimensionMismatch):
            concatenate(random_channel(rng), 0)


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
