"""Seeded Haar sampling and Monte Carlo averaging."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.stats

import oracles
from eigenfid import (
    DensityMatrix,
    PureState,
    QubitChannel,
    SeededSampler,
    apply,
    mc_average,
    random_density_matrix,
    sample_pure,
)
from eigenfid.errors import DimensionMismatch
from eigenfid.haar import _BLOCK, MAX_SAMPLES


class TestSampler:
    def test_deterministic_for_fixed_seed(self):
        a = SeededSampler(7, 2).sample_amplitudes(5)
        b = SeededSampler(7, 2).sample_amplitudes(5)
        np.testing.assert_array_equal(a, b)

    def test_children_draw_independent_streams(self):
        parent = SeededSampler(7, 2)
        a = parent.child(0).sample_amplitudes(4)
        b = parent.child(1).sample_amplitudes(4)
        assert np.abs(a - b).max() > 1e-6

    def test_child_is_reproducible(self):
        a = SeededSampler(7, 2).child(3).sample_amplitudes(4)
        b = SeededSampler(7, 2).child(3).sample_amplitudes(4)
        np.testing.assert_array_equal(a, b)

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(DimensionMismatch):
            SeededSampler(0, 0)

    def test_dim_one_is_a_phase(self):
        amps = SeededSampler(0, 1).sample_amplitudes(10)
        np.testing.assert_allclose(np.abs(amps), 1.0, atol=1e-12)

    def test_unit_norm(self):
        amps = SeededSampler(11, 5).sample_amplitudes(200)
        np.testing.assert_allclose(np.linalg.norm(amps, axis=1), 1.0, atol=1e-12)

    def test_sample_pure_returns_normalized_state(self):
        psi = sample_pure(SeededSampler(3, 4))
        assert isinstance(psi, PureState)
        assert psi.amplitudes.shape == (4,)


class TestUniformity:
    def test_mean_bloch_vector_vanishes(self):
        amps = SeededSampler(42, 2).sample_amplitudes(100_000)
        x = 2 * np.real(amps[:, 0].conj() * amps[:, 1]).mean()
        y = 2 * np.imag(amps[:, 0].conj() * amps[:, 1]).mean()
        z = (np.abs(amps[:, 0]) ** 2 - np.abs(amps[:, 1]) ** 2).mean()
        assert np.linalg.norm([x, y, z]) < 0.02

    def test_overlap_fourth_moment(self):
        amps = SeededSampler(5, 2).sample_amplitudes(100_000)
        est = (np.abs(amps[:, 0]) ** 4).mean()
        exact = oracles.haar_fourth_moment()
        assert abs(exact - 1 / 3) < 1e-6
        assert abs(est - 1 / 3) < 0.01

    def test_unitary_invariance_of_overlap_distribution(self, rng):
        n = 10_000
        amps = SeededSampler(9, 2).sample_amplitudes(2 * n)
        u = oracles.random_unitary(rng, 2)
        raw = np.abs(amps[:n, 0]) ** 2
        rotated = np.abs((amps[n:] @ u.T)[:, 0]) ** 2
        stat = scipy.stats.ks_2samp(raw, rotated).statistic
        assert stat < oracles.ks_critical(n, n)


class TestMcAverage:
    def test_constant_function(self):
        sampler = SeededSampler(1, 2)
        mean, err = mc_average(lambda psi: 1.0, sampler, 100)
        assert mean == 1.0
        assert err == 0.0

    def test_purity_through_identity_channel(self):
        chan = QubitChannel.identity()
        sampler = SeededSampler(2, 2)

        def f(psi: PureState) -> float:
            out = apply(chan, DensityMatrix.pure(psi))
            return float(np.real(np.trace(out.matrix @ out.matrix)))

        mean, err = mc_average(f, sampler, 500)
        assert abs(mean - 1.0) < 1e-12
        assert err < 1e-12

    def test_overlap_with_fixed_state(self):
        target = np.array([1.0, 0.0])
        sampler = SeededSampler(13, 2)
        mean, err = mc_average(
            lambda psi: float(np.abs(target @ psi.amplitudes) ** 2), sampler, 50_000
        )
        assert abs(mean - 0.5) <= 3 * err
        assert err < 0.005

    def test_requires_at_least_two_samples(self):
        with pytest.raises(DimensionMismatch):
            mc_average(lambda psi: 1.0, SeededSampler(0, 2), 1)

    @pytest.mark.parametrize("n", [2, 3, 1001])
    def test_is_numpys_mean_and_standard_error_bit_for_bit(self, n):
        def f(psi: PureState) -> float:
            return float(np.abs(psi.amplitudes[0]) ** 2)

        vals = np.array([f(PureState(a)) for a in SeededSampler(5, 2).sample_amplitudes(n)])
        assert mc_average(f, SeededSampler(5, 2), n) == (
            float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n)))


class TestRandomDensityMatrix:
    @pytest.mark.parametrize("dim", [2, 4, 7])
    def test_valid_state(self, rng, dim):
        rho = random_density_matrix(rng, dim)
        assert isinstance(rho, DensityMatrix)
        assert rho.dim == dim

    def test_deterministic_under_seeded_generator(self):
        a = random_density_matrix(np.random.default_rng(5), 3)
        b = random_density_matrix(np.random.default_rng(5), 3)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_generic_rank(self, rng):
        rho = random_density_matrix(rng, 4)
        vals, _ = oracles.power_spectrum(rho.matrix)
        assert vals.min() > 1e-6


def _bloch_of(amps: np.ndarray) -> np.ndarray:
    coherence = amps[:, 0].conj() * amps[:, 1]
    return np.stack([2 * coherence.real, 2 * coherence.imag,
                     np.abs(amps[:, 0]) ** 2 - np.abs(amps[:, 1]) ** 2], axis=1)


def _collected_bloch(sampler: SeededSampler, n: int) -> np.ndarray:
    """(n, 3) Bloch vectors: the blocks of sampler.bloch_blocks(n) copied into one array."""
    b = np.empty((3, n))
    for rows, block in sampler.bloch_blocks(n):
        b[:, rows] = block
    return b.T


class TestBlochVectors:
    @pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
    @pytest.mark.parametrize("n", [1, 2, 5000])
    def test_bloch_vectors_of_the_same_draw(self, seed, n):
        bloch = _collected_bloch(SeededSampler(seed, 2), n)
        amps = SeededSampler(seed, 2).sample_amplitudes(n)
        assert bloch.shape == (n, 3)
        np.testing.assert_allclose(bloch, _bloch_of(amps), rtol=0, atol=1e-15)

    def test_stream_continues_where_amplitudes_leave_it(self):
        a, b = SeededSampler(11, 2), SeededSampler(11, 2)
        _collected_bloch(a, 300)
        b.sample_amplitudes(300)
        np.testing.assert_array_equal(a.sample_amplitudes(40), b.sample_amplitudes(40))
        np.testing.assert_array_equal(_collected_bloch(a, 40), _collected_bloch(b, 40))

    def test_unit_vectors(self):
        bloch = _collected_bloch(SeededSampler(3, 2), 10_000)
        np.testing.assert_allclose(np.linalg.norm(bloch, axis=1), 1.0, rtol=0, atol=1e-15)

    def test_zero_samples(self):
        assert _collected_bloch(SeededSampler(3, 2), 0).shape == (0, 3)


# sample counts at and around the block edges, a lone row past a full block
# among them, and a count of several blocks
_BLOCK_COUNTS = (2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7, 20000)


class TestBlochBlocks:
    @pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
    @pytest.mark.parametrize("n", (0, 1) + _BLOCK_COUNTS)
    def test_collected_blocks_are_the_full_array_evaluation_bit_for_bit(self, seed, n):
        bloch = _collected_bloch(SeededSampler(seed, 2), n)
        want = oracles.full_bloch(seed, n)
        assert bloch.shape == want.shape and bloch.strides == want.strides
        np.testing.assert_array_equal(bloch, want)

    @pytest.mark.parametrize("n", _BLOCK_COUNTS)
    def test_blocks_tile_the_draw_in_contiguous_columns(self, n):
        want = oracles.full_bloch(5, n)
        sizes, end = [], 0
        for rows, bloch in SeededSampler(5, 2).bloch_blocks(n):
            assert rows.start == end and bloch.flags.c_contiguous
            assert bloch.shape == (3, rows.stop - rows.start)
            np.testing.assert_array_equal(bloch, want[rows].T)
            sizes.append(bloch.shape[1])
            end = rows.stop
        assert end == n and max(sizes) <= _BLOCK and min(sizes) >= 2

    @pytest.mark.parametrize("n", _BLOCK_COUNTS)
    def test_stream_ends_where_amplitudes_leave_it(self, n):
        a, b = SeededSampler(13, 2), SeededSampler(13, 2)
        for _ in a.bloch_blocks(n):
            pass
        b.sample_amplitudes(n)
        np.testing.assert_array_equal(a.sample_amplitudes(8), b.sample_amplitudes(8))

    def test_zero_samples_yield_no_block(self):
        assert list(SeededSampler(3, 2).bloch_blocks(0)) == []

    def test_interleaved_generators_keep_separate_blocks(self):
        # the block buffers are kept per thread, so a second generator that
        # runs while the first holds them must get buffers of its own
        n = 3 * _BLOCK + 5
        want = {seed: oracles.full_bloch(seed, n) for seed in (21, 22)}
        pairs = zip(SeededSampler(21, 2).bloch_blocks(n), SeededSampler(22, 2).bloch_blocks(n))
        count = 0
        for (rows_a, a), (rows_b, b) in pairs:
            np.testing.assert_array_equal(a, want[21][rows_a].T)
            np.testing.assert_array_equal(b, want[22][rows_b].T)
            count += 1
        assert count == 4

    @pytest.mark.parametrize("dim", [1, 3, 5])
    def test_needs_a_qubit_sampler(self, dim):
        with pytest.raises(DimensionMismatch):
            next(SeededSampler(3, dim).bloch_blocks(10))

    @pytest.mark.parametrize("n", [-1, 2.5, MAX_SAMPLES + 1, 10 ** 29])
    def test_rejects_a_count_that_is_not_an_index(self, n):
        with pytest.raises(DimensionMismatch):
            next(SeededSampler(3, 2).bloch_blocks(n))


class TestSamplerDomain:
    @pytest.mark.parametrize("seed", [float("nan"), float("inf"), 1.5, True, -1, 2 ** 64,
                                      "3", None, np.float64("nan")])
    def test_rejects_a_seed_outside_the_unsigned_64_bit_integers(self, seed):
        with pytest.raises(DimensionMismatch):
            SeededSampler(seed, 2)

    @pytest.mark.parametrize("seed", [3.0, np.int64(3), np.uint64(3)])
    def test_integral_seeds_of_any_type_give_the_int_stream(self, seed):
        sampler = SeededSampler(seed, 2)
        assert sampler.seed == 3 and type(sampler.seed) is int
        np.testing.assert_array_equal(sampler.sample_amplitudes(8),
                                      SeededSampler(3, 2).sample_amplitudes(8))

    def test_largest_seed(self):
        assert SeededSampler(np.uint64(2 ** 64 - 1), 2).seed == 2 ** 64 - 1

    @pytest.mark.parametrize("dim", [float("nan"), float("inf"), 2.5, True, 0, -3, "2"])
    def test_rejects_a_dimension_that_is_not_a_positive_integer(self, dim):
        with pytest.raises(DimensionMismatch):
            SeededSampler(3, dim)

    @pytest.mark.parametrize("k", [-1, 1.5, float("nan"), float("inf"), True, "1"])
    def test_rejects_a_child_index_that_is_not_a_nonnegative_integer(self, k):
        with pytest.raises(DimensionMismatch):
            SeededSampler(3, 2).child(k)

    def test_integral_float_dimension(self):
        assert SeededSampler(3, 2.0).dim == 2

    @pytest.mark.parametrize("n", [-1, 2.5, float("nan"), float("inf"), True, "4",
                                   MAX_SAMPLES + 1, 10 ** 29])
    @pytest.mark.parametrize("draw", ["sample_amplitudes", "bloch_blocks"])
    def test_rejects_a_sample_count_that_is_not_a_nonnegative_integer(self, draw, n):
        with pytest.raises(DimensionMismatch):
            next(iter(getattr(SeededSampler(3, 2), draw)(n)))

    def test_max_samples_is_the_longest_float_array_numpy_can_size(self):
        # an estimate holds one 8-byte value per sample
        assert MAX_SAMPLES == np.iinfo(np.intp).max // 8
        with pytest.raises(ValueError, match="too big"):
            np.empty(MAX_SAMPLES + 1)

    @pytest.mark.parametrize("n", [2 ** 58, MAX_SAMPLES // 4 + 1, MAX_SAMPLES])
    def test_rejects_a_draw_of_more_floats_than_max_samples(self, n):
        # a qubit draw is 4 floats per sample: checked before anything is drawn
        sampler = SeededSampler(3, 2)
        with pytest.raises(DimensionMismatch, match="more than"):
            sampler.sample_amplitudes(n)
        np.testing.assert_array_equal(sampler.sample_amplitudes(4),
                                      SeededSampler(3, 2).sample_amplitudes(4))

    def test_largest_qubit_draw_passes_the_count_check(self, monkeypatch):
        # MAX_SAMPLES // 4 samples make MAX_SAMPLES - 3 floats; the draw itself is not made
        shapes = []

        class Rng:
            def standard_normal(self, shape):
                shapes.append(shape)
                return np.ones((1, shape[1]))

        sampler = SeededSampler(3, 2)
        monkeypatch.setattr(sampler, "_rng", Rng())
        sampler.sample_amplitudes(MAX_SAMPLES // 4)
        assert shapes == [(MAX_SAMPLES // 4, 4)]
