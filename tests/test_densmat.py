"""Density-matrix spectra, fidelities, and the purity-based bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from eigenfid import (
    DensityMatrix,
    EnergyBasis,
    PureState,
    closest_pure_state,
    effective_temperature,
    eigendecompose,
    eigenerror,
    eigenfidelity,
    eigenfidelity_bounds,
    fidelity_to_pure,
    linear_entropy,
    passive_state,
    purity,
    random_density_matrix,
    schatten_norm,
)
from eigenfid.errors import (
    DimensionMismatch,
    InvalidDimension,
    InvalidOrder,
    NonHermitianInput,
)


def _random_pure(rng, dim):
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(z / np.linalg.norm(z))


# ---------------------------------------------------------------------------
# construction

class TestConstruction:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(NonHermitianInput):
            DensityMatrix(np.eye(2) * 0.6)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NonHermitianInput):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_accepts_psd_slack_within_tolerance(self):
        rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]))
        assert rho.dim == 2

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            DensityMatrix(np.ones((2, 3)) / 6)

    def test_matrix_is_immutable(self):
        rho = DensityMatrix.maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0

    def test_pure_state_norm_checked(self):
        with pytest.raises(DimensionMismatch):
            PureState(np.array([1.0, 1.0]))

    def test_from_vector_normalizes(self):
        psi = PureState.from_vector([3.0, 4.0j])
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    @pytest.mark.parametrize("build,message", [
        (lambda: DensityMatrix(np.eye(2) * 0.6), "trace is 1.2, expected 1"),
        (lambda: PureState(np.array([2.0, 0.0])), "state norm is 2.0, expected 1"),
    ])
    def test_messages_print_plain_floats(self, build, message):
        with pytest.raises((NonHermitianInput, DimensionMismatch)) as excinfo:
            build()
        assert str(excinfo.value) == message

    def test_energy_basis_needs_increasing_levels(self):
        with pytest.raises(DimensionMismatch):
            EnergyBasis.computational([1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_rejects_non_finite_entries(self, bad, entry):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[entry] = bad
        with pytest.raises(NonHermitianInput):
            DensityMatrix(m)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_pure_state_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(DimensionMismatch):
            PureState(np.array([bad, 0.0]))

    def test_energy_basis_rejects_non_finite_basis(self):
        with pytest.raises(DimensionMismatch):
            EnergyBasis(np.array([0.0, 1.0]), np.array([[1.0, 0.0], [0.0, math.nan]]))

    @pytest.mark.parametrize("build", [PureState, PureState.from_vector])
    @pytest.mark.parametrize("amplitudes", [np.eye(2) / np.sqrt(2), np.array([[1.0], [0.0]]),
                                            np.array(1.0)])
    def test_pure_state_needs_a_vector(self, build, amplitudes):
        # flattening would turn a 2x2 matrix into a 4-level state
        with pytest.raises(DimensionMismatch):
            build(amplitudes)

    def test_energy_basis_needs_a_level_vector(self):
        with pytest.raises(DimensionMismatch):
            EnergyBasis(np.array([[0.0], [1.0]]), np.eye(2))
        with pytest.raises(DimensionMismatch):
            EnergyBasis.computational(np.array([[0.0, 1.0]]))

    @pytest.mark.parametrize("levels", [[0.0, math.inf], [-math.inf, 0.0], [0.0, math.nan]])
    def test_energy_basis_needs_finite_levels(self, levels):
        # an infinite gap made effective_temperature return inf
        with pytest.raises(DimensionMismatch):
            EnergyBasis(np.array(levels), np.eye(2))


# ---------------------------------------------------------------------------
# spectra

class TestEigendecompose:
    def test_diagonal_matrix(self):
        w, _ = eigendecompose(DensityMatrix.diagonal([0.5, 0.3, 0.2]))
        np.testing.assert_allclose(w, [0.5, 0.3, 0.2], atol=1e-14)

    def test_pure_projector(self):
        w, _ = eigendecompose(DensityMatrix.diagonal([1.0, 0.0]))
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-14)

    def test_matches_power_iteration_oracle(self, rng):
        rho = random_density_matrix(rng, 4)
        w, _ = eigendecompose(rho)
        ref, _ = oracles.power_spectrum(rho.matrix)
        np.testing.assert_allclose(w, ref, atol=1e-8)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_spectrum_invariants(self, rng, dim):
        rho = random_density_matrix(rng, dim)
        w, v = eigendecompose(rho)
        assert np.all(np.diff(w) <= 1e-15)
        assert abs(w.sum() - 1.0) < 1e-10
        assert np.abs(v.conj().T @ v - np.eye(dim)).max() < 1e-10
        assert np.abs(rho.matrix - (v * w) @ v.conj().T).max() < 1e-10

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_pair_is_the_sorted_eigh_of_the_symmetrized_matrix(self, rng, dim):
        rho = random_density_matrix(rng, dim)
        m = rho.matrix
        w_ref, v_ref = np.linalg.eigh((m + m.conj().T) / 2)
        order = np.argsort(w_ref)[::-1]
        pair = eigendecompose(rho)
        assert isinstance(pair, tuple) and len(pair) == 2
        for got, ref in zip(pair, (w_ref[order], v_ref[:, order])):
            assert not got.flags.writeable
            assert np.array_equal(got, ref)


# ---------------------------------------------------------------------------
# eigenfidelity and fidelity

class TestEigenfidelity:
    def test_pure_state_gives_one(self, rng):
        psi = _random_pure(rng, 3)
        assert abs(eigenfidelity(DensityMatrix.pure(psi)) - 1.0) < 1e-12

    def test_maximally_mixed_qubit(self):
        assert abs(eigenfidelity(DensityMatrix.maximally_mixed(2)) - 0.5) < 1e-14

    def test_diagonal_readout(self):
        rho = DensityMatrix.diagonal([0.75, 0.25])
        r, psi = closest_pure_state(rho)
        assert abs(r - 0.75) < 1e-14
        assert abs(abs(psi.amplitudes[0]) - 1.0) < 1e-12

    def test_closest_state_attains_the_value(self, rng):
        rho = random_density_matrix(rng, 5)
        r, psi = closest_pure_state(rho)
        assert abs(fidelity_to_pure(rho, psi) - r) < 1e-10

    def test_eigenerror_complements(self, rng):
        rho = random_density_matrix(rng, 3)
        assert abs(eigenerror(rho) + eigenfidelity(rho) - 1.0) < 1e-14


class TestFidelityToPure:
    def test_diagonal_example(self):
        rho = DensityMatrix.diagonal([0.75, 0.25])
        phi = PureState(np.array([1.0, 0.0]))
        assert abs(fidelity_to_pure(rho, phi) - 0.75) < 1e-14

    def test_pure_on_itself(self, rng):
        psi = _random_pure(rng, 4)
        assert abs(fidelity_to_pure(DensityMatrix.pure(psi), psi) - 1.0) < 1e-12

    def test_matches_spectral_expansion_oracle(self, rng):
        for _ in range(5):
            rho = random_density_matrix(rng, 4)
            phi = _random_pure(rng, 4)
            ref = oracles.spectral_fidelity(rho.matrix, phi.amplitudes)
            assert abs(fidelity_to_pure(rho, phi) - ref) < 1e-10

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            fidelity_to_pure(DensityMatrix.maximally_mixed(2), _random_pure(rng, 3))

    def test_never_exceeds_eigenfidelity(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            rho = random_density_matrix(rng, dim)
            r = eigenfidelity(rho)
            for _ in range(20):
                assert fidelity_to_pure(rho, _random_pure(rng, dim)) <= r + 1e-12


# ---------------------------------------------------------------------------
# norms

class TestSchattenNorm:
    def test_pure_two_norm(self, rng):
        rho = DensityMatrix.pure(_random_pure(rng, 3))
        assert abs(schatten_norm(rho, 2) - 1.0) < 1e-12

    def test_maximally_mixed_two_norm(self):
        rho = DensityMatrix.maximally_mixed(2)
        assert abs(schatten_norm(rho, 2) - 1 / math.sqrt(2)) < 1e-14

    def test_diagonal_example(self):
        rho = DensityMatrix.diagonal([0.75, 0.25])
        assert abs(schatten_norm(rho, 2) - math.sqrt(0.625)) < 1e-14

    @pytest.mark.parametrize("p", [0.0, -1.0, -math.inf, math.nan, True, False, "2", None,
                                   1j, np.bool_(True)])
    def test_invalid_order(self, p):
        with pytest.raises(InvalidOrder):
            schatten_norm(DensityMatrix.maximally_mixed(2), p)

    def test_suborder_values_allowed(self):
        # p in (0, 1) is a quasi-norm but still well defined here
        assert abs(schatten_norm(DensityMatrix.maximally_mixed(2), 0.5) - 2.0) < 1e-12

    def test_matches_spectrum_oracle(self, rng):
        rho = random_density_matrix(rng, 5)
        for p in (1.0, 2.0, 3.5):
            ref = oracles.schatten_from_spectrum(rho.matrix, p)
            assert abs(schatten_norm(rho, p) - ref) < 1e-12

    @pytest.mark.parametrize("p", [0.5, 1, 2, 3, 64, np.int64(3), np.float64(2.0)])
    def test_matches_a_40_digit_reference(self, rng, p):
        mpmath = pytest.importorskip("mpmath")
        for _ in range(50):
            rho = random_density_matrix(rng, int(rng.integers(2, 9)))
            with mpmath.workdps(40):
                w = [mpmath.mpf(float(x)) for x in np.clip(eigendecompose(rho)[0], 0, None)]
                order = mpmath.mpf(float(p))
                ref = float(mpmath.fsum([x ** order for x in w]) ** (1 / order))
            assert abs(schatten_norm(rho, p) - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("p", [1e-4, 1e-300])
    def test_a_norm_past_the_float_range_is_inf(self, p):
        # (sum (w/r)**p)**(1/p) = 2**(1/p) overflows; no warning is raised
        assert schatten_norm(DensityMatrix.diagonal([0.5, 0.5]), p) == math.inf

    @pytest.mark.parametrize("p", [0.01, 0.5, 3.0])
    def test_a_norm_in_the_float_range_keeps_its_bits(self, rng, p):
        for rho in (random_density_matrix(rng, 3), DensityMatrix.diagonal([0.75, 0.25])):
            w = np.clip(eigendecompose(rho)[0], 0.0, None)
            r = w.max()
            assert schatten_norm(rho, p) == float(r * np.sum((w / r) ** p) ** (1.0 / p))

    def test_diagonal_example_at_large_orders(self):
        # plain sum(w**p)**(1/p) gives 1.0 at p = inf and 0.0 once w**p underflows
        rho = DensityMatrix.diagonal([0.7, 0.3])
        for p in (1e3, 1e6, 1e308, math.inf):
            assert schatten_norm(rho, p) == 0.7

    @pytest.mark.parametrize("p", [1e3, 1e6, 1e308, math.inf])
    def test_norm_brackets_eigenfidelity_at_large_orders(self, rng, p):
        # Proposition 2's sandwich ||rho||_p / d^(1/p) <= r <= ||rho||_p
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            rho = random_density_matrix(rng, dim)
            r = eigenfidelity(rho)
            norm = schatten_norm(rho, p)
            assert norm / dim ** (1 / p) <= r <= norm

    @pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
    def test_norm_brackets_eigenfidelity(self, rng, p):
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            rho = random_density_matrix(rng, dim)
            r = eigenfidelity(rho)
            norm = schatten_norm(rho, p)
            assert norm / dim ** (1 / p) <= r + 1e-12
            assert r <= norm + 1e-12
            if p > 1:
                # tighter lower edge that does not need the dimension
                assert norm ** (p / (p - 1)) <= r + 1e-12

    def test_gelfand_doubling_converges_to_eigenfidelity(self, rng):
        for _ in range(20):
            rho = random_density_matrix(rng, 2)
            r = eigenfidelity(rho)
            norms = [schatten_norm(rho, p) for p in (1, 2, 4, 8, 16, 32, 64)]
            assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
            assert norms[-1] >= r - 1e-12
            assert abs(norms[-1] - r) <= 0.02

    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_norm_floor_from_dimension(self, rng, p):
        for _ in range(10):
            dim = int(rng.integers(2, 9))
            rho = random_density_matrix(rng, dim)
            assert schatten_norm(rho, p) >= dim ** (1 / p) / dim - 1e-12


# ---------------------------------------------------------------------------
# purity, bounds

class TestPurityBounds:
    def test_pure(self, rng):
        rho = DensityMatrix.pure(_random_pure(rng, 3))
        assert abs(purity(rho) - 1.0) < 1e-12
        assert abs(linear_entropy(rho)) < 1e-12
        lo, hi = eigenfidelity_bounds(rho)
        assert abs(lo - 1.0) < 1e-12 and abs(hi - 1.0) < 1e-12

    def test_maximally_mixed(self):
        rho = DensityMatrix.maximally_mixed(2)
        assert abs(purity(rho) - 0.5) < 1e-14
        lo, hi = eigenfidelity_bounds(rho)
        assert (lo, hi) == (0.5, 0.75)

    def test_diagonal_example(self):
        rho = DensityMatrix.diagonal([0.75, 0.25])
        assert abs(purity(rho) - 0.625) < 1e-14
        lo, hi = eigenfidelity_bounds(rho)
        assert abs(lo - 0.625) < 1e-14 and abs(hi - 0.8125) < 1e-14
        assert lo <= eigenfidelity(rho) <= hi

    def test_purity_equals_spectral_sum(self, rng):
        rho = random_density_matrix(rng, 6)
        w, _ = eigendecompose(rho)
        assert abs(purity(rho) - float(np.sum(w**2))) < 1e-12

    def test_brackets_hold_on_random_states(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            rho = random_density_matrix(rng, dim)
            r = eigenfidelity(rho)
            g = purity(rho)
            assert g - 1e-12 <= r <= (1 + g) / 2 + 1e-12
            s = linear_entropy(rho)
            assert s / 2 - 1e-12 <= 1 - r <= s + 1e-12


# ---------------------------------------------------------------------------
# energetics

class TestPassiveState:
    def test_reorders_populations(self):
        basis = EnergyBasis.computational([0.0, 1.0])
        rho = DensityMatrix.diagonal([0.3, 0.7])
        out = passive_state(rho, basis)
        np.testing.assert_allclose(out.matrix, np.diag([0.7, 0.3]), atol=1e-14)

    def test_pure_state_falls_to_lowest_level(self, rng):
        basis = EnergyBasis.computational([0.0, 0.5, 2.0])
        out = passive_state(DensityMatrix.pure(_random_pure(rng, 3)), basis)
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0, 0.0]), atol=1e-10)

    def test_descending_spectrum_in_generic_basis(self, rng):
        u = oracles.random_unitary(rng, 3)
        basis = EnergyBasis(np.array([0.0, 1.0, 3.0]), u)
        rho = random_density_matrix(rng, 3)
        out = passive_state(rho, basis)
        # diagonal in the energy basis, populations descending with energy
        pops = u.conj().T @ out.matrix @ u
        off = pops - np.diag(np.diag(pops))
        assert np.abs(off).max() < 1e-10
        diag = np.real(np.diag(pops))
        assert np.all(np.diff(diag) <= 1e-12)
        ref, _ = oracles.power_spectrum(rho.matrix)
        np.testing.assert_allclose(diag, ref, atol=1e-8)

    def test_eigenfidelity_invariant(self, rng):
        basis = EnergyBasis.computational([0.0, 1.0, 2.0, 5.0])
        rho = random_density_matrix(rng, 4)
        assert abs(eigenfidelity(passive_state(rho, basis)) - eigenfidelity(rho)) < 1e-12

    def test_psd_slack_is_clamped_and_renormalized(self):
        # accepted at construction, so its passive state is a state too
        rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]))
        out = passive_state(rho, EnergyBasis.computational([0.0, 1.0]))
        np.testing.assert_array_equal(out.matrix, np.diag([1.0, 0.0]))
        assert schatten_norm(rho, 1) == 1.0

    def test_basis_slack_is_projected_onto_unit_trace(self):
        # columns of norm 1 + 2.5e-11 pass the orthonormality check (ORTHO_TOL)
        # but rebuild a trace that misses 1 by more than TRACE_TOL
        basis = EnergyBasis(np.array([0.0, 1.0]), np.eye(2) * np.sqrt(1 + 5e-11))
        out = passive_state(DensityMatrix.maximally_mixed(2), basis)
        assert abs(np.trace(out.matrix).real - 1.0) <= 1e-15
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, rtol=0, atol=1e-15)

    def test_an_unclamped_spectrum_keeps_its_bits(self, rng):
        # the rearrangement as written before clamped spectra were renormalized
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            rho = random_density_matrix(rng, dim)
            basis = EnergyBasis(np.arange(dim, dtype=float), oracles.random_unitary(rng, dim))
            w, _ = eigendecompose(rho)
            assert w[-1] >= 0
            b = basis.basis
            expected = (b * np.clip(w, 0.0, None)) @ b.conj().T
            assert passive_state(rho, basis).matrix.tobytes() == expected.tobytes()

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            passive_state(random_density_matrix(rng, 3), EnergyBasis.computational([0.0, 1.0]))


class TestEffectiveTemperature:
    BASIS = EnergyBasis.computational([0.0, 1.0])

    def test_pure_state_is_cold(self):
        assert effective_temperature(DensityMatrix.diagonal([1.0, 0.0]), self.BASIS) == 0.0

    def test_maximally_mixed_is_infinitely_hot(self):
        assert effective_temperature(DensityMatrix.maximally_mixed(2), self.BASIS) == math.inf

    def test_unit_temperature_point(self):
        r = 1.0 / (1.0 + math.exp(-1.0))
        rho = DensityMatrix.diagonal([r, 1.0 - r])
        assert abs(effective_temperature(rho, self.BASIS) - 1.0) < 1e-12

    def test_gap_scales_temperature(self):
        r = 1.0 / (1.0 + math.exp(-1.0))
        rho = DensityMatrix.diagonal([r, 1.0 - r])
        wide = EnergyBasis.computational([0.0, 3.0])
        assert abs(effective_temperature(rho, wide) - 3.0) < 1e-12

    def test_requires_qubit(self, rng):
        with pytest.raises(InvalidDimension):
            effective_temperature(random_density_matrix(rng, 3),
                                  EnergyBasis.computational([0.0, 1.0, 2.0]))
        with pytest.raises(InvalidDimension):
            effective_temperature(DensityMatrix.maximally_mixed(2),
                                  EnergyBasis.computational([0.0, 1.0, 2.0]))


# ---------------------------------------------------------------------------
# property tests

@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8))
def test_eigenfidelity_of_diagonal_states_is_max_population(pops):
    p = np.array(pops) / sum(pops)
    rho = DensityMatrix.diagonal(p)
    assert abs(eigenfidelity(rho) - p.max()) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_qubit_purity_bracket_on_bloch_ball(x, y, z):
    n = np.array([x, y, z])
    if np.linalg.norm(n) > 1.0:
        n = n / (np.linalg.norm(n) + 1e-9)
    rho = DensityMatrix(0.5 * (np.eye(2) + n[0] * oracles.SX + n[1] * oracles.SY
                               + n[2] * oracles.SZ))
    r = eigenfidelity(rho)
    g = purity(rho)
    assert g - 1e-10 <= r <= (1 + g) / 2 + 1e-10
