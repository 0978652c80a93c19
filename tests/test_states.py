import numpy as np
import pytest

import helpers
from entqkd import (BELL_LABELS, MAXIMALLY_MIXED, bell_state, bloch_projector,
                    bloch_to_ket, concurrence, correlation_analysis, fidelity,
                    ket_to_dm, partial_trace, pauli, validate_density_matrix,
                    werner_mix)
from entqkd.states import POLARIZATION_BLOCH, POLARIZATION_KETS


class TestPauli:
    def test_sigma_z_definition(self):
        assert np.allclose(pauli(3), np.diag([1, -1]))

    def test_involution_and_tracelessness(self):
        for i in (1, 2, 3):
            assert np.allclose(pauli(i) @ pauli(i), np.eye(2))
            assert abs(np.trace(pauli(i))) == 0
            assert np.allclose(pauli(i), pauli(i).conj().T)

    @pytest.mark.parametrize("bad", [0, 4, -1, "x"])
    def test_invalid_index(self, bad):
        with pytest.raises(ValueError):
            pauli(bad)


class TestPolarizationStates:
    def test_kets_are_pauli_eigenvectors(self):
        # H/V, D/A, R/L are the +-1 eigenvectors of sigma_z, sigma_x, sigma_y
        for label, ket in POLARIZATION_KETS.items():
            x = POLARIZATION_BLOCH[label]
            op = helpers.bloch_operator(x)
            assert np.allclose(op @ ket, ket, atol=1e-12), label

    def test_bloch_to_ket_round_trip(self, rng):
        for _ in range(50):
            x = helpers.random_unit_vector(rng)
            ket = bloch_to_ket(x)
            assert np.allclose(ket_to_dm(ket), bloch_projector(x), atol=1e-12)


class TestBellStates:
    @pytest.mark.parametrize("kind", BELL_LABELS)
    def test_maximally_entangled(self, kind):
        rho = bell_state(kind)
        validate_density_matrix(rho)
        for side in ("A", "B"):
            assert np.allclose(partial_trace(rho, side), np.eye(2) / 2, atol=1e-12)
        assert concurrence(rho) == pytest.approx(1.0, abs=1e-9)

    def test_pure_rank_one(self):
        vals = np.linalg.eigvalsh(bell_state("psi-"))
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            bell_state("sigma+")


class TestWernerMix:
    def test_kappa_zero_is_identity_map(self):
        rho = bell_state("phi+")
        assert np.allclose(werner_mix(rho, 0.0), rho)

    def test_kappa_one_is_maximally_mixed(self):
        assert np.allclose(werner_mix(bell_state("phi+"), 1.0), np.eye(4) / 4)

    def test_invariants_hold_along_the_family(self):
        for kappa in np.linspace(0, 1, 11):
            validate_density_matrix(werner_mix(bell_state("psi+"), kappa))

    @pytest.mark.parametrize("bad", [-0.01, 1.01])
    def test_kappa_range(self, bad):
        with pytest.raises(ValueError):
            werner_mix(bell_state("phi+"), bad)


class TestPartialTrace:
    def test_product_state(self):
        hv = ket_to_dm(np.kron(POLARIZATION_KETS["H"], POLARIZATION_KETS["V"]))
        assert np.allclose(partial_trace(hv, "A"), ket_to_dm(POLARIZATION_KETS["H"]), atol=1e-12)
        assert np.allclose(partial_trace(hv, "B"), ket_to_dm(POLARIZATION_KETS["V"]), atol=1e-12)

    def test_werner_marginals_maximally_mixed(self):
        for kappa in (0.0, 0.3, 0.7, 1.0):
            rho = werner_mix(bell_state("phi+"), kappa)
            for side in ("A", "B"):
                assert np.allclose(partial_trace(rho, side), np.eye(2) / 2, atol=1e-12)

    def test_consistency_with_joint_expectations(self, rng):
        # Tr[rho (P x I)] must equal Tr[rho_A P] for any projector P
        for _ in range(20):
            rho = helpers.random_density_matrix(rng)
            proj = helpers.bloch_projector_direct(helpers.random_unit_vector(rng))
            joint = np.trace(rho @ np.kron(proj, np.eye(2))).real
            reduced = np.trace(partial_trace(rho, "A") @ proj).real
            assert joint == pytest.approx(reduced, abs=1e-12)

    def test_bad_keep(self):
        with pytest.raises(ValueError):
            partial_trace(bell_state("phi+"), "C")


class TestCorrelationAnalysis:
    def test_phi_plus_tensor(self):
        res = correlation_analysis(bell_state("phi+"))
        assert np.allclose(res.tensor, np.diag([1.0, -1.0, 1.0]), atol=1e-12)
        assert np.allclose(res.eigenvalues, [1.0, 1.0, 1.0], atol=1e-10)

    def test_maximally_mixed(self):
        res = correlation_analysis(np.asarray(MAXIMALLY_MIXED))
        assert np.allclose(res.tensor, 0.0, atol=1e-12)
        assert np.allclose(res.eigenvalues, 0.0, atol=1e-12)

    def test_product_state_spectrum(self):
        hh = ket_to_dm(np.kron(POLARIZATION_KETS["H"], POLARIZATION_KETS["H"]))
        res = correlation_analysis(hh)
        assert res.tensor[2, 2] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(res.eigenvalues, [1.0, 0.0, 0.0], atol=1e-10)

    def test_structure_on_random_states(self, rng):
        for _ in range(30):
            rho = helpers.random_density_matrix(rng, rank=int(rng.integers(1, 5)))
            res = correlation_analysis(rho)
            assert np.max(np.abs(res.tensor)) <= 1.0 + 1e-10
            assert np.allclose(res.matrix_u, res.tensor.T @ res.tensor, atol=1e-12)
            assert np.all(np.diff(res.eigenvalues) <= 1e-12)
            recomposed = np.zeros((3, 3))
            for k in range(3):
                vec = res.eigenvectors[:, k]
                residual = res.matrix_u @ vec - res.eigenvalues[k] * vec
                assert np.max(np.abs(residual)) < 1e-10
                recomposed += res.eigenvalues[k] * np.outer(vec, vec)
            assert np.max(np.abs(recomposed - res.matrix_u)) < 1e-9
            assert np.allclose(res.eigenvectors.T @ res.eigenvectors, np.eye(3), atol=1e-10)

    def test_tensor_matches_kron_traces(self, rng):
        for rank in (1, 2, 3, 4):
            for _ in range(10):
                rho = helpers.random_density_matrix(rng, rank=rank)
                tensor = correlation_analysis(rho).tensor
                assert np.max(np.abs(tensor - helpers.correlation_tensor_direct(rho))) <= 1e-14

    @pytest.mark.parametrize("layout", ["strided", "transposed", "real"])
    def test_tensor_of_non_contiguous_and_real_inputs(self, rng, layout):
        rho = helpers.random_density_matrix(rng)
        if layout == "strided":
            arg = np.zeros(32, dtype=complex)[::2].reshape(4, 4)
            arg[...] = rho
        elif layout == "transposed":
            arg = rho.T
        else:
            g = rng.normal(size=(4, 4))
            arg = g @ g.T / np.trace(g @ g.T)
        assert not (arg.flags.c_contiguous and arg.dtype == complex)
        tensor = correlation_analysis(arg).tensor
        assert np.max(np.abs(tensor - helpers.correlation_tensor_direct(arg))) <= 1e-14

    def test_sign_convention(self, rng):
        for _ in range(20):
            rho = helpers.random_density_matrix(rng)
            vecs = correlation_analysis(rho).eigenvectors
            for k in range(3):
                col = vecs[:, k]
                first = next(c for c in col if abs(c) > 1e-12)
                assert first > 0


class TestConcurrence:
    def test_werner_closed_form(self):
        # spin-flip result for the Bell/white-noise family: max(0, (2 - 3k)/2)
        for kappa in (0.0, 1.0 / 3.0, 0.5, 0.8):
            expected = max(0.0, (2.0 - 3.0 * kappa) / 2.0)
            got = concurrence(werner_mix(bell_state("phi+"), kappa))
            assert got == pytest.approx(expected, abs=1e-10)

    def test_maximally_mixed_is_separable(self):
        assert concurrence(np.asarray(MAXIMALLY_MIXED)) == 0.0

    def test_local_unitary_invariance(self, rng):
        for _ in range(10):
            rho = helpers.random_density_matrix(rng)
            u = np.kron(helpers.random_single_qubit_unitary(rng),
                        helpers.random_single_qubit_unitary(rng))
            rotated = u @ rho @ u.conj().T
            rotated = (rotated + rotated.conj().T) / 2
            assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-9)


class TestFidelity:
    def test_self_fidelity(self, rng):
        rho = helpers.random_density_matrix(rng)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_pure_states(self):
        hh = ket_to_dm(np.kron(POLARIZATION_KETS["H"], POLARIZATION_KETS["H"]))
        vv = ket_to_dm(np.kron(POLARIZATION_KETS["V"], POLARIZATION_KETS["V"]))
        assert fidelity(hh, vv) == pytest.approx(0.0, abs=1e-9)

    def test_square_root_convention_pinned(self):
        # unsquared Uhlmann fidelity: F(Bell, I/4) = sqrt(1/4) = 0.5
        got = fidelity(bell_state("phi+"), np.asarray(MAXIMALLY_MIXED))
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_symmetry(self, rng):
        a = helpers.random_density_matrix(rng)
        b = helpers.random_density_matrix(rng)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)


class TestValidation:
    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            validate_density_matrix(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            validate_density_matrix(np.eye(4, dtype=complex))

    def test_rejects_negative_spectrum(self):
        bad = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            validate_density_matrix(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite_entries(self, value, where):
        # off the diagonal the entry and its mirror are set, so the matrix is Hermitian in form
        bad = np.eye(4, dtype=complex) / 4
        bad[where] = bad[where[::-1]] = value
        with pytest.raises(ValueError, match="rho_x has non-finite entries"):
            validate_density_matrix(bad, name="rho_x")

    def test_accepts_tiny_negative_eigenvalue(self):
        eps = 5e-11
        ok = np.diag([0.5 + eps, 0.5, 0.0, -eps]).astype(complex)
        validate_density_matrix(ok)
