import math

import numpy as np
import pytest

import helpers
from entqkd import (MAXIMALLY_MIXED, NoSignalError, basis_report, bases, bell_state,
                    chsh_max, correlation_analysis, ket_to_dm, optimal_bases, qber_min,
                    states, verify_bases, waveplate_angles)
from entqkd.bases import BasisSet, WaveplateSetting
from entqkd.metrics import TSIRELSON
from entqkd.states import POLARIZATION_KETS, werner_mix


class TestOptimalBases:
    def test_bell_state_saturates_both(self):
        for ordering in ("alice_first", "bob_first"):
            bs = optimal_bases(bell_state("phi+"), ordering)
            s, q = verify_bases(bell_state("phi+"), bs)
            assert s == pytest.approx(TSIRELSON, abs=1e-9)
            assert q == pytest.approx(0.0, abs=1e-9)

    def test_random_states_match_eigen_formulas(self, rng):
        for _ in range(40):
            rho = helpers.random_density_matrix(rng, rank=int(rng.integers(1, 5)))
            for ordering in ("alice_first", "bob_first"):
                bs = optimal_bases(rho, ordering)
                s, q = verify_bases(rho, bs)
                assert s == pytest.approx(chsh_max(rho), abs=1e-9)
                assert q == pytest.approx(qber_min(rho), abs=1e-9)

    @pytest.mark.parametrize("ordering", ["alice_first", "bob_first"])
    def test_degenerate_second_eigenvalue(self, ordering):
        hh = ket_to_dm(np.kron(POLARIZATION_KETS["H"], POLARIZATION_KETS["H"]))
        bs = optimal_bases(hh, ordering)
        assert np.allclose(bs.a1, bs.a0, atol=1e-12)
        assert np.allclose(bs.a2, bs.a0, atol=1e-12)
        if ordering == "bob_first":
            assert np.array_equal(bs.b2, bs.b1)
        s, _ = verify_bases(hh, bs)
        assert s == pytest.approx(2.0, abs=1e-9)

    def test_no_signal(self):
        with pytest.raises(NoSignalError):
            optimal_bases(np.asarray(MAXIMALLY_MIXED), "alice_first")

    def test_bad_ordering(self):
        with pytest.raises(ValueError):
            optimal_bases(bell_state("phi+"), "bob")


class TestVerifyBases:
    def test_textbook_configuration(self):
        z = np.array([0.0, 0.0, 1.0])
        x = np.array([1.0, 0.0, 0.0])
        bs = BasisSet(a0=z, a1=(x + z) / math.sqrt(2), a2=(z - x) / math.sqrt(2),
                      b1=z, b2=x, ordering="alice_first")
        s, q = verify_bases(bell_state("phi+"), bs)
        assert s == pytest.approx(TSIRELSON, abs=1e-12)
        assert q == pytest.approx(0.0, abs=1e-12)

    def test_equal_bob_bases_bounded_for_product_state(self):
        hh = ket_to_dm(np.kron(POLARIZATION_KETS["H"], POLARIZATION_KETS["H"]))
        z = np.array([0.0, 0.0, 1.0])
        bs = BasisSet(a0=z, a1=z, a2=z, b1=z, b2=z, ordering="alice_first")
        s, _ = verify_bases(hh, bs)
        assert abs(s) <= 2.0 + 1e-12

    def test_uncorrelated_key_directions(self):
        z = np.array([0.0, 0.0, 1.0])
        x = np.array([1.0, 0.0, 0.0])
        bs = BasisSet(a0=x, a1=z, a2=x, b1=z, b2=x, ordering="alice_first")
        _, q = verify_bases(bell_state("phi+"), bs)
        assert q == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_rotation_freedom_for_bell_states(self):
        # any rotation of (b1, b2) inside the leading eigenplane, with the
        # matched image directions for the other side, keeps S at 2 sqrt(2)
        rho = bell_state("phi+")
        analysis = correlation_analysis(rho)
        tensor = analysis.tensor
        e1, e2 = analysis.eigenvectors[:, 0], analysis.eigenvectors[:, 1]
        for phi in np.linspace(0.0, 2.0 * np.pi, 9):
            c1 = math.cos(phi) * e1 + math.sin(phi) * e2
            c2 = math.sin(phi) * e1 - math.cos(phi) * e2
            theta = math.pi / 4.0
            b1 = math.cos(theta) * c1 + math.sin(theta) * c2
            b2 = math.cos(theta) * c1 - math.sin(theta) * c2
            a1 = tensor @ c1 / np.linalg.norm(tensor @ c1)
            a2 = tensor @ c2 / np.linalg.norm(tensor @ c2)
            bs = BasisSet(a0=a1, a1=a1, a2=a2, b1=b1, b2=b2, ordering="alice_first")
            s, _ = verify_bases(rho, bs)
            assert s == pytest.approx(TSIRELSON, abs=1e-9)

    @pytest.mark.parametrize("ordering", ["alice_first", "bob_first"])
    def test_reads_only_the_correlation_tensor(self, ordering, monkeypatch):
        # the check must not lean on the eigensystem that produced the bases
        rho = werner_mix(bell_state("psi-"), 0.2)
        bs = optimal_bases(rho, ordering)
        want = verify_bases(rho, bs)

        def refuse(*args, **kwargs):
            raise AssertionError("verify_bases diagonalized T^T T")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(states, "correlation_analysis", refuse)
        monkeypatch.setattr(bases, "correlation_analysis", refuse)
        assert verify_bases(rho, bs) == want

    @pytest.mark.parametrize("ordering", ["alice_first", "bob_first"])
    def test_contracts_the_direct_tensor(self, ordering, rng):
        for _ in range(60):
            rho = helpers.random_density_matrix(rng, rank=int(rng.integers(1, 5)))
            a0, a1, a2, b1, b2 = (helpers.random_unit_vector(rng) for _ in range(5))
            bs = BasisSet(a0=a0, a1=a1, a2=a2, b1=b1, b2=b2, ordering=ordering)
            tensor = helpers.correlation_tensor_direct(rho)
            corr = tensor if ordering == "alice_first" else tensor.T
            s_want = a1 @ corr @ (b1 + b2) + a2 @ corr @ (b1 - b2)
            q_want = (1.0 - a0 @ corr @ b1) / 2.0
            s, q = verify_bases(rho, bs)
            assert abs(s - s_want) <= 1e-12 and abs(q - q_want) <= 1e-12

    def test_refuses_a_state_that_is_not_hermitian(self):
        bs = optimal_bases(bell_state("phi+"))
        with pytest.raises(ValueError, match="rho is not Hermitian"):
            verify_bases(np.triu(np.ones((4, 4))) / 4.0, bs)


class TestWaveplateAngles:
    @pytest.mark.parametrize("x,expected_q,expected_h", [
        ((0, 0, 1), 0.0, 0.0),                      # H/V basis
        ((1, 0, 0), 0.0, math.pi / 8),              # D/A basis, HWP at 22.5 deg
        ((0, 1, 0), math.pi / 4, math.pi / 8),      # R/L basis
        ((0, 0, -1), 0.0, math.pi / 4),
        ((-1, 0, 0), 0.0, -math.pi / 8),
        ((0, -1, 0), -math.pi / 4, -math.pi / 8),
    ])
    def test_canonical_directions(self, x, expected_q, expected_h):
        setting = waveplate_angles(np.array(x, dtype=float))
        assert setting.theta_q == pytest.approx(expected_q, abs=1e-12)
        assert setting.theta_h == pytest.approx(expected_h, abs=1e-12)

    def test_jones_oracle_on_random_directions(self, rng):
        for _ in range(120):
            x = helpers.random_unit_vector(rng)
            setting = waveplate_angles(x)
            realized = helpers.analyzer_projector(setting.theta_q, setting.theta_h)
            target = helpers.bloch_projector_direct(x)
            assert np.max(np.abs(realized - target)) < 1e-9

    def test_canonical_ranges(self, rng):
        for _ in range(60):
            setting = waveplate_angles(helpers.random_unit_vector(rng))
            assert -math.pi / 2 < setting.theta_q <= math.pi / 2
            assert -math.pi / 4 < setting.theta_h <= math.pi / 4

    def test_roundoff_above_the_range_end_is_the_end(self):
        # near V the half-wave dial came out one ulp above pi/4, which the
        # setting's own range check refused
        x = np.array([1e-6, 1e-6, -1.0])
        x /= np.linalg.norm(x)
        setting = waveplate_angles(x)
        assert setting.theta_h == math.pi / 4
        realized = helpers.analyzer_projector(setting.theta_q, setting.theta_h)
        assert np.max(np.abs(realized - helpers.bloch_projector_direct(x))) < 1e-9

    def test_periodicity_equivalence(self):
        # dial settings shifted by the plate periods realize the same projector
        setting = waveplate_angles(np.array([0.6, -0.48, 0.64]) / 1.0)
        shifted = helpers.analyzer_projector(setting.theta_q + math.pi,
                                             setting.theta_h + math.pi / 2)
        original = helpers.analyzer_projector(setting.theta_q, setting.theta_h)
        assert np.max(np.abs(shifted - original)) < 1e-12

    def test_rejects_non_unit_vector(self):
        with pytest.raises(ValueError):
            waveplate_angles(np.array([0.5, 0.5, 0.5]))

    def test_setting_range_guard(self):
        with pytest.raises(ValueError):
            WaveplateSetting(theta_q=2.0, theta_h=0.0)


class TestBasisReport:
    @pytest.mark.parametrize("ordering", ["alice_first", "bob_first"])
    def test_no_signal(self, ordering):
        # I/4 and a product state with one polarized arm both have T = 0
        h_mixed = np.kron(ket_to_dm(POLARIZATION_KETS["H"]), np.eye(2) / 2.0)
        for rho in (MAXIMALLY_MIXED, h_mixed):
            assert basis_report(rho, ordering) is None

    @pytest.mark.parametrize("ordering", ["alice_first", "bob_first"])
    def test_block_follows_the_bases(self, ordering):
        rho = bell_state("psi-") * 0.9 + MAXIMALLY_MIXED * 0.1
        block = basis_report(rho, ordering)
        bs = optimal_bases(rho, ordering)
        assert block["ordering"] == ordering
        assert (block["achieved_S"], block["achieved_Q"]) == verify_bases(rho, bs)
        assert [row["label"] for row in block["settings"]] == ["A0", "A1", "A2", "B1", "B2"]
        for row, (_, vec) in zip(block["settings"], bs.labeled()):
            dials = waveplate_angles(vec)
            assert row["bloch"] == [float(v) for v in vec]
            assert row["theta_h_deg"] == round(math.degrees(dials.theta_h), 4)
            assert row["theta_q_deg"] == round(math.degrees(dials.theta_q), 4)
