import math

import numpy as np
import pytest

import helpers
from entqkd import (MAXIMALLY_MIXED, QkdMetrics, bell_state, binary_entropy,
                    chsh_max, correlation_analysis, devetak_winter, devetak_winter_raw,
                    evaluate_state, ket_to_dm, key_rate, metrics, qber_min,
                    s_q_from_kappa, werner_mix)
from entqkd.metrics import TSIRELSON
from entqkd.states import POLARIZATION_KETS


class TestBinaryEntropy:
    def test_endpoints_and_midpoint(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_spot_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.499916, abs=1e-6)

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            binary_entropy(bad)


class TestChshMax:
    def test_bell_state_reaches_tsirelson(self):
        assert chsh_max(bell_state("phi+")) == pytest.approx(TSIRELSON, abs=1e-12)

    def test_product_state_reaches_classical_bound(self):
        hh = ket_to_dm(np.kron(POLARIZATION_KETS["H"], POLARIZATION_KETS["H"]))
        assert chsh_max(hh) == pytest.approx(2.0, abs=1e-12)

    def test_werner_value_cross_checked_by_search(self):
        rho = werner_mix(bell_state("phi+"), 0.1)
        assert chsh_max(rho) == pytest.approx(2.545584, abs=1e-6)
        assert chsh_max(rho) == pytest.approx(helpers.chsh_max_brute(rho), abs=1e-6)

    def test_matches_exhaustive_search_on_random_states(self, rng):
        for _ in range(25):
            rho = helpers.random_density_matrix(rng, rank=int(rng.integers(1, 5)))
            assert chsh_max(rho) == pytest.approx(helpers.chsh_max_brute(rho), abs=1e-3)


class TestQberMin:
    def test_extremes(self):
        assert qber_min(bell_state("psi-")) == pytest.approx(0.0, abs=1e-9)
        assert qber_min(np.asarray(MAXIMALLY_MIXED)) == pytest.approx(0.5, abs=1e-12)

    def test_werner_family_closed_form(self):
        for kappa in np.linspace(0.0, 1.0, 9):
            rho = werner_mix(bell_state("phi+"), kappa)
            s, q = s_q_from_kappa(kappa)
            assert chsh_max(rho) == pytest.approx(s, abs=1e-10)
            assert qber_min(rho) == pytest.approx(q, abs=1e-10)

    def test_matches_exhaustive_search_on_random_states(self, rng):
        for _ in range(25):
            rho = helpers.random_density_matrix(rng, rank=int(rng.integers(1, 5)))
            assert qber_min(rho) == pytest.approx(helpers.qber_min_brute(rho), abs=1e-3)


class TestPureStateRoundoff:
    def test_rotated_phi_plus_never_raises(self, rng):
        # roundoff once put the largest correlation eigenvalue of a pure
        # state above 1, so qber_min returned -1e-16 and devetak_winter raised
        phi = bell_state("phi+")
        for _ in range(2000):
            local = np.kron(helpers.random_single_qubit_unitary(rng),
                            helpers.random_single_qubit_unitary(rng))
            qkd = QkdMetrics.from_state(local @ phi @ local.conj().T, 1e-3)
            assert 0.0 <= qkd.q <= 1e-7
            assert qkd.s == pytest.approx(TSIRELSON, abs=1e-7)
            assert qkd.r_dw == pytest.approx(1.0, abs=1e-5)


class TestEvaluateStack:
    """The stack evaluator behind ``evaluate_state`` and the fitted stacks of tomography."""

    @staticmethod
    def random_states(rng, count):
        return [helpers.random_density_matrix(rng, rank=int(rng.integers(1, 5)))
                for _ in range(count)]

    @pytest.mark.parametrize("count", [0, 1, 300])
    def test_rows_equal_single_evaluations(self, rng, count):
        # a single (B, 32) @ (32, 16) product would differ from the single states
        # by roundoff at a few hundred rows; the stacked matrix-vector product does not
        rhos = self.random_states(rng, count)
        got = np.column_stack(metrics._evaluate_stack(np.array(rhos).reshape(count, 4, 4)))
        want = np.array([evaluate_state(rho) for rho in rhos]).reshape(count, 3)
        assert got.shape == (count, 3) and np.array_equal(got, want)

    def test_single_state_uses_the_bases_eigenvalues(self, rng):
        # the figures come from the eigenvalues that correlation_analysis gives the
        # bases, also where eigenvalues tie and the eigenvector order is arbitrary
        hh = ket_to_dm(np.kron(POLARIZATION_KETS["H"], POLARIZATION_KETS["H"]))
        mixed_product = np.kron(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]),
                                np.array([[0.6, 0.1j], [-0.1j, 0.4]]))
        ties = [bell_state(kind) for kind in ("phi+", "phi-", "psi+", "psi-")]
        ties += [np.asarray(MAXIMALLY_MIXED), hh, mixed_product]
        ties += [werner_mix(bell_state("phi+"), kappa) for kappa in (0.0, 0.25, 0.5, 1.0)]
        for rho in ties + self.random_states(rng, 200):
            lam = correlation_analysis(rho).eigenvalues
            s = min(2.0 * math.sqrt(lam[0] + lam[1]), TSIRELSON)
            q = (1.0 - math.sqrt(lam[0])) / 2.0
            assert evaluate_state(rho) == (s, q, devetak_winter(s, q))

    def test_single_state_is_validated(self):
        with pytest.raises(ValueError, match="rho is not Hermitian"):
            evaluate_state(np.triu(np.ones((4, 4))) / 4.0)
        with pytest.raises(ValueError, match=r"rho must be a 4x4 matrix, got shape \(1, 4, 4\)"):
            evaluate_state(np.asarray(MAXIMALLY_MIXED)[None])


class TestDevetakWinter:
    def test_perfect_state(self):
        assert devetak_winter(TSIRELSON, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_reference_rows(self):
        assert devetak_winter(2.815, 0.0013) == pytest.approx(0.94, abs=0.005)
        assert devetak_winter(2.60, 0.033) == pytest.approx(0.37, abs=0.005)

    def test_no_violation_no_key(self):
        assert devetak_winter(2.0, 0.01) == 0.0
        assert devetak_winter(1.5, 0.0) == 0.0

    def test_clamped_at_zero(self):
        assert devetak_winter(2.35, 0.080) == 0.0
        assert devetak_winter_raw(2.35, 0.080) < 0.0

    def test_rejects_above_tsirelson(self):
        with pytest.raises(ValueError):
            devetak_winter(TSIRELSON + 1e-6, 0.0)
        # numerical noise just above the bound is clipped instead
        assert devetak_winter(TSIRELSON + 1e-10, 0.0) == pytest.approx(1.0, abs=1e-7)

    def test_rejects_bad_qber(self):
        with pytest.raises(ValueError):
            devetak_winter(2.5, 0.6)

    def test_monotone_in_s_and_q(self):
        s_grid = np.linspace(2.01, TSIRELSON, 40)
        q_grid = np.linspace(0.0, 0.12, 40)
        for q in (0.0, 0.02, 0.05):
            vals = [devetak_winter(s, q) for s in s_grid]
            assert np.all(np.diff(vals) >= -1e-12)
        for s in (2.4, 2.6, 2.8):
            vals = [devetak_winter(s, q) for q in q_grid]
            assert np.all(np.diff(vals) <= 1e-12)


class TestKeyRate:
    def test_trivials(self):
        assert key_rate(1.0, 0.0) == 0.0
        assert key_rate(0.0, 1.0) == 0.0

    def test_reference_products(self):
        assert key_rate(0.94, 8.66e-6) == pytest.approx(8.2e-6, abs=2.5e-7)
        assert key_rate(0.15, 2.814e-3) == pytest.approx(4.2e-4, abs=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            key_rate(1.2, 0.1)
        with pytest.raises(ValueError):
            key_rate(0.5, -0.1)


class TestSQFromKappa:
    def test_endpoints(self):
        assert s_q_from_kappa(0.0) == pytest.approx((TSIRELSON, 0.0))
        assert s_q_from_kappa(1.0) == pytest.approx((0.0, 0.5))

    def test_critical_noise_weight(self):
        # at the critical mixing weight the unclamped rate crosses zero
        s, q = s_q_from_kappa(0.142985)
        assert s == pytest.approx(2.424004, abs=1e-5)
        assert q == pytest.approx(0.0714925, abs=1e-7)
        assert abs(devetak_winter_raw(s, q)) < 1e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            s_q_from_kappa(-0.1)
        with pytest.raises(ValueError):
            s_q_from_kappa(1.0001)


class TestQkdMetrics:
    def test_product_invariant_enforced(self):
        with pytest.raises(ValueError, match="r_key"):
            QkdMetrics(s=2.5, q=0.01, r_dw=0.5, r_c=1e-3, r_key=1e-3)

    def test_classical_bound_invariant_enforced(self):
        with pytest.raises(ValueError, match="S <= 2"):
            QkdMetrics(s=1.9, q=0.02, r_dw=0.3, r_c=1e-3, r_key=0.3e-3)

    def test_from_state_and_json(self):
        qkd = QkdMetrics.from_state(bell_state("phi+"), 1e-3)
        assert qkd.s == pytest.approx(TSIRELSON, abs=1e-9)
        assert qkd.r_dw == pytest.approx(1.0, abs=1e-9)
        payload = qkd.to_json_dict()
        assert set(payload) == {"S", "Q", "r_dw", "r_c", "R_key"}
        assert payload["R_key"] == pytest.approx(1e-3, rel=1e-9)

    def test_isotropic_state_has_zero_rate(self):
        qkd = QkdMetrics.from_state(np.asarray(MAXIMALLY_MIXED), 1e-3)
        assert qkd.r_dw == 0.0
        assert qkd.r_key == 0.0
