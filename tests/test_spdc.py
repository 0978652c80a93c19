import math

import numpy as np
import pytest

import helpers
from entqkd import (SourceParams, TomographySettings, bell_state, chsh_max,
                    click_probabilities, coincidence_probability,
                    coincidence_rate_exact, effective_state, fidelity,
                    kappa_approx, kappa_exact, model_curve,
                    synthesize_frequencies, werner_mix)
from entqkd.states import POLARIZATION_BLOCH

H = POLARIZATION_BLOCH["H"]
V = POLARIZATION_BLOCH["V"]


def kappa_printed_form(n, ea, eb):
    """The closed form exactly as displayed, before algebraic stabilization."""
    a, b, c = ea * n / 2, eb * n / 2, ea * eb * n / 2
    num = 2 * (math.exp(a) - 1) * (math.exp(b) - 1)
    den = 1 - 2 * math.exp(a) - 2 * math.exp(b) + math.exp(c) + 2 * math.exp(a + b)
    return num / den


class TestSourceParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SourceParams(n_bar=-0.1, eta_a=1, eta_b=1)
        with pytest.raises(ValueError):
            SourceParams(n_bar=0.1, eta_a=1.2, eta_b=1)


class TestClickProbabilities:
    def test_bell_parallel_projection_lossless(self):
        cp = click_probabilities(bell_state("phi+"), H, H, SourceParams(0.1, 1.0, 1.0))
        assert tuple(cp) == pytest.approx((0.5, 0, 0, 0.5), abs=1e-12)

    def test_everything_lost(self):
        cp = click_probabilities(bell_state("phi+"), H, V, SourceParams(0.1, 0.0, 0.0))
        assert tuple(cp) == pytest.approx((0, 0, 0, 1), abs=1e-12)

    def test_asymmetric_loss_crossed_projection(self):
        # evaluated from the four click-pattern formulas directly: the lossy
        # Bob arm turns half of the would-be p01/p00 weight into p10
        p11, p10, p01, p00 = click_probabilities(bell_state("phi+"), H, V,
                                                 SourceParams(0.1, 1.0, 0.5))
        assert p11 == pytest.approx(0.0, abs=1e-12)
        assert p10 == pytest.approx(0.5, abs=1e-12)
        assert p01 == pytest.approx(0.25, abs=1e-12)
        assert p00 == pytest.approx(0.25, abs=1e-12)

    def test_sum_to_one_on_random_inputs(self, rng):
        for _ in range(30):
            rho = helpers.random_density_matrix(rng, rank=int(rng.integers(1, 5)))
            params = SourceParams(n_bar=rng.uniform(0, 2),
                                  eta_a=rng.uniform(0, 1), eta_b=rng.uniform(0, 1))
            p11, p10, p01, p00 = click_probabilities(rho, helpers.random_unit_vector(rng),
                                                     helpers.random_unit_vector(rng), params)
            assert p11 + p10 + p01 + p00 == pytest.approx(1.0, abs=1e-12)

    def test_type_guards(self):
        with pytest.raises(ValueError):
            coincidence_probability([0.6, 0.3, 0.2, 0.1], 0.1)

    def test_stacked_settings_match_direct_oracle(self, rng):
        # transmittances include both ends of [0, 1] exactly
        etas = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.37), (1.0, 0.62)]
        worst = 0.0
        for rank in (1, 2, 3, 4):
            for eta_a, eta_b in etas + [tuple(rng.uniform(0, 1, size=2)) for _ in range(4)]:
                rho = helpers.random_density_matrix(rng, rank=rank)
                a = np.array([helpers.random_unit_vector(rng) for _ in range(25)])
                b = np.array([helpers.random_unit_vector(rng) for _ in range(25)])
                probs = click_probabilities(rho, a, b, SourceParams(0.1, eta_a, eta_b))
                assert probs.shape == (25, 4)
                for k in range(25):
                    direct = helpers.click_probabilities_direct(rho, a[k], b[k], eta_a, eta_b)
                    worst = max(worst, np.max(np.abs(probs[k] - direct)))
        assert worst <= 1e-14

    def test_synthesized_frequencies_match_series_oracle(self, rng):
        settings = TomographySettings.canonical()
        for rank in (1, 2, 3, 4):
            for _ in range(5):
                rho = helpers.random_density_matrix(rng, rank=rank)
                params = SourceParams(n_bar=rng.uniform(0, 2),
                                      eta_a=rng.uniform(0, 1), eta_b=rng.uniform(0, 1))
                freqs = synthesize_frequencies(rho, params, settings)
                for k in range(36):
                    direct = helpers.click_probabilities_direct(
                        rho, settings.bloch_a[k], settings.bloch_b[k], params.eta_a, params.eta_b)
                    series = helpers.coincidence_series(*direct, params.n_bar)
                    assert freqs[k] == pytest.approx(series, abs=1e-14)


class TestCoincidenceProbability:
    def test_no_pairs_no_coincidences(self):
        assert coincidence_probability([0.25, 0.25, 0.25, 0.25], 0.0) == 0.0

    def test_bell_lossless_closed_form(self):
        cp = click_probabilities(bell_state("phi+"), H, H, SourceParams(0.1, 1.0, 1.0))
        expected = 1.0 - math.exp(-0.05)
        assert coincidence_probability(cp, 0.1) == pytest.approx(expected, abs=1e-15)
        assert coincidence_probability(cp, 0.1) == pytest.approx(0.0487706, abs=1e-7)

    def test_matches_poisson_series(self, rng):
        rows = []
        for _ in range(200):
            probs = rng.dirichlet(np.ones(4))
            n_bar = rng.uniform(0.0, 5.0)
            rows.append(probs)
            series = helpers.coincidence_series(*probs, n_bar)
            assert coincidence_probability(probs, n_bar) == pytest.approx(series, abs=1e-12)
        # the same 200 rows as one (200, 4) array, at the last draw's gain
        stacked = coincidence_probability(np.array(rows), n_bar)
        assert stacked.shape == (200,)
        expected = [helpers.coincidence_series(*probs, n_bar) for probs in rows]
        assert np.max(np.abs(stacked - expected)) <= 1e-12

    def test_gain_grid_broadcasts(self, rng):
        settings = TomographySettings.canonical()
        grid = np.concatenate([[0.0], np.geomspace(1e-4, 2.0, 30)])
        for rank in (1, 2, 3, 4):
            rho = helpers.random_density_matrix(rng, rank=rank)
            eta_a, eta_b = rng.uniform(0, 1, size=2)
            probs = click_probabilities(rho, settings.bloch_a, settings.bloch_b,
                                        SourceParams(0.0, eta_a, eta_b))
            table = coincidence_probability(probs, grid[:, None])
            assert table.shape == (grid.size, 36)
            stacked = np.array([coincidence_probability(probs, n_bar) for n_bar in grid])
            assert np.array_equal(table, stacked)
            series = [[helpers.coincidence_series(*row, n_bar) for row in probs]
                      for n_bar in grid]
            assert np.max(np.abs(table - series)) <= 1e-12

    def test_negative_gain_in_array_rejected(self):
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        with pytest.raises(ValueError, match="n_bar must be nonnegative"):
            coincidence_probability(probs, np.array([[0.1], [-1e-3], [0.2]]))

    @pytest.mark.parametrize("eta", [0.16, 1e-4, 1e-6, 1e-8, 1e-12])
    def test_no_cancellation_at_small_transmittance(self, rng, eta):
        settings = TomographySettings.canonical()
        rho = helpers.random_density_matrix(rng)
        probs = click_probabilities(rho, settings.bloch_a, settings.bloch_b,
                                    SourceParams(0.0, eta, 0.5 * eta))
        for n_bar in (1e-3, 0.07, 0.5):
            got = coincidence_probability(probs, n_bar)
            exact = [helpers.coincidence_decimal(*row[:3], n_bar) for row in probs]
            assert np.max(np.abs(got - exact) / exact) <= 1e-14

    def test_vanishing_transmittance_limit(self):
        # p11 = e^2 q11 and marginals e qa, e qb: c / e^2 -> n^2 qa qb + n q11
        e, q11, qa, qb = 1e-150, 0.3, 0.45, 0.35
        p11 = e * e * q11
        probs = [p11, e * qa - p11, e * qb - p11, 1.0 - e * qa - e * qb + p11]
        for n_bar in (1e-3, 0.07, 0.5):
            got = coincidence_probability(probs, n_bar) / (e * e)
            assert got == pytest.approx(n_bar ** 2 * qa * qb + n_bar * q11, rel=1e-14)

    def test_first_order_taylor(self):
        cp = click_probabilities(bell_state("phi+"), H, H, SourceParams(1e-6, 1.0, 1.0))
        c = coincidence_probability(cp, 1e-6)
        assert abs(c - 1e-6 * cp[0]) / c < 1e-4


class TestKappa:
    def test_zero_gain_limit(self):
        assert kappa_exact(0.0, 1.0, 1.0) == 0.0
        assert kappa_approx(0.0) == 0.0

    def test_reference_point(self):
        assert kappa_exact(0.0737, 1.0, 1.0) == pytest.approx(0.06983, abs=1e-5)

    def test_agrees_with_printed_form(self, rng):
        for _ in range(200):
            n = rng.uniform(1e-3, 5.0)
            ea, eb = rng.uniform(0.05, 1.0, size=2)
            assert kappa_exact(n, ea, eb) == pytest.approx(
                kappa_printed_form(n, ea, eb), abs=1e-12)

    def test_vanishing_transmittance_limit(self):
        assert kappa_exact(0.1, 1e-6, 1e-6) == pytest.approx(0.1 / 1.1, abs=1e-4)
        # no underflow: the products of the printed form fall below the
        # smallest double here, and at eta ~ 1e-170 both vanish
        for eta in (1e-100, 1e-160, 1e-200, 1e-300, 5e-324):
            for n_bar in (1e-3, 0.07, 0.5):
                assert kappa_exact(n_bar, eta, eta) == pytest.approx(kappa_approx(n_bar),
                                                                     rel=1e-15)
                assert kappa_exact(n_bar, eta, 1e-100) == pytest.approx(kappa_approx(n_bar),
                                                                        rel=1e-15)
        # 0.166839 / 1.166839, the noise weight at the critical gain
        assert kappa_approx(0.166839) == pytest.approx(0.1429837, abs=1e-6)

    def test_low_gain_agreement(self):
        assert kappa_exact(0.05, 0.01, 0.01) == pytest.approx(kappa_approx(0.05), abs=1e-4)

    def test_monotone_in_gain(self):
        for eta in (0.16, 0.5, 1.0):
            vals = [kappa_exact(n, eta, eta) for n in np.linspace(1e-4, 3.0, 60)]
            assert np.all(np.diff(vals) > 0)
            assert all(0.0 <= v <= 1.0 for v in vals)

    def test_arm_symmetry(self, rng):
        for _ in range(20):
            n = rng.uniform(0.01, 2.0)
            ea, eb = rng.uniform(0.05, 1.0, size=2)
            assert kappa_exact(n, ea, eb) == pytest.approx(kappa_exact(n, eb, ea), abs=1e-15)

    def test_degenerate_transmittance_rejected(self):
        with pytest.raises(ValueError):
            kappa_exact(0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            kappa_exact(0.1, 0.0, 0.5)


class TestCoincidenceRate:
    def test_zero_gain(self):
        assert coincidence_rate_exact(0.0, 1.0, 1.0) == 0.0

    def test_lossless_value(self):
        assert coincidence_rate_exact(0.0737, 1.0, 1.0) == pytest.approx(
            1.0 - math.exp(-0.0737), abs=1e-15)
        assert coincidence_rate_exact(0.0737, 1.0, 1.0) == pytest.approx(0.071050, abs=1e-6)

    def test_low_gain_product_law(self):
        # r_C ~ n_bar etaA etaB within 1 % once n_bar * eta <= 0.01
        for n, ea, eb in [(0.01, 1.0, 1.0), (0.01, 0.5, 0.9), (0.005, 0.8, 0.3)]:
            approx = n * ea * eb
            assert coincidence_rate_exact(n, ea, eb) == pytest.approx(approx, rel=0.01)

    def test_matches_poisson_series(self, rng):
        for _ in range(50):
            n = rng.uniform(0.0, 3.0)
            ea, eb = rng.uniform(0.0, 1.0, size=2)
            pmf = math.exp(-n)
            total, cumulative, k = 0.0, pmf, 0
            while cumulative < 1.0 - 1e-15 and k < 10000:
                k += 1
                pmf *= n / k
                cumulative += pmf
                total += pmf * (1 - (1 - ea) ** k) * (1 - (1 - eb) ** k)
            assert coincidence_rate_exact(n, ea, eb) == pytest.approx(total, abs=1e-12)

    @pytest.mark.parametrize("n_bar,eta", [(1e-6, 0.01), (1e-5, 0.05), (1e-4, 0.16)])
    def test_no_cancellation_at_small_gain(self, n_bar, eta):
        exact = helpers.bell_coincidence_rate_decimal(n_bar, eta, eta)
        assert abs(coincidence_rate_exact(n_bar, eta, eta) - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("eta_a,eta_b", [(1e-4, 1e-4), (1e-8, 1e-8), (1e-12, 1e-12),
                                             (1e-8, 0.3), (0.9, 1e-12)])
    def test_no_cancellation_at_small_transmittance(self, eta_a, eta_b):
        for n_bar in (1e-3, 0.07, 0.5):
            exact = helpers.bell_coincidence_rate_decimal(n_bar, eta_a, eta_b)
            assert abs(coincidence_rate_exact(n_bar, eta_a, eta_b) - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("eta_a,eta_b", [(1e-100, 1e-100), (1e-150, 1e-150),
                                             (1e-100, 1e-150), (1e-120, 1e-180)])
    def test_vanishing_transmittance_limit(self, eta_a, eta_b):
        # r_C / (eA eB) -> E[N^2] = n (1 + n), the second moment of the Poisson pair number
        for n_bar in (1e-3, 0.07, 0.5):
            ratio = coincidence_rate_exact(n_bar, eta_a, eta_b) / (eta_a * eta_b)
            assert ratio == pytest.approx(n_bar * (1.0 + n_bar), rel=1e-14)

    def test_arm_symmetry(self):
        assert coincidence_rate_exact(0.3, 0.2, 0.9) == pytest.approx(
            coincidence_rate_exact(0.3, 0.9, 0.2), abs=1e-15)


class TestEffectiveState:
    def test_low_gain_returns_input(self):
        rho_b = bell_state("phi+")
        out = effective_state(SourceParams(0.0, 1.0, 1.0), rho_b)
        assert np.allclose(out, rho_b, atol=1e-12)

    def test_high_gain_fully_depolarizes(self):
        out = effective_state(SourceParams(50.0, 1.0, 1.0), bell_state("phi+"))
        assert np.max(np.abs(out - np.eye(4) / 4)) < 1e-6

    def test_chsh_consistency(self, rng):
        for _ in range(10):
            params = SourceParams(n_bar=rng.uniform(0.01, 1.0),
                                  eta_a=rng.uniform(0.1, 1.0), eta_b=rng.uniform(0.1, 1.0))
            out = effective_state(params, bell_state("phi+"))
            kappa = kappa_exact(params.n_bar, params.eta_a, params.eta_b)
            assert chsh_max(out) == pytest.approx(2 * math.sqrt(2) * (1 - kappa), abs=1e-9)


class TestModelCurve:
    def test_zero_gain_point(self):
        (pt,) = model_curve(1.0, 1.0, [0.0])
        assert pt.r_key == 0.0
        assert pt.r_c == 0.0

    def test_lossless_peak_location_and_height(self):
        grid = np.linspace(0.055, 0.09, 351)
        points = model_curve(1.0, 1.0, grid)
        best = max(points, key=lambda p: p.r_key)
        # exact-model optimum, derived by fine search: ~0.02888 at ~0.0702
        assert best.r_key == pytest.approx(0.028878, abs=1e-4)
        assert best.n_bar == pytest.approx(0.0702, abs=5e-4)
        assert abs(best.n_bar - 0.0737) < 0.005

    def test_no_key_beyond_critical_gain(self):
        for eta in (0.05, 0.16, 0.5, 1.0):
            points = model_curve(eta, eta, [0.166839, 0.2, 0.5])
            assert all(p.r_key == 0.0 for p in points)

    def test_rows_chain_consistently(self, rng):
        points = model_curve(0.3, 0.8, np.linspace(0.001, 0.15, 7))
        for pt in points:
            assert pt.kappa == pytest.approx(kappa_exact(pt.n_bar, 0.3, 0.8), abs=1e-15)
            assert pt.r_key == pytest.approx(pt.r_dw * pt.r_c, abs=1e-15)
            target = werner_mix(bell_state("phi+"), pt.kappa)
            assert fidelity(effective_state(SourceParams(pt.n_bar, 0.3, 0.8),
                                            bell_state("phi+")), target) > 1 - 1e-12
