import numpy as np
import pytest

import helpers

from entqkd import (NoSecurityError, chsh_max, concurrence, critical_gain,
                    devetak_winter_raw, kappa_exact, optimize_gain, qber_min,
                    qd_key_line, qd_reference_state, qd_threshold,
                    s_q_from_kappa)
from entqkd.numeric import golden_section_max
from entqkd.optimize import CRITICAL_N_BAR_LIMIT, R_KEY_MAX_SPDC
from entqkd.spdc import _model_point


class TestOptimizeGain:
    def test_lossless_optimum(self):
        opt = optimize_gain(1.0, 1.0)
        # derived by independent bounded search on the exact model
        assert opt.n_bar_opt == pytest.approx(0.0702194, abs=1e-5)
        assert opt.r_key_opt == pytest.approx(0.0288784, abs=1e-6)

    def test_local_maximum_certificate(self):
        for eta in (0.05, 0.16, 0.3, 0.5, 1.0):
            opt = optimize_gain(eta, eta)
            for shift in (1e-4, -1e-4):
                assert opt.r_key_opt >= _model_point(opt.n_bar_opt + shift, eta, eta).r_key
            for factor in (1 + 1e-3, 1 - 1e-3):
                assert opt.r_key_opt >= _model_point(opt.n_bar_opt * factor, eta, eta).r_key

    def test_optimal_gain_varies_weakly(self):
        gains = [optimize_gain(eta, eta).n_bar_opt for eta in np.linspace(0.02, 1.0, 12)]
        assert max(abs(g - 0.0737) for g in gains) < 0.01

    def test_fixed_gain_within_two_permille(self):
        for eta in (0.05, 0.1, 0.16, 0.3, 0.5, 1.0):
            opt = optimize_gain(eta, eta)
            assert _model_point(0.0737, eta, eta).r_key >= 0.998 * opt.r_key_opt

    def test_quadratic_scaling_ratio_falls_with_eta(self):
        # R_opt / eta^2 is not constant (the published 0.029 eta^2 law holds
        # only at low gain): on the exact model it falls strictly, from
        # 0.03246 at eta = 0.05 to 0.03030 at eta = 0.5
        etas = np.linspace(0.05, 0.5, 6)
        ratios = np.array([optimize_gain(eta, eta).r_key_opt / eta ** 2 for eta in etas])
        assert np.all(np.diff(ratios) < 0.0)
        assert ratios[0] == pytest.approx(0.03246, abs=1e-5)
        assert ratios[-1] == pytest.approx(0.03030, abs=1e-5)

    def test_vanishing_transmittance_limit(self):
        # R_opt / eta^2 -> max n (1 + n) r_DW(n / (1 + n)) = 0.032766 as eta -> 0;
        # at 1e-150 the rate is 3.3e-302 and still a normal double
        n_ref, limit = helpers.maximize_on_grid(
            lambda n: n * (1.0 + n) * helpers.werner_devetak_winter(n / (1.0 + n)))
        opt = optimize_gain(1e-150, 1e-150)
        assert opt.n_bar_opt == pytest.approx(n_ref, abs=1e-6)
        assert opt.r_key_opt / 1e-300 == pytest.approx(limit, rel=1e-9)
        assert limit == pytest.approx(0.032766, abs=1e-6)

    @pytest.mark.parametrize("eta", [1e-160, 1e-300])
    def test_optimum_where_the_rate_underflows(self, eta):
        # R_key is subnormal at 1e-160 and 0.0 at 1e-300, but the search on
        # R_key / (eta_A eta_B) still finds the eta -> 0 optimum of 1e-150
        opt = optimize_gain(eta, eta)
        assert opt.n_bar_opt == optimize_gain(1e-150, 1e-150).n_bar_opt
        assert opt.n_bar_opt == pytest.approx(0.0772693, abs=1e-7)
        assert opt.r_key_opt == _model_point(opt.n_bar_opt, eta, eta).r_key
        assert (opt.r_key_opt == 0.0) == (eta == 1e-300)

    @pytest.mark.parametrize("etas", [(1.0, 1.0), (0.5, 0.5), (0.16, 0.16), (0.9, 0.3),
                                      (0.3, 0.9), (1e-150, 1e-150)])
    def test_same_optimum_as_a_search_on_the_rate(self, etas):
        # where R_key is a normal double, dividing it by eta_A eta_B moves no step
        # of the search
        n_opt = golden_section_max(lambda n: _model_point(n, *etas).r_key,
                                   1e-9, CRITICAL_N_BAR_LIMIT, tol=1e-7)
        opt = optimize_gain(*etas)
        assert opt.n_bar_opt == n_opt
        assert opt.r_key_opt == _model_point(n_opt, *etas).r_key

    def test_asymmetric_arms(self):
        opt = optimize_gain(0.9, 0.3)
        assert opt.r_key_opt == pytest.approx(optimize_gain(0.3, 0.9).r_key_opt, rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            optimize_gain(0.0, 1.0)
        with pytest.raises(ValueError):
            optimize_gain(0.5, 1.5)


class TestCriticalGain:
    def test_zero_transmittance_limit(self):
        assert critical_gain(0.0, 0.0) == pytest.approx(0.1668387, abs=1e-6)

    def test_root_property(self):
        for eta_a, eta_b in ((0.0, 0.0), (1.0, 1.0), (0.16, 0.16), (0.8, 0.2)):
            n_crit = critical_gain(eta_a, eta_b)
            if eta_a == 0.0:
                kappa = n_crit / (1.0 + n_crit)
            else:
                kappa = kappa_exact(n_crit, eta_a, eta_b)
            assert abs(devetak_winter_raw(*s_q_from_kappa(kappa))) < 1e-5

    def test_vanishing_transmittance_reaches_the_limit(self):
        assert critical_gain(1e-300, 1e-300) == critical_gain(0.0, 0.0)
        assert critical_gain(1e-160, 1e-200) == critical_gain(0.0, 0.0)

    def test_losses_never_extend_security(self):
        limit = critical_gain(0.0, 0.0)
        for eta in (0.05, 0.16, 0.5, 1.0):
            assert critical_gain(eta, eta) <= limit

    def test_mixed_zero_rejected(self):
        with pytest.raises(ValueError):
            critical_gain(0.0, 0.5)


class TestQdThreshold:
    def test_reference_states_have_requested_concurrence(self):
        for model in ("dephasing", "white"):
            for c in (0.8, 0.9, 0.95, 1.0):
                assert concurrence(qd_reference_state(c, model)) == pytest.approx(c, abs=1e-9)

    def test_dephasing_keeps_qber_zero(self):
        rho = qd_reference_state(0.95, "dephasing")
        assert qber_min(rho) == pytest.approx(0.0, abs=1e-12)
        assert chsh_max(rho) == pytest.approx(2 * np.sqrt(1 + 0.95 ** 2), abs=1e-12)

    def test_published_thresholds(self):
        assert qd_threshold(0.95, "dephasing").r_c_threshold == pytest.approx(0.035, abs=0.001)
        assert qd_threshold(0.95, "white").r_c_threshold == pytest.approx(0.044, abs=0.001)

    def test_perfect_source(self):
        thr = qd_threshold(1.0, "dephasing")
        assert thr.r_dw == pytest.approx(1.0, abs=1e-12)
        assert thr.r_c_threshold == pytest.approx(R_KEY_MAX_SPDC, abs=1e-12)

    def test_threshold_decreases_with_quality(self):
        for model in ("dephasing", "white"):
            grid = np.linspace(0.86, 1.0, 8)
            thresholds = [qd_threshold(c, model).r_c_threshold for c in grid]
            assert np.all(np.diff(thresholds) < 0)

    def test_no_security_errors(self):
        with pytest.raises(NoSecurityError):
            qd_threshold(0.0, "dephasing")
        with pytest.raises(NoSecurityError):
            qd_threshold(0.5, "white")  # white noise at C=0.5 gives r_DW = 0

    def test_invariant_product(self):
        thr = qd_threshold(0.93, "white")
        assert thr.r_c_threshold * thr.r_dw == pytest.approx(R_KEY_MAX_SPDC, abs=1e-9)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            qd_threshold(0.95, "pink")


class TestQdKeyLine:
    def test_trivials(self):
        assert qd_key_line(1.0, [0.01]) == [(0.01, 0.01)]
        assert all(r == 0.0 for _, r in qd_key_line(0.0, np.linspace(0, 1, 5)))

    def test_crossing_matches_threshold(self):
        thr = qd_threshold(0.95, "dephasing")
        (_, r_key), = qd_key_line(thr.r_dw, [thr.r_c_threshold])
        assert r_key == pytest.approx(R_KEY_MAX_SPDC, abs=1e-12)
        assert thr.r_c_threshold == pytest.approx(0.0349, abs=1e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            qd_key_line(1.5, [0.1])
