"""Every public entry point rejects NaN, +inf and out-of-range scalars by name.

Each row names a parameter, a call that feeds it a value, and a value
just outside the parameter's domain.  NaN, +inf and that value must
each raise a ValueError whose message starts with the parameter's name.
"""

import math

import numpy as np
import pytest

from entqkd import (BasisSet, SourceParams, TomographyDataset, TomographySettings,
                    WaveplateSetting, bell_state, binary_entropy, coincidence_probability,
                    coincidence_rate_exact, critical_gain, devetak_winter,
                    devetak_winter_raw, fit_kappa, kappa_approx, kappa_exact, key_rate,
                    mle_reconstruct, model_curve, optimize_gain, qd_key_line,
                    qd_reference_state, qd_threshold, s_q_from_kappa, waveplate_angles,
                    werner_mix)
from entqkd.metrics import TSIRELSON

SETTINGS = TomographySettings.canonical()
PHI_PLUS = bell_state("phi+")
Z = [0.0, 0.0, 1.0]
QUARTERS = np.full(4, 0.25)

ROWS = [
    ("SourceParams", "n_bar", lambda v: SourceParams(v, 0.5, 0.5), -1e-12),
    ("SourceParams", "eta_a", lambda v: SourceParams(0.1, v, 0.5), 1.0 + 1e-12),
    ("SourceParams", "eta_b", lambda v: SourceParams(0.1, 0.5, v), -1e-12),
    ("coincidence_probability", "n_bar", lambda v: coincidence_probability(QUARTERS, v), -1e-12),
    ("coincidence_probability[array]", "n_bar",
     lambda v: coincidence_probability(QUARTERS, np.array([[0.1], [v]])), -1e-12),
    ("kappa_exact", "n_bar", lambda v: kappa_exact(v, 0.5, 0.5), -1e-12),
    ("kappa_exact", "eta_a", lambda v: kappa_exact(0.1, v, 0.5), 0.0),
    ("kappa_exact", "eta_b", lambda v: kappa_exact(0.1, 0.5, v), 1.0 + 1e-12),
    ("kappa_approx", "n_bar", kappa_approx, -1e-12),
    ("coincidence_rate_exact", "n_bar", lambda v: coincidence_rate_exact(v, 0.5, 0.5), -1e-12),
    ("coincidence_rate_exact", "eta_a", lambda v: coincidence_rate_exact(0.1, v, 0.5), -1e-12),
    ("coincidence_rate_exact", "eta_b",
     lambda v: coincidence_rate_exact(0.1, 0.5, v), 1.0 + 1e-12),
    ("model_curve", "n_bar", lambda v: model_curve(1.0, 1.0, [v]), -1e-12),
    ("model_curve", "eta_a", lambda v: model_curve(v, 1.0, [0.1]), 0.0),
    ("binary_entropy", "binary entropy argument", binary_entropy, 1.0 + 1e-12),
    ("devetak_winter", "CHSH value", lambda v: devetak_winter(v, 0.01), TSIRELSON + 1e-8),
    ("devetak_winter", "QBER", lambda v: devetak_winter(2.5, v), 0.5 + 1e-12),
    ("devetak_winter_raw", "CHSH value", lambda v: devetak_winter_raw(v, 0.01), -1e-12),
    ("devetak_winter_raw", "QBER", lambda v: devetak_winter_raw(2.5, v), -1e-12),
    ("key_rate", "r_dw", lambda v: key_rate(v, 0.1), 1.0 + 1e-12),
    ("key_rate", "r_c", lambda v: key_rate(0.5, v), -1e-12),
    ("s_q_from_kappa", "kappa", s_q_from_kappa, 1.0 + 1e-12),
    ("werner_mix", "kappa", lambda v: werner_mix(PHI_PLUS, v), -1e-12),
    ("optimize_gain", "eta_a", lambda v: optimize_gain(v, 1.0), 0.0),
    ("optimize_gain", "eta_b", lambda v: optimize_gain(1.0, v), 1.0 + 1e-12),
    ("critical_gain", "eta_a", lambda v: critical_gain(v, 1.0), -1e-12),
    ("critical_gain", "eta_b", lambda v: critical_gain(1.0, v), 1.0 + 1e-12),
    ("qd_reference_state", "concurrence", lambda v: qd_reference_state(v, "white"), -1e-12),
    ("qd_threshold", "concurrence", lambda v: qd_threshold(v, "dephasing"), 1.5),
    ("qd_key_line", "r_dw", lambda v: qd_key_line(v, [0.1]), 1.0 + 1e-12),
    ("qd_key_line", "r_c", lambda v: qd_key_line(0.5, [v]), -1e-12),
    ("mle_reconstruct[all]", "frequencies", lambda v: mle_reconstruct([v] * 36, SETTINGS),
     -1e-12),
    ("mle_reconstruct[one]", "frequencies",
     lambda v: mle_reconstruct([v] + [1.0] * 35, SETTINGS), -1e-12),
    ("fit_kappa", "frequencies", lambda v: fit_kappa([v] * 36, SETTINGS, PHI_PLUS), -1e-12),
    ("TomographyDataset", "counts",
     lambda v: TomographyDataset(SETTINGS, np.array([v] + [1.0] * 35), 1e-9, 1.0), -1.0),
    ("TomographyDataset", "tau_s",
     lambda v: TomographyDataset(SETTINGS, np.ones(36), v, 1.0), 0.0),
    ("TomographyDataset", "duration_s",
     lambda v: TomographyDataset(SETTINGS, np.ones(36), 1e-9, v), 0.0),
    ("waveplate_angles", "x", lambda v: waveplate_angles([v, 0.0, 0.0]), 1.0 + 1e-6),
    ("BasisSet", "a0",
     lambda v: BasisSet(a0=[v, 0.0, 0.0], a1=Z, a2=Z, b1=Z, b2=Z, ordering="alice_first"),
     1.0 + 1e-6),
    ("WaveplateSetting", "theta_q", lambda v: WaveplateSetting(theta_q=v, theta_h=0.0),
     -math.pi / 2),
    ("WaveplateSetting", "theta_h", lambda v: WaveplateSetting(theta_q=0.0, theta_h=v),
     math.pi / 4 + 1e-12),
]


@pytest.mark.parametrize("kind", ["nan", "inf", "outside"])
@pytest.mark.parametrize("entry,name,call,outside", ROWS,
                         ids=[f"{entry}-{name}" for entry, name, _, _ in ROWS])
def test_rejects_value_naming_the_parameter(entry, name, call, outside, kind):
    value = {"nan": math.nan, "inf": math.inf, "outside": outside}[kind]
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value).startswith(f"{name} must"), str(err.value)
