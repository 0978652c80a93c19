"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each test prints a single "criterion N: PASS/FAIL" line (visible with
pytest -s or -rA) before asserting, so a full run yields a checklist.

Criteria 1 and 2 and the surrogate-curve note check the exact multi-pair
model against independent oracles in ``helpers``: the printed closed
form of the white-noise weight, the literal Poisson series for the
coincidence rate, a separate Devetak-Winter evaluation, and a dense-grid
plus bounded-search maximizer.  The model's optimum at unit
transmittance is n_bar = 0.070219 with R = 0.028878, the abstract's
0.029 bits per window; R_opt / eta^2 falls from its eta -> 0 limit
0.032766 to that value as eta grows; and the Werner surrogate
(S = 2.815, eta = 0.16) loses its key at r_C = 4.520e-3.  The published
rounded constants (n_bar ~ 0.0737, R ~ 0.029 eta^2, decay by
r_C = 4.3e-3) are not reached by this model; README discusses them.
Criterion 3 checks that n_bar = 0.0737 stays within 0.2 % of the optimum.
"""

import math
import time

import numpy as np

import helpers
from entqkd import (SourceParams, TomographyDataset, TomographySettings,
                    bell_state, chsh_max, coincidence_probability,
                    critical_gain, devetak_winter, fidelity, fit_kappa,
                    kappa_exact, mle_reconstruct, monte_carlo_uncertainty,
                    optimal_bases, optimize_gain, qber_min, qd_threshold,
                    synthesize_frequencies, verify_bases, waveplate_angles,
                    werner_mix)
from entqkd.cli import main
from entqkd.dataio import canonical_json, dataset_to_dict
from entqkd.metrics import TSIRELSON
from entqkd.refdata import check_reference_table, load_reference_table
from entqkd.spdc import ClickProbabilities

SETTINGS = TomographySettings.canonical()
PHI_PLUS = bell_state("phi+")
ETA_GRID = (0.05, 0.1, 0.16, 0.3, 0.5)


def _criterion(number, ok: bool, detail: str):
    print(f"criterion {number:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_optimal_gain():
    start = time.perf_counter()
    opt = optimize_gain(1.0, 1.0)
    elapsed = time.perf_counter() - start
    n_ref, r_ref = helpers.bell_key_rate_optimum(1.0, 1.0)
    ok = (abs(opt.n_bar_opt - n_ref) <= 1e-6 and abs(opt.r_key_opt - r_ref) <= 1e-10
          and 0.028 <= opt.r_key_opt <= 0.030 and elapsed < 1.0)
    _criterion(1, ok,
               f"n_bar_opt={opt.n_bar_opt:.7f} (oracle {n_ref:.7f}, need +- 1e-6), "
               f"R_key_opt={opt.r_key_opt:.8f} (oracle {r_ref:.8f}, need +- 1e-10 "
               f"and [0.028, 0.030]), runtime={elapsed:.3f}s (need < 1 s)")


def test_criterion_02_quadratic_factorization():
    start = time.perf_counter()
    optima = {eta: optimize_gain(eta, eta) for eta in ETA_GRID}
    elapsed = time.perf_counter() - start
    worst_n = worst_ratio = 0.0
    for eta, opt in optima.items():
        n_ref, r_ref = helpers.bell_key_rate_optimum(eta, eta)
        worst_n = max(worst_n, abs(opt.n_bar_opt - n_ref))
        worst_ratio = max(worst_ratio, abs(opt.r_key_opt - r_ref) / eta ** 2)
    # As eta -> 0, r_C / eta^2 -> n (1 + n) and kappa -> n / (1 + n).
    _, limit = helpers.maximize_on_grid(
        lambda n: n * (1.0 + n) * helpers.werner_devetak_winter(n / (1.0 + n)))
    _, unit = helpers.bell_key_rate_optimum(1.0, 1.0)
    ratios = [opt.r_key_opt / eta ** 2 for eta, opt in optima.items()]
    chain = [limit, *ratios, unit]
    monotone = all(a > b for a, b in zip(chain, chain[1:]))
    ok = worst_n <= 1e-6 and worst_ratio <= 1e-10 and monotone and elapsed < 5.0
    detail = ", ".join(f"eta={eta}: {r:.6f}" for eta, r in zip(ETA_GRID, ratios))
    _criterion(2, ok, f"R_key_opt/eta^2 {detail} (need falling within "
                      f"[{unit:.6f}, {limit:.6f}]: {monotone}); oracle worst "
                      f"|d n_bar| {worst_n:.1e} (need <= 1e-6), |d R|/eta^2 "
                      f"{worst_ratio:.1e} (need <= 1e-10); "
                      f"runtime={elapsed:.2f}s (need < 5 s)")


def test_criterion_03_fixed_gain_within_two_permille():
    from entqkd.spdc import _model_point
    worst = 1.0
    for eta in ETA_GRID:
        opt = optimize_gain(eta, eta)
        worst = min(worst, _model_point(0.0737, eta, eta).r_key / opt.r_key_opt)
    _criterion(3, worst >= 0.998,
               f"R(0.0737)/R_opt worst ratio {worst:.6f} (need >= 0.998)")


def test_criterion_04_critical_gain_limit():
    value = critical_gain(0.0, 0.0)
    _criterion(4, abs(value - 0.166839) <= 1e-4,
               f"critical gain (zero-transmittance limit) = {value:.7f} "
               f"(need 0.166839 +- 1e-4)")


def test_criterion_05_reference_table_consistency():
    checks = check_reference_table()
    spots = (
        abs(devetak_winter(2.815, 0.0013) - 0.94) <= 0.025,
        abs(devetak_winter(2.60, 0.033) - 0.37) <= 0.035,
        devetak_winter(2.35, 0.080) == 0.0,
    )
    failed = [c.tau_ns for c in checks if not c.ok]
    ok = len(checks) == 20 and not failed and all(spots)
    _criterion(5, ok, f"{len(checks) - len(failed)}/20 rows consistent "
                      f"(failed: {failed}), spot values ok={all(spots)}")


def test_criterion_06_quantum_dot_thresholds():
    dephasing = qd_threshold(0.95, "dephasing").r_c_threshold
    white = qd_threshold(0.95, "white").r_c_threshold
    ok = abs(dephasing - 0.035) <= 0.001 and abs(white - 0.044) <= 0.001
    _criterion(6, ok, f"dephasing C=0.95: {dephasing:.6f} (need 0.035 +- 0.001), "
                      f"white: {white:.6f} (need 0.044 +- 0.001)")


def test_criterion_07_mle_weight_self_consistency():
    worst = 0.0
    for n_bar in (0.02, 0.0737, 0.15):
        for eta_a in (0.16, 0.5, 1.0):
            for eta_b in (0.16, 0.5, 1.0):
                freqs = synthesize_frequencies(
                    PHI_PLUS, SourceParams(n_bar, eta_a, eta_b), SETTINGS)
                fitted = fit_kappa(freqs, SETTINGS, PHI_PLUS)
                worst = max(worst, abs(fitted - kappa_exact(n_bar, eta_a, eta_b)))
    _criterion(7, worst <= 1e-6,
               f"|fit - closed form| worst {worst:.2e} over 3x3x3 grid (need <= 1e-6)")


def test_criterion_08_closed_form_vs_series():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(1000):
        probs = rng.dirichlet(np.ones(4))
        n_bar = rng.uniform(0.0, 5.0)
        closed = coincidence_probability(ClickProbabilities(*probs), n_bar)
        series = helpers.coincidence_series(*probs, n_bar)
        worst = max(worst, abs(closed - series))
    _criterion(8, worst <= 1e-12,
               f"|closed - series| worst {worst:.2e} over 1000 inputs (need <= 1e-12)")


def test_criterion_09_chsh_qber_oracle():
    rng = np.random.default_rng(909)
    worst_search = 0.0
    worst_bases = 0.0
    for _ in range(100):
        rho = helpers.random_density_matrix(rng, rank=int(rng.integers(1, 5)))
        s_eig, q_eig = chsh_max(rho), qber_min(rho)
        worst_search = max(worst_search,
                           abs(s_eig - helpers.chsh_max_brute(rho)),
                           abs(q_eig - helpers.qber_min_brute(rho)))
        for ordering in ("alice_first", "bob_first"):
            s_got, q_got = verify_bases(rho, optimal_bases(rho, ordering))
            worst_bases = max(worst_bases, abs(s_got - s_eig), abs(q_got - q_eig))
    ok = worst_search <= 1e-3 and worst_bases <= 1e-9
    _criterion(9, ok, f"eigen vs search worst {worst_search:.2e} (need <= 1e-3); "
                      f"optimal-basis worst {worst_bases:.2e} (need <= 1e-9)")


def test_criterion_10_tomography_round_trip():
    rng = np.random.default_rng(1010)
    worst_fidelity = 1.0
    for _ in range(50):
        rho = helpers.random_density_matrix(rng, rank=int(rng.integers(1, 5)))
        rec = mle_reconstruct(SETTINGS.born_probabilities(rho), SETTINGS)
        worst_fidelity = min(worst_fidelity, fidelity(rec.rho, rho))
    rec = mle_reconstruct(SETTINGS.born_probabilities(werner_mix(PHI_PLUS, 0.1)), SETTINGS)
    kappa_err = abs((1.0 - chsh_max(rec.rho) / TSIRELSON) - 0.1)
    ok = worst_fidelity >= 0.999 and kappa_err <= 1e-4
    _criterion(10, ok, f"worst round-trip fidelity {worst_fidelity:.6f} (need >= 0.999); "
                       f"noise-weight error {kappa_err:.2e} (need <= 1e-4)")


def test_criterion_11_waveplate_oracle():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(100):
        x = helpers.random_unit_vector(rng)
        setting = waveplate_angles(x)
        realized = helpers.analyzer_projector(setting.theta_q, setting.theta_h)
        worst = max(worst, float(np.max(np.abs(
            realized - helpers.bloch_projector_direct(x)))))
    hv = waveplate_angles([0.0, 0.0, 1.0])
    da = waveplate_angles([1.0, 0.0, 0.0])
    rl = waveplate_angles([0.0, 1.0, 0.0])
    dials_ok = (abs(hv.theta_q) < 1e-12 and abs(hv.theta_h) < 1e-12
                and abs(da.theta_q) < 1e-12 and abs(da.theta_h - math.pi / 8) < 1e-12
                and abs(rl.theta_q - math.pi / 4) < 1e-12
                and abs(rl.theta_h - math.pi / 8) < 1e-12)
    ok = worst <= 1e-9 and dials_ok
    _criterion(11, ok, f"projector reproduction worst {worst:.2e} (need <= 1e-9); "
                       f"H/V->(0,0), D/A->(0,22.5deg), R/L->(45deg,22.5deg): {dials_ok}")


def _experimental_scale_dataset(scale: float = 1.0) -> TomographyDataset:
    params = SourceParams(0.01, 0.16, 0.16)
    rho0 = werner_mix(PHI_PLUS, 1.0 - 2.815 / TSIRELSON)
    freqs = synthesize_frequencies(rho0, params, SETTINGS)
    rng = np.random.default_rng(1212)
    n_windows = 5.0e7 * scale
    counts = rng.poisson(freqs * n_windows)
    return TomographyDataset(settings=SETTINGS, counts=counts,
                             tau_s=1e-9, duration_s=1e-9 * n_windows)


def test_criterion_12_monte_carlo_determinism_and_scaling(tmp_path):
    ds = _experimental_scale_dataset()
    ds_path = tmp_path / "ds.json"
    ds_path.write_text(canonical_json(dataset_to_dict(ds)))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert main(["reconstruct", str(ds_path), "--mc", "40", "--seed", "5",
                     "--out", str(out)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()

    small = monte_carlo_uncertainty(_experimental_scale_dataset(0.01), 150, seed=3)
    big_ds = _experimental_scale_dataset(0.01)
    big_ds = TomographyDataset(settings=SETTINGS, counts=big_ds.counts * 100,
                               tau_s=big_ds.tau_s, duration_s=big_ds.duration_s * 100)
    big = monte_carlo_uncertainty(big_ds, 150, seed=3)
    ratio = small.s_std / big.s_std
    scaling_ok = 10.0 / 1.5 <= ratio <= 10.0 * 1.5

    start = time.perf_counter()
    report = monte_carlo_uncertainty(ds, 2000, seed=99)
    elapsed = time.perf_counter() - start
    ok = identical and scaling_ok and elapsed < 120.0 and report.s_std > 0.0
    _criterion(12, ok, f"byte-identical reports: {identical}; "
                       f"std ratio for x100 counts: {ratio:.2f} (need 10 within x1.5); "
                       f"2000-sample run: {elapsed:.1f}s (need < 120 s)")


def test_note_surrogate_curve_qualitative_window(tmp_path):
    """Werner-surrogate curve (S = 2.815, eta = 0.16): monotone decay that
    reaches zero at the first grid gain past the oracle's zero crossing,
    which lies past the last reference row with a positive rate."""
    out = tmp_path / "fig4.csv"
    rho_path = tmp_path / "rho0.json"
    from entqkd.dataio import density_matrix_to_json
    kappa0 = 1.0 - 2.815 / TSIRELSON
    rho0 = werner_mix(PHI_PLUS, kappa0)
    rho_path.write_text(canonical_json(density_matrix_to_json(rho0)))
    assert main(["model", "--eta", "0.16", "--nbar-grid", "0.02:0.18:33",
                 "--rho0-file", str(rho_path), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    n_bar = np.array([float(r[0]) for r in rows])
    r_dw = np.array([float(r[4]) for r in rows])
    r_c = np.array([float(r[5]) for r in rows])
    monotone = bool(np.all(np.diff(r_dw) <= 1e-12))
    dead = np.flatnonzero(r_dw == 0.0)
    first = int(dead[0]) if dead.size else None
    death_rc = float(r_c[first]) if first is not None else float("inf")

    n_cross = helpers.surrogate_zero_crossing(kappa0, 0.16, 0.16)
    rc_cross = helpers.bell_coincidence_rate(n_cross, 0.16, 0.16)
    reference = load_reference_table()
    last_secure = max(row.r_c.value for row in reference if row.r_dw.value > 0.0)
    measured_zero = min(row.r_c.value for row in reference if row.r_dw.value == 0.0)
    on_crossing = (first is not None and first > 0
                   and n_bar[first - 1] < n_cross <= n_bar[first])
    ok = monotone and on_crossing and last_secure < rc_cross
    _criterion("note", ok,
               f"monotone decay: {monotone}; r_DW reaches 0 at r_C={death_rc:.3e} "
               f"(need the first grid point past the oracle crossing "
               f"n_bar={n_cross:.5f}, r_C={rc_cross:.3e}: {on_crossing}); "
               f"last secure reference row r_C={last_secure:.3e} (need below the "
               f"crossing); measured zero-rate row r_C={measured_zero:.3e}")
