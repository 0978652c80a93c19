import json
import math
import warnings

import numpy as np
import pytest

from entqkd import (SourceParams, basis_report, bell_state, comparison_series,
                    synthesize_frequencies, werner_mix)
from entqkd.cli import main
from entqkd.dataio import (canonical_json, csv_text, dataset_to_dict, density_matrix_from_json,
                           density_matrix_to_json, model_points_to_csv)
from entqkd.metrics import TSIRELSON
from entqkd.spdc import model_curve
from entqkd.tomography import TomographyDataset, TomographySettings

SETTINGS = TomographySettings.canonical()


def write_dataset(path, counts, tau_s=1e-9, duration_s=1.0):
    ds = TomographyDataset(settings=SETTINGS, counts=np.asarray(counts, dtype=np.int64),
                           tau_s=tau_s, duration_s=duration_s)
    path.write_text(canonical_json(dataset_to_dict(ds)))
    return path


def unequal_marginals_rho0_file(path):
    """A state whose model frequencies at eta_A = 0.8, eta_B = 0.3 no state reproduces.

    Its linear-inversion estimate does not fit them, so a fit of them
    starts a gap of about 1e-5 away from its optimum at n_bar = 1e-3.
    """
    ket = np.array([math.cos(0.5), 0.0, 0.0, math.sin(0.5)], dtype=complex)
    biased = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2.0)
    rho0 = 0.8 * np.outer(ket, ket.conj()) + 0.1 * biased + 0.1 * np.eye(4) / 4.0
    path.write_text(canonical_json(density_matrix_to_json(rho0)))
    return path


def bell_dataset(path, n_windows=1e8, n_bar=1e-4):
    freqs = synthesize_frequencies(bell_state("phi+"),
                                   SourceParams(n_bar, 1.0, 1.0), SETTINGS)
    counts = np.round(freqs * n_windows).astype(np.int64)
    return write_dataset(path, counts, tau_s=1e-9, duration_s=1e-9 * n_windows)


class TestReconstruct:
    def test_bell_like_dataset(self, tmp_path, capsys):
        ds_path = bell_dataset(tmp_path / "bell.json")
        out = tmp_path / "report.json"
        assert main(["reconstruct", str(ds_path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["metrics"]["S"] == pytest.approx(2 * math.sqrt(2), abs=1e-3)
        assert report["metrics"]["r_dw"] == pytest.approx(1.0, abs=2e-3)
        assert report["reconstruction"]["converged"] is True
        assert report["reconstruction"]["stop"] == "gap"
        assert report["reconstruction"]["gap"] <= 1e-10
        assert report["bases"]["achieved_S"] == pytest.approx(report["metrics"]["S"], abs=1e-9)
        assert report["uncertainty"] is None

    def test_isotropic_dataset(self, tmp_path):
        ds_path = write_dataset(tmp_path / "iso.json", np.full(36, 500))
        out = tmp_path / "report.json"
        assert main(["reconstruct", str(ds_path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["metrics"]["S"] == pytest.approx(0.0, abs=1e-3)
        assert report["metrics"]["r_dw"] == 0.0
        assert report["bases"] is None

    def test_mc_report_is_byte_identical_for_same_seed(self, tmp_path, rng):
        counts = rng.poisson(300, size=36)
        ds_path = write_dataset(tmp_path / "noisy.json", counts)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            code = main(["reconstruct", str(ds_path), "--mc", "25", "--seed", "9",
                         "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert json.loads(out1.read_text())["uncertainty"]["unconverged"] == 0
        out3 = tmp_path / "r3.json"
        main(["reconstruct", str(ds_path), "--mc", "25", "--seed", "10", "--out", str(out3)])
        assert out3.read_bytes() != out1.read_bytes()

    @pytest.mark.parametrize("ordering", ["alice_first", "bob_first"])
    def test_bases_block_is_the_basis_report(self, tmp_path, rng, ordering):
        ds_path = write_dataset(tmp_path / "noisy.json", rng.poisson(300, size=36))
        out = tmp_path / "report.json"
        assert main(["reconstruct", str(ds_path), "--ordering", ordering,
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        rho = density_matrix_from_json(report["reconstruction"]["rho"])
        assert report["bases"] is not None
        assert report["bases"] == json.loads(canonical_json(basis_report(rho, ordering)))

    def test_truncated_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"tau_s": 1e-9, "measure')
        assert main(["reconstruct", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["reconstruct", str(tmp_path / "nope.json")]) == 2

    def test_non_convergence_exits_3_with_partial_report(self, tmp_path, monkeypatch, capsys):
        import entqkd.cli as cli
        real = cli.tomography.mle_reconstruct

        def capped(frequencies, settings, **kwargs):
            # from I/4 the exact Bell counts below certify after 3 iterations; 1 cannot
            kwargs["max_iterations"] = 1
            kwargs["rho_start"] = np.eye(4) / 4.0
            return real(frequencies, settings, **kwargs)

        monkeypatch.setattr(cli.tomography, "mle_reconstruct", capped)
        ds_path = bell_dataset(tmp_path / "bell.json")
        out = tmp_path / "report.json"
        assert main(["reconstruct", str(ds_path), "--out", str(out)]) == 3
        report = json.loads(out.read_text())
        assert report["reconstruction"]["converged"] is False
        assert report["reconstruction"]["stop"] == "cap"
        assert "did not converge: stop 'cap'" in capsys.readouterr().err

    def test_uncertified_floor_stop_exits_3(self, tmp_path, monkeypatch, capsys):
        # no backtracking attempt is allowed, so the floor stop fires far from the
        # optimum: from I/4, since the exact Bell counts certify at their own start
        import entqkd.cli as cli
        monkeypatch.setattr(cli.tomography, "_MAX_HALVINGS", 0)
        real = cli.tomography.mle_reconstruct

        def from_mixed(frequencies, settings, **kwargs):
            return real(frequencies, settings, rho_start=np.eye(4) / 4.0, **kwargs)

        monkeypatch.setattr(cli.tomography, "mle_reconstruct", from_mixed)
        ds_path = bell_dataset(tmp_path / "bell.json")
        out = tmp_path / "report.json"
        assert main(["reconstruct", str(ds_path), "--out", str(out)]) == 3
        rec = json.loads(out.read_text())["reconstruction"]
        assert (rec["converged"], rec["stop"], rec["iterations"]) == (False, "floor", 2)
        assert rec["gap"] > 1e-8
        assert "did not converge: stop 'floor'" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("duration_s", math.inf), ("tau_s", math.nan)])
    def test_non_finite_timing_exits_2_before_any_fit(self, tmp_path, monkeypatch, capsys,
                                                       field, value):
        import entqkd.cli as cli

        def no_fit(*args, **kwargs):
            raise AssertionError("mle_reconstruct ran on an invalid dataset")

        monkeypatch.setattr(cli.tomography, "mle_reconstruct", no_fit)
        obj = {"tau_s": 1e-9, "duration_s": 1.0, field: value,
               "measurements": [{"a": a, "b": b, "count": 100} for a, b in SETTINGS.pairs]}
        ds_path = tmp_path / "timing.json"
        ds_path.write_text(json.dumps(obj))  # writes Infinity / NaN, which json.load accepts
        out = tmp_path / "report.json"
        assert main(["reconstruct", str(ds_path), "--mc", "5", "--out", str(out)]) == 2
        assert f"error: {field}: must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,requirement", [
        ("--seed", "-1", "a nonnegative integer"), ("--seed", "1.5", "a nonnegative integer"),
        ("--mc", "1", "0 or an integer of at least 2"),
        ("--mc", "-3", "0 or an integer of at least 2")])
    def test_bad_monte_carlo_flag_exits_2_before_any_fit(self, tmp_path, monkeypatch, capsys,
                                                         flag, value, requirement):
        import entqkd.cli as cli

        def no_fit(*args, **kwargs):
            raise AssertionError("mle_reconstruct ran despite an invalid flag")

        monkeypatch.setattr(cli.tomography, "mle_reconstruct", no_fit)
        ds_path = bell_dataset(tmp_path / "bell.json")
        out = tmp_path / "report.json"
        argv = ["reconstruct", str(ds_path), "--mc", "5", "--out", str(out), flag, value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: must be {requirement}, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_count_beyond_int64_exits_2(self, tmp_path, capsys):
        obj = {"tau_s": 1e-9, "duration_s": 1.0,
               "measurements": [{"a": a, "b": b, "count": 100} for a, b in SETTINGS.pairs]}
        obj["measurements"][4]["count"] = 2 ** 70
        ds_path = tmp_path / "huge.json"
        ds_path.write_text(json.dumps(obj))
        assert main(["reconstruct", str(ds_path)]) == 2
        assert "error: measurements[4].count: count must be at most" in capsys.readouterr().err


class TestModel:
    def test_lossless_curve_peak(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["model", "--eta", "1", "--nbar-grid", "0.001:0.166839:160",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n_bar,kappa,S,Q,r_dw,r_c,R_key"
        r_key = np.array([float(line.split(",")[6]) for line in lines[1:]])
        assert r_key.max() == pytest.approx(0.0289, abs=2e-4)

    def test_rho0_pipeline(self, tmp_path):
        rho0 = werner_mix(bell_state("phi+"), 0.02)
        rho_path = tmp_path / "rho0.json"
        rho_path.write_text(canonical_json(density_matrix_to_json(rho0)))
        out = tmp_path / "curve.csv"
        assert main(["model", "--eta", "0.5", "--nbar-grid", "0.001:0.1:4",
                     "--rho0-file", str(rho_path), "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        first = [float(tok) for tok in rows[0].split(",")]
        # at tiny gain the curve starts from the single-pair state itself
        assert first[1] == pytest.approx(0.02, abs=2e-3)  # kappa column

    def test_rho0_pipeline_rejects_zero_gain(self, tmp_path, capsys):
        rho_path = tmp_path / "w.json"
        rho_path.write_text(canonical_json(density_matrix_to_json(
            werner_mix(bell_state("phi+"), 0.005))))
        assert main(["model", "--eta", "0.16", "--nbar-grid", "0:0.1:5",
                     "--rho0-file", str(rho_path), "--out", str(tmp_path / "c.csv")]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err[-1].startswith("error: ") and "n_bar = 0.0" in err[-1]
        # the closed-form curve has an n_bar = 0 row on the same grid
        assert main(["model", "--eta", "0.16", "--nbar-grid", "0:0.1:5",
                     "--out", str(tmp_path / "c.csv")]) == 0

    def test_rho0_pipeline_unconverged_exits_3(self, tmp_path, monkeypatch, capsys):
        import entqkd.cli as cli
        monkeypatch.setattr(cli.tomography, "_MAX_HALVINGS", 0)
        rho_path = unequal_marginals_rho0_file(tmp_path / "rho0.json")
        out = tmp_path / "curve.csv"
        assert main(["model", "--eta-a", "0.8", "--eta-b", "0.3", "--nbar-grid", "0.001:0.1:4",
                     "--rho0-file", str(rho_path), "--out", str(out)]) == 3
        assert "error: the fit at n_bar = 0.001 did not converge" in capsys.readouterr().err
        assert not out.exists()

    def test_rho0_pipeline_s_falls_with_gain(self, tmp_path):
        # |phi+> with its coherences x 0.98: a fit stopped far from its optimum once
        # gave the first point S = 2.77885 below the second's 2.79995
        rho0 = bell_state("phi+")
        rho0[0, 3] *= 0.98
        rho0[3, 0] *= 0.98
        rho_path = tmp_path / "rho0.json"
        rho_path.write_text(canonical_json(density_matrix_to_json(rho0)))
        out = tmp_path / "curve.csv"
        assert main(["model", "--eta", "1", "--nbar-grid", "1e-4:0.15:40", "--log",
                     "--rho0-file", str(rho_path), "--out", str(out)]) == 0
        s = np.array([float(line.split(",")[2])
                      for line in out.read_text().strip().split("\n")[1:]])
        assert len(s) == 40
        assert s[0] == pytest.approx(2.0 * math.sqrt(1.0 + 0.98 ** 2), abs=1e-3)  # 2.80029
        assert np.all(np.diff(s) < 0.0)

    def test_log_grid(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["model", "--eta", "0.5", "--nbar-grid", "1e-4:0.1:7", "--log",
                     "--out", str(out)]) == 0
        n_bar = [float(line.split(",")[0])
                 for line in out.read_text().strip().split("\n")[1:]]
        ratios = np.diff(np.log(n_bar))
        assert np.allclose(ratios, ratios[0])  # geometric spacing

    def test_flag_validation(self, tmp_path):
        assert main(["model", "--eta", "1.5"]) == 2
        assert main(["model", "--eta", "0.5", "--nbar-grid", "0.2:0.1:5"]) == 2
        assert main(["model", "--eta", "0.5", "--eta-a", "0.4"]) == 2
        assert main(["model", "--eta", "0.5", "--nbar-grid", "0:0.1:5", "--log"]) == 2

    @pytest.mark.parametrize("spec,bound", [("0:inf:3", "stop"), ("nan:0.1:3", "start"),
                                            ("-0.1:0.1:3", "start")])
    def test_bad_grid_bound_names_the_grid(self, capsys, spec, bound):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["model", f"--nbar-grid={spec}"]) == 2
        assert f"error: --nbar-grid {spec!r} {bound} must" in capsys.readouterr().err


class TestOptimize:
    def test_json_payload(self, tmp_path):
        out = tmp_path / "opt.json"
        assert main(["optimize", "--eta", "1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["n_bar_opt"] == pytest.approx(0.07022, abs=1e-4)
        assert payload["r_key_opt"] == pytest.approx(0.02888, abs=1e-4)
        assert payload["n_bar_critical"] == pytest.approx(0.16024, abs=1e-4)

    def test_eta_zero_rejected(self):
        assert main(["optimize", "--eta", "0"]) == 2

    @pytest.mark.parametrize("command", ["optimize", "model"])
    def test_vanishing_transmittance_runs(self, tmp_path, command):
        # the closed-form noise weight once divided 0 by 0 here
        out = tmp_path / "out"
        assert main([command, "--eta", "1e-300", "--out", str(out)]) == 0
        assert out.stat().st_size > 0


class TestBases:
    def test_table_output(self, capsys):
        assert main(["bases", "--bell", "phi+"]) == 0
        out = capsys.readouterr().out
        assert "A0" in out and "B2" in out
        assert "22.5000" in out  # D/A half-wave plate dial
        assert "achieved: S = 2.828427" in out

    def test_state_file_input(self, tmp_path, capsys):
        rho_path = tmp_path / "rho.json"
        rho_path.write_text(canonical_json(
            density_matrix_to_json(werner_mix(bell_state("psi-"), 0.1))))
        assert main(["bases", "--rho0-file", str(rho_path), "--ordering", "bob_first"]) == 0
        assert "ordering: bob_first" in capsys.readouterr().out

    def test_non_finite_state_file_rejected(self, tmp_path, capsys):
        rho = np.eye(4) / 4
        rho[0, 1] = rho[1, 0] = math.nan
        rho_path = tmp_path / "nan.json"
        rho_path.write_text(json.dumps({"re": rho.tolist(), "im": np.zeros((4, 4)).tolist()}))
        assert main(["bases", "--rho0-file", str(rho_path)]) == 2
        assert "error: rho has non-finite entries" in capsys.readouterr().err

    def test_maximally_mixed_rejected(self, tmp_path, capsys):
        rho_path = tmp_path / "mixed.json"
        rho_path.write_text(canonical_json(
            density_matrix_to_json(np.eye(4, dtype=complex) / 4)))
        assert main(["bases", "--rho0-file", str(rho_path)]) == 2


class TestCompare:
    def test_emits_threshold_markers(self, tmp_path, capsys):
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--nbar-grid", "0.001:0.2:12",
                     "--out-dir", str(out_dir)]) == 0
        thresholds = (out_dir / "thresholds.csv").read_text().strip().split("\n")
        by_label = {line.split(",")[0]: float(line.split(",")[1])
                    for line in thresholds[1:]}
        assert by_label["threshold_dephasing_c95"] == pytest.approx(0.035, abs=1e-3)
        assert by_label["threshold_white_c95"] == pytest.approx(0.044, abs=1e-3)
        for name in ("spdc_ideal.csv", "spdc_model.csv",
                     "single_pair_lines.csv", "reference_points.csv"):
            assert (out_dir / name).exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "2.83"])
    def test_bad_s_target_names_the_flag(self, tmp_path, capsys, value):
        out_dir = tmp_path / "cmp"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["compare", "--s-target", value, "--out-dir", str(out_dir)]) == 2
        assert "error: --s-target must lie in [0, 2.828427125]" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unconverged_curve_exits_3_without_output(self, tmp_path, monkeypatch, capsys):
        import entqkd.cli as cli
        monkeypatch.setattr(cli.tomography, "_MAX_HALVINGS", 0)
        rho_path = unequal_marginals_rho0_file(tmp_path / "rho0.json")
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--eta-a", "0.8", "--eta-b", "0.3", "--nbar-grid", "0.001:0.2:8",
                     "--rho0-file", str(rho_path), "--out-dir", str(out_dir)]) == 3
        assert "error: the fit at n_bar = 0.001 did not converge" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags,eta_a,eta_b", [([], 0.16, 0.16),
                                                   (["--eta-a", "0.8"], 0.8, 1.0)])
    def test_files_are_the_comparison_series(self, tmp_path, flags, eta_a, eta_b):
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--nbar-grid", "0.001:0.2:8", "--out-dir", str(out_dir),
                     *flags]) == 0
        rho0 = werner_mix(bell_state("phi+"), 1.0 - 2.815 / TSIRELSON)
        series = comparison_series(rho0, eta_a, eta_b, np.geomspace(0.001, 0.2, 8))
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(f"{name}.csv"
                                                                   for name in series)
        for name, (header, rows) in series.items():
            assert (out_dir / f"{name}.csv").read_text() == csv_text(header, rows)

    def test_reference_points_carry_all_rows(self, tmp_path):
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--nbar-grid", "0.001:0.2:8",
                     "--out-dir", str(out_dir)]) == 0
        rows = (out_dir / "reference_points.csv").read_text().strip().split("\n")
        assert len(rows) == 21  # header + 20 rows


class TestParser:
    """One parser serves every ``main`` call of a process."""

    def test_calls_parse_independently(self, tmp_path):
        grid = "0.001:0.1:5"
        lossy, lossless = tmp_path / "lossy.csv", tmp_path / "lossless.csv"
        assert main(["model", "--eta-a", "0.5", "--log", "--nbar-grid", grid,
                     "--out", str(lossy)]) == 0
        assert main(["model", "--nbar-grid", grid, "--out", str(lossless)]) == 0
        # no flag of the first call leaks into the second: eta 1 on a linear grid
        assert lossless.read_text() == model_points_to_csv(
            model_curve(1.0, 1.0, np.linspace(0.001, 0.1, 5)))
        assert lossy.read_text() == model_points_to_csv(
            model_curve(0.5, 1.0, np.geomspace(0.001, 0.1, 5)))
        opt = tmp_path / "opt.json"
        assert main(["optimize", "--out", str(opt)]) == 0
        assert json.loads(opt.read_text())["eta_a"] == 1.0

    def test_commands_are_looked_up_when_called(self, monkeypatch):
        import entqkd.cli as cli
        assert main(["table-check"]) == 0  # the parser exists from here on
        monkeypatch.setattr(cli, "cmd_table_check", lambda args: 7)
        assert main(["table-check"]) == 7


class TestHelp:
    @pytest.mark.parametrize("command,default", [("compare", "0.16"), ("model", "1.0"),
                                                 ("optimize", "1.0")])
    def test_help_states_transmittance_default(self, capsys, command, default):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert f"(default {default} when no transmittance flag" in " ".join(
            capsys.readouterr().out.split())


class TestTableCheck:
    def test_bundled_table_passes(self, capsys):
        assert main(["table-check"]) == 0
        out = capsys.readouterr().out
        assert "20/20 rows consistent" in out

    def test_corrupted_table_fails(self, tmp_path, capsys):
        from importlib import resources

        import entqkd.cli as cli
        text = resources.files("entqkd.data").joinpath("reference_table.json").read_text()
        obj = json.loads(text)
        obj["rows"][0]["r_dw"]["value"] = 0.5  # inconsistent with printed (S, Q)
        bad = tmp_path / "table.json"
        bad.write_text(json.dumps(obj))
        assert main(["table-check", str(bad)]) == cli.EXIT_INCONSISTENT == 1
        assert "FAIL" in capsys.readouterr().out
