import json

import numpy as np
import pytest

import helpers
from entqkd import bell_state, werner_mix
from entqkd.dataio import (DatasetFormatError, canonical_json,
                           dataset_from_dict, dataset_to_dict,
                           density_matrix_from_json, density_matrix_to_json,
                           load_dataset, model_points_to_csv, save_dataset)
from entqkd.spdc import ModelPoint, model_curve
from entqkd.tomography import TomographyDataset, TomographySettings

SETTINGS = TomographySettings.canonical()


def dataset_dict(count=25):
    return {
        "tau_s": 1e-9,
        "duration_s": 2.0,
        "measurements": [{"a": a, "b": b, "count": count} for a, b in SETTINGS.pairs],
    }


class TestDensityMatrixJson:
    def test_round_trip(self, rng):
        rho = helpers.random_density_matrix(rng)
        again = density_matrix_from_json(density_matrix_to_json(rho))
        assert np.max(np.abs(again - rho)) < 1e-15

    def test_structure(self):
        payload = density_matrix_to_json(werner_mix(bell_state("phi+"), 0.2))
        assert set(payload) == {"re", "im"}
        assert np.asarray(payload["re"]).shape == (4, 4)

    def test_missing_field(self):
        with pytest.raises(DatasetFormatError):
            density_matrix_from_json({"re": np.eye(4).tolist()})

    @pytest.mark.parametrize("re,im,field", [
        ({}, {}, "re"),
        (np.eye(4) / 4, np.zeros((2, 2)), "im"),
        ([[0.25, 0.0], [0.0]], np.zeros((4, 4)), "re"),
        (np.full((4, 4), "0"), np.zeros((4, 4)), "re"),
        (np.full((4, 4), True), np.zeros((4, 4)), "re"),
        ([[0.25, False, 0.0, 0.0], [False, 0.25, 0.0, 0.0], [0.0, 0.0, 0.25, 0.0],
          [0.0, 0.0, 0.0, 0.25]], np.zeros((4, 4)), "re"),
        (np.eye(4) / 4, [[10 ** 400] * 4] * 4, "im"),
        (np.eye(4) / 4, None, "im"),
    ])
    def test_parts_must_be_4x4_arrays_of_numbers(self, re, im, field):
        obj = json.loads(json.dumps({"re": re, "im": im}, default=np.ndarray.tolist))
        with pytest.raises(DatasetFormatError, match="must be a 4 x 4 array of numbers") as err:
            density_matrix_from_json(obj)
        assert err.value.field == field


class TestDatasetParsing:
    def test_round_trip_preserves_values(self):
        ds = dataset_from_dict(dataset_dict())
        again = dataset_from_dict(dataset_to_dict(ds))
        assert np.array_equal(ds.counts, again.counts)
        assert ds.tau_s == again.tau_s and ds.duration_s == again.duration_s

    def test_order_insensitive(self, rng):
        obj = dataset_dict()
        counts = {pair: int(rng.integers(0, 100)) for pair in SETTINGS.pairs}
        obj["measurements"] = [{"a": a, "b": b, "count": counts[(a, b)]}
                               for a, b in SETTINGS.pairs]
        shuffled = dict(obj)
        shuffled["measurements"] = list(reversed(obj["measurements"]))
        a = dataset_from_dict(obj)
        b = dataset_from_dict(shuffled)
        assert np.array_equal(a.counts, b.counts)

    def test_canonical_output_order(self):
        ds = dataset_from_dict(dataset_dict())
        out = dataset_to_dict(ds)
        labels = [(m["a"], m["b"]) for m in out["measurements"]]
        assert labels == list(SETTINGS.pairs)

    @pytest.mark.parametrize("mutate,field_part", [
        (lambda d: d.pop("tau_s"), "tau_s"),
        (lambda d: d.update(tau_s=-1.0), "tau_s"),
        (lambda d: d.update(tau_s=float("nan")), "tau_s"),
        (lambda d: d.update(tau_s=float("inf")), "tau_s"),
        (lambda d: d.update(duration_s=float("inf")), "duration_s"),
        (lambda d: d.update(duration_s=float("nan")), "duration_s"),
        (lambda d: d.update(duration_s=10 ** 400), "duration_s"),
        (lambda d: d["measurements"].pop(), "measurements"),
        (lambda d: d["measurements"][3].update(a="Q"), "measurements[3].a"),
        (lambda d: d["measurements"][5].update(count=-2), "measurements[5].count"),
        (lambda d: d["measurements"][7].update(count=1.5), "measurements[7].count"),
        (lambda d: d["measurements"][9].update(count=2 ** 70), "measurements[9].count"),
        (lambda d: d["measurements"][2].pop("b"), "measurements[2]"),
    ])
    def test_schema_violations_name_the_field(self, mutate, field_part):
        obj = dataset_dict()
        mutate(obj)
        with pytest.raises(DatasetFormatError) as err:
            dataset_from_dict(obj)
        assert err.value.field == field_part

    def test_duplicate_pair(self):
        obj = dataset_dict()
        obj["measurements"][1] = dict(obj["measurements"][0])
        with pytest.raises(DatasetFormatError, match="duplicate|missing"):
            dataset_from_dict(obj)

    def test_file_round_trip(self, tmp_path, rng):
        counts = rng.integers(0, 500, size=36)
        ds = TomographyDataset(settings=SETTINGS, counts=counts.astype(np.int64),
                               tau_s=2e-9, duration_s=3.5)
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        again = load_dataset(path)
        assert np.array_equal(again.counts, ds.counts)
        # canonical serialization is stable under a second round trip
        save_dataset(again, tmp_path / "ds2.json")
        assert (tmp_path / "ds.json").read_text() == (tmp_path / "ds2.json").read_text()

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"tau_s": 1e-9, "duration')
        with pytest.raises(DatasetFormatError):
            load_dataset(path)


class TestCanonicalJson:
    def test_deterministic(self):
        obj = {"b": 1.5, "a": [1, 2, {"z": 0.1, "y": None}]}
        assert canonical_json(obj) == canonical_json(json.loads(canonical_json(obj)))
        assert canonical_json(obj).endswith("\n")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestModelCsv:
    def test_header_and_rows(self):
        points = model_curve(1.0, 1.0, [0.0, 0.05, 0.1])
        text = model_points_to_csv(points)
        lines = text.strip().split("\n")
        assert lines[0] == "n_bar,kappa,S,Q,r_dw,r_c,R_key"
        assert len(lines) == 4

    def test_full_precision_round_trip(self):
        pt = ModelPoint(n_bar=0.07, kappa=0.1234567890123456, s=2.5, q=0.05,
                        r_dw=0.3, r_c=1e-3, r_key=3e-4)
        line = model_points_to_csv([pt]).strip().split("\n")[1]
        values = [float(tok) for tok in line.split(",")]
        assert values == list(pt)
