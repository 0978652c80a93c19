"""JSON and CSV serialization for states, datasets, curves, and reports.

Dataset files look like

    {"tau_s": 1e-9, "duration_s": 1.0,
     "measurements": [{"a": "H", "b": "V", "count": 123}, ...]}

with exactly one entry per ordered projection pair.  Input order is
irrelevant (entries are keyed by the pair); output is canonicalized to
row-major H, V, D, A, R, L order.  Density matrices serialize as
{"re": 4x4, "im": 4x4} row-major in the |HH>, |HV>, |VH>, |VV> basis.

Every input file (a state, a dataset or a reference table) is read by
``_read_json``, so any error about one starts with the file's name; the
parsers it calls name only the offending field.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .spdc import MODEL_CSV_HEADER, ModelPoint
from .states import validate_density_matrix
from .tomography import PROJECTION_LABELS, TomographyDataset, TomographySettings

_INT64_MAX = int(np.iinfo(np.int64).max)


class DatasetFormatError(ValueError):
    """Schema violation in an input file; ``field`` names the offender.

    The parsers name a field of the JSON value; ``_read_json`` turns every
    ValueError raised while it reads a file into one of these, with the
    file as ``field``.
    """

    def __init__(self, message: str, field: str = ""):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field


def density_matrix_to_json(rho: np.ndarray) -> dict:
    rho = validate_density_matrix(rho)
    return {"re": rho.real.tolist(), "im": rho.imag.tolist()}


def density_matrix_from_json(obj: dict) -> np.ndarray:
    """The validated state in ``obj``, {"re": 4x4, "im": 4x4} arrays of numbers."""
    return validate_density_matrix(_matrix_part(obj, "re") + 1j * _matrix_part(obj, "im"))


def _matrix_part(obj, key: str) -> np.ndarray:
    """obj[key] as floats; anything but a 4 x 4 array of JSON numbers names ``key``.

    JSON true and false are not numbers here, and neither is an integer
    beyond float range; NaN and infinities pass, for validation to name.
    """
    if not isinstance(obj, dict) or key not in obj:
        raise DatasetFormatError(f'missing "{key}" array', field="rho")
    part = np.asarray(obj[key], dtype=object)
    try:
        if part.shape == (4, 4) and all(type(v) in (int, float) for v in part.flat):
            return part.astype(float)
    except OverflowError:  # an integer beyond float range
        pass
    raise DatasetFormatError("must be a 4 x 4 array of numbers", field=key)


def dataset_from_dict(obj: dict) -> TomographyDataset:
    """Parse and validate a dataset object; a schema violation names its field."""
    if not isinstance(obj, dict):
        raise DatasetFormatError("dataset must be a JSON object")
    for key in ("tau_s", "duration_s", "measurements"):
        if key not in obj:
            raise DatasetFormatError("missing required field", field=key)
    for key in ("tau_s", "duration_s"):
        if not isinstance(obj[key], (int, float)) or isinstance(obj[key], bool):
            raise DatasetFormatError("must be a number", field=key)
        # NaN fails both comparisons; the upper one also refuses integers beyond float range
        if not 0 < obj[key] <= sys.float_info.max:
            raise DatasetFormatError("must be positive and finite", field=key)
    measurements = obj["measurements"]
    if not isinstance(measurements, list) or len(measurements) != 36:
        raise DatasetFormatError("must be a list of exactly 36 entries", field="measurements")

    by_pair = {}
    for idx, entry in enumerate(measurements):
        field = f"measurements[{idx}]"
        if not isinstance(entry, dict):
            raise DatasetFormatError("entry must be an object", field=field)
        for key in ("a", "b", "count"):
            if key not in entry:
                raise DatasetFormatError(f'missing "{key}"', field=field)
        a, b, count = entry["a"], entry["b"], entry["count"]
        if a not in PROJECTION_LABELS:
            raise DatasetFormatError(f"unknown projection label {a!r}", field=f"{field}.a")
        if b not in PROJECTION_LABELS:
            raise DatasetFormatError(f"unknown projection label {b!r}", field=f"{field}.b")
        if isinstance(count, bool) or not isinstance(count, int):
            raise DatasetFormatError("count must be an integer", field=f"{field}.count")
        if count < 0:
            raise DatasetFormatError("count must be nonnegative", field=f"{field}.count")
        if count > _INT64_MAX:
            raise DatasetFormatError(f"count must be at most {_INT64_MAX}",
                                     field=f"{field}.count")
        if (a, b) in by_pair:
            raise DatasetFormatError(f"duplicate projection pair ({a}, {b})", field=field)
        by_pair[(a, b)] = count

    settings = TomographySettings.canonical()
    missing = [pair for pair in settings.pairs if pair not in by_pair]
    if missing:
        raise DatasetFormatError(f"missing projection pairs: {missing}", field="measurements")
    counts = np.array([by_pair[pair] for pair in settings.pairs], dtype=np.int64)
    return TomographyDataset(settings=settings, counts=counts,
                             tau_s=float(obj["tau_s"]), duration_s=float(obj["duration_s"]))


def dataset_to_dict(ds: TomographyDataset) -> dict:
    """Canonical JSON form: measurements in row-major H..L x H..L order."""
    return {
        "tau_s": ds.tau_s,
        "duration_s": ds.duration_s,
        "measurements": [
            {"a": a, "b": b, "count": int(count)}
            for (a, b), count in zip(ds.settings.pairs, ds.counts)
        ],
    }


def _read_json(path, parse):
    """parse(the JSON value in file ``path``), the one reader of input files.

    Any ValueError on the way (bytes that are not UTF-8, text that is not
    JSON, a schema violation or a failed validation) leaves as one
    DatasetFormatError whose message starts with ``path``, and so does
    the RecursionError of arrays or objects nested too deep to decode.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        return parse(obj)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"not valid JSON: {exc}", field=str(path)) from exc
    except (ValueError, RecursionError) as exc:
        raise DatasetFormatError(str(exc), field=str(path)) from exc


def load_dataset(path) -> TomographyDataset:
    return _read_json(path, dataset_from_dict)


def load_density_matrix(path) -> np.ndarray:
    """The state in JSON file ``path``; any error names the file."""
    return _read_json(path, density_matrix_from_json)


def save_dataset(ds: TomographyDataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(dataset_to_dict(ds)))


def canonical_json(obj) -> str:
    """Deterministic report text: sorted keys, 2-space indent, newline at EOF."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def csv_text(header: str, rows) -> str:
    """Header line, then one line per row; strings as given, numbers as repr(float(v))."""
    lines = [header]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def model_points_to_csv(points: list[ModelPoint]) -> str:
    """CSV with header n_bar,kappa,S,Q,r_dw,r_c,R_key at full double precision."""
    return csv_text(MODEL_CSV_HEADER, points)
