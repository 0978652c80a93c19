"""Bundled experimental reference table and its internal-consistency check.

The table lists published r_C, S, Q, r_DW and R_key values of a CW SPDC
source for 20 coincidence-window lengths.  Raw counts behind it are not
available, so the strongest check the table supports is internal
consistency: recomputing r_DW from the printed (S, Q) and R_key from
r_DW * r_C must agree with the printed numbers within half a unit of
the printed resolution plus the quoted one-sigma uncertainty.  Printed
zeros must come out exactly zero under the clamped rate.

A table file is read by ``dataio._read_json``, which names the file in
any error; the parsers here name only the field, e.g. ``rows[0].r_c``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from importlib import resources

from .dataio import _read_json
from .metrics import devetak_winter, key_rate

_BUNDLED = "reference_table.json"
# a row holds tau_ns and five printed quantities, each a value, sigma and resolution
_ROW_FIELDS = ("tau_ns", "r_c", "s", "q", "r_dw", "r_key")
_PRINTED_FIELDS = ("value", "sigma", "resolution")
_NUMBER_FIELDS = ("tau_ns", *(f"{name}.{part}" for name in _ROW_FIELDS[1:]
                              for part in _PRINTED_FIELDS))


@dataclass(frozen=True)
class Measured:
    """A printed value with quoted sigma and print resolution."""

    value: float
    sigma: float
    resolution: float

    @property
    def tolerance(self) -> float:
        return self.resolution / 2.0 + self.sigma

    @property
    def is_exact_zero(self) -> bool:
        return self.value == 0.0 and self.sigma == 0.0


@dataclass(frozen=True)
class ReferenceRow:
    tau_ns: float
    r_c: Measured
    s: Measured
    q: Measured
    r_dw: Measured
    r_key: Measured


@dataclass(frozen=True)
class RowCheck:
    """Consistency outcome for one table row."""

    tau_ns: float
    r_dw_computed: float
    r_dw_printed: float
    r_dw_tolerance: float
    r_dw_ok: bool
    r_key_computed: float
    r_key_printed: float
    r_key_tolerance: float
    r_key_ok: bool

    @property
    def ok(self) -> bool:
        return self.r_dw_ok and self.r_key_ok


def _object(obj, where: str, keys) -> dict:
    """obj, a JSON object holding ``keys``; ValueError names the field."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where or 'the table'} must be a JSON object")
    if not obj.keys() >= set(keys):
        missing = next(key for key in keys if key not in obj)
        raise ValueError(f"{where}{'.' if where else ''}{missing} is missing")
    return obj


def _rows_from_obj(obj) -> list[ReferenceRow]:
    rows = _object(obj, "", ("rows",))["rows"]
    if not isinstance(rows, list):
        raise ValueError("rows must be a list")
    out = []
    for i, row in enumerate(rows):
        where = f"rows[{i}]"
        values = [_object(row, where, _ROW_FIELDS)["tau_ns"]]
        for name in _ROW_FIELDS[1:]:
            printed = _object(row[name], f"{where}.{name}", _PRINTED_FIELDS)
            values += (printed["value"], printed["sigma"], printed["resolution"])
        for field, value in zip(_NUMBER_FIELDS, values):
            # NaN fails the comparison; it also refuses integers beyond float range
            if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
                raise ValueError(f"{where}.{field} must be a finite number, got {value!r}")
        numbers = [float(value) for value in values]
        out.append(ReferenceRow(numbers[0], *(Measured(*numbers[k:k + 3]) for k in range(1, 16, 3))))
    return out


def load_reference_table(path=None) -> list[ReferenceRow]:
    """Load the bundled table, or a table file of the same schema.

    A file that cannot be read as a table (not UTF-8, not JSON, a missing
    field, a value that is not a finite number, rows that are not a list
    of objects) raises ValueError naming the file and, for the schema,
    the field, e.g. ``rows[0].r_c``.
    """
    if path is None:
        # data/ is a directory of the package, not a package: resources.files of it
        # as a namespace package fails when entqkd is imported from a zip file
        text = (resources.files("entqkd") / "data" / _BUNDLED).read_text(encoding="utf-8")
        return _rows_from_obj(json.loads(text))
    return _read_json(path, _rows_from_obj)


def check_row(row: ReferenceRow) -> RowCheck:
    r_dw = devetak_winter(row.s.value, row.q.value)
    r_key = key_rate(r_dw, row.r_c.value)
    if row.r_dw.is_exact_zero:
        r_dw_ok = r_dw == 0.0
        r_key_ok = r_key == 0.0
    else:
        r_dw_ok = abs(r_dw - row.r_dw.value) <= row.r_dw.tolerance
        r_key_ok = abs(r_key - row.r_key.value) <= row.r_key.tolerance
    return RowCheck(tau_ns=row.tau_ns,
                    r_dw_computed=r_dw, r_dw_printed=row.r_dw.value,
                    r_dw_tolerance=row.r_dw.tolerance, r_dw_ok=r_dw_ok,
                    r_key_computed=r_key, r_key_printed=row.r_key.value,
                    r_key_tolerance=row.r_key.tolerance, r_key_ok=r_key_ok)


def check_reference_table(rows=None) -> list[RowCheck]:
    """Run the consistency check for every row (bundled table by default)."""
    if rows is None:
        rows = load_reference_table()
    return [check_row(row) for row in rows]
