"""Deterministic JSON and CSV serialization for reports.

Identical inputs must produce byte-identical files, so floats are always
formatted with 17 significant digits (enough to round-trip a double) and
JSON keys are emitted sorted.  Non-finite floats become JSON strings to
keep the output parseable everywhere.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from typing import Iterable, Sequence

import numpy as np

from .metaoptics import IndexSpectrum, PhaseSpectrum
from .photonsim import Interferogram

__all__ = [
    "CsvFormatError",
    "format_float",
    "dumps_json",
    "write_json",
    "write_interferogram_csv",
    "read_interferogram_csv",
    "write_histogram_csv",
    "write_sweep_csv",
    "write_index_csv",
    "read_phase_spectrum_csv",
]


class CsvFormatError(ValueError):
    """Malformed CSV input, with file and line context in the message."""


def format_float(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")


def _json_fragment(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x == 0.0 and math.copysign(1.0, x) < 0.0:
            return "-0.0"  # "-0" would read back as the integer 0, which has no sign
        return format_float(x) if math.isfinite(x) else f'"{format_float(x)}"'
    if isinstance(obj, str):
        out = ['"']
        for ch in obj:
            if ch in '"\\':
                out.append("\\" + ch)
            elif ord(ch) < 0x20:
                out.append(f"\\u{ord(ch):04x}")
            else:
                out.append(ch)
        out.append('"')
        return "".join(out)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _json_fragment(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        items = sorted(obj.items())
        body = ",".join(f"{_json_fragment(str(k))}:{_json_fragment(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, np.ndarray):
        return _json_fragment(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json_fragment(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_json(obj) -> str:
    return _json_fragment(obj) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_json(obj))


def _format_count(c) -> str:
    x = float(c)
    if x == int(x):
        return str(int(x))
    return format_float(x)


def write_interferogram_csv(path, ig: Interferogram) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("phase_rad,counts_d1,counts_d2\n")
        for phi, d1, d2 in zip(ig.phase_rad, ig.counts_d1, ig.counts_d2):
            fh.write(f"{format_float(phi)},{_format_count(d1)},{_format_count(d2)}\n")


def _parse_rows(path, expected_header: Sequence[str]) -> np.ndarray:
    """The data rows as a float array; every field must be a finite number."""
    rows, linenos = [], []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise CsvFormatError(f"{path}: empty file")
            header = [h.strip() for h in header]
            if header != list(expected_header):
                raise CsvFormatError(
                    f"{path}: line 1: expected header {','.join(expected_header)!r}, "
                    f"got {','.join(header)!r}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(expected_header):
                    raise CsvFormatError(
                        f"{path}: line {lineno}: expected {len(expected_header)} "
                        f"fields, got {len(row)}")
                try:
                    rows.append([float(v) for v in row])
                except ValueError as err:
                    raise CsvFormatError(f"{path}: line {lineno}: {err}") from err
                linenos.append(lineno)
    except OSError as err:
        raise CsvFormatError(f"{path}: {err}") from err
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    data = np.array(rows, dtype=float)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise CsvFormatError(f"{path}: line {linenos[int(np.argmin(finite))]}: "
                             f"non-finite value")
    return data


def read_interferogram_csv(path, label: str = "") -> Interferogram:
    data = _parse_rows(path, ("phase_rad", "counts_d1", "counts_d2"))
    counts = data[:, 1:]
    if np.any(counts < 0):
        raise CsvFormatError(f"{path}: negative counts")
    # integer counts become int64 only up to 2**53, where every float is exact
    if np.all(counts == np.round(counts)) and np.all(counts <= 2.0 ** 53):
        counts = counts.astype(np.int64)
    return Interferogram(phase_rad=data[:, 0], counts_d1=counts[:, 0],
                         counts_d2=counts[:, 1], label=label)


def write_histogram_csv(path, rows: Iterable[tuple[float, int]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("bin_center,count\n")
        for center, count in rows:
            fh.write(f"{format_float(center)},{int(count)}\n")


def write_sweep_csv(path, points) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epsilon,gamma_shift,significance\n")
        for pt in points:
            fh.write(f"{format_float(pt.epsilon)},{format_float(pt.gamma_shift)},"
                     f"{format_float(pt.significance)}\n")


def write_index_csv(path, spectrum: IndexSpectrum) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("wavelength_nm,n\n")
        for wl, n in zip(spectrum.wavelength_nm, spectrum.n):
            fh.write(f"{format_float(wl)},{format_float(n)}\n")


def read_phase_spectrum_csv(path) -> PhaseSpectrum:
    data = _parse_rows(path, ("wavelength_nm", "phase_rad"))
    try:
        return PhaseSpectrum(wavelength_nm=data[:, 0], phase_rad=data[:, 1])
    except ValueError as err:
        raise CsvFormatError(f"{path}: {err}") from err
