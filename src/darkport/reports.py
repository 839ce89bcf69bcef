"""Deterministic JSON and CSV serialization for reports.

Identical inputs must produce byte-identical files, so floats are always
formatted with 17 significant digits (enough to round-trip a double) and
JSON keys are emitted sorted.  Non-finite floats become JSON strings to
keep the output parseable everywhere.

CSV input must be UTF-8.  Each field is parsed as Python ``float`` parses
it (so ``1_0``, `` 7 `` and ``nan`` read as float() reads them), and a
field that is not a finite number is an error naming its line.
"""

from __future__ import annotations

import csv
import dataclasses
import re
from typing import Iterable, Sequence

import numpy as np

from .fitting import _MAX_TOTAL
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
    return format(float(x), ".17g")


_ESCAPE = re.compile(r'["\\\x00-\x1f]')
_ESCAPES = {'"': '\\"', "\\": "\\\\", **{chr(c): f"\\u{c:04x}" for c in range(0x20)}}


def _encode_str(text: str) -> str:
    return '"' + _ESCAPE.sub(lambda m: _ESCAPES[m.group()], text) + '"'


def _encode_int(n) -> str:
    return str(int(n))


def _encode_float(x) -> str:
    text = format(float(x), ".17g")
    if text == "-0":
        return "-0.0"  # "-0" would read back as the integer 0, which has no sign
    return f'"{text}"' if text[-1] in "nf" else text  # nan, inf and -inf


def _encode_dict(obj: dict) -> str:
    return "{" + ",".join(f"{_encode_str(str(k))}:{_encode(v)}"
                          for k, v in sorted(obj.items())) + "}"


def _encode_list(obj) -> str:
    return "[" + ",".join(map(_encode, obj)) + "]"


def _dataclass_encoder(cls):
    """A dataclass as the dict of its fields."""
    names = [f.name for f in dataclasses.fields(cls)]
    return lambda obj: _encode_dict({name: getattr(obj, name) for name in names})


# one encoder per type, looked up by type(obj) first, so a bool never gets
# int's; another type takes the encoder of its nearest base class along its
# MRO (np.float64 a float's, np.bool_ and set none) and is added on first use
_ENCODERS = {
    type(None): lambda obj: "null",
    bool: lambda obj: "true" if obj else "false",
    int: _encode_int,
    np.integer: _encode_int,
    float: _encode_float,
    np.floating: _encode_float,
    str: _encode_str,
    dict: _encode_dict,
    list: _encode_list,
    tuple: _encode_list,
    np.ndarray: lambda obj: _encode(obj.tolist()),
}


def _encode(obj) -> str:
    cls = type(obj)
    encoder = _ENCODERS.get(cls)
    if encoder is None:
        if dataclasses.is_dataclass(cls):
            encoder = _dataclass_encoder(cls)
        else:
            encoder = next((_ENCODERS[base] for base in cls.__mro__ if base in _ENCODERS),
                           None)
            if encoder is None:
                raise TypeError(f"cannot serialize {cls.__name__} to JSON")
        _ENCODERS[cls] = encoder
    return encoder(obj)


def dumps_json(obj) -> str:
    return _encode(obj) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_json(obj))


def _format_count(c) -> str:
    x = float(c)
    if x == int(x):
        return str(int(x))
    return format_float(x)


def _write_csv(path, header: str, rows: Iterable[str]) -> None:
    """Write the header line, then one line per row (each already joined)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def write_interferogram_csv(path, ig: Interferogram) -> None:
    _write_csv(path, "phase_rad,counts_d1,counts_d2",
               (f"{format_float(phi)},{_format_count(d1)},{_format_count(d2)}"
                for phi, d1, d2 in zip(ig.phase_rad, ig.counts_d1, ig.counts_d2)))


def _parse_rows(path, expected_header: Sequence[str]) -> tuple[np.ndarray, list]:
    """The data rows as a float array, and the records as read (for
    _raise_at_row); every field must be a finite number.

    Blank lines are skipped but counted in the line numbers of errors.
    """
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
            records = list(reader)
    except UnicodeDecodeError as err:
        raise CsvFormatError(f"{path}: not UTF-8: {err}") from err
    except csv.Error as err:  # such as a field longer than csv.field_size_limit()
        raise CsvFormatError(f"{path}: line {reader.line_num}: {err}") from err
    except OSError as err:
        raise CsvFormatError(f"{path}: {err}") from err
    rows = [row for row in records if row]
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    width = len(expected_header)
    try:
        if set(map(len, rows)) != {width}:
            raise ValueError("wrong field count")
        data = np.array(rows, dtype=float)  # float() on each field
    except ValueError:
        _raise_first_bad_line(path, records, width)
        raise
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        _raise_at_row(path, records, ~finite, "non-finite value")
    return data, records


def _raise_at_row(path, records: list[list[str]], bad: np.ndarray, message: str) -> None:
    """Raise message at the line of the first data row that bad marks."""
    linenos = [lineno for lineno, row in enumerate(records, start=2) if row]
    raise CsvFormatError(f"{path}: line {linenos[int(np.argmax(bad))]}: {message}")


def _raise_first_bad_line(path, records: list[list[str]], width: int) -> None:
    """Raise the error of the first data line with the wrong field count or
    a field that float() refuses."""
    for lineno, row in enumerate(records, start=2):
        if not row:
            continue
        if len(row) != width:
            raise CsvFormatError(f"{path}: line {lineno}: expected {width} fields, "
                                 f"got {len(row)}")
        for field in row:
            try:
                float(field)
            except ValueError as err:
                raise CsvFormatError(f"{path}: line {lineno}: {err}") from err


def read_interferogram_csv(path) -> Interferogram:
    data, records = _parse_rows(path, ("phase_rad", "counts_d1", "counts_d2"))
    counts = data[:, 1:]
    if (counts < 0).any():
        raise CsvFormatError(f"{path}: negative counts")
    huge = counts[:, 0] > _MAX_TOTAL - counts[:, 1]  # d1 + d2 could overflow
    if huge.any():
        _raise_at_row(path, records, huge, f"counts_d1 + counts_d2 above {_MAX_TOTAL!r}, "
                                            "where the fit's weights overflow")
    # integer counts become int64 only up to 2**53, where every float is exact
    if ((counts == counts.round()) & (counts <= 2.0 ** 53)).all():
        counts = counts.astype(np.int64)
    return Interferogram(phase_rad=data[:, 0], counts_d1=counts[:, 0],
                         counts_d2=counts[:, 1])


def write_histogram_csv(path, rows: Iterable[tuple[float, int]]) -> None:
    _write_csv(path, "bin_center,count",
               (f"{format_float(center)},{int(count)}" for center, count in rows))


def write_sweep_csv(path, points) -> None:
    _write_csv(path, "epsilon,gamma_shift,significance",
               (f"{format_float(pt.epsilon)},{format_float(pt.gamma_shift)},"
                f"{format_float(pt.significance)}" for pt in points))


def write_index_csv(path, spectrum: IndexSpectrum) -> None:
    _write_csv(path, "wavelength_nm,n",
               (f"{format_float(wl)},{format_float(n)}"
                for wl, n in zip(spectrum.wavelength_nm, spectrum.n)))


def read_phase_spectrum_csv(path) -> PhaseSpectrum:
    data, _ = _parse_rows(path, ("wavelength_nm", "phase_rad"))
    try:
        return PhaseSpectrum(wavelength_nm=data[:, 0], phase_rad=data[:, 1])
    except ValueError as err:
        raise CsvFormatError(f"{path}: {err}") from err
