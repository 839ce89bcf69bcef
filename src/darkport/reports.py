"""Deterministic JSON and CSV serialization for reports.

Identical inputs must produce byte-identical files, so floats are always
formatted with 17 significant digits (enough to round-trip a double) and
JSON keys are emitted sorted.  Non-finite floats become JSON strings to
keep the output parseable everywhere.

CSV input must be UTF-8.  Each field is parsed as Python ``float`` parses it
(``1_0``, `` 7 `` and ``nan`` too), and a field that is not a finite number is
an error naming its line.  A run of plain files is joined, split and parsed into
one array at once (one float() per distinct text where texts repeat); the first
bad file raises.  encode_columns writes each row through one format string.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import re
from typing import Iterable, Iterator, Sequence

import numpy as np

from .fitting import _MAX_TOTAL
from .metaoptics import IndexSpectrum, PhaseSpectrum
from .photonsim import Interferogram

__all__ = [
    "CsvFormatError",
    "JsonText",
    "format_float",
    "dumps_json",
    "encode_columns",
    "write_json",
    "write_interferogram_csv",
    "read_interferogram_csv",
    "read_interferogram_block",
    "write_histogram_csv",
    "write_sweep_csv",
    "write_index_csv",
    "read_phase_spectrum_csv",
]


class CsvFormatError(ValueError):
    """Malformed CSV input, with file and line context in the message."""


class JsonText(str):
    """Text that is already JSON, which dumps_json writes as it is."""


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


# looked up by str(key), so 1 and True (equal hashes) keep their own texts
@functools.lru_cache(maxsize=1024)
def _encode_key(text: str) -> str:
    return _encode_str(text) + ":"


def _encode_dict(obj: dict) -> str:
    return "{" + ",".join([_encode_key(str(k)) + _encode(v) for k, v in sorted(obj.items())]) + "}"


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
    JsonText: str,
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


def _encoder(cls):
    encoder = _ENCODERS.get(cls)
    if encoder is None:
        encoder = (_dataclass_encoder(cls) if dataclasses.is_dataclass(cls) else
                   next((_ENCODERS[base] for base in cls.__mro__ if base in _ENCODERS), None))
        if encoder is None:
            raise TypeError(f"cannot serialize {cls.__name__} to JSON")
        _ENCODERS[cls] = encoder
    return encoder


def _encode(obj) -> str:
    return _encoder(type(obj))(obj)


def dumps_json(obj) -> str:
    return _encode(obj) + "\n"


def _plain_floats(column) -> bool:
    """Whether column is a 1-d float array, at most double, of finite values and no -0.0."""
    return (isinstance(column, np.ndarray) and column.ndim == 1 and column.dtype.kind == "f"
            and column.itemsize <= 8 and bool(np.isfinite(column).all())
            and not np.signbit(column[column == 0]).any())


def encode_columns(columns: dict) -> list[JsonText]:
    """The text of each row of equal-length columns as _encode writes its dict.
    A column is a sequence, an array (read through tolist()) or a dict of
    columns; a column whose items share one type is encoded by one encoder.
    Each row is one format string: %.17g for a _plain_floats column, %s for
    the encoded text of any other."""
    fields, values = [], []
    for key, column in sorted(columns.items()):  # the key order of _encode_dict
        floats = _plain_floats(column)
        fields.append(_encode_key(str(key)).replace("%", "%%") + ("%.17g" if floats else "%s"))
        column = (encode_columns(column) if isinstance(column, dict)
                  else column.tolist() if isinstance(column, np.ndarray) else column)
        if not floats:
            kinds = set(map(type, column))
            column = map(_encoder(kinds.pop()) if len(kinds) == 1 else _encode, column)
        values.append(column)
    template = "{" + ",".join(fields) + "}"
    return [JsonText(template % row) for row in zip(*values, strict=True)]


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


class _FloatTable(dict):  # float() of each text looked up, parsed at its first lookup
    def __missing__(self, text: bytes) -> float:
        return self.setdefault(text, float(text))


def _parse_block(paths: Sequence, expected_header: Sequence[str]) -> Iterator[np.ndarray]:
    """Yield the rows of each file in paths as _parse_records reads them: each run of
    plain files (once CRLF is LF, the exact header, then lines of len(expected_header)
    fields of float() characters) by _parse_plain, any other file by _parse_records.
    The first bad file raises.  No file after one that is not plain is opened, but the
    plain files after a plain one with a bad value are read before it raises."""
    head, width = ",".join(expected_header).encode(), len(expected_header)
    # what float() may read (.17g takes 24); possessive, as a field never holds "," or "\n"
    field = rb"[-+.0-9eE]{1,32}+"
    plain = re.compile(re.escape(head) + rb"(?:\n" + b",".join([field] * width) + rb")++\n?")
    files = []
    for path in paths:
        try:
            with open(path, "rb") as fh:
                text = fh.read()  # ASCII if plain, so UTF-8
        except OSError:
            text = b""
        text = text.replace(b"\r\n", b"\n") if b"\r" in text else text
        if plain.fullmatch(text):
            files.append((path, text[len(head):].rstrip(b"\n")))  # "\n" before each row
        else:
            yield from _parse_plain(files, expected_header)
            yield _parse_records(path, expected_header)[0]
            files = []
    yield from _parse_plain(files, expected_header)


def _parse_plain(files: list, expected_header: Sequence[str]) -> Iterator[np.ndarray]:
    """Yield the rows of each (path, body) in files, split at their commas at once as the csv
    module splits them; a file with a refused or non-finite value goes to _parse_records."""
    if not files:
        return
    fields = b"".join(body for _, body in files).replace(b"\n", b",").split(b",")[1:]
    counts, sample = [body.count(b"\n") for _, body in files], fields[::16]
    try:
        if 2 * len(set(sample)) <= len(sample):  # texts repeat: float() each distinct one once
            data = np.fromiter(map(_FloatTable().__getitem__, fields), float, len(fields))
        else:
            data = np.array(fields, dtype=float)
    except ValueError:  # a field float() refuses: the csv module reads each file
        data = np.full(len(fields), np.nan)
    data, ends = data.reshape(-1, len(expected_header)), np.cumsum(counts)
    finite = np.logical_and.reduceat(np.isfinite(data).all(axis=1), ends - counts)
    for (path, _), rows, ok in zip(files, np.split(data, ends[:-1]), finite):
        yield rows if ok else _parse_records(path, expected_header)[0]


def _parse_records(path, expected_header: Sequence[str]) -> tuple[np.ndarray, list]:
    """The data rows of one file read by the csv module, every field a finite
    number, and the records as read (for _raise_at_row).

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
    for lineno, row in enumerate(records, start=2):  # the first bad line raises
        if row and len(row) != width:
            raise CsvFormatError(f"{path}: line {lineno}: expected {width} fields, "
                                 f"got {len(row)}")
        for field in row:
            try:
                float(field)
            except ValueError as err:
                raise CsvFormatError(f"{path}: line {lineno}: {err}") from err
    data = np.array(rows, dtype=float)  # float() on each field
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        _raise_at_row(path, records, ~finite, "non-finite value")
    return data, records


def _raise_at_row(path, records: list[list[str]], bad: np.ndarray, message: str) -> None:
    """Raise message at the line of the first data row that bad marks."""
    linenos = [lineno for lineno, row in enumerate(records, start=2) if row]
    raise CsvFormatError(f"{path}: line {linenos[int(np.argmax(bad))]}: {message}")


def read_interferogram_block(paths: Sequence) -> list[np.ndarray]:
    """The (n_steps, 3) float rows of each interferogram CSV, parsed by _parse_block and checked
    as read_interferogram_csv checks them; the first bad file in paths raises."""
    header, blocks, error = ("phase_rad", "counts_d1", "counts_d2"), [], None
    try:  # extend() keeps the files before the first bad one, which are checked first
        blocks.extend(_parse_block(paths, header))
    except CsvFormatError as err:
        error = err
    counts = np.concatenate([np.empty((0, 3)), *blocks])[:, 1:]
    bad = (counts < 0).any(axis=1) | (counts[:, 0] > _MAX_TOTAL - counts[:, 1])
    if bad.any():
        k = int(np.searchsorted(np.cumsum([len(b) for b in blocks]), np.argmax(bad), "right"))
        path, counts = paths[k], blocks[k][:, 1:]
        if (counts < 0).any():
            raise CsvFormatError(f"{path}: negative counts")
        _raise_at_row(path, _parse_records(path, header)[1],
                      counts[:, 0] > _MAX_TOTAL - counts[:, 1], f"counts_d1 + counts_d2 above "
                      f"{_MAX_TOTAL!r}, where the fit's weights overflow")
    if error is not None:
        raise error
    return blocks


def read_interferogram_csv(path) -> Interferogram:
    [data] = read_interferogram_block([path])
    counts = data[:, 1:]
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
    [data] = _parse_block([path], ("wavelength_nm", "phase_rad"))
    try:
        return PhaseSpectrum(wavelength_nm=data[:, 0], phase_rad=data[:, 1])
    except ValueError as err:
        raise CsvFormatError(f"{path}: {err}") from err
