import dataclasses
import math

import numpy as np
import pytest

from darkport import reports
from darkport.cli import main
from darkport.photonsim import ScanConfig, simulate_interferogram
from darkport.interferometer import SagnacModel, VisibilityValue
from darkport.reports import (
    CsvFormatError,
    JsonText,
    dumps_json,
    encode_columns,
    format_float,
    read_interferogram_block,
    read_interferogram_csv,
    read_phase_spectrum_csv,
    write_interferogram_csv,
)


def test_format_float_round_trips():
    for x in (0.0, 1.0, -0.5, 0.9992774, 0.03800891802248566, 1e-300, 12345.678):
        assert float(format_float(x)) == x
    assert format_float(float("nan")) == "nan"
    assert format_float(float("inf")) == "inf"
    assert format_float(float("-inf")) == "-inf"


def test_dumps_json_is_sorted_and_stable():
    payload = {"b": 2, "a": [1.5, True, None], "c": {"y": float("nan"), "x": 0.1}}
    text = dumps_json(payload)
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert '"nan"' in text  # non-finite floats are stringified, not emitted bare
    assert text.endswith("\n")
    assert dumps_json(payload) == text


def test_dumps_json_handles_numpy_scalars_and_arrays():
    text = dumps_json({"arr": np.array([1.0, 2.0]), "n": np.int64(3)})
    assert '"arr":[1,2]' in text
    assert '"n":3' in text


def test_dumps_json_escapes_strings_and_keys():
    text = dumps_json({'k"\\\n\x00\x1f': 'v"\\\n\x00\x1f\x7f'})
    assert text == ('{"k\\"\\\\\\u000a\\u0000\\u001f":'
                    '"v\\"\\\\\\u000a\\u0000\\u001f\x7f"}\n')
    # non-ASCII characters are written raw, not escaped
    assert dumps_json(["é∆😀", {"ü": 1}]) == '["é∆😀",{"ü":1}]\n'


def test_dumps_json_numbers():
    values = [-0.0, 0.0, 0.1, 1.0, float("nan"), float("inf"), float("-inf"),
              True, 1, False, 0, None]
    assert dumps_json(values) == ('[-0.0,0,0.10000000000000001,1,"nan","inf","-inf",'
                                  'true,1,false,0,null]\n')
    assert dumps_json([np.int64(-3), np.float64(0.1), np.float64(-0.0)]) == \
        '[-3,0.10000000000000001,-0.0]\n'
    assert dumps_json(np.array([[1.0, 2.5], [-0.0, np.nan]])) == '[[1,2.5],[-0.0,"nan"]]\n'


def test_dumps_json_keys_equal_across_types_keep_their_own_text():
    # 1 == True and hash(1) == hash(True): a key cache over all types would
    # hand {True: 0} the text of {1: 0}
    assert [dumps_json({1: 0}), dumps_json({True: 0}), dumps_json({"1": 0})] == \
        ['{"1":0}\n', '{"True":0}\n', '{"1":0}\n']


@dataclasses.dataclass(frozen=True)
class _Entry:
    name: str
    visibility: VisibilityValue
    pair: tuple


def test_dumps_json_containers():
    assert dumps_json((1, "x", (2.5,))) == '[1,"x",[2.5]]\n'
    entry = _Entry("o", VisibilityValue(0.5, 0.01), (1, 2.0))
    assert dumps_json(entry) == \
        '{"name":"o","pair":[1,2],"visibility":{"sigma":0.01,"value":0.5}}\n'
    # keys are sorted as given, then written as strings
    assert dumps_json({2: "b", 10: "a", 1: "c"}) == '{"1":"c","2":"b","10":"a"}\n'
    assert dumps_json({"b": 1, "B": 2, "a": 3}) == '{"B":2,"a":3,"b":1}\n'


@pytest.mark.parametrize("value", [np.bool_(True), {1, 2}, [frozenset()], {"k": object()}])
def test_dumps_json_rejects_unknown_types(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps_json(value)


def test_json_text_is_written_as_it_is():
    assert dumps_json({"a": JsonText('{"x":1}'), "b": [JsonText("null")]}) == \
        '{"a":{"x":1},"b":[null]}\n'


def test_encode_columns_writes_one_object_per_row():
    texts = encode_columns({"b": np.array([True, False]), "a": {"y": [1, None], "x": ["s", 2.5]}})
    assert texts == ['{"a":{"x":"s","y":1},"b":true}', '{"a":{"x":2.5,"y":null},"b":false}']
    with pytest.raises(ValueError):
        encode_columns({"a": [1, 2], "b": [1]})


def test_interferogram_csv_round_trip(tmp_path):
    ig = simulate_interferogram(SagnacModel(visibility_v=0.9992774),
                                ScanConfig(rng_seed=9))
    path = tmp_path / "ig.csv"
    write_interferogram_csv(path, ig)
    back = read_interferogram_csv(path)
    assert np.allclose(back.phase_rad, ig.phase_rad, rtol=0, atol=1e-16)
    assert np.array_equal(back.counts_d1, ig.counts_d1)
    assert np.array_equal(back.counts_d2, ig.counts_d2)
    assert back.counts_d1.dtype == np.int64
    # writing the same data twice is byte-identical
    path2 = tmp_path / "ig2.csv"
    write_interferogram_csv(path2, ig)
    assert path.read_bytes() == path2.read_bytes()


def test_read_interferogram_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("phase_rad,counts_d1,counts_d2\n0.0,three,4\n")
    with pytest.raises(CsvFormatError) as exc:
        read_interferogram_csv(path)
    assert "line 2" in str(exc.value)
    path.write_text("phase_rad,counts_d1,counts_d2\n0.0,-5,4\n")
    with pytest.raises(CsvFormatError):
        read_interferogram_csv(path)
    path.write_text("phase_rad,counts_d1,counts_d2\n")
    with pytest.raises(CsvFormatError):
        read_interferogram_csv(path)
    # line numbers count blank lines
    path.write_text("phase_rad,counts_d1,counts_d2\n0.0,1,2\n\n0.5,1e,2\n")
    with pytest.raises(CsvFormatError) as exc:
        read_interferogram_csv(path)
    assert str(exc.value) == f"{path}: line 4: could not convert string to float: '1e'"
    path.write_text("phase_rad,counts_d1,counts_d2\n0.0,1,2\n0.5,1,2,3\n")
    with pytest.raises(CsvFormatError) as exc:
        read_interferogram_csv(path)
    assert str(exc.value) == f"{path}: line 3: expected 3 fields, got 4"
    path.write_text("phase_rad,counts_d1,counts_d2\n0.0,1,2\n\n\n0.5,1,inf\n")
    with pytest.raises(CsvFormatError) as exc:
        read_interferogram_csv(path)
    assert str(exc.value) == f"{path}: line 5: non-finite value"
    # plain text that float() reads as inf, and plain text that it refuses
    path.write_text("phase_rad,counts_d1,counts_d2\n0.0,1,2\n1e999,1,2\n")
    with pytest.raises(CsvFormatError) as exc:
        read_interferogram_csv(path)
    assert str(exc.value) == f"{path}: line 3: non-finite value"
    path.write_text("phase_rad,counts_d1,counts_d2\n0.0,1,2\n0.5,1e,2\n")
    with pytest.raises(CsvFormatError) as exc:
        read_interferogram_csv(path)
    assert str(exc.value) == f"{path}: line 3: could not convert string to float: '1e'"


def test_read_interferogram_parses_fields_as_python_float(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text('phase_rad,counts_d1,counts_d2\n0.25,1_0," 7 "\n"0.5",+3, 4\n')
    ig = read_interferogram_csv(path)
    assert ig.phase_rad.tolist() == [0.25, 0.5]
    assert ig.counts_d1.tolist() == [10, 3]
    assert ig.counts_d2.tolist() == [7, 4]
    assert ig.counts_d1.dtype == np.int64


def test_read_phase_spectrum(tmp_path, capsys):
    path = tmp_path / "spec.csv"
    path.write_text("wavelength_nm,phase_rad\n750,-2.39\n790,-3.17\n")
    spec = read_phase_spectrum_csv(path)
    assert spec.wavelength_nm.tolist() == [750.0, 790.0]
    assert math.isclose(spec.phase_rad[1], -3.17)
    path.write_text("wavelength_nm,phase_rad\n790,-3.17\n750,-2.39\n")
    with pytest.raises(ValueError):
        read_phase_spectrum_csv(path)
    # an LF file, its CRLF copy and a copy with a quoted field read alike:
    # the same arrays, or the same message, which index exits 3 on
    for rows, want in ((["750,-2.39", "790,-3.17"], [[750.0, 790.0], [-2.39, -3.17]]),
                       ([" 7 ,-2.39", "1_0,-3.17"], [[7.0, 10.0], [-2.39, -3.17]]),
                       (["750,nan", "790,-3.17"], f"{path}: line 2: non-finite value"),
                       (["790,-3.17", "750,-2.39"],
                        f"{path}: wavelengths must be strictly increasing")):
        wavelength, phase = rows[0].split(",")
        quoted = [f'"{wavelength}",{phase}', rows[1]]
        for lines, end in ((rows, "\n"), (rows, "\r\n"), (quoted, "\n")):
            path.write_bytes(end.join(["wavelength_nm,phase_rad", *lines, ""]).encode())
            if isinstance(want, str):
                with pytest.raises(CsvFormatError) as exc:
                    read_phase_spectrum_csv(path)
                assert str(exc.value) == want
                assert main(["index", str(path), "--out", str(tmp_path / "out")]) == 3
                assert capsys.readouterr().err == f"input error: {want}\n"
            else:
                spec = read_phase_spectrum_csv(path)
                assert [spec.wavelength_nm.tolist(), spec.phase_rad.tolist()] == want


def test_plain_files_are_read_without_the_csv_module(tmp_path, monkeypatch):
    # the files simulate writes, counts scaled into .17g exponent text, -0
    # phases and a block of low-count scans all take the plain path, which
    # never asks _parse_records
    assert main(["simulate", "--out", str(tmp_path)]) == 0
    paths = sorted(tmp_path.glob("interferogram_*.csv"))
    ig = read_interferogram_csv(paths[0])
    scaled, signed = tmp_path / "scaled.csv", tmp_path / "signed.csv"
    counts = np.stack([ig.counts_d1, ig.counts_d2], axis=1) * 1e16
    scaled.write_text("".join(["phase_rad,counts_d1,counts_d2\n"] + [
        f"{format_float(phi)},{format_float(d1)},{format_float(d2)}\n"
        for phi, (d1, d2) in zip(ig.phase_rad, counts)]))
    write_interferogram_csv(signed, dataclasses.replace(ig, phase_rad=-ig.phase_rad))
    assert "e+" in scaled.read_text() and "\n-0," in signed.read_text()
    # 32 low-count scans share their phase texts and repeat their counts, as
    # the files of a fit block do
    scans = [tmp_path / f"scan{k}.csv" for k in range(32)]
    for k, scan in enumerate(scans):
        write_interferogram_csv(scan, simulate_interferogram(
            SagnacModel(visibility_v=0.9), ScanConfig(mean_counts_per_step=20.0, rng_seed=k)))
    texts = {text.encode() for scan in scans for line in scan.read_text().split()[1:]
             for text in line.split(",")}
    paths += [scaled, signed]
    header = ("phase_rad", "counts_d1", "counts_d2")
    want = {path: reports._parse_records(path, header)[0].tobytes()
            for path in paths + scans}  # as the csv module reads them
    parsed = []

    def refuse(path, expected_header):
        raise AssertionError(f"{path} left the plain path")

    class LoggedFloat:  # float() that logs each text; numpy reads it as float, its dtype
        dtype = np.dtype(float)

        def __call__(self, text):
            parsed.append(text)
            return float(text)

    monkeypatch.setattr(reports, "_parse_records", refuse)
    got = read_interferogram_block(paths)
    assert [data.tobytes() for data in got] == [want[path] for path in paths]
    assert [data.shape for data in got] == [(len(ig.phase_rad), 3)] * len(paths)
    assert np.signbit(got[-1][0, 0]) and got[-2][:, 1:].tolist() == counts.tolist()
    assert read_interferogram_csv(paths[1]).counts_d1.dtype == np.int64
    # the scans' block parses each distinct field text with float() once
    monkeypatch.setattr(reports, "float", LoggedFloat(), raising=False)
    got = read_interferogram_block(scans)
    assert sorted(parsed) == sorted(texts) and len(texts) < 200
    assert [data.tobytes() for data in got] == [want[scan] for scan in scans]


def test_plain_path_edges_read_as_each_file_alone(tmp_path, monkeypatch):
    # the plain pattern's edges: a field of 32 characters is plain and one of
    # 33 is not; a last line with or without its newline is plain and a blank
    # line after it is not; CRLF is plain beside LF, and a lone CR is not
    head, rows = "phase_rad,counts_d1,counts_d2", ["0,1,2", "0.5,3,4", "1,5,6"]
    long32, long33 = "0." + "1234567890" * 3, "0." + "1234567890" * 3 + "1"
    texts = {"field32": f"{head}\n{long32},1,2\n", "field33": f"{head}\n{long33},1,2\n",
             "final_newline": "\n".join([head, *rows]) + "\n",
             "no_final_newline": "\n".join([head, *rows]),
             "blank_line": "\n".join([head, *rows]) + "\n\n",
             "crlf": "\r\n".join([head, *rows]) + "\r\n", "lf": "\n".join([head, *rows]) + "\n",
             "lone_cr": f"{head}\n{rows[0]}\r{rows[1]}\n{rows[2]}\n"}
    paths = []
    for name, text in texts.items():
        paths.append(tmp_path / f"{name}.csv")
        paths[-1].write_bytes(text.encode())
    header = ("phase_rad", "counts_d1", "counts_d2")
    alone = [read_interferogram_block([path])[0].tobytes() for path in paths]
    records, left = reports._parse_records, []

    def logged(path, expected_header):
        left.append(path.stem)
        return records(path, expected_header)

    monkeypatch.setattr(reports, "_parse_records", logged)
    got = read_interferogram_block(paths)
    assert [data.tobytes() for data in got] == alone
    assert [data.tobytes() for data in got] == [records(path, header)[0].tobytes()
                                                for path in paths]
    assert left == ["field33", "blank_line", "lone_cr"]
    assert got[0][0, 0] == float(long32) and got[1][0, 0] == float(long33)
    assert [len(data) for data in got[2:]] == [3] * 6


def test_block_read_opens_no_file_after_a_malformed_one(tmp_path, monkeypatch):
    # the files after the first bad one stay unopened, as a FIFO there would block
    good, bad, after = (tmp_path / f"{name}.csv" for name in ("good", "bad", "after"))
    good.write_text("phase_rad,counts_d1,counts_d2\n0,1,2\n")
    bad.write_text("phase_rad,counts_d1,counts_d2\n0,three,2\n")
    after.write_text("phase_rad,counts_d1,counts_d2\n0,1,2\n")
    opened = []

    def logged_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(reports, "open", logged_open, raising=False)
    with pytest.raises(CsvFormatError) as exc:
        read_interferogram_block([good, bad, after])
    assert str(exc.value) == f"{bad}: line 2: could not convert string to float: 'three'"
    assert good in opened and after not in opened
