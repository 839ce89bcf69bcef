"""The exit-code contract, as a property: no input reaches exit 5.

Each input is drawn well-formed, with extreme values (tiny, huge and
overflowing finite numbers, edge sizes, duplicate labels), and then often
gets one hostile change: a key of ``config.SCHEMA`` set to a wrong type,
a non-finite or out-of-range value, or a CSV field, row or header broken.
``simulate``, ``campaign``, ``sweep``, ``fit`` and ``index`` must exit 0,
2, 3 or 4, and an exit 2 or 3 must write nothing.

Every drawn size is small or refused by validation: ``campaign.n_runs``
is always given, and a scan or campaign above its cap is rejected before
anything is allocated.

Exit 5 is left for a fault inside darkport: the last tests raise one in a
command and check the message, and check the library's own range checks,
whose refusals would reach ``main`` as such a fault.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from darkport import analysis
from darkport.cli import main
from darkport.config import SCHEMA
from darkport.interferometer import PortProbabilities, mz_visibility_theta, sagnac_probs_theta

CONTRACT = settings(derandomize=True, max_examples=60, deadline=None, database=None,
                    phases=[Phase.explicit, Phase.generate])

_WRONG_TYPE = st.sampled_from([None, True, "1", [], {}, [1.0]])
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_HUGE = [1e16, 1e154, 1e200, 1e308, 1.7976931348623157e308]
_PHASE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, math.pi, -math.pi,
                                    *_HUGE, *(-x for x in _HUGE)]),
                   st.floats(-20.0, 20.0))
_SEED = st.one_of(st.sampled_from([0, 2 ** 64 - 1]), st.integers(0, 2 ** 64 - 1))
_LABELS = ["lc", "nim", "x"]
_NAMES = ["nim", "both", "lc"]


def _floats(*values, low=None, high=None):
    drawn = st.sampled_from(values)
    return drawn if low is None else st.one_of(drawn, st.floats(low, high))


_ELEMENT = st.fixed_dictionaries(
    {"label": st.sampled_from(_LABELS)},
    optional={"phase": st.lists(_PHASE, min_size=3, max_size=3),
              "amplitude_transmission": _floats(1.0, 5e-324, 1e-300, low=1e-6, high=1.0)})

# (well-formed, hostile) values of each SCHEMA key; a key added to SCHEMA
# without them fails here.  Well-formed sizes stay small.
_VALUES = {
    ("apparatus", "visibility_v"): (_floats(0.0, 5e-324, 0.9992774, 1.0, low=0.0, high=1.0),
                                    _floats(-5e-324, 1.0000000000000002, 1e308)),
    ("apparatus", "reflection"): (st.sampled_from(["i", "j", "k", [0, 0, 0.6, 0.8],
                                                   [0.0, 1.0, 5e-324, 0.0]]),
                                  st.sampled_from(["x", [1, 0, 0, 0], [0, 1e200, 0, 0],
                                                   [0, 1, 0], [0, 0, 0, 0]])),
    ("apparatus", "elements"): (st.lists(_ELEMENT, min_size=1, max_size=3),
                                st.sampled_from([[], [{}], [{"label": "lc", "extra": 1}],
                                                 [{"label": "lc", "phase": [0, 0]}],
                                                 [{"label": "lc",
                                                   "amplitude_transmission": 0}]])),
    ("scan", "n_steps"): (st.sampled_from([8, 9, 16, 33]),
                          st.sampled_from([-1, 0, 7, 10 ** 5 + 1, 10 ** 18, 8.0])),
    ("scan", "phase_start"): (_floats(0.0, -1e16, 1e300, -1e308, low=-20.0, high=20.0),
                              _NON_FINITE),
    ("scan", "phase_end"): (_floats(4.0 * math.pi, 2.0 * math.pi, 1e16, 1e308,
                                    low=-20.0, high=20.0), _NON_FINITE),
    ("scan", "mean_counts_per_step"): (_floats(5e-324, 1e-300, 0.5, 10.0, 200.0, 2e4, 1e12,
                                               9.223372006484771e18),
                                       _floats(0.0, -1.0, 1e19, 1e308)),
    ("scan", "rng_seed"): (_SEED, st.sampled_from([-1, 2 ** 64, 10 ** 30, 1.0])),
    ("campaign", "n_runs"): (st.integers(1, 3), st.sampled_from([-1, 0, 10 ** 6 + 1, 10 ** 18])),
    ("campaign", "master_seed"): (_SEED, st.sampled_from([-1, 2 ** 64, 10 ** 30, 1.0])),
    ("campaign", "reference"): (st.sampled_from(_NAMES), st.sampled_from(["x", ""])),
    ("campaign", "toggled"): (st.sampled_from(_NAMES), st.sampled_from(["x", ""])),
    ("analysis", "bins"): (st.sampled_from(["fd", 1, 2, 3, 6]),
                           st.sampled_from(["auto", 0, -1, 7, 10 ** 18, 2.0])),
    ("analysis", "epsilon_grid"): (st.lists(_PHASE, min_size=1, max_size=3),
                                   st.sampled_from([[], [0.0, math.nan], ["0.1"]])),
    ("analysis", "theta_convention"): (st.sampled_from(["central", "conservative", "both"]),
                                       st.just("sideways")),
    # never read: every command below is given --out
    ("output", "dir"): (st.just("from_config"), st.just(5)),
    ("configurations", None): (
        st.dictionaries(st.sampled_from(_NAMES),
                        st.lists(st.sampled_from(_LABELS), max_size=3), max_size=3),
        st.sampled_from([{"nim": "nim"}, {"nim": [1]}, []])),
}
_KEYS = [(section, key) for section, keys in SCHEMA.items() for key in keys or [None]]
_GOOD = {name: st.fixed_dictionaries({}, optional={key: _VALUES[name, key][0]
                                                   for key in keys})
         for name, keys in SCHEMA.items() if keys}
_GOOD["campaign"] = st.fixed_dictionaries(
    {"n_runs": _VALUES["campaign", "n_runs"][0]},
    optional={key: _VALUES["campaign", key][0] for key in SCHEMA["campaign"] if key != "n_runs"})
_GOOD["configurations"] = _VALUES["configurations", None][0]


@st.composite
def _configs(draw):
    """Well-formed sections (always campaign, for its small n_runs), and in
    half the draws one hostile value, section or key."""
    names = draw(st.lists(st.sampled_from(sorted(_GOOD)), unique=True))
    payload = {name: draw(_GOOD[name]) for name in ["campaign", *names]}
    if not draw(st.booleans()):
        return payload
    change = draw(st.sampled_from([*_KEYS, "section", "unknown key"]))
    if change == "section":
        payload[draw(st.sampled_from(sorted(payload)))] = draw(_WRONG_TYPE)
    elif change == "unknown key":
        payload["campagin"] = {}
    else:
        section, key = change
        bad = draw(st.one_of(_VALUES[change][1], _WRONG_TYPE))
        if key is None:
            payload[section] = bad
        else:
            payload.setdefault(section, {})[key] = bad
    return payload


def _broken(argv, out) -> str:
    """How main on argv + --out breaks the contract, or "" if it keeps it."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", out])
    if code not in (0, 2, 3, 4):
        return f"exit {code}: {stderr.getvalue()}"
    if code in (2, 3) and os.path.exists(out) and os.listdir(out):
        return f"exit {code} wrote {os.listdir(out)}"
    return ""


@pytest.mark.filterwarnings("ignore:excluding non-physical point")
@CONTRACT
@given(payload=st.one_of(_configs(), _WRONG_TYPE))
# the cases found by hand before this test: each once exited 5
@example(payload={"campaign": {"n_runs": 1}, "analysis": {"bins": 10 ** 18}})
@example(payload={"campaign": {"n_runs": 1},
                  "scan": {"phase_start": -1e308, "phase_end": 1e308}})
@example(payload={"campaign": {"n_runs": 1}, "scan": {"n_steps": 10 ** 18}})
@example(payload={"campaign": {"n_runs": 10 ** 18}})
@example(payload={"campaign": {"n_runs": 1}, "scan": {"mean_counts_per_step": 1e21}})
@example(payload={"campaign": {"n_runs": 1}, "apparatus": {"reflection": [0, 1e200, 0, 0]}})
def test_no_config_reaches_exit_5(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        for command in ("simulate", "campaign", "sweep"):
            broken = _broken([command, "--config", path], os.path.join(tmp, command))
            assert not broken, (command, payload)


_COUNT = st.one_of(st.integers(0, 50).map(str),
                   st.sampled_from(["0.5", str(2 ** 53 + 1), str(2 ** 63), "1e75"]))
_HOSTILE_FIELD = st.sampled_from(["-1", "nan", "inf", "", "x", "1e160", "1" * 200_000])


@st.composite
def _csv(draw, header, rows):
    """The header and rows, and in half the draws one change: a hostile
    field, a row with a field too few or too many, or a wrong header."""
    if not (rows and draw(st.booleans())):
        return header, rows
    change = draw(st.sampled_from(["field", "short row", "long row", "header"]))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    if change == "field":
        row[draw(st.integers(0, len(row) - 1))] = draw(_HOSTILE_FIELD)
    elif change == "short row":
        row.pop()
    elif change == "long row":
        row.append("1")
    else:
        header = header[:-1] if draw(st.booleans()) else ["a", *header[1:]]
    return header, rows


@st.composite
def _interferogram_csv(draw):
    """A scan: a fringe at a drawn count scale over a drawn span, or fields
    drawn one by one."""
    n = draw(st.integers(0, 40))
    if draw(st.booleans()):
        start = draw(st.sampled_from([0.0, -1e16, 1e300]))
        span = draw(st.sampled_from([0.0, 1.0, 2.0 * math.pi, 4.0 * math.pi, 1e16, 1e308]))
        scale = draw(st.sampled_from([0.0, 1.0, 20.0, 2e4, 2.0 ** 53, 1e150, 1e308]))
        rows = []
        for k in range(n):
            x = start + span * (k / max(n - 1, 1))
            lit = float(round(scale * (0.5 + 0.5 * math.cos(x))))
            rows.append([repr(x), repr(lit), repr(scale - lit)])
    else:
        rows = [[repr(draw(_PHASE)), draw(_COUNT), draw(_COUNT)] for _ in range(n)]
    return draw(_csv(["phase_rad", "counts_d1", "counts_d2"], rows))


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(",".join(fields) + "\n" for fields in [header, *rows]))


@CONTRACT
@given(files=st.lists(_interferogram_csv(), min_size=1, max_size=2))
# counts whose total overflows the fit's weights once exited 5
@example(files=[(["phase_rad", "counts_d1", "counts_d2"],
                 [[repr(0.3 * k), "1e308", "1e308"] for k in range(12)])])
# phases whose span overflows to inf: the fit's span check once warned (exit 5 here)
@example(files=[(["phase_rad", "counts_d1", "counts_d2"],
                 [[repr(x), "30", "20"] for x in (-1.7976931348623157e308, *range(8), 1e308)])])
def test_no_interferogram_csv_reaches_exit_5(files):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"ig{k}.csv") for k in range(len(files))]
        for path, (header, rows) in zip(paths, files):
            _write_csv(path, header, rows)
        broken = _broken(["fit", *paths], os.path.join(tmp, "out"))
        assert not broken, files


_WAVELENGTH = st.sampled_from([5e-324, 1e-300, 1.0, 400.0, 750.0, 1e308])


@st.composite
def _spectrum_csv(draw):
    """Increasing wavelengths from a drawn start and step, or any drawn
    wavelengths, each with a drawn phase."""
    n = draw(st.integers(0, 20))
    if draw(st.booleans()):
        start, step = draw(_WAVELENGTH), draw(st.sampled_from([1e-300, 1.0, 10.0, 1e300]))
        wavelengths = [start + step * k for k in range(n)]
    else:
        wavelengths = [draw(st.one_of(_WAVELENGTH, st.floats())) for _ in range(n)]
    return draw(_csv(["wavelength_nm", "phase_rad"],
                     [[repr(wl), repr(draw(_PHASE))] for wl in wavelengths]))


@CONTRACT
@given(spectrum=_spectrum_csv(),
       thickness=st.sampled_from(["5e-324", "1e-300", "1", "285", "1e308", "0", "-1", "nan"]))
@example(spectrum=(["wavelength_nm", "phase_rad"], [["500", "1e308"], ["501", "-1e308"]]),
         thickness="285")
def test_no_phase_spectrum_reaches_exit_5(spectrum, thickness):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spectrum.csv")
        _write_csv(path, *spectrum)
        broken = _broken(["index", path, f"--thickness-nm={thickness}"],
                         os.path.join(tmp, "out"))
        assert not broken, (spectrum, thickness)


def test_a_fault_inside_a_command_exits_5_and_writes_nothing(tmp_path, capsys, monkeypatch):
    def broken_sweep(grid, config):
        raise RuntimeError("boom")

    monkeypatch.setattr(analysis, "sensitivity_sweep", broken_sweep)
    assert main(["sweep", "--out", str(tmp_path / "out")]) == 5
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"
    assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize("v", [-0.1, 1.0000000000000002, math.nan])
@pytest.mark.parametrize("function", [sagnac_probs_theta, mz_visibility_theta])
def test_loop_formulas_refuse_a_visibility_outside_0_1(function, v):
    with pytest.raises(ValueError, match=re.escape(f"v must lie in [0, 1], got {v!r}")):
        function(v, 0.3)


@pytest.mark.parametrize("p_bright, p_dark, message", [
    (1.5, -0.5, "p_bright must lie in [0, 1], got 1.5"),
    (0.7, 0.7, "port probabilities must sum to 1, got 1.4"),
    (math.nan, 0.5, "p_bright must lie in [0, 1], got nan"),
    (0.5, math.nan, "p_dark must lie in [0, 1], got nan"),
    # the sum is within its tolerance: only p_dark's own range refuses it
    (1.0 + 9e-10, -1.5e-9, "p_dark must lie in [0, 1], got -1.5e-09"),
])
def test_port_probabilities_refuse_a_range_or_sum_violation(p_bright, p_dark, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PortProbabilities(p_bright, p_dark)
