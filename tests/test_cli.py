import json
import math

import numpy as np
import pytest

from darkport import analysis, cli, config, fitting, photonsim
from darkport.cli import load_config, main
from darkport.config import ExperimentConfig
from darkport.interferometer import SagnacModel
from darkport.reports import dumps_json, read_interferogram_csv, write_interferogram_csv

SMALL_CAMPAIGN = {
    "campaign": {"n_runs": 10, "master_seed": 7},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


def test_simulate_defaults(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["interferogram_both.csv", "interferogram_nim.csv"]
    header, rows = read_csv_rows(tmp_path / "interferogram_nim.csv")
    assert header == "phase_rad,counts_d1,counts_d2"
    assert len(rows) == 100
    assert "nim: analytic_v=0.038" in out
    assert "both: analytic_v=0.038" in out


def test_simulate_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["simulate", "--seed", "12", "--out", str(a)]) == 0
    assert main(["simulate", "--seed", "12", "--out", str(b)]) == 0
    for name in ("interferogram_nim.csv", "interferogram_both.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    c = tmp_path / "c"
    assert main(["simulate", "--seed", "13", "--out", str(c)]) == 0
    assert (a / "interferogram_nim.csv").read_bytes() != \
        (c / "interferogram_nim.csv").read_bytes()


def test_fit_round_trip(tmp_path, capsys):
    assert main(["simulate", "--seed", "3", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    csv_path = str(tmp_path / "interferogram_nim.csv")
    rc = main(["fit", csv_path])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    entry = report["files"][0]
    assert entry["path"] == csv_path
    assert entry["n_steps"] == 100
    for det in ("d1", "d2"):
        fit = entry["fits"][det]
        assert fit["converged"] is True
        v = fit["visibility"]
        assert abs(v["value"] - 0.038) < 3.0 * v["sigma"] + 0.002


def test_fit_writes_json_file(tmp_path, capsys):
    assert main(["simulate", "--seed", "3", "--out", str(tmp_path)]) == 0
    rc = main(["fit", str(tmp_path / "interferogram_nim.csv"),
               "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "fit_report.json").read_text())
    assert len(payload["files"]) == 1
    # repeat fit must be byte-identical
    first = (tmp_path / "fit_report.json").read_bytes()
    assert main(["fit", str(tmp_path / "interferogram_nim.csv"),
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fit_report.json").read_bytes() == first


def _object_fit_entry(outcome) -> dict:
    """A file's fit in fit's report as built from FitResult objects: the
    error's text, or the result's fields with each sigma the square root of
    its covariance entry clamped by max(entry, 0.0)."""
    if isinstance(outcome, ValueError):
        return {"error": str(outcome)}
    entry = {name: getattr(outcome, name) for name in (
        "amplitude", "frequency", "phase", "offset", "visibility", "converged", "iterations",
        "residual_norm", "n_points", "n_excluded", "low_signal")}
    for k, name in enumerate(("amplitude", "frequency", "phase", "offset")):
        entry[f"sigma_{name}"] = math.sqrt(max(outcome.covariance[k, k], 0.0))
    return entry


def test_fit_report_bytes_equal_the_report_built_from_fit_objects(tmp_path, capsys,
                                                                    monkeypatch):
    scan = photonsim.ScanConfig()
    phase = scan.phases()
    bright = photonsim.simulate_interferogram(SagnacModel(visibility_v=0.9992774), scan,
                                              seed=(5, 0))
    # detector 2 reads 4 sin^2(x/2) - 3 (A + 2B = -2) where that lies in [0, 1],
    # wobbling far beyond its binomial sigma: InvalidFitError, and a mirror on
    # detector 1 that is not converged
    ratio = -1.0 - 2.0 * np.cos(phase) + 0.01 * (-1.0) ** np.arange(phase.size)
    lit = (ratio >= 0.0) & (ratio <= 1.0)
    hard = np.where(lit, np.round(1e6 * ratio), 0.0)
    step, short = np.arange(100), phase < 1.5 * math.pi
    rows = [(bright.counts_d1, bright.counts_d2)] * 2 + [
        (np.full(100, 50.0), np.full(100, 50.0)),  # low_signal
        (np.where(lit, 1e6 - hard, 0.0), hard),
        (np.where(step < 5, 40.0, 0.0), np.zeros(100)),  # fewer than 8 points
        (np.where(short, 40.0, 0.0), np.where(short, 60.0, 0.0)),  # less than a fringe
        (bright.counts_d1, np.where(step == 17, 1e160, bright.counts_d2)),  # weights overflow
        (np.where(step % 2, 70.0, 30.0), np.where(step % 2, 30.0, 70.0)),
    ]
    phases = np.repeat(phase[None], len(rows), axis=0)
    phases[-1] = 0.3 + math.pi * np.arange(100)  # two points of the fringe
    fits = fitting._fit_rows(phases, *(np.array(d, dtype=float) for d in zip(*rows)))
    # a -0.0 parameter, and sigmas from covariance entries -0.0, below 0 and 0
    fits["params"][1, 0, 3] = -0.0
    fits["cov"][1, 0, [0, 1, 2], [0, 1, 2]] = [-0.0, -1e-300, 0.0]
    fits["sigma"][1, 1] = 0.0
    outcomes = fitting._outcomes(fits)
    kinds = {str(o).split(" ")[0] if isinstance(o, ValueError)
             else ("" if o.converged else "not ") + ("low_signal" if o.low_signal else "converged")
             for pair in outcomes for o in pair}
    assert kinds == {"converged", "not converged", "low_signal", "need", "counts_d1", "points",
                     "A"}, kinds
    # fit's report on files given the fits above in place of their own, since
    # no CSV that fit reads can hold a step total whose weight overflows
    paths = [tmp_path / f"run{k}.csv" for k in range(len(rows) - 1)]
    paths.append(tmp_path / 'a "quoted"\\path.csv')
    for k, path in enumerate(paths):
        path.write_text("phase_rad,counts_d1,counts_d2\n"
                        + "".join(f"{x!r},1,2\n" for x in phase[:10 + k].tolist()))
    paths = list(map(str, paths))
    want = {"files": [{"path": path, "n_steps": 10 + k, "fits": dict(zip(
        ("d1", "d2"), map(_object_fit_entry, pair)))}
        for k, (path, pair) in enumerate(zip(paths, outcomes))]}
    monkeypatch.setattr(fitting, "_fit_by_length", lambda block: fits[:len(block)])
    assert main(["fit", *paths]) == 4
    text = capsys.readouterr().out
    assert text == dumps_json(want)
    assert '"offset":-0.0' in text and '"sigma_amplitude":-0.0' in text
    assert main(["fit", *paths, "--out", str(tmp_path)]) == 4
    assert (tmp_path / "fit_report.json").read_text() == text
    capsys.readouterr()
    assert main(["fit", paths[0]]) == 0
    assert capsys.readouterr().out == dumps_json({"files": want["files"][:1]})
    # a converged fit with A + 2B <= 0 is still a failed one: the mirror of c0 = 1
    invalid = fitting._fits(20, 17, np.array([0.5]), (np.array([[1.0, 0.1, 0.2]]),
                                                      np.array([[0.0, -0.1, -0.2]])),
                            np.eye(4)[None], np.array([1.0]), np.array([True]), np.array([0]))
    monkeypatch.setattr(fitting, "_fit_by_length", lambda block: invalid)
    assert invalid["converged"].all() and main(["fit", paths[0]]) == 4
    assert "A + 2B must be positive" in json.loads(capsys.readouterr().out)[
        "files"][0]["fits"]["d2"]["error"]


def test_campaign_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_CAMPAIGN)
    rc = main(["campaign", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "delta_v: mean=" in out
    assert "gamma_ratio: mean=" in out
    assert "theta_central_deg=" in out
    assert "theta_conservative_deg=" in out
    assert "noncommutative: no" in out
    payload = json.loads((tmp_path / "bound_report.json").read_text())
    assert payload["n_runs"] == 10
    assert payload["master_seed"] == 7
    assert payload["report"]["n_values"] == 20
    assert payload["report"]["noncommutative"] is False
    header, rows = read_csv_rows(tmp_path / "delta_v_hist.csv")
    assert header == "bin_center,count"
    assert sum(int(r[1]) for r in rows) == 20
    header, rows = read_csv_rows(tmp_path / "gamma_ratio_hist.csv")
    assert header == "bin_center,count"


def test_campaign_with_failed_fits_writes_its_reports_and_exits_4(tmp_path, capsys):
    # at 10 counts/step most runs have a fit that fails or does not converge
    cfg = write_config(tmp_path, {"scan": {"mean_counts_per_step": 10},
                                  "campaign": {"n_runs": 20}})
    out = tmp_path / "out"
    assert main(["campaign", "--config", cfg, "--seed", "0", "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.err == "warning: 11 of 20 runs had failed fits\n"
    assert f"bound report: {out / 'bound_report.json'}" in captured.out
    assert sorted(p.name for p in out.iterdir()) == [
        "bound_report.json", "delta_v_hist.csv", "gamma_ratio_hist.csv"]
    assert json.loads((out / "bound_report.json").read_text())["report"]["n_complete_runs"] == 9


# the partial campaign's low-count fits leave V = 1 points, excluded with a warning
@pytest.mark.filterwarnings("ignore:excluding non-physical point")
@pytest.mark.parametrize("payload, rc, complete", [
    ({}, 0, 200),
    # 6 of 40 runs have a fit that fails or does not converge
    ({"scan": {"mean_counts_per_step": 1.0}, "campaign": {"n_runs": 40}}, 4, 34),
], ids=["default", "partial"])
def test_campaign_report_is_the_bound_of_its_records(tmp_path, capsys, payload, rc, complete):
    # campaign reads the slots' fit arrays; the records of the same runs give
    # the same report, byte for byte
    path = write_config(tmp_path, payload)
    assert main(["campaign", "--config", path, "--seed", "0", "--out", str(tmp_path)]) == rc
    capsys.readouterr()
    cfg = load_config(path)
    report = analysis.bound_from_campaign(analysis.campaign_records(
        *cfg.build_pair(), cfg.scan, 0, range(cfg.n_runs)), bins=cfg.bins)
    assert report.n_complete_runs == complete
    text = (tmp_path / "bound_report.json").read_text()
    assert text == dumps_json({"n_runs": cfg.n_runs, "master_seed": 0, "reference": cfg.reference,
                               "toggled": cfg.toggled, "report": report})


def test_default_campaign_seed_22709_has_no_failed_fit(tmp_path, capsys):
    # run 19's reference fit reads chi2 167.8 at dof 97: the normal approximation
    # dof + 5 sqrt(2 dof) = 166.6 failed it, the one-sided 5-sigma quantile 183.6 does not
    assert main(["campaign", "--seed", "22709", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((tmp_path / "bound_report.json").read_text())["report"][
        "n_complete_runs"] == 200


def test_campaign_accepts_jobs_and_changes_no_byte(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_CAMPAIGN)
    outputs = []
    for jobs in ([], ["--jobs", "1"], ["--jobs", "2"]):
        out = tmp_path / f"jobs{len(outputs)}"
        assert main(["campaign", "--config", cfg, *jobs, "--out", str(out)]) == 0
        outputs.append((capsys.readouterr().out.replace(str(out), "OUT"),
                        sorted((p.name, p.read_bytes()) for p in out.iterdir())))
    assert outputs[0] == outputs[1] == outputs[2]


def test_campaign_seed_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_CAMPAIGN)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["campaign", "--config", cfg, "--out", str(a)]) == 0
    assert main(["campaign", "--config", cfg, "--seed", "7", "--out", str(b)]) == 0
    assert (a / "bound_report.json").read_bytes() == (b / "bound_report.json").read_bytes()
    c = tmp_path / "c"
    assert main(["campaign", "--config", cfg, "--seed", "8", "--out", str(c)]) == 0
    assert (a / "bound_report.json").read_bytes() != (c / "bound_report.json").read_bytes()


def test_sweep_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "campaign": {"n_runs": 25, "master_seed": 5},
        "analysis": {"epsilon_grid": [0.0, 0.02, 0.05]},
    })
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "min_detectable_epsilon=" in out
    header, rows = read_csv_rows(tmp_path / "sweep.csv")
    assert header == "epsilon,gamma_shift,significance"
    assert len(rows) == 3
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][1]) == 0.0
    assert float(rows[0][2]) == 0.0
    sigs = [float(r[2]) for r in rows]
    assert sigs == sorted(sigs)
    shifts = [float(r[1]) for r in rows]
    assert math.isclose(shifts[1], 2.0 * math.sin(0.02) ** 2, rel_tol=1e-12)


def test_sweep_of_fits_without_scatter_reads_an_infinite_significance(tmp_path, capsys,
                                                                        monkeypatch):
    # equal fits in every run and slot: every Gamma ratio is 1.0 and the stderr 0
    def constant_fits(model, slot, scan, master_seed, indices):
        return np.array([[(0.5, 0.01, True)] * 2] * len(indices), dtype=analysis._SLOT)

    monkeypatch.setattr(analysis, "_slot_fits", constant_fits)
    grid = (0.0, 0.05, -0.002, 0.01)
    res = analysis.sensitivity_sweep(grid, ExperimentConfig(n_runs=4))
    assert [p.significance for p in res.points] == [0.0, math.inf, math.inf, math.inf]
    assert res.min_detectable_epsilon == -0.002
    cfg = write_config(tmp_path, {"campaign": {"n_runs": 4},
                                  "analysis": {"epsilon_grid": list(grid)}})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "min_detectable_epsilon=-0.002\n" in capsys.readouterr().out
    _, rows = read_csv_rows(tmp_path / "sweep.csv")
    assert [row[2] for row in rows] == ["0", "inf", "inf", "inf"]


def test_index_conversion(tmp_path, capsys):
    spectrum = tmp_path / "spectrum.csv"
    spectrum.write_text("wavelength_nm,phase_rad\n"
                        "750,-2.3876104167282426\n"
                        "790,-3.17\n")
    rc = main(["index", str(spectrum), "--out", str(tmp_path)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "ambiguous" not in err
    header, rows = read_csv_rows(tmp_path / "index.csv")
    assert header == "wavelength_nm,n"
    assert abs(float(rows[0][1])) < 1e-12  # zero crossing at 750 nm
    assert abs(float(rows[1][1]) - (-0.3985)) < 0.001


def test_index_warns_on_ambiguous_points(tmp_path, capsys):
    spectrum = tmp_path / "spectrum.csv"
    spectrum.write_text("wavelength_nm,phase_rad\n"
                        "700,0.0\n"
                        f"710,{math.pi}\n")
    rc = main(["index", str(spectrum), "--out", str(tmp_path)])
    assert rc == 0
    assert "ambiguous unwrapping at 710" in capsys.readouterr().err


def test_bound_from_ratio(tmp_path, capsys):
    rc = main(["bound", "--ratio", "0.99999999", "--sigma", "2e-7"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert math.isclose(payload["theta_central_deg"], 0.008102846872523755,
                        rel_tol=1e-12)
    assert math.isclose(payload["theta_conservative_deg"], 0.037131909668502841,
                        rel_tol=1e-12)


def test_bound_from_visibility_pair(tmp_path, capsys):
    rc = main(["bound", "--v-nim", "0.042", "--v-nim-sigma", "0.002",
               "--v-both", "0.040", "--v-both-sigma", "0.002",
               "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "bound.json").read_text())
    assert math.isclose(payload["ratio"], 1.0000821415299945, rel_tol=1e-12)
    assert payload["theta_central_deg"] == 0.0  # ratio above 1 clamps


def test_bound_flag_conflicts(capsys):
    assert main(["bound", "--ratio", "1.0", "--v-nim", "0.04"]) == 2
    assert main(["bound", "--v-nim", "0.04"]) == 2
    assert main(["bound", "--v-nim", "1.2", "--v-both", "0.04"]) == 2


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = write_config(tmp_path, {"campagin": {"n_runs": 5}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_rejects_duplicate_keys(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text('{"campaign": {"n_runs": 5, "n_runs": 6}}')
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "duplicate" in capsys.readouterr().err


@pytest.mark.parametrize(("text", "message"), [
    (None, "cannot read config"),
    ('{"scan": {"n_steps": 8,}}', "invalid JSON"),
    ('{"scan": 5}', "scan: expected an object, got 5"),
], ids=["missing", "invalid_json", "section_not_an_object"])
def test_config_that_cannot_be_read_is_config_error(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
@pytest.mark.parametrize("command", ["simulate", "campaign", "sweep"])
def test_seed_flag_beyond_64_bits_is_usage_error(tmp_path, capsys, command, seed):
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", seed, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "seed must be a 64-bit unsigned integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["simulate"], ["bound", "--ratio", "0.99"]],
                         ids=["simulate", "bound"])
def test_out_naming_an_existing_file_is_io_error(tmp_path, capsys, argv):
    path = tmp_path / "taken"
    path.write_text("keep")
    assert main([*argv, "--out", str(path)]) == 3
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert path.read_text() == "keep"


@pytest.mark.parametrize("command", ["simulate", "campaign", "sweep"])
def test_output_dir_from_config_is_used_without_out(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {**SMALL_CAMPAIGN, "output": {"dir": "from_config"}})
    assert main([command, "--config", cfg]) == 0
    assert sorted(tmp_path.iterdir()) == [tmp_path / "config.json", tmp_path / "from_config"]
    assert any((tmp_path / "from_config").iterdir())


def test_config_rejects_bad_values(tmp_path, capsys):
    cfg = write_config(tmp_path, {"campaign": {"n_runs": 0}})
    assert main(["campaign", "--config", cfg, "--out", str(tmp_path)]) == 2
    cfg = write_config(tmp_path, {"apparatus": {"reflection": [1, 0, 0, 0]}},
                       name="bad_reflection.json")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    cfg = write_config(tmp_path, {"scan": {"n_steps": 4}}, name="bad_scan.json")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    cfg = write_config(tmp_path, {"analysis": {"theta_convention": "sideways"}},
                       name="bad_conv.json")
    assert main(["campaign", "--config", cfg, "--out", str(tmp_path)]) == 2
    cfg = write_config(tmp_path, {"apparatus": {"elements": [
        {"label": "x", "amplitude_transmission": 1.5}]}}, name="bad_elem.json")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_config_element_without_label_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"apparatus": {"elements": [{"phase": [0.1, 0, 0]}]}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "apparatus.elements[0]: element needs a string label" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_runs_any_single_element_toggle(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "apparatus": {"elements": [
            {"label": "waveplate", "phase": [3.141592653589793, 0, 0]},
        ]},
        "configurations": {"off": [], "on": ["waveplate"]},
        "campaign": {"reference": "off", "toggled": "on", "n_runs": 5},
    })
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_csv_rows(tmp_path / "sweep.csv")
    assert header == "epsilon,gamma_shift,significance"
    assert [float(r[0]) for r in rows] == [0.0, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1]
    assert float(rows[0][2]) == 0.0


@pytest.mark.parametrize("reference", [[], ["nim", "lc"]], ids=["two_added", "reordered"])
def test_sweep_rejects_toggle_of_two_elements(tmp_path, capsys, reference):
    cfg = write_config(tmp_path, {
        "configurations": {"ref": reference, "both": ["lc", "nim"]},
        "campaign": {"reference": "ref", "toggled": "both", "n_runs": 5},
    })
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "exactly one element" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_simulates_the_campaign_pair(tmp_path, capsys, monkeypatch):
    # a lossy LC and the reference/toggled roles swapped: at epsilon = 0 the
    # sweep must simulate exactly the pair that campaign would
    cfg = write_config(tmp_path, {
        "apparatus": {"elements": [
            {"label": "lc", "phase": [3.141592653589793, 0, 0],
             "amplitude_transmission": 0.5},
            {"label": "nim", "phase": [-3.141592653589793, 0, 0],
             "amplitude_transmission": 0.36055512754639896},
        ]},
        "campaign": {"reference": "both", "toggled": "nim", "n_runs": 2},
        "analysis": {"epsilon_grid": [0.0]},
    })
    simulated = []
    draw_counts = photonsim.draw_counts

    def recording(model, scan, seeds):
        # each drawn row's model and seed (master_seed, run, slot), a row of a seed array
        simulated.extend((model, tuple(map(int, seed))) for seed in seeds)
        return draw_counts(model, scan, seeds)

    monkeypatch.setattr(photonsim, "draw_counts", recording)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    reference, toggled = load_config(cfg).build_pair()
    assert simulated == [(reference, (0, 0, 0)), (reference, (0, 1, 0)),
                         (toggled, (0, 0, 1)), (toggled, (0, 1, 1))]


def test_sweep_rejects_epsilon_that_darkens_the_reference(tmp_path, capsys):
    # with the LC in the reference loop, epsilon = 1 drives its Gamma to
    # 1 - 2 sin^2(1) < 0, where the visible deviation is undefined
    cfg = write_config(tmp_path, {
        "campaign": {"reference": "both", "toggled": "nim", "n_runs": 2},
        "analysis": {"epsilon_grid": [0.0, 1.0]},
    })
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "Gamma > 0" in capsys.readouterr().err


_NON_FINITE = [
    {"scan": {"mean_counts_per_step": math.inf}},
    {"scan": {"phase_end": math.nan}},
    {"analysis": {"epsilon_grid": [0.0, math.nan]}},
    {"apparatus": {"visibility_v": math.nan}},
]


@pytest.mark.parametrize("command", ["simulate", "campaign", "sweep"])
@pytest.mark.parametrize("payload", _NON_FINITE,
                         ids=["counts_inf", "phase_end_nan", "grid_nan", "visibility_nan"])
def test_config_rejects_non_finite_numbers(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


# numpy's Poisson sampler raises for a mean above about 9.2234e18, and a
# float's square overflows above about 1.3e154
_OUT_OF_RANGE = [
    ({"scan": {"mean_counts_per_step": 1e21}}, "mean_counts_per_step must lie in"),
    ({"apparatus": {"reflection": [0, 1e200, 0, 0]}},
     "reflection must be a unit quaternion, got norm 1e+200"),
    ({"scan": {"phase_start": -1e308, "phase_end": 1e308}}, "phase span must be finite"),
    ({"campaign": {"master_seed": -1}},
     "campaign.master_seed must be a 64-bit unsigned integer, got -1"),
]


@pytest.mark.parametrize("command", ["simulate", "campaign", "sweep"])
@pytest.mark.parametrize(("payload", "message"), _OUT_OF_RANGE,
                         ids=["counts_above_poisson_limit", "huge_reflection",
                              "overflowing_phase_span", "negative_master_seed"])
def test_config_rejects_finite_numbers_out_of_range(tmp_path, capsys, command, payload,
                                                    message):
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


# phases whose square overflows a float; only sweep reads the grid
_HUGE_ELEMENTS = {"apparatus": {"elements": [{"label": "lc", "phase": [1e200, 0, 0]},
                                             {"label": "nim", "phase": [0, 0, -1e200]}]}}
_HUGE_PHASES = [*((command, _HUGE_ELEMENTS) for command in ("simulate", "campaign", "sweep")),
                ("sweep", {"analysis": {"epsilon_grid": [0.0, 1e200]}})]


@pytest.mark.parametrize(("command", "payload"), _HUGE_PHASES,
                         ids=["element_simulate", "element_campaign", "element_sweep",
                              "epsilon_sweep"])
def test_huge_finite_phases_run(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, dict(payload, campaign={"n_runs": 3}))
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0


def test_missing_and_malformed_csv(tmp_path, capsys):
    assert main(["fit", str(tmp_path / "nope.csv")]) == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("phase_rad,counts_d1,counts_d2\n1.0,2.0\n")
    assert main(["fit", str(bad)]) == 3
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["fit", str(empty)]) == 3
    wrong_header = tmp_path / "wrong.csv"
    wrong_header.write_text("a,b,c\n1,2,3\n")
    assert main(["fit", str(wrong_header)]) == 3
    assert main(["index", str(tmp_path / "nope.csv")]) == 3


@pytest.mark.parametrize("command, name, head, code", [
    ("fit", "bad.csv", b"phase_rad,counts_d1,counts_d2\n0.0,1,2\n0.5,\xff,2\n", 3),
    ("index", "bad.csv", b"wavelength_nm,phase_rad\n750,-2.39\n790,\xff\n", 3),
    ("--config", "bad.json", b'{"campaign": {"n_runs": 3, "master_seed": "\xff"}}', 2),
], ids=["fit", "index", "config"])
def test_input_that_is_not_utf8_is_an_input_error(tmp_path, capsys, command, name,
                                                  head, code):
    path = tmp_path / name
    path.write_bytes(head)
    argv = (["campaign", "--config", str(path)] if command == "--config"
            else [command, str(path)])
    assert main(argv + ["--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert str(path) in err and "UTF-8" in err
    assert "internal error" not in err


def test_fit_zero_counts_is_soft_failure(tmp_path, capsys):
    path = tmp_path / "dead.csv"
    rows = "\n".join(f"{0.1 * k},0,0" for k in range(20))
    path.write_text("phase_rad,counts_d1,counts_d2\n" + rows + "\n")
    rc = main(["fit", str(path)])
    assert rc == 4
    report = json.loads(capsys.readouterr().out)
    assert "error" in report["files"][0]["fits"]["d1"]


def test_fit_flat_data_is_low_signal_not_failure(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    rows = "\n".join(f"{0.1 * k},50,50" for k in range(80))
    path.write_text("phase_rad,counts_d1,counts_d2\n" + rows + "\n")
    rc = main(["fit", str(path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    fit = report["files"][0]["fits"]["d1"]
    assert fit["converged"] is True
    assert fit["low_signal"] is True


def test_fit_of_a_drift_shorter_than_a_fringe_is_not_converged(tmp_path, capsys):
    # the ratio drifts through a fifth of a fringe over the scan, a
    # frequency below the lowest one the scan resolves
    phase = [4.0 * math.pi * k / 99 for k in range(100)]
    d1 = [round(1000 * (0.3 * math.sin(0.055 * x + 0.4) ** 2 + 0.2)) for x in phase]
    rows = "\n".join(f"{x!r},{c},{1000 - c}" for x, c in zip(phase, d1))
    path = tmp_path / "drift.csv"
    path.write_text("phase_rad,counts_d1,counts_d2\n" + rows + "\n")
    assert main(["fit", str(path)]) == 4
    fits = json.loads(capsys.readouterr().out)["files"][0]["fits"]
    for key in ("d1", "d2"):
        assert fits[key]["converged"] is False


def test_custom_elements_and_configurations(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "apparatus": {
            "visibility_v": 0.999,
            "reflection": "i",
            "elements": [
                {"label": "hwp", "phase": [0.0, 0.4, 0.0]},
                {"label": "sample", "phase": [-3.141592653589793, 0.0, 0.0],
                 "amplitude_transmission": 0.5},
            ],
        },
        "configurations": {"ref": ["sample"], "tog": ["hwp", "sample"]},
        "campaign": {"reference": "ref", "toggled": "tog", "n_runs": 5,
                     "master_seed": 11},
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    files = sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".csv")
    assert files == ["interferogram_ref.csv", "interferogram_tog.csv"]
    # hwp phase (0, 0.4, 0) against the complex sample phase leaks visibly
    assert "tog: analytic_v=0.7" in out
    rc = main(["campaign", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "bound_report.json").read_text())
    assert payload["reference"] == "ref"
    assert payload["toggled"] == "tog"
    assert payload["report"]["noncommutative"] is True


def test_unknown_subcommand_is_argparse_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_numbers_print_with_full_precision(tmp_path, capsys):
    rc = main(["bound", "--ratio", "0.123456789012345678"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0.12345678901234568" in out


@pytest.mark.parametrize("row", ["0.5,nan,12", "0.5,10,inf", "nan,10,12", "0.5,-inf,12"])
def test_fit_non_finite_csv_field_is_input_error(tmp_path, capsys, row):
    path = tmp_path / "nonfinite.csv"
    lines = [f"{0.3 * k!r},10,12" for k in range(12)]
    lines[4] = row
    path.write_text("phase_rad,counts_d1,counts_d2\n" + "\n".join(lines) + "\n")
    assert main(["fit", str(path)]) == 3
    err = capsys.readouterr().err
    assert "line 6" in err and "non-finite" in err


@pytest.mark.parametrize("flags, message", [
    (["--v-nim", "0.03", "--v-both", "0.031", "--sigma", "0.5"], "--sigma goes with --ratio"),
    (["--ratio", "0.99", "--v-nim-sigma", "0.5"], "either --ratio or the visibility pair"),
], ids=["sigma_with_the_pair", "pair_sigma_with_the_ratio"])
def test_bound_refuses_a_sigma_of_the_other_input_form(tmp_path, capsys, flags, message):
    # each sigma flag belongs to one input form; one given with the other
    # would be dropped and the bound would look tighter than the input allows
    assert main(["bound", *flags, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("ratio", ["nan", "inf", "-inf"])
def test_bound_rejects_non_finite_ratio(capsys, ratio):
    assert main(["bound", f"--ratio={ratio}"]) == 2
    assert "ratio must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_campaign_rejects_jobs_below_one(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["campaign", "--jobs", jobs, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "bound_report.json").exists()


@pytest.mark.parametrize("phases", [[1.0] * 30, [0.5 * k / 29 for k in range(30)]],
                         ids=["constant", "half_radian"])
def test_fit_rejects_phases_spanning_less_than_a_fringe(tmp_path, capsys, phases):
    path = tmp_path / "narrow.csv"
    rows = [f"{x!r},{100 + k},{140 - k}" for k, x in enumerate(phases)]
    path.write_text("phase_rad,counts_d1,counts_d2\n" + "\n".join(rows) + "\n")
    assert main(["fit", str(path)]) == 4
    fits = json.loads(capsys.readouterr().out)["files"][0]["fits"]
    for key in ("d1", "d2"):
        assert "one full fringe" in fits[key]["error"]


@pytest.mark.parametrize("rows", [
    [(1.0 + 2.0 * math.pi * k, 30 + k % 3, 70 - k % 2) for k in range(8)],
    [(0.3 + math.pi * k, *((30, 70), (70, 30))[k % 2]) for k in range(100)],
], ids=["one_point_8_steps", "two_points_100_steps"])
def test_fit_refuses_steps_at_fewer_than_three_points_of_the_fringe(tmp_path, capsys, rows):
    # (c0, c1, c2) need three distinct points of the fringe (mod 2 pi); these
    # rows span more than a fringe, yet at one or two points they fitted to
    # A = 2.9e12 or to V = 0.83 +- 5e-16, both reported as converged
    path = tmp_path / "points.csv"
    path.write_text("phase_rad,counts_d1,counts_d2\n"
                    + "".join(f"{x!r},{d1},{d2}\n" for x, d1, d2 in rows))
    assert main(["fit", str(path)]) == 4
    fits = json.loads(capsys.readouterr().out)["files"][0]["fits"]
    for key in ("d1", "d2"):
        assert fits[key] == {"error": "points with counts must lie at three or more points "
                                      "of the fringe (mod 2 pi)"}


# an LC passing 1e-6 of the amplitude leaves the toggled loop 1e-12 of the
# counts, so no fit of it is usable
_DARK_LC = {
    "apparatus": {"elements": [
        {"label": "lc", "phase": [3.141592653589793, 0, 0], "amplitude_transmission": 1e-6},
        {"label": "nim", "phase": [-3.141592653589793, 0, 0],
         "amplitude_transmission": 0.36055512754639896},
    ]},
    "campaign": {"n_runs": 3},
}


@pytest.mark.parametrize("command", ["campaign", "sweep"])
def test_no_usable_fits_is_soft_failure(tmp_path, capsys, command):
    cfg = write_config(tmp_path, _DARK_LC)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    values = {"campaign": "Delta V", "sweep": "Gamma-ratio"}[command]
    assert capsys.readouterr().err == (f"{command} produced too few usable fits: "
                                       f"need at least 2 {values} values, got 0\n")
    assert not (tmp_path / "out").exists()


# a loop with no fringe at all: in the one run, one detector's Gamma ratio
# is non-physical, which leaves a single value with no scatter
_ONE_GAMMA_VALUE = {"apparatus": {"visibility_v": 0.0}, "campaign": {"n_runs": 1}}


@pytest.mark.parametrize("command", ["campaign", "sweep"])
def test_single_gamma_value_is_too_few_not_a_detection(tmp_path, capsys, command):
    cfg = write_config(tmp_path, _ONE_GAMMA_VALUE)
    with pytest.warns(UserWarning, match="excluding non-physical point") as caught:
        rc = main([command, "--config", cfg, "--seed", "1", "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert rc == 4
    # the warning names the command that called the statistics
    assert [w.filename for w in caught] == [cli.__file__]
    assert "need at least 2 Gamma-ratio values, got 1" in err
    assert "noncommutative" not in out and "min_detectable_epsilon" not in out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("thickness", ["-1", "0", "nan", "inf"])
def test_index_rejects_bad_thickness(tmp_path, capsys, thickness):
    spectrum = tmp_path / "phase.csv"
    spectrum.write_text("wavelength_nm,phase_rad\n500,1.0\n600,1.2\n")
    rc = main(["index", str(spectrum), f"--thickness-nm={thickness}", "--out", str(tmp_path)])
    assert rc == 2
    assert "thickness_nm must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "index.csv").exists()


@pytest.mark.parametrize("thickness, rows", [
    ("1e-320", "500,1.0\n600,1.2\n"),
    ("285", "500,1e308\n501,-1e308\n"),
], ids=["thin_slab", "huge_phases"])
def test_index_that_is_not_finite_is_input_error(tmp_path, capsys, thickness, rows):
    spectrum = tmp_path / "phase.csv"
    spectrum.write_text("wavelength_nm,phase_rad\n" + rows)
    rc = main(["index", str(spectrum), f"--thickness-nm={thickness}",
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == (f"input error: {spectrum}: index is not finite at 500.0 nm "
                   f"with thickness_nm {float(thickness)!r}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, head, row", [
    ("fit", "phase_rad,counts_d1,counts_d2", '0.0,"{}",5'),
    ("index", "wavelength_nm,phase_rad", '500,"{}"'),
], ids=["fit", "index"])
def test_field_beyond_the_csv_field_limit_is_input_error(tmp_path, capsys, command,
                                                         head, row):
    # a 200,000-digit field, longer than csv.field_size_limit() (131,072)
    path = tmp_path / "long.csv"
    path.write_text(f"{head}\n{row.format('1' * 200_000)}\n")
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {path}: line 2: field larger than field limit")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "campaign", "sweep"])
def test_blocked_element_is_config_error(tmp_path, capsys, command):
    payload = json.loads(json.dumps(_DARK_LC))
    payload["apparatus"]["elements"][0]["amplitude_transmission"] = 0
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "amplitude_transmission must lie in (0, 1]" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


def test_fit_bad_csv_after_a_full_block_writes_no_report(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path)]) == 0
    good = sorted(str(p) for p in tmp_path.glob("interferogram_*.csv"))
    bad = tmp_path / "bad.csv"
    bad.write_text("phase_rad,counts_d1,counts_d2\n1.0,2.0\n")
    out = tmp_path / "report"
    # 80 readable files, more than one 64-file block, then the bad one
    assert main(["fit", *good * 40, str(bad), "--out", str(out)]) == 3
    assert not (out / "fit_report.json").exists()


def test_fit_reports_the_first_bad_file_of_a_block(tmp_path, capsys):
    # file 2's counts are checked with its block, after file 5 is parsed
    assert main(["simulate", "--out", str(tmp_path)]) == 0
    good = str(tmp_path / "interferogram_nim.csv")
    negative = tmp_path / "negative.csv"
    negative.write_text("phase_rad,counts_d1,counts_d2\n0.0,-1,2\n")
    malformed = tmp_path / "malformed.csv"
    malformed.write_text("phase_rad,counts_d1,counts_d2\n0.0,x,2\n")
    out = tmp_path / "report"
    capsys.readouterr()
    argv = ["fit", good, str(negative), good, good, str(malformed), good, "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"input error: {negative}: negative counts\n"
    assert not (out / "fit_report.json").exists()


def test_fit_reads_counts_beyond_int64(tmp_path, capsys):
    # about 1e19 counts a step: an int64 cast would wrap them negative
    assert main(["simulate", "--seed", "3", "--out", str(tmp_path)]) == 0
    ig = read_interferogram_csv(tmp_path / "interferogram_nim.csv")
    big = tmp_path / "big.csv"
    write_interferogram_csv(big, photonsim.Interferogram(
        ig.phase_rad, ig.counts_d1 * 1e16, ig.counts_d2 * 1e16))
    capsys.readouterr()
    assert main(["fit", str(tmp_path / "interferogram_nim.csv"), str(big)]) == 4
    small, scaled = (entry["fits"] for entry in json.loads(capsys.readouterr().out)["files"])
    assert read_interferogram_csv(big).counts_d1.max() >= 2.0 ** 63
    # scaling every count by one factor leaves the weighted fit and its
    # sigmas unchanged, but the scatter is now 1e8 binomial sigmas, so the
    # chi-square is 1e16 times larger and the fit is not converged
    for det in ("d1", "d2"):
        assert small[det]["converged"] is True and scaled[det]["converged"] is False
        for key in ("value", "sigma"):
            assert scaled[det]["visibility"][key] == pytest.approx(
                small[det]["visibility"][key], rel=1e-6)
        assert scaled[det]["residual_norm"] == pytest.approx(
            1e8 * small[det]["residual_norm"], rel=1e-6)


# totals whose sum d1 + d2, or whose fit weight (n + 2)^2, overflows a float
@pytest.mark.parametrize(("every", "huge", "largest"), [
    (True, (1e308, 1e308), (5e149, 5e149)),
    (False, (0.0, 1e160), (0.0, 1e150)),
], ids=["both_1e308_at_every_step", "one_detector_1e160_at_one_step"])
def test_fit_counts_whose_arithmetic_overflows_are_input_error(tmp_path, capsys, every, huge,
                                                               largest):
    path = tmp_path / "huge.csv"

    def rows(step):
        return [step if every or k == 5 else (50.0, 50.0) for k in range(40)]

    def write(step):
        path.write_text("phase_rad,counts_d1,counts_d2\n" + "".join(
            f"{0.25 * k!r},{d1!r},{d2!r}\n" for k, (d1, d2) in enumerate(rows(step))))

    write(huge)
    assert main(["fit", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {path}: line {2 if every else 7}: "
                          "counts_d1 + counts_d2 above 1e+150")
    assert not (tmp_path / "out").exists()
    # the library fit refuses the same row with a FitInputError on both sides
    phase, (d1, d2) = 0.25 * np.arange(40.0), np.array(rows(huge)).T
    ig = photonsim.Interferogram(phase, d1, d2)
    with pytest.raises(fitting.FitInputError, match=r"above 1e\+150"):
        fitting.normalize(ig)
    [pair] = fitting._outcomes(fitting._fit_rows(phase, d1[None], d2[None]))
    [streamed] = fitting.fit_interferograms([ig])
    assert all(isinstance(fit, fitting.FitInputError) for fit in (*pair, *streamed))
    # a total of 1e150 still fits (exit 4 only for a fit that is not converged)
    write(largest)
    assert main(["fit", str(path), "--out", str(tmp_path / "out")]) in (0, 4)
    fits = json.loads((tmp_path / "out" / "fit_report.json").read_text())["files"][0]["fits"]
    assert all("error" not in fit for fit in fits.values())


def test_bins_above_the_number_of_values_is_config_error(tmp_path, capsys):
    # a campaign histogram holds at most 2 * n_runs values; larger bin counts
    # are refused before anything is allocated
    for bins in (21, 1000000000000000000):
        cfg = write_config(tmp_path, {"campaign": {"n_runs": 10}, "analysis": {"bins": bins}})
        assert main(["campaign", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert (f"analysis.bins must be at most 2 * campaign.n_runs = 20, got {bins}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()
    cfg = write_config(tmp_path, {"campaign": {"n_runs": 10}, "analysis": {"bins": 20}})
    assert main(["campaign", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


# sizes above the caps are refused by validation alone, before any output
# directory is made; no test runs a campaign at a cap
@pytest.mark.parametrize("command", ["simulate", "campaign"])
def test_scan_of_1e18_steps_is_config_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, {"scan": {"n_steps": 10 ** 18}})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "n_steps must lie in [8, 100000], got 1000000000000000000" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# sweep streams its runs, so without the cap it runs on instead of failing
@pytest.mark.parametrize("command", ["campaign", "sweep"])
def test_campaign_of_1e18_runs_is_config_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, {"campaign": {"n_runs": 10 ** 18}})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert ("campaign.n_runs must lie in [1, 1000000], got 1000000000000000000"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_scan_and_run_caps_are_inclusive():
    # validation only: configs at the caps are built, never run
    assert photonsim.ScanConfig(n_steps=photonsim._MAX_STEPS).n_steps == 10 ** 5
    assert ExperimentConfig(n_runs=config._MAX_RUNS).n_runs == 10 ** 6
    with pytest.raises(ValueError, match=r"n_steps must lie in \[8, 100000\], got 100001"):
        photonsim.ScanConfig(n_steps=10 ** 5 + 1)
    with pytest.raises(config.ConfigError, match=r"must lie in \[1, 1000000\], got 1000001"):
        ExperimentConfig(n_runs=10 ** 6 + 1)


@pytest.mark.parametrize("seed", ["12", True, 12.9, 2 ** 64],
                         ids=["str", "bool", "float", "beyond_64_bits"])
def test_experiment_config_refuses_a_master_seed_that_is_not_a_64_bit_int(seed):
    # int() would read True as 1 and 12.9 as 12 at draw time
    with pytest.raises(config.ConfigError, match="master_seed must be a 64-bit unsigned integer"):
        ExperimentConfig(master_seed=seed)


def test_nominal_commands_fit_each_interferogram_once(tmp_path, capsys, monkeypatch):
    # default campaign and sweep, 200 runs each: the campaign's 2 configurations,
    # then the sweep's reference once and its toggled one at each of 7 epsilons,
    # each slot drawn and fitted as one block, with no RunRecord built
    calls = {"normalize": 0, "rows": 0, "fit_block": 0, "draw_counts": 0, "records": 0}
    normalize, fit_block = fitting._normalize_rows, fitting._fit_block
    draw_counts, run_record = photonsim.draw_counts, analysis.RunRecord

    def counted_normalize(phase, *args, **kwargs):
        calls["normalize"] += len(phase)
        return normalize(phase, *args, **kwargs)

    def counted_fit_block(x, *args):
        calls["rows"] += len(x)
        calls["fit_block"] += 1
        return fit_block(x, *args)

    def counted_draw_counts(*args):
        calls["draw_counts"] += 1
        return draw_counts(*args)

    monkeypatch.setattr(fitting, "_normalize_rows", counted_normalize)
    monkeypatch.setattr(fitting, "_fit_block", counted_fit_block)
    def counted_run_record(*args, **kwargs):
        calls["records"] += 1
        return run_record(*args, **kwargs)

    monkeypatch.setattr(photonsim, "draw_counts", counted_draw_counts)
    monkeypatch.setattr(analysis, "RunRecord", counted_run_record)
    assert main(["campaign", "--out", str(tmp_path / "campaign")]) == 0
    assert main(["sweep", "--out", str(tmp_path / "sweep")]) == 0
    assert calls == {"normalize": 2000, "rows": 2000, "fit_block": 10, "draw_counts": 10,
                     "records": 0}
    # the spy sees the records that the library edge builds
    analysis._records(range(3), np.zeros((3, 4), analysis._SLOT))
    assert calls["records"] == 3
