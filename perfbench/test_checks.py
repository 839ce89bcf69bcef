"""The benchmark's own tests: every output check passes on real output and
fails on tampered output, so no check can pass vacuously.

    python3 -m pytest perfbench
"""

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import pytest

import checks
import tracing
import workloads
from darkport import cli, fitting


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def campaign_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign")
    assert _run(["campaign", "--seed", "5", "--out", str(out)]) == 0
    return out


def test_campaign_check_rejects_edited_theta(campaign_dir, tmp_path):
    assert checks.check_campaign(campaign_dir, 0, 200) == []
    tampered = tmp_path / "campaign"
    shutil.copytree(campaign_dir, tampered)
    path = tampered / "bound_report.json"
    payload = json.loads(path.read_text())
    payload["report"]["theta_central_deg"] += 1e-6
    path.write_text(json.dumps(payload))
    problems = checks.check_campaign(tampered, 0, 200)
    assert len(problems) == 1 and "theta_central_deg" in problems[0]
    assert checks.check_campaign(campaign_dir, 4, 200) != []


def test_identity_check_rejects_one_changed_byte(campaign_dir, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(campaign_dir, copy)
    assert checks.check_identical(campaign_dir, copy) == []
    hist = copy / "gamma_ratio_hist.csv"
    data = bytearray(hist.read_bytes())
    data[-2] = ord("9") if data[-2] != ord("9") else ord("8")
    hist.write_bytes(bytes(data))
    problems = checks.check_identical(campaign_dir, copy)
    assert len(problems) == 1 and problems[0].startswith("gamma_ratio_hist.csv differs")


def _write_sweep(path, rows):
    lines = ["epsilon,gamma_shift,significance"]
    lines += [f"{e!r},{g!r},{s!r}" for e, g, s in rows]
    path.write_text("\n".join(lines) + "\n")


def test_sweep_check(tmp_path):
    grid = cli.load_config(None).epsilon_grid
    rows = [(e, 2.0 * math.sin(e) ** 2, 0.0 if e == 0.0 else 1000.0 * e) for e in grid]
    path = tmp_path / "sweep.csv"
    _write_sweep(path, rows)
    assert checks.check_sweep(path, 0, grid) == []
    _write_sweep(path, rows[:-1])
    assert checks.check_sweep(path, 0, grid) != []
    _write_sweep(path, [(0.0, 0.0, 0.5)] + rows[1:])
    assert checks.check_sweep(path, 0, grid) != []
    _write_sweep(path, [(e, g + 1e-9, s) for e, g, s in rows])
    assert checks.check_sweep(path, 0, grid) != []
    _write_sweep(path, rows[:-1] + [rows[-1][:2] + (4.0,)])
    assert checks.check_sweep(path, 0, grid) != []


def test_fit_check_rejects_truncated_report(tmp_path):
    paths, truth = workloads.write_lab_files(11, tmp_path / "csv", n_runs=20)
    code = _run(["fit", *paths, "--out", str(tmp_path / "out")])
    report = tmp_path / "out" / "fit_report.json"
    problems, summary = checks.check_fit_report(report, code, paths, truth)
    assert problems == [] and summary["fits"] == 80
    assert checks.check_fit_report(report, code, paths[::-1], truth)[0] != []
    assert checks.check_fit_report(report, 5, paths, truth)[0] != []
    report.write_bytes(report.read_bytes()[: report.stat().st_size // 2])
    assert checks.check_fit_report(report, code, paths, truth)[0] != []


def test_loop_check_rejects_perturbed_oracle():
    results = workloads.evaluate_loop_models(workloads.loop_specs(3, 60))
    assert checks.check_loop_models(results) == []
    bad = list(results)
    bad[7] = bad[7]._replace(oracle_dark=bad[7].oracle_dark + 1e-9)
    assert len(checks.check_loop_models(bad)) == 1
    k = next(i for i, r in enumerate(results) if r.commuting)
    bad = list(results)
    bad[k] = bad[k]._replace(gamma=1.0 - 1e-16)
    assert len(checks.check_loop_models(bad)) == 1
    assert checks.check_loop_models([r for r in results if not r.commuting]) != []


def test_tracer_restores_wrapped_functions():
    original = fitting.fit_sinusoid
    tracer = tracing.Tracer()
    with tracer.installed():
        assert fitting.fit_sinusoid is not original
        workloads.evaluate_loop_models(workloads.loop_specs(2, 3))
    assert fitting.fit_sinusoid is original
    assert tracer.missing == []
    assert tracer.count("bench.model") == 3


def test_layer_metrics_self_time_and_layer_totals():
    tracer = tracing.Tracer()
    spans = [  # name, parent, start, end
        ("cli.main", -1, 0.0, 10.0),
        ("photonsim.simulate_run", 0, 1.0, 3.0),
        ("photonsim.simulate_interferogram", 1, 1.5, 2.5),
        ("fitting.normalize", 0, 4.0, 4.5),
        ("fitting.fit_sinusoid", 0, 5.0, 7.0),
    ]
    for name, parent, start, end in spans:
        tracer.name_ids.append(tracer.id_of(name))
        tracer.parents.append(parent)
        tracer.starts.append(start)
        tracer.ends.append(end)
    tracer.lm_iterations.append(6)
    metrics = tracing.layer_metrics(tracer, 2, 0.1)
    assert metrics["cli.self_s"] == pytest.approx(5.5 / 2)
    assert metrics["photonsim.simulate_s"] == pytest.approx(2.0 / 2)
    assert metrics["photonsim.interferograms"] == 0.5
    assert metrics["fitting.fit_s"] == pytest.approx(1.0)
    assert metrics["fitting.fit_ms.p50"] == pytest.approx(2000.0)
    assert set(metrics) == set(tracing.LAYER_METRICS)


def test_benchmark_json_matches_the_code():
    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in tracing.LAYER_METRICS.items()}


def test_meta_json_matches_the_code():
    import run

    meta = json.loads((Path(__file__).resolve().parent / "meta.json").read_text())
    assert meta["sandbox"] == run.SANDBOX
    assert meta["defined_on"]["numpy_only_spawn_s"] == run.NUMPY_SPAWN_S
    assert meta["per_layer_moves"] == {
        name: moves for name, (_, _, moves) in tracing.LAYER_METRICS.items()}


def test_drift_meter_counts_work_between_slices():
    import signal
    import time

    import child

    before = signal.getsignal(signal.SIGALRM)
    with child.DriftMeter() as meter:
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    seconds, units = meter.result()
    slices = meter.slice_s()
    assert len(slices) >= 4
    assert 0.3 < seconds < 0.35
    assert units == pytest.approx(seconds / (sum(slices) / len(slices)), rel=0.5)
