"""Output checks that hold for every workload seed.

None of them compares against golden bytes: a faster fit engine or a fit
correctness fix may move the last digits of every result.  They check
relations the outputs must satisfy instead.  Each check returns a list of
failure messages; an empty list means the output passed.  SHA-256 digests
of the outputs are recorded for information only.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from pathlib import Path

from darkport.interferometer import theta_bound

CAMPAIGN_FILES = ("bound_report.json", "delta_v_hist.csv", "gamma_ratio_hist.csv")
DETECTION_SIGMA = 5.0
FLOAT_TOL = 1e-12
# |median pull| of the converged low-count visibilities; the amplitude
# estimate of a fringe this faint is biased upward (about +2 sigma at 200
# counts/step), so the band is loose around 0 rather than tight
PULL_BAND = 4.0
MIN_CONVERGED_SHARE = 0.5


def sha256(path: Path) -> str:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return "missing"


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)


def _load_json(path: Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8")), None
    except (OSError, ValueError) as err:
        return None, f"{Path(path).name}: unreadable: {err}"


def _hist_total(path: Path) -> int:
    with open(path, newline="", encoding="utf-8") as fh:
        return sum(int(row["count"]) for row in csv.DictReader(fh))


def check_campaign(out: Path, exit_code: int, n_runs: int) -> list[str]:
    """bound_report.json of a campaign of n_runs runs with commuting elements."""
    out = Path(out)
    problems = [] if exit_code == 0 else [f"campaign exited {exit_code}, expected 0"]
    payload, err = _load_json(out / "bound_report.json")
    if err:
        return problems + [err]
    try:
        rep = payload["report"]
        if payload["n_runs"] != n_runs or rep["n_complete_runs"] != n_runs:
            problems.append(f"n_complete_runs {rep['n_complete_runs']} / n_runs "
                            f"{payload['n_runs']}, expected {n_runs}")
        if rep["noncommutative"] is not False:
            problems.append("noncommutative flag raised for commuting elements")
        theta = theta_bound(float(rep["gamma_ratio_mean"]), float(rep["gamma_ratio_stderr"]))
        for key, want in (("theta_central_deg", theta.central_deg),
                          ("theta_conservative_deg", theta.conservative_deg)):
            if not _close(float(rep[key]), want):
                problems.append(f"{key} {rep[key]!r} != theta_bound recomputed {want!r}")
        total = _hist_total(out / "delta_v_hist.csv")
        if total != rep["n_values"]:
            problems.append(f"delta_v_hist.csv holds {total} values, report has {rep['n_values']}")
    except (KeyError, TypeError, ValueError, OSError) as exc:
        problems.append(f"bound report malformed: {type(exc).__name__}: {exc}")
    return problems


def campaign_fit_fail_frac(out: Path, n_runs: int) -> float:
    """Detector pairs missing from n_values, over the 2 * n_runs attempted."""
    payload, _ = _load_json(Path(out) / "bound_report.json")
    try:
        return (2 * n_runs - payload["report"]["n_values"]) / (2 * n_runs)
    except (KeyError, TypeError):
        return 1.0


def check_sweep(path: Path, exit_code: int, grid: tuple[float, ...]) -> list[str]:
    """sweep.csv: one row per epsilon, closed-form shift, detection reach."""
    problems = [] if exit_code == 0 else [f"sweep exited {exit_code}, expected 0"]
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        return problems + [f"sweep.csv unreadable: {exc}"]
    if [r.get("epsilon") for r in rows] != [float(e) for e in grid]:
        return problems + [f"sweep.csv epsilons {[r.get('epsilon') for r in rows]} "
                           f"!= grid {list(grid)}"]
    try:
        for r in rows:
            eps = r["epsilon"]
            want = 2.0 * math.sin(eps) ** 2
            if not abs(r["gamma_shift"] - want) <= FLOAT_TOL:
                problems.append(f"gamma_shift {r['gamma_shift']!r} at eps={eps} != 2 sin^2 eps")
            if eps == 0.0 and r["significance"] != 0.0:
                problems.append(f"significance {r['significance']!r} at eps=0, expected 0")
        top = max(rows, key=lambda r: r["epsilon"])
        if not top["significance"] >= DETECTION_SIGMA:
            problems.append(f"significance {top['significance']!r} at the largest eps "
                            f"{top['epsilon']} is below {DETECTION_SIGMA}")
    except KeyError as exc:
        problems.append(f"sweep.csv lacks column {exc}")
    return problems


def check_fit_report(path: Path, exit_code: int, csv_paths: list[str],
                     truth: dict[str, float]) -> tuple[list[str], dict]:
    """fit_report.json of ``darkport fit`` over csv_paths, in argv order.

    Returns the failures and a summary: fits attempted, fits failed (an
    error or converged false) and the median pull of the converged
    visibilities against the analytic ones.
    """
    summary = {"fits": 0, "failed": 0, "median_pull": math.nan}
    problems = [] if exit_code in (0, 4) else [f"fit exited {exit_code}, expected 0 or 4"]
    report, err = _load_json(path)
    if err:
        return problems + [err], summary
    try:
        entries = report["files"]
        if [e["path"] for e in entries] != list(csv_paths):
            return problems + [f"fit report has {len(entries)} entries, not one per "
                               f"file in argv order ({len(csv_paths)} files)"], summary
        pulls = []
        for entry in entries:
            for key in ("d1", "d2"):
                fit = entry["fits"][key]
                summary["fits"] += 1
                if "error" in fit or fit["converged"] is not True:
                    summary["failed"] += 1
                    continue
                vis = fit["visibility"]
                if vis["sigma"] > 0.0:
                    pulls.append((vis["value"] - truth[entry["path"]]) / vis["sigma"])
    except (KeyError, TypeError) as exc:
        return problems + [f"fit report malformed: {type(exc).__name__}: {exc}"], summary
    if (exit_code == 4) != (summary["failed"] > 0):
        problems.append(f"exit {exit_code} with {summary['failed']} failed fits")
    if len(pulls) < MIN_CONVERGED_SHARE * summary["fits"]:
        problems.append(f"only {len(pulls)} of {summary['fits']} fits converged with a sigma")
    else:
        summary["median_pull"] = statistics.median(pulls)
        if not abs(summary["median_pull"]) <= PULL_BAND:
            problems.append(f"median visibility pull {summary['median_pull']:.3f} "
                            f"outside +-{PULL_BAND}")
    return problems, summary


def check_loop_models(results) -> list[str]:
    """Closed form against the oracle, and exact commutation where phases commute."""
    problems = []
    kinds = set()
    for idx, r in enumerate(results):
        kinds.add(r.commuting)
        if not (abs(r.closed_dark - r.oracle_dark) <= FLOAT_TOL
                and abs(r.closed_bright - r.oracle_bright) <= FLOAT_TOL):
            problems.append(f"model {idx}: closed form ({r.closed_dark!r}, {r.closed_bright!r}) "
                            f"!= oracle ({r.oracle_dark!r}, {r.oracle_bright!r})")
        if r.commuting and not (r.defect == 0.0 and r.gamma == 1.0 and r.theta_deg == 0.0):
            problems.append(f"model {idx}: commuting phases give defect {r.defect!r}, "
                            f"gamma {r.gamma!r}, theta {r.theta_deg!r}")
    if kinds != {True, False}:
        problems.append("loop models lack either commuting or non-commuting cases")
    return problems


def check_identical(dir_a: Path, dir_b: Path, names=CAMPAIGN_FILES) -> list[str]:
    """The files of two campaign outputs must match byte for byte."""
    problems = []
    for name in names:
        try:
            same = Path(dir_a, name).read_bytes() == Path(dir_b, name).read_bytes()
        except OSError as err:
            problems.append(f"{name}: {err}")
            continue
        if not same:
            problems.append(f"{name} differs between {Path(dir_a).name} and {Path(dir_b).name}")
    return problems
