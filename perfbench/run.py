"""darkport benchmark.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run it from the repository root; darkport is imported from ``src/`` via
PYTHONPATH, not installed.  WORKLOAD is one of nominal, lab_fit and
loop_model (see workloads.py).  Every run is serial, in one process at a
time.

With ``--trace 0`` the timed work runs in fresh child interpreters for S
seconds and the last line of standard output is a JSON object with the
end-to-end metrics:

* setup_s: median set-up time of fresh interpreters that import darkport.cli
  and load the default config, five before and five after the timed work,
  each divided by the time of a fresh interpreter that imports only numpy,
  run right after it, and given in seconds of the machine the benchmark was
  defined on (NUMPY_SPAWN_S); the raw wall times are printed too;
* wall_ref: median over the run's iterations of the iteration time in
  units of a fixed reference task interleaved with it every 0.1 s in the
  same child (child.DriftMeter), which cancels the speed drift of a
  shared machine;
* peak_rss_mb: median over the run's iterations of the largest peak RSS
  among the iteration's children.

Workload-specific figures (wall_s, campaign_s, sweep_s, fits_per_s,
models_per_s, fit_fail_frac) are printed above the JSON line, each timing
as a median with its sample count and the highest percentile that has ten
samples beyond it.  They are not in the JSON because every JSON metric
must exist on every workload, and raw seconds drift with the machine.
With ``--trace 1`` the workload runs in this process,
alternating untraced and traced iterations; the JSON holds the per-layer
metrics and the spans go to ``.perfbench_out/trace-*.json``.  Both modes
check every output (checks.py) and, once per invocation and untimed, that
``campaign --jobs 2`` writes the same bytes as ``--jobs 1``.  A record of
each invocation, with the machine and versions, goes to
``.perfbench_out/record-*.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# the whole invocation must end within 180 s; children are killed past this
DEADLINE_S = 170.0
# set-up is timed before and again after the timed work, so its median
# spans the machine's state over the whole run
SETUP_SPAWNS_EACH = 5
# On a shared machine a fresh interpreter's start-up time drifts by up to a
# third between runs half an hour apart, and one that imports only
# numpy drifts with it: within one run, set-up over numpy-only holds to a
# few percent.  setup_s is that ratio in units of NUMPY_SPAWN_S, the
# numpy-only median on the machine the benchmark was defined on (meta.json).
NUMPY_SPAWN_S = 0.20

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "peak_rss_mb": "MB",
}

SANDBOX = ("shared 2-core container: no CPU pinning, no cache dropping, no frequency "
           "control; darkport runs from src/ via PYTHONPATH, not from an install")


class Budget:
    def __init__(self) -> None:
        self.start = perf_counter()

    def left(self) -> float:
        return max(1.0, DEADLINE_S - (perf_counter() - self.start))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list[str], log: Path, timeout: float) -> tuple[int, float, float]:
    """Run one child to completion; returns exit code, wall seconds, peak RSS in MB."""
    with open(log, "w", encoding="utf-8") as fh:
        t0 = perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT, env=_child_env(),
                                stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def cli_command(argv: list[str], work: Path, tag: str, budget: Budget) -> dict:
    """One darkport CLI call in a fresh interpreter; main_s excludes start-up."""
    timing = work / f"{tag}.timing.json"
    code, _, rss = spawn([sys.executable, HERE / "child.py", "cli", timing, *argv],
                         work / f"{tag}.log", budget.left())
    try:
        timing_data = json.loads(timing.read_text(encoding="utf-8"))
        main_s, main_ref = timing_data["main_s"], timing_data["main_ref"]
        slice_s = timing_data["slice_s"]
    except (OSError, ValueError, KeyError):
        main_s, main_ref, slice_s = None, None, []
    return {"exit": code, "main_s": main_s, "main_ref": main_ref, "slice_s": slice_s,
            "rss_mb": rss}


def measure_setup(work: Path, budget: Budget, tag: str) -> list[tuple[float, float]]:
    """Wall times of fresh interpreters, as (set-up, numpy-only) pairs run back to back.

    The set-up interpreter imports darkport.cli and loads the default config;
    the numpy-only one imports numpy and nothing of darkport.
    """
    setup = [sys.executable, "-c", "import darkport.cli as c; c.load_config(None)"]
    numpy_only = [sys.executable, "-c", "import numpy"]
    # the first one byte-compiles src and warms the file cache
    spawn(setup, work / f"setup-{tag}-warm.log", budget.left())
    pairs = []
    for k in range(SETUP_SPAWNS_EACH):
        walls = []
        for name, argv in (("setup", setup), ("numpy", numpy_only)):
            code, wall, _ = spawn(argv, work / f"{name}-{tag}-{k}.log", budget.left())
            if code != 0:
                raise RuntimeError(f"{name} interpreter exited {code}; see {work}")
            walls.append(wall)
        pairs.append((walls[0], walls[1]))
    return pairs


def spread_summary(values: list[float]) -> dict:
    """Median, sample count, and the highest of p90/p99/p99.9 with ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    ordered = sorted(values)
    for q in (99.9, 99.0, 90.0):
        if len(values) * (1.0 - q / 100.0) >= 10.0:
            rank = min(len(ordered) - 1, int(q / 100.0 * len(ordered)))
            out[f"p{q:g}"] = ordered[rank]
            break
    return out


def iterations_within(seconds: float):
    """Yield 0, 1, 2, ... while the next iteration, if it takes as long as the
    last, still ends within ``seconds``; there is always one iteration."""
    start = perf_counter()
    k, last = 0, 0.0
    while k == 0 or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        yield k
        last = perf_counter() - t0
        k += 1


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str], operations: int = 1, failed: int | None = None) -> None:
        self.attempted += operations
        self.failed += (1 if problems else 0) if failed is None else failed
        self.problems.extend(problems[: max(0, 10 - len(self.problems))])


# ---------------------------------------------------------------- untraced

def timed_nominal(seed, seconds, work, budget, tally, info):
    import checks
    import workloads
    from darkport.cli import load_config

    cfg = load_config(None)
    rows, rss = [], []
    for k in iterations_within(seconds):
        out = work / f"it{k}"
        res = {label: cli_command(argv, work, f"{out.name}-{label}", budget)
               for label, argv in workloads.nominal_commands(seed, out)}
        tally.add(checks.check_campaign(out / "campaign", res["campaign"]["exit"], cfg.n_runs))
        tally.add(checks.check_sweep(out / "sweep" / "sweep.csv", res["sweep"]["exit"],
                                     cfg.epsilon_grid))
        rss.append(max(r["rss_mb"] for r in res.values()))
        if any(r["main_s"] is None for r in res.values()):
            tally.add([f"{out.name}: a command left no timing"], operations=0)
            break
        rows.append(res)
    if not rows:
        return [], 1, rss, "fits_per_s"
    first = work / "it0"
    info["campaign_s"] = (spread_summary([r["campaign"]["main_s"] for r in rows]), "s")
    info["sweep_s"] = (spread_summary([r["sweep"]["main_s"] for r in rows]), "s")
    info["fit_fail_frac"] = (checks.campaign_fit_fail_frac(first / "campaign", cfg.n_runs), "frac")
    info["sha256"] = {f"campaign/{n}": checks.sha256(first / "campaign" / n)
                      for n in checks.CAMPAIGN_FILES}
    info["sha256"]["sweep/sweep.csv"] = checks.sha256(first / "sweep" / "sweep.csv")
    fits = 4 * cfg.n_runs * (1 + len(cfg.epsilon_grid))
    for label in ("campaign", "sweep"):
        info[f"{label}_ref"] = (spread_summary([r[label]["main_ref"] for r in rows]), "ref")
    info["reference_slice_s"] = (spread_summary(
        [x for r in rows for res in r.values() for x in res["slice_s"]]), "s")
    iterations = [(r["campaign"]["main_s"] + r["sweep"]["main_s"],
                   r["campaign"]["main_ref"] + r["sweep"]["main_ref"]) for r in rows]
    return iterations, fits, rss, "fits_per_s"


def timed_lab_fit(seed, seconds, work, budget, tally, info):
    import checks
    import workloads

    paths, truth = workloads.write_lab_files(seed, work / "csv")
    iterations, slices, rss, summary = [], [], [], None
    for k in iterations_within(seconds):
        out = work / f"it{k}"
        res = cli_command(["fit", *paths, "--out", str(out)], work, out.name, budget)
        problems, summary = checks.check_fit_report(out / "fit_report.json", res["exit"],
                                                    paths, truth)
        tally.add(problems)
        rss.append(res["rss_mb"])
        if res["main_s"] is None:
            tally.add([f"{out.name}: fit left no timing"], operations=0)
            break
        iterations.append((res["main_s"], res["main_ref"]))
        slices += res["slice_s"]
    if not iterations:
        return [], 1, rss, "fits_per_s"
    info["fit_fail_frac"] = (summary["failed"] / max(summary["fits"], 1), "frac")
    info["median_pull"] = (summary["median_pull"], "sigma")
    info["reference_slice_s"] = (spread_summary(slices), "s")
    info["sha256"] = {"fit_report.json": checks.sha256(work / "it0" / "fit_report.json")}
    return iterations, 2 * len(paths), rss, "fits_per_s"


def timed_loop_model(seed, seconds, work, budget, tally, info):
    result = work / "loop.json"
    code, _, rss_mb = spawn([sys.executable, HERE / "child.py", "loop", seed, seconds, result],
                            work / "loop.log", budget.left())
    rss = [rss_mb]
    try:
        data = json.loads(result.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        tally.add([f"loop_model child exited {code} without a result"])
        return [], 1, rss, "models_per_s"
    n = data["n_models"]
    tally.add(data["problems"], operations=n * len(data["times_s"]), failed=data["failed"])
    if code != 0:
        tally.add([f"loop_model child exited {code}"])
    info["reference_slice_s"] = (spread_summary(data["slice_s"]), "s")
    iterations = list(zip(data["times_s"], data["units"]))
    return iterations, n, rss, "models_per_s"


TIMED = {"nominal": timed_nominal, "lab_fit": timed_lab_fit, "loop_model": timed_loop_model}


def check_jobs_identity(seed, work, budget, tally) -> None:
    """Untimed: --jobs 2 must write the same campaign bytes as --jobs 1."""
    import checks

    dirs = {}
    codes = []
    for jobs in (1, 2):
        dirs[jobs] = work / f"jobs{jobs}"
        res = cli_command(["campaign", "--seed", str(seed), "--jobs", str(jobs),
                           "--out", str(dirs[jobs])], work, f"jobs{jobs}", budget)
        codes.append(res["exit"])
    problems = [f"campaign --jobs {j} exited {c}" for j, c in zip((1, 2), codes) if c != 0]
    tally.add(problems + checks.check_identical(dirs[1], dirs[2]))


# ------------------------------------------------------------------ traced

def _no_span(name: str):
    return contextlib.nullcontext()


def _quiet_main(argv: list[str]) -> int:
    from darkport import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def in_process_iteration(workload, seed, out, inputs, span):
    """One workload iteration in this process; returns its check failures."""
    import checks
    import workloads

    if workload == "loop_model":
        return checks.check_loop_models(workloads.evaluate_loop_models(inputs))
    if workload == "lab_fit":
        paths, truth = inputs
        with span("cli.main"):
            code = _quiet_main(["fit", *paths, "--out", str(out)])
        return checks.check_fit_report(out / "fit_report.json", code, paths, truth)[0]
    problems = []
    for label, argv in workloads.nominal_commands(seed, out):
        with span("cli.main"):
            code = _quiet_main(argv)
        if label == "campaign":
            problems += checks.check_campaign(out / "campaign", code, inputs.n_runs)
        else:
            problems += checks.check_sweep(out / "sweep" / "sweep.csv", code,
                                           inputs.epsilon_grid)
    return problems


def traced_run(workload, seed, seconds, work, tally):
    import tracing
    import workloads
    from darkport.cli import load_config

    if workload == "lab_fit":
        inputs = workloads.write_lab_files(seed, work / "csv")
    elif workload == "loop_model":
        inputs = workloads.loop_specs(seed)
    else:
        inputs = load_config(None)
    tracer = tracing.Tracer()
    untraced, traced = [], []
    # one pass before timing, so one-off costs such as lazy imports land in
    # neither the traced nor the untraced times
    tally.add(in_process_iteration(workload, seed, work / "warm", inputs, _no_span))
    # one traced iteration gives at least 1000 fit or model latencies (6400,
    # 3200 and 1000 per workload), so a p99 has ten samples beyond it
    for k in iterations_within(seconds):
        t0 = perf_counter()
        tally.add(in_process_iteration(workload, seed, work / f"u{k}", inputs, _no_span))
        untraced.append(perf_counter() - t0)
        with tracer.installed(), tracer.span("bench.iteration"):
            t0 = perf_counter()
            tally.add(in_process_iteration(workload, seed, work / f"t{k}", inputs, tracer.span))
            traced.append(perf_counter() - t0)
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics = tracing.layer_metrics(tracer, len(traced), overhead)
    if tracer.missing:
        tally.add([f"trace sites missing: {tracer.missing}"], operations=0)
    spans_path = OUT / f"trace-{workload}.json"
    tracer.write(spans_path, {"workload": workload, "seed": seed,
                              "traced_iterations": len(traced)})
    info = {"untraced_wall_s": (spread_summary(untraced), "s"),
            "traced_wall_s": (spread_summary(traced), "s"),
            "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, info


# -------------------------------------------------------------------- main

def environment() -> dict:
    """The machine and versions of this run; meta.json has those the benchmark was defined on."""
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(), "sandbox": SANDBOX}


def _format(value) -> str:
    if isinstance(value, dict):
        tail = "".join(f" {k}={v:.6g}" for k, v in value.items() if k.startswith("p"))
        return f"median={value['median']:.6g} n={value['n']}{tail}"
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("nominal", "lab_fit", "loop_model"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64 or args.seconds <= 0:
        parser.error("--seed must be a 64-bit unsigned integer and --seconds positive")
    if not (ROOT / "src" / "darkport" / "__init__.py").is_file():
        print(f"no darkport sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing

    budget = Budget()
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    info: dict = {}
    if args.trace:
        metrics, info = traced_run(args.workload, args.seed, args.seconds, work, tally)
        units = {name: spec[0] for name, spec in tracing.LAYER_METRICS.items()}
    else:
        pairs = measure_setup(work, budget, "before")
        iterations, items, rss, rate_name = TIMED[args.workload](
            args.seed, args.seconds, work, budget, tally, info)
        pairs += measure_setup(work, budget, "after")
        setup = [s / n * NUMPY_SPAWN_S for s, n in pairs]
        walls = [wall for wall, _ in iterations] or [math.nan]
        ratios = [units for _, units in iterations] or [math.nan]
        wall = statistics.median(walls)
        info = {"setup_s": (spread_summary(setup), "s"),
                "setup_wall_s": (spread_summary([s for s, _ in pairs]), "s"),
                "numpy_only_wall_s": (spread_summary([n for _, n in pairs]), "s"),
                "wall_s": (spread_summary(walls), "s"),
                "wall_ref": (spread_summary(ratios), "ref"),
                rate_name: (items / wall, "1/s"), **info}
        metrics = {"setup_s": statistics.median(setup), "wall_ref": statistics.median(ratios),
                   "peak_rss_mb": statistics.median(rss or [math.nan])}
        units = END_TO_END
    check_jobs_identity(args.seed, work, budget, tally)

    correct = tally.failed == 0 and not tally.problems
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "correct": correct,
              "attempted": tally.attempted, "failed": tally.failed,
              "problems": tally.problems, "metrics": metrics,
              "info": info,
              "per_layer_moves": {k: v[2] for k, v in tracing.LAYER_METRICS.items()}}
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str), encoding="utf-8")
    if correct:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, value in info.items():
        if name == "sha256":
            for fname, digest in value.items():
                print(f"sha256 {fname} {digest} (information only)")
        elif isinstance(value, tuple):
            print(f"{name}: {_format(value[0])} {value[1]}")
        else:
            print(f"{name}: {value}")
    for problem in tally.problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
