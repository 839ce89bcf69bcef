"""Command-line pipeline: simulate, fit, campaign, sweep, index, bound.

Each subcommand is one pipeline stage and talks to the others through
files, so every stage can be rerun or tested in isolation.  Exit codes:
0 success, 2 configuration or usage error, 3 file I/O or parse error,
4 soft fit non-convergence, 5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field

from . import analysis, fitting, metaoptics, photonsim, reports
from .interferometer import (
    NonPhysicalVisibilityError,
    PhaseElement,
    SagnacModel,
    VisibilityValue,
    gamma_ratio,
    theta_bound,
)
from .quaternion import I, J, K, PhaseVector, Quaternion

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SOFT_FIT = 4
EXIT_INTERNAL = 5

_AXES = {"i": I, "j": J, "k": K}


class ConfigError(ValueError):
    """Bad configuration file or bad option values."""


def _reject_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}")
        seen[key] = value
    return seen


def _check_keys(section: dict, allowed: tuple, path: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}; allowed keys are {sorted(allowed)}")


def _get(section: dict, key: str, default, kind, path: str):
    if key not in section:
        return default
    value = section[key]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is str and isinstance(value, str):
        return value
    raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {value!r}")


def _parse_phase(value, path: str) -> PhaseVector:
    if (not isinstance(value, list) or len(value) != 3
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise ConfigError(f"{path}: phase must be a list of 3 numbers, got {value!r}")
    try:
        return PhaseVector(float(value[0]), float(value[1]), float(value[2]))
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def _parse_reflection(value, path: str) -> Quaternion:
    if isinstance(value, str):
        if value not in _AXES:
            raise ConfigError(f"{path}: reflection axis must be one of "
                              f"{sorted(_AXES)}, got {value!r}")
        return _AXES[value]
    if (isinstance(value, list) and len(value) == 4
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        return Quaternion(*(float(v) for v in value))
    raise ConfigError(f"{path}: reflection must be an axis name or a list of 4 numbers")


def _default_elements() -> tuple[PhaseElement, ...]:
    return (PhaseElement("lc", PhaseVector(math.pi, 0.0, 0.0)),
            PhaseElement("nim", PhaseVector(-math.pi, 0.0, 0.0), math.sqrt(0.13)))


def _default_configurations() -> dict:
    return {"nim": ("nim",), "both": ("lc", "nim")}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a subcommand needs, already validated."""

    visibility_v: float = 0.9992774
    reflection: Quaternion = I
    elements: tuple[PhaseElement, ...] = field(default_factory=_default_elements)
    scan: photonsim.ScanConfig = photonsim.ScanConfig()
    n_runs: int = 200
    master_seed: int = 0
    reference: str = "nim"
    toggled: str = "both"
    configurations: dict = field(default_factory=_default_configurations)
    bins: object = "fd"
    theta_convention: str = "both"
    epsilon_grid: tuple[float, ...] = (0.0, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1)
    out_dir: str = "."

    def __post_init__(self) -> None:
        if self.n_runs < 1:
            raise ConfigError(f"campaign.n_runs must be >= 1, got {self.n_runs!r}")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ConfigError(f"campaign.master_seed must be a 64-bit unsigned "
                              f"integer, got {self.master_seed!r}")

    def build_model(self, configuration: str) -> SagnacModel:
        if configuration not in self.configurations:
            raise ConfigError(f"unknown configuration {configuration!r}; "
                              f"defined: {sorted(self.configurations)}")
        active = self.configurations[configuration]
        by_label = {e.label: e for e in self.elements}
        missing = [lbl for lbl in active if lbl not in by_label]
        if missing:
            raise ConfigError(f"configuration {configuration!r} references "
                              f"unknown element labels {missing}")
        return SagnacModel(visibility_v=self.visibility_v, reflection=self.reflection,
                           elements=[by_label[lbl] for lbl in active])

    def build_pair(self) -> tuple[SagnacModel, SagnacModel]:
        return self.build_model(self.reference), self.build_model(self.toggled)

    def campaign_config(self) -> photonsim.CampaignConfig:
        """The parametrized LC/NIM campaign, required by the sweep command."""
        by_label = {e.label: e for e in self.elements}
        if set(by_label) != {"lc", "nim"}:
            raise ConfigError("epsilon sweeps require exactly the elements "
                              "labeled 'lc' and 'nim'")
        nim = by_label["nim"]
        return photonsim.CampaignConfig(
            visibility_v=self.visibility_v,
            reflection=self.reflection,
            lc_phase=by_label["lc"].phase,
            nim_phase=nim.phase,
            nim_intensity_transmission=nim.amplitude_transmission ** 2,
            scan=self.scan,
            n_runs=self.n_runs,
            master_seed=self.master_seed,
        )


def _parse_elements(raw, path: str) -> tuple[PhaseElement, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path}: elements must be a non-empty list")
    elements = []
    for idx, entry in enumerate(raw):
        epath = f"{path}[{idx}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{epath}: element must be an object")
        _check_keys(entry, ("label", "phase", "amplitude_transmission"), epath)
        if "label" not in entry or not isinstance(entry["label"], str):
            raise ConfigError(f"{epath}: element needs a string label")
        phase = _parse_phase(entry.get("phase", [0.0, 0.0, 0.0]), f"{epath}.phase")
        trans = _get(entry, "amplitude_transmission", 1.0, float, epath)
        try:
            elements.append(PhaseElement(entry["label"], phase, trans))
        except ValueError as err:
            raise ConfigError(f"{epath}: {err}") from err
    return tuple(elements)


def _parse_configurations(raw, path: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: configurations must map names to label lists")
    out = {}
    for name, labels in raw.items():
        if (not isinstance(labels, list)
                or not all(isinstance(v, str) for v in labels)):
            raise ConfigError(f"{path}.{name}: expected a list of element labels")
        out[name] = tuple(labels)
    return out


def load_config(path: str | None) -> ExperimentConfig:
    """Parse and validate a config file; None gives the defaults."""
    if path is None:
        return ExperimentConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_reject_duplicates)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _check_keys(raw, ("apparatus", "scan", "campaign", "configurations",
                      "analysis", "output"), path)

    defaults = ExperimentConfig()
    kwargs = {}

    apparatus = raw.get("apparatus", {})
    _check_keys(apparatus, ("visibility_v", "reflection", "elements"), "apparatus")
    kwargs["visibility_v"] = _get(apparatus, "visibility_v",
                                  defaults.visibility_v, float, "apparatus")
    if "reflection" in apparatus:
        kwargs["reflection"] = _parse_reflection(apparatus["reflection"],
                                                 "apparatus.reflection")
    if "elements" in apparatus:
        kwargs["elements"] = _parse_elements(apparatus["elements"], "apparatus.elements")

    scan_raw = raw.get("scan", {})
    _check_keys(scan_raw, ("n_steps", "phase_start", "phase_end",
                           "mean_counts_per_step", "rng_seed"), "scan")
    ds = defaults.scan
    try:
        kwargs["scan"] = photonsim.ScanConfig(
            n_steps=_get(scan_raw, "n_steps", ds.n_steps, int, "scan"),
            phase_start=_get(scan_raw, "phase_start", ds.phase_start, float, "scan"),
            phase_end=_get(scan_raw, "phase_end", ds.phase_end, float, "scan"),
            mean_counts_per_step=_get(scan_raw, "mean_counts_per_step",
                                      ds.mean_counts_per_step, float, "scan"),
            rng_seed=_get(scan_raw, "rng_seed", ds.rng_seed, int, "scan"),
        )
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"scan: {err}") from err

    campaign = raw.get("campaign", {})
    _check_keys(campaign, ("n_runs", "master_seed", "reference", "toggled"), "campaign")
    kwargs["n_runs"] = _get(campaign, "n_runs", defaults.n_runs, int, "campaign")
    kwargs["master_seed"] = _get(campaign, "master_seed",
                                 defaults.master_seed, int, "campaign")
    kwargs["reference"] = _get(campaign, "reference", defaults.reference, str, "campaign")
    kwargs["toggled"] = _get(campaign, "toggled", defaults.toggled, str, "campaign")

    if "configurations" in raw:
        kwargs["configurations"] = _parse_configurations(raw["configurations"],
                                                         "configurations")

    analysis_raw = raw.get("analysis", {})
    _check_keys(analysis_raw, ("bins", "epsilon_grid", "theta_convention"), "analysis")
    if "bins" in analysis_raw:
        bins = analysis_raw["bins"]
        if not (bins == "fd" or (isinstance(bins, int) and not isinstance(bins, bool)
                                 and bins >= 1)):
            raise ConfigError(f"analysis.bins: expected 'fd' or a positive integer, "
                              f"got {bins!r}")
        kwargs["bins"] = bins
    conv = _get(analysis_raw, "theta_convention", defaults.theta_convention,
                str, "analysis")
    if conv not in ("central", "conservative", "both"):
        raise ConfigError(f"analysis.theta_convention: expected central, conservative, "
                          f"or both, got {conv!r}")
    kwargs["theta_convention"] = conv
    if "epsilon_grid" in analysis_raw:
        grid = analysis_raw["epsilon_grid"]
        if (not isinstance(grid, list) or not grid
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                           for v in grid)):
            raise ConfigError("analysis.epsilon_grid: expected a non-empty list of numbers")
        kwargs["epsilon_grid"] = tuple(float(v) for v in grid)

    output = raw.get("output", {})
    _check_keys(output, ("dir",), "output")
    kwargs["out_dir"] = _get(output, "dir", defaults.out_dir, str, "output")

    try:
        return ExperimentConfig(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def _seed_type(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must be a 64-bit unsigned integer")
    return value


def _jobs_type(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"jobs must be >= 1, got {value}")
    return value


def _ensure_out_dir(args, cfg: ExperimentConfig | None = None) -> str:
    out = args.out or (cfg.out_dir if cfg is not None else ".")
    os.makedirs(out, exist_ok=True)
    return out


def _resolved_config(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    try:
        cfg.build_pair()
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return cfg


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    scan = cfg.scan
    if args.seed is not None:
        scan = photonsim.ScanConfig(n_steps=scan.n_steps, phase_start=scan.phase_start,
                                    phase_end=scan.phase_end,
                                    mean_counts_per_step=scan.mean_counts_per_step,
                                    rng_seed=args.seed)
    out = _ensure_out_dir(args, cfg)
    names = sorted(cfg.configurations)
    try:
        models = {name: cfg.build_model(name) for name in names}
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(str(err)) from err
    for idx, name in enumerate(names):
        model = models[name]
        ig = photonsim.simulate_interferogram(model, scan, label=name,
                                              seed=(scan.rng_seed, idx))
        path = os.path.join(out, f"interferogram_{name}.csv")
        reports.write_interferogram_csv(path, ig)
        v = photonsim.analytic_visibility(model)
        print(f"{name}: analytic_v={reports.format_float(v)} file={path}")
    return EXIT_OK


def _fit_entries(paths: list[str]) -> tuple[list[dict], bool]:
    """Fit both detector normalizations of each CSV; returns (entries, soft_fail)."""
    entries, fringes = [], []
    for path in paths:
        ig = reports.read_interferogram_csv(path)
        entries.append({"path": path, "n_steps": ig.n_steps, "fits": {}})
        for det in (1, 2):
            try:
                fringes.append(fitting.normalize(ig, detector=det))
            except fitting.FitInputError as err:
                fringes.append(err)
    usable = [f for f in fringes if isinstance(f, fitting.NormalizedFringe)]
    fits = iter(fitting.fit_sinusoids(usable))
    soft = False
    for k, fringe in enumerate(fringes):
        result = next(fits) if isinstance(fringe, fitting.NormalizedFringe) else fringe
        fit_map = entries[k // 2]["fits"]
        key = f"d{k % 2 + 1}"
        if isinstance(result, ValueError):
            fit_map[key] = {"error": str(result)}
            soft = True
            continue
        fit_map[key] = {
            "amplitude": result.amplitude,
            "frequency": result.frequency,
            "phase": result.phase,
            "offset": result.offset,
            "sigma_amplitude": result.sigma_amplitude,
            "sigma_frequency": result.sigma_frequency,
            "sigma_phase": result.sigma_phase,
            "sigma_offset": result.sigma_offset,
            "visibility": {"value": result.visibility.value,
                           "sigma": result.visibility.sigma},
            "converged": result.converged,
            "iterations": result.iterations,
            "residual_norm": result.residual_norm,
            "n_points": result.n_points,
            "n_excluded": fringe.n_excluded,
            "low_signal": result.low_signal,
        }
        soft = soft or not result.converged
    return entries, soft


def cmd_fit(args) -> int:
    entries = []
    any_soft = False
    # a block of files at a time, so only one block of fringes is in memory
    files_per_block = fitting.FIT_BLOCK_ROWS // 2
    for start in range(0, len(args.csv), files_per_block):
        block, soft = _fit_entries(args.csv[start:start + files_per_block])
        entries += block
        any_soft = any_soft or soft
    report = {"files": entries}
    if args.out:
        out = _ensure_out_dir(args)
        path = os.path.join(out, "fit_report.json")
        reports.write_json(path, report)
        print(f"fit report: {path}")
    else:
        sys.stdout.write(reports.dumps_json(report))
    return EXIT_SOFT_FIT if any_soft else EXIT_OK


def _campaign_records(payload) -> list:
    """Simulate and fit the runs with the given indices, each from its own seed."""
    model_nim, model_both, scan, master_seed, indices = payload
    return analysis.records_from_runs(
        photonsim.simulate_run(model_nim, model_both, scan, run_index=idx,
                               seed=(master_seed, idx))
        for idx in indices)


def cmd_campaign(args) -> int:
    cfg = _resolved_config(args)
    master_seed = args.seed if args.seed is not None else cfg.master_seed
    model_nim, model_both = cfg.build_pair()
    if args.jobs > 1:
        chunk = max(1, cfg.n_runs // (4 * args.jobs))
        payloads = [(model_nim, model_both, cfg.scan, master_seed,
                     range(start, min(start + chunk, cfg.n_runs)))
                    for start in range(0, cfg.n_runs, chunk)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            records = [rec for part in pool.map(_campaign_records, payloads) for rec in part]
    else:
        records = _campaign_records((model_nim, model_both, cfg.scan, master_seed,
                                     range(cfg.n_runs)))

    try:
        report = analysis.bound_from_campaign(records, bins=cfg.bins)
    except ValueError as err:
        print(f"campaign produced too few usable fits: {err}", file=sys.stderr)
        return EXIT_SOFT_FIT

    out = _ensure_out_dir(args, cfg)
    json_path = os.path.join(out, "bound_report.json")
    payload = {
        "n_runs": cfg.n_runs,
        "master_seed": master_seed,
        "reference": cfg.reference,
        "toggled": cfg.toggled,
        "report": report,
    }
    reports.write_json(json_path, payload)
    reports.write_histogram_csv(os.path.join(out, "delta_v_hist.csv"),
                                report.delta_v_hist)
    reports.write_histogram_csv(os.path.join(out, "gamma_ratio_hist.csv"),
                                report.gamma_ratio_hist)

    ff = reports.format_float
    print(f"delta_v: mean={ff(report.delta_v_mean)} std={ff(report.delta_v_std)} "
          f"stderr={ff(report.delta_v_stderr)} n={report.n_values}")
    print(f"gamma_ratio: mean={ff(report.gamma_ratio_mean)} "
          f"stderr={ff(report.gamma_ratio_stderr)} "
          f"point_sigma={ff(report.gamma_ratio_point_sigma)}")
    if cfg.theta_convention in ("central", "both"):
        print(f"theta_central_deg={ff(report.theta_central_deg)}")
    if cfg.theta_convention in ("conservative", "both"):
        print(f"theta_conservative_deg={ff(report.theta_conservative_deg)}")
    print(f"noncommutative: {'yes' if report.noncommutative else 'no'}")
    print(f"bound report: {json_path}")
    incomplete = cfg.n_runs - report.n_complete_runs
    if incomplete:
        print(f"warning: {incomplete} of {cfg.n_runs} runs had failed fits",
              file=sys.stderr)
        return EXIT_SOFT_FIT
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    campaign_cfg = cfg.campaign_config()
    if args.seed is not None:
        campaign_cfg = dataclasses.replace(campaign_cfg, master_seed=args.seed)
    result = analysis.sensitivity_sweep(cfg.epsilon_grid, campaign_cfg)
    out = _ensure_out_dir(args, cfg)
    path = os.path.join(out, "sweep.csv")
    reports.write_sweep_csv(path, result.points)
    if result.min_detectable_epsilon is None:
        print("no epsilon on the grid reaches the detection threshold")
    else:
        print(f"min_detectable_epsilon={reports.format_float(result.min_detectable_epsilon)}")
    print(f"sweep: {path}")
    return EXIT_OK


def cmd_index(args) -> int:
    slab = metaoptics.SlabSpec(thickness_nm=args.thickness_nm)
    spectrum = reports.read_phase_spectrum_csv(args.spectrum)
    result = metaoptics.index_spectrum(spectrum, slab)
    out = _ensure_out_dir(args)
    path = os.path.join(out, "index.csv")
    reports.write_index_csv(path, result)
    for wl, flagged in zip(result.wavelength_nm, result.ambiguous):
        if flagged:
            print(f"warning: ambiguous unwrapping at {wl} nm", file=sys.stderr)
    print(f"index: {path}")
    return EXIT_OK


def cmd_bound(args) -> int:
    if args.ratio is not None:
        if args.v_nim is not None or args.v_both is not None:
            raise ConfigError("give either --ratio or the visibility pair, not both")
        ratio, sigma = args.ratio, args.sigma
    else:
        if args.v_nim is None or args.v_both is None:
            raise ConfigError("need --ratio or both --v-nim and --v-both")
        try:
            uncertain = gamma_ratio(
                VisibilityValue(args.v_both, args.v_both_sigma),
                VisibilityValue(args.v_nim, args.v_nim_sigma))
        except (NonPhysicalVisibilityError, ValueError) as err:
            raise ConfigError(str(err)) from err
        ratio, sigma = uncertain.value, uncertain.sigma
    try:
        theta = theta_bound(ratio, sigma)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    payload = {
        "ratio": ratio,
        "sigma": sigma,
        "theta_central_deg": theta.central_deg,
        "theta_conservative_deg": theta.conservative_deg,
    }
    if args.out:
        out = _ensure_out_dir(args)
        path = os.path.join(out, "bound.json")
        reports.write_json(path, payload)
        print(f"bound: {path}")
    else:
        sys.stdout.write(reports.dumps_json(payload))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darkport",
        description="Sagnac dark-port simulation and phase-commutativity bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write one interferogram CSV per configuration")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=_seed_type, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit interferogram CSVs and report visibilities")
    p.add_argument("csv", nargs="+")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("campaign", help="run the toggle campaign and emit the bound report")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=_seed_type, default=None)
    p.add_argument("--jobs", type=_jobs_type, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("sweep", help="sensitivity sweep over injected epsilon")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=_seed_type, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("index", help="convert a phase spectrum CSV to a refractive index CSV")
    p.add_argument("spectrum")
    p.add_argument("--thickness-nm", type=float, default=metaoptics.DEFAULT_THICKNESS_NM)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("bound", help="convert a Gamma ratio or visibility pair to a theta bound")
    p.add_argument("--ratio", type=float, default=None)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--v-nim", type=float, default=None)
    p.add_argument("--v-nim-sigma", type=float, default=0.0)
    p.add_argument("--v-both", type=float, default=None)
    p.add_argument("--v-both-sigma", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except reports.CsvFormatError as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_IO
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except Exception as err:  # noqa: BLE001 - invariant violations become exit 5
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
