"""Command-line pipeline: simulate, fit, campaign, sweep, index, bound.

Each subcommand is one pipeline stage and talks to the others through
files, so every stage can be rerun or tested in isolation.  Exit codes:
0 success, 2 configuration or usage error, 3 file I/O or parse error,
4 soft fit non-convergence, 5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import analysis, fitting, metaoptics, photonsim, reports
from .config import ConfigError, ExperimentConfig, load_config
from .interferometer import VisibilityValue, gamma_ratio, theta_bound

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SOFT_FIT = 4
EXIT_INTERNAL = 5


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


def _emit_json(args, name: str, label: str, payload) -> None:
    """Write payload to <out>/<name> and print "<label>: <path>", or to stdout."""
    if args.out:
        path = os.path.join(_ensure_out_dir(args), name)
        reports.write_json(path, payload)
        print(f"{label}: {path}")
    else:
        sys.stdout.write(reports.dumps_json(payload))


def _seeded_config(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    return cfg if args.seed is None else dataclasses.replace(cfg, master_seed=args.seed)


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    scan = cfg.scan if args.seed is None else dataclasses.replace(cfg.scan, rng_seed=args.seed)
    out = _ensure_out_dir(args, cfg)
    models = {name: cfg.build_model(name) for name in sorted(cfg.configurations)}
    for idx, (name, model) in enumerate(models.items()):
        ig = photonsim.simulate_interferogram(model, scan, seed=(scan.rng_seed, idx))
        path = os.path.join(out, f"interferogram_{name}.csv")
        reports.write_interferogram_csv(path, ig)
        v = photonsim.analytic_visibility(model)
        print(f"{name}: analytic_v={reports.format_float(v)} file={path}")
    return EXIT_OK


def cmd_fit(args) -> int:
    files, soft = [], False
    for start in range(0, len(args.csv), fitting._STREAM_ROWS):
        paths = args.csv[start:start + fitting._STREAM_ROWS]
        blocks = reports.read_interferogram_block(paths)
        fits = fitting._fit_by_length([data.T for data in blocks])
        errors, columns = fitting._fit_columns(fits)
        texts = [text if error is None else {"error": str(error)}
                 for text, error in zip(reports.encode_columns(columns), errors)]
        files += reports.encode_columns({"path": paths, "n_steps": list(map(len, blocks)),
                                         "fits": {"d1": texts[0::2], "d2": texts[1::2]}})
        soft = soft or not fits["usable"].all()
    _emit_json(args, "fit_report.json", "fit report", {"files": files})
    return EXIT_SOFT_FIT if soft else EXIT_OK


def cmd_campaign(args) -> int:
    cfg = _seeded_config(args)
    fits = [analysis._slot_fits(model, slot, cfg.scan, cfg.master_seed, range(cfg.n_runs))
            for slot, model in enumerate(cfg.build_pair())]
    report = analysis._bound(*fits, bins=cfg.bins)
    out = _ensure_out_dir(args, cfg)
    json_path = os.path.join(out, "bound_report.json")
    payload = {
        "n_runs": cfg.n_runs,
        "master_seed": cfg.master_seed,
        "reference": cfg.reference,
        "toggled": cfg.toggled,
        "report": report,
    }
    reports.write_json(json_path, payload)
    for name in ("delta_v_hist", "gamma_ratio_hist"):
        reports.write_histogram_csv(os.path.join(out, f"{name}.csv"), getattr(report, name))

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
    cfg = _seeded_config(args)
    result = analysis.sensitivity_sweep(cfg.epsilon_grid, cfg)
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
    try:
        slab = metaoptics.SlabSpec(thickness_nm=args.thickness_nm)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    spectrum = reports.read_phase_spectrum_csv(args.spectrum)
    try:
        result = metaoptics.index_spectrum(spectrum, slab)
    except ValueError as err:
        raise reports.CsvFormatError(
            f"{args.spectrum}: {err} with thickness_nm {args.thickness_nm!r}") from err
    out = _ensure_out_dir(args)
    path = os.path.join(out, "index.csv")
    reports.write_index_csv(path, result)
    for wl, flagged in zip(result.wavelength_nm, result.ambiguous):
        if flagged:
            print(f"warning: ambiguous unwrapping at {wl} nm", file=sys.stderr)
    print(f"index: {path}")
    return EXIT_OK


def cmd_bound(args) -> int:
    pair = (args.v_nim, args.v_nim_sigma, args.v_both, args.v_both_sigma)
    if args.ratio is not None:
        if any(value is not None for value in pair):
            raise ConfigError("give either --ratio or the visibility pair, not both")
    elif args.sigma is not None:
        raise ConfigError("--sigma goes with --ratio; the visibility pair takes "
                          "--v-nim-sigma and --v-both-sigma")
    elif args.v_nim is None or args.v_both is None:
        raise ConfigError("need --ratio or both --v-nim and --v-both")
    try:
        if args.ratio is not None:
            ratio, sigma = args.ratio, 0.0 if args.sigma is None else args.sigma
        else:
            nim, both = (0.0 if s is None else s for s in (args.v_nim_sigma, args.v_both_sigma))
            uncertain = gamma_ratio(VisibilityValue(args.v_both, both),
                                    VisibilityValue(args.v_nim, nim))
            ratio, sigma = uncertain.value, uncertain.sigma
        theta = theta_bound(ratio, sigma)
    except ValueError as err:  # NonPhysicalVisibilityError among them
        raise ConfigError(str(err)) from err
    payload = {
        "ratio": ratio,
        "sigma": sigma,
        "theta_central_deg": theta.central_deg,
        "theta_conservative_deg": theta.conservative_deg,
    }
    _emit_json(args, "bound.json", "bound", payload)
    return EXIT_OK


def _add_config_and_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=_seed_type, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darkport",
        description="Sagnac dark-port simulation and phase-commutativity bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write one interferogram CSV per configuration")
    _add_config_and_seed(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit interferogram CSVs and report visibilities")
    p.add_argument("csv", nargs="+")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("campaign", help="run the toggle campaign and emit the bound report")
    _add_config_and_seed(p)
    p.add_argument("--jobs", type=_jobs_type, default=1,
                   help="accepted and ignored: every campaign runs in this process")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("sweep", help="sensitivity sweep over injected epsilon")
    _add_config_and_seed(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("index", help="convert a phase spectrum CSV to a refractive index CSV")
    p.add_argument("spectrum")
    p.add_argument("--thickness-nm", type=float, default=metaoptics.DEFAULT_THICKNESS_NM)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("bound", help="convert a Gamma ratio or visibility pair to a theta bound")
    # a missing sigma is 0; one given with the other input form is refused (cmd_bound)
    for flag in ("--ratio", "--sigma", "--v-nim", "--v-nim-sigma", "--v-both", "--v-both-sigma"):
        p.add_argument(flag, type=float, default=None)
    p.set_defaults(func=cmd_bound)

    # added last, so --out ends the option list of every command's --help
    for p in sub.choices.values():
        p.add_argument("--out", default=None)
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
    except analysis.TooFewFitsError as err:
        print(f"{args.command} produced too few usable fits: {err}", file=sys.stderr)
        return EXIT_SOFT_FIT
    except Exception as err:  # noqa: BLE001 - invariant violations become exit 5
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
