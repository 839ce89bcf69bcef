"""The headline measurement: 200 toggle runs, pooled into a bound.

Every run yields four fitted visibilities (two detectors, reference and
toggled configuration).  Delta V checks for any systematic shift; the
per-point Gamma ratios pool into a mean whose deviation from 1 would
signal non-commutativity.  Here the model is commuting, so the campaign
should report a null.
"""

from darkport import ExperimentConfig, bound_from_campaign, campaign_records

cfg = ExperimentConfig()  # 200 runs, master seed 0
records = campaign_records(*cfg.build_pair(), cfg.scan, cfg.master_seed, range(cfg.n_runs))
report = bound_from_campaign(records)

print(f"complete runs   {report.n_complete_runs} of {cfg.n_runs}")
print(f"pooled values   {report.n_values}")
print()
print(f"Delta V         {report.delta_v_mean:+.2e} +/- {report.delta_v_stderr:.2e} "
      f"(std {report.delta_v_std:.2e})")
print(f"Gamma ratio     {report.gamma_ratio_mean:.8f} +/- {report.gamma_ratio_stderr:.2e}")
print(f"per-point sigma {report.gamma_ratio_point_sigma:.2e} (propagated)")
print()
print(f"theta central      {report.theta_central_deg:.4f} deg")
print(f"theta conservative {report.theta_conservative_deg:.4f} deg")
print(f"non-commutative?   {'yes' if report.noncommutative else 'no'}")
print()

print("Gamma ratio histogram:")
peak = max(n for _, n in report.gamma_ratio_hist)
for center, count in report.gamma_ratio_hist:
    bar = "#" * round(40 * count / peak)
    print(f"  {center:.6f} {count:4d} {bar}")
