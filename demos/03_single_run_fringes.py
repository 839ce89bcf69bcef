"""One toggle run: simulate, fit, and compare the two visibilities."""

from darkport import (
    ExperimentConfig,
    analytic_visibility,
    fit_sinusoid,
    gamma_ratio,
    normalize,
    simulate_run,
    theta_bound,
)

cfg = ExperimentConfig()
model_nim, model_both = cfg.build_pair()
run = simulate_run(model_nim, model_both, cfg.scan, seed=20260816)

print(f"scan: {cfg.scan.n_steps} steps, "
      f"{cfg.scan.mean_counts_per_step:.0f} mean counts/step, "
      f"NIM transmission {model_nim.intensity_transmission():.2f}")
print()

fits = {}
for name, ig, model in (("nim", run.nim, model_nim), ("both", run.both, model_both)):
    fit = fit_sinusoid(normalize(ig))
    fits[name] = fit
    v = fit.visibility
    print(f"{name:>4}: V = {v.value:.5f} +/- {v.sigma:.5f}  "
          f"(analytic {analytic_visibility(model):.5f}, "
          f"{fit.iterations} iterations)")

ratio = gamma_ratio(fits["both"].visibility, fits["nim"].visibility)
theta = theta_bound(ratio.value, ratio.sigma)
print()
print(f"Gamma ratio  {ratio.value:.7f} +/- {ratio.sigma:.7f}")
print(f"theta        central {theta.central_deg:.4f} deg, "
      f"conservative {theta.conservative_deg:.4f} deg")
print()
print("A single run is shot-noise limited to ~1e-4 on the ratio; the")
print("campaign in demo 04 averages it down by sqrt(n_values).")
