"""How large a quaternionic phase would this campaign catch?

Inject (0, eps, 0) into the toggled element, the liquid crystal, and
rerun the campaign.  gamma_shift is the closed-form Gamma change; the
significance compares what the visibility chain can see against the
campaign's own scatter.
"""

from darkport import ExperimentConfig, sensitivity_sweep

cfg = ExperimentConfig(n_runs=50, master_seed=1)
grid = (0.0, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1)

result = sensitivity_sweep(grid, cfg)

print(f"{'eps':>7} {'gamma_shift':>12} {'significance':>13}")
for p in result.points:
    print(f"{p.epsilon:7.3f} {p.gamma_shift:12.3e} {p.significance:13.1f}")
print()
if result.min_detectable_epsilon is None:
    print(f"nothing on the grid reaches {result.threshold_sigma} sigma")
else:
    print(f"smallest detectable injection at {result.threshold_sigma} sigma: "
          f"eps = {result.min_detectable_epsilon}")
print()
print("The reach improves with campaign size only as n^(1/4) in theta,")
print("because theta ~ sqrt(1 - ratio) and the ratio error shrinks as sqrt(n).")
