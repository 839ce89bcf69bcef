"""Inputs and per-iteration work of the three benchmark workloads.

Every input is generated from the workload seed; darkport only ever sees
the generated CSV files, command-line seeds and phase vectors.

* ``nominal``: ``darkport campaign`` then ``darkport sweep`` with the
  default config (20,000 counts/step), the headline user path.
* ``lab_fit``: ``darkport fit`` over 1600 interferogram CSVs of an 800-run
  toggle campaign at 200 counts/step, the measured-files path with hard
  low-count fits and no simulation in the timed part.
* ``loop_model``: closed form, propagation oracle, Gamma and theta for
  random 2-4 element Sagnac loops, the quaternion-heavy library path.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from darkport import interferometer, photonsim, reports  # noqa: E402
from darkport.quaternion import I, PhaseVector, Quaternion  # noqa: E402

WORKLOADS = ("nominal", "lab_fit", "loop_model")

# About 3% of these fits run to the 200-iteration cap, and how many do
# varies with the seed: over 200 runs the total LM iterations spread by
# +-8% between seeds, over 800 runs by about half that.
LAB_RUNS = 800
LAB_COUNTS_PER_STEP = 200.0
LOOP_MODELS_PER_ITERATION = 1000
LOOP_COMMUTING_SHARE = 0.25

# keeps the loop-model draws apart from darkport's own (seed, run) streams
_LOOP_TAG = 2


def nominal_commands(seed: int, out: Path) -> list[tuple[str, list[str]]]:
    """The two CLI invocations of one nominal iteration, as (label, argv)."""
    return [
        ("campaign", ["campaign", "--seed", str(seed), "--jobs", "1",
                      "--out", str(out / "campaign")]),
        ("sweep", ["sweep", "--seed", str(seed), "--out", str(out / "sweep")]),
    ]


def lab_models() -> tuple[interferometer.SagnacModel, interferometer.SagnacModel]:
    """NIM-only reference and LC+NIM toggled loops with the paper's parameters."""
    lc = interferometer.PhaseElement("lc", PhaseVector(math.pi, 0.0, 0.0))
    nim = interferometer.PhaseElement("nim", PhaseVector(-math.pi, 0.0, 0.0), math.sqrt(0.13))
    common = {"visibility_v": 0.9992774, "reflection": I}
    return (interferometer.SagnacModel(elements=(nim,), **common),
            interferometer.SagnacModel(elements=(lc, nim), **common))


def write_lab_files(seed: int, out: Path,
                    n_runs: int = LAB_RUNS) -> tuple[list[str], dict[str, float]]:
    """Simulate the low-count toggle campaign into one CSV per interferogram.

    Returns the sorted CSV paths and each file's analytic visibility.
    """
    out.mkdir(parents=True, exist_ok=True)
    models = lab_models()
    scan = photonsim.ScanConfig(n_steps=100, phase_start=0.0, phase_end=4.0 * math.pi,
                                mean_counts_per_step=LAB_COUNTS_PER_STEP)
    truth = {label: photonsim.analytic_visibility(m) for label, m in zip(("nim", "both"), models)}
    runs = photonsim.simulate_campaign(models, scan, n_runs, seed)
    expected = {}
    for run in runs:
        for label, ig in (("nim", run.nim), ("both", run.both)):
            path = str(out / f"run{run.run_index:03d}_{label}.csv")
            reports.write_interferogram_csv(path, ig)
            expected[path] = truth[label]
    return sorted(expected), expected


class LoopSpec(NamedTuple):
    """Raw inputs of one loop model: visibility, reflection axis, element phases."""

    commuting: bool
    visibility_v: float
    reflection: tuple[float, float, float]
    phases: tuple[tuple[float, float, float], ...]


class ModelResult(NamedTuple):
    commuting: bool
    closed_dark: float
    closed_bright: float
    oracle_dark: float
    oracle_bright: float
    defect: float
    gamma: float
    theta_deg: float


def loop_specs(seed: int, n: int = LOOP_MODELS_PER_ITERATION) -> list[LoopSpec]:
    """Random loops with 2-4 elements.

    A quarter put every phase and the reflection on one of the i, j, k
    axes, so all factors commute exactly; the rest draw a random unit
    reflection axis and random phase vectors.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _LOOP_TAG]))
    specs = []
    for _ in range(n):
        n_elements = int(rng.integers(2, 5))
        v = float(rng.uniform(0.0, 1.0))
        if rng.random() < LOOP_COMMUTING_SHARE:
            axis = int(rng.integers(0, 3))
            reflection = tuple(1.0 if k == axis else 0.0 for k in range(3))
            phases = tuple(
                tuple(float(rng.uniform(-math.pi, math.pi)) if k == axis else 0.0
                      for k in range(3))
                for _ in range(n_elements))
            specs.append(LoopSpec(True, v, reflection, phases))
        else:
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            phases = tuple(tuple(float(p) for p in rng.uniform(-math.pi, math.pi, 3))
                           for _ in range(n_elements))
            specs.append(LoopSpec(False, v, tuple(float(a) for a in axis), phases))
    return specs


_LABELS = tuple(f"e{k}" for k in range(8))


def evaluate_one(spec: LoopSpec) -> ModelResult:
    """Build one loop from its raw inputs and evaluate every route through it."""
    ifm = interferometer
    model = ifm.SagnacModel(
        visibility_v=spec.visibility_v,
        reflection=Quaternion(0.0, *spec.reflection),
        elements=tuple(ifm.PhaseElement(_LABELS[k], PhaseVector(*p))
                       for k, p in enumerate(spec.phases)))
    closed = ifm.dark_port_prob(model)
    oracle = ifm.propagate_state(model)
    defect = ifm.loop_defect(model)
    gamma = ifm.gamma_of_model(model)
    theta = ifm.theta_bound(gamma)
    return ModelResult(spec.commuting, closed.p_dark, closed.p_bright,
                       oracle.p_dark, oracle.p_bright, defect, gamma, theta.central_deg)


def evaluate_loop_models(specs: list[LoopSpec]) -> list[ModelResult]:
    # evaluate_one is looked up per call so the tracer can wrap it
    return [evaluate_one(spec) for spec in specs]
