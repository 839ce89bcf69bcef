"""In-memory span tracing of darkport, installed from outside the package.

The tracer replaces public functions with timing wrappers at the names
their callers look up (``analysis`` imports ``fit_sinusoid`` by name, so
both ``darkport.fitting.fit_sinusoid`` and ``darkport.analysis.fit_sinusoid``
are wrapped).  A span records its name, parent, start and end; the spans
stay in memory and are written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute looked up by the caller, span name); the span name's
# first component is the layer
PATCHES = (
    ("darkport.cli", "load_config", "cli.load_config"),
    ("darkport.fitting", "normalize", "fitting.normalize"),
    ("darkport.analysis", "normalize", "fitting.normalize"),
    ("darkport.fitting", "fit_sinusoid", "fitting.fit_sinusoid"),
    ("darkport.analysis", "fit_sinusoid", "fitting.fit_sinusoid"),
    ("darkport.photonsim", "simulate_run", "photonsim.simulate_run"),
    ("darkport.photonsim", "simulate_interferogram", "photonsim.simulate_interferogram"),
    ("darkport.analysis", "simulate_campaign", "photonsim.simulate_campaign"),
    ("darkport.photonsim", "dark_port_prob", "interferometer.dark_port_prob"),
    ("darkport.analysis", "records_from_runs", "analysis.records_from_runs"),
    ("darkport.analysis", "bound_from_campaign", "analysis.bound_from_campaign"),
    ("darkport.analysis", "sensitivity_sweep", "analysis.sensitivity_sweep"),
    ("darkport.analysis", "gamma_of_model", "interferometer.gamma_of_model"),
    ("darkport.reports", "read_interferogram_csv", "reports.read"),
    ("darkport.reports", "write_json", "reports.write"),
    ("darkport.reports", "write_histogram_csv", "reports.write"),
    ("darkport.reports", "write_sweep_csv", "reports.write"),
    ("darkport.interferometer", "dark_port_prob", "interferometer.dark_port_prob"),
    ("darkport.interferometer", "propagate_state", "interferometer.propagate_state"),
    ("darkport.interferometer", "loop_defect", "interferometer.loop_defect"),
    ("darkport.interferometer", "gamma_of_model", "interferometer.gamma_of_model"),
    ("darkport.interferometer", "theta_bound", "interferometer.theta_bound"),
    ("darkport.interferometer", "qexp", "quaternion.qexp"),
    ("workloads", "evaluate_one", "bench.model"),
)

# the spans file keeps the first spans only (about 3 MB); metrics use all
SPANS_FILE_LIMIT = 100_000

# per-layer metric -> (unit, better, the end-to-end metric it should move).
# wall_ref is gated; campaign_s, sweep_s, fits_per_s, models_per_s and
# fit_fail_frac are the printed per-workload figures.
LAYER_METRICS = {
    "fitting.fits": ("count", "higher",
                     "fits_per_s on nominal and lab_fit; zero calls on loop_model"),
    "fitting.fit_s": ("s", "lower", "campaign_s, sweep_s, wall_ref on nominal; wall_ref on lab_fit"),
    "fitting.fit_ms.p50": ("ms", "lower", "fits_per_s on nominal and lab_fit"),
    "fitting.fit_ms.p99": ("ms", "lower", "wall_ref on lab_fit (hard fits)"),
    "fitting.fit_ms.n": ("count", "higher", "sample count of the fit latencies"),
    "fitting.lm_iterations.mean": ("count", "lower", "wall_ref on nominal and lab_fit"),
    "fitting.lm_iterations.p99": ("count", "lower", "wall_ref on lab_fit"),
    "fitting.failed.input": ("count", "lower", "fit_fail_frac on lab_fit"),
    "fitting.failed.invalid": ("count", "lower", "fit_fail_frac on lab_fit"),
    "fitting.failed.not_converged": ("count", "lower", "fit_fail_frac and wall_ref on lab_fit"),
    "fitting.fail_frac": ("frac", "lower", "fit_fail_frac on lab_fit"),
    "fitting.normalize_s": ("s", "lower", "wall_ref on nominal and lab_fit"),
    "photonsim.interferograms": ("count", "higher", "campaign_s and sweep_s on nominal"),
    "photonsim.simulate_s": ("s", "lower",
                             "campaign_s and sweep_s on nominal; absent from lab_fit"),
    "analysis.stats_s": ("s", "lower", "campaign_s on nominal"),
    "analysis.sweep_self_s": ("s", "lower", "sweep_s on nominal"),
    "reports.read_s": ("s", "lower", "wall_ref on lab_fit"),
    "reports.read_bytes": ("bytes", "lower", "wall_ref on lab_fit"),
    "reports.write_s": ("s", "lower", "wall_ref on lab_fit; under 1% of nominal"),
    "reports.write_bytes": ("bytes", "lower", "wall_ref on lab_fit"),
    "interferometer.closed_form_calls": ("count", "lower", "models_per_s on loop_model"),
    "interferometer.closed_form_s": ("s", "lower", "models_per_s and wall_ref on loop_model"),
    "interferometer.oracle_s": ("s", "lower", "models_per_s and wall_ref on loop_model"),
    "interferometer.model_us.p50": ("us", "lower", "models_per_s on loop_model"),
    "interferometer.model_us.p99": ("us", "lower", "wall_ref on loop_model"),
    "interferometer.model_us.n": ("count", "higher", "sample count of the model latencies"),
    "quaternion.qexp_calls": ("count", "lower", "models_per_s on loop_model"),
    "quaternion.qexp_s": ("s", "lower", "wall_ref on loop_model; negligible on nominal"),
    "cli.config_s": ("s", "lower", "setup_s"),
    "cli.self_s": ("s", "lower", "campaign_s, sweep_s and wall_ref on nominal and lab_fit"),
    "trace.spans": ("count", "lower", "trace.overhead_frac"),
    "trace.overhead_frac": ("frac", "lower", "none: traced over untraced iteration time, minus 1"),
}


class Tracer:
    """Spans as parallel columns: name id, parent index (-1 for a root), start, end.

    The columns are typed arrays, 24 bytes a span, because a loop_model run
    holds about two million spans.
    """

    def __init__(self) -> None:
        self.table: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.lm_iterations = array("i")
        self.failed = {"input": 0, "invalid": 0, "not_converged": 0}
        self.bytes = {"reports.read": 0, "reports.write": 0}
        self.missing: list[str] = []

    def id_of(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.table)
            self.table.append(name)
        return self._ids[name]

    def count(self, name: str) -> int:
        return self.name_ids.count(self._ids[name]) if name in self._ids else 0

    def _open(self, name_id: int) -> int:
        idx = len(self.name_ids)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.id_of(name))
        try:
            yield
        finally:
            self._close(idx)

    def _after(self, name: str, args, result) -> None:
        if name == "fitting.fit_sinusoid":
            self.lm_iterations.append(result.iterations)
            if not result.converged:
                self.failed["not_converged"] += 1
        elif name in self.bytes:
            self.bytes[name] += os.path.getsize(args[0])

    def _error(self, name: str, err: BaseException) -> None:
        kind = type(err).__name__
        if name.startswith("fitting.") and kind == "FitInputError":
            self.failed["input"] += 1
        elif name.startswith("fitting.") and kind == "InvalidFitError":
            self.failed["invalid"] += 1

    def wrap(self, name: str, fn):
        name_id = self.id_of(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                self._close(idx)
                self._error(name, err)
                raise
            self._close(idx)
            self._after(name, args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every patch site for the duration of the block.

        A site that no longer exists is skipped and listed in ``missing``.
        """
        saved = []
        try:
            for module_name, attr, span_name in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path, meta: dict) -> None:
        """Write the first SPANS_FILE_LIMIT spans, columnar, with times relative
        to the first span."""
        n = min(len(self.name_ids), SPANS_FILE_LIMIT)
        t0 = self.starts[0] if n else 0.0
        payload = dict(meta, span_names=self.table, spans_total=len(self.name_ids), spans={
            "name": self.name_ids[:n].tolist(),
            "parent": self.parents[:n].tolist(),
            "start_s": [round(t - t0, 9) for t in self.starts[:n]],
            "end_s": [round(t - t0, 9) for t in self.ends[:n]],
        })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _quantiles(values, scale: float) -> tuple[float, float, int]:
    if len(values) == 0:
        return 0.0, 0.0, 0
    arr = np.asarray(values, dtype=float) * scale
    return float(np.percentile(arr, 50)), float(np.percentile(arr, 99)), int(arr.size)


def layer_metrics(tracer: Tracer, n_iterations: int, overhead_frac: float) -> dict[str, float]:
    """Per-iteration layer totals, latency quantiles and failure counts.

    A layer's time counts only spans whose parent is in another layer, so
    nested calls inside one layer are not counted twice.  Self time is a
    span's duration minus the durations of its direct children.
    """
    ids = np.frombuffer(tracer.name_ids, dtype=np.int32)
    parents = np.frombuffer(tracer.parents, dtype=np.int32)
    dur = np.frombuffer(tracer.ends) - np.frombuffer(tracer.starts)
    child = np.zeros_like(dur)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    self_time = dur - child
    layer_names = sorted({n.split(".", 1)[0] for n in tracer.table})
    layer_of = np.array([layer_names.index(n.split(".", 1)[0]) for n in tracer.table] or [0],
                        dtype=np.int32)
    layers = layer_of[ids]
    parent_layer = np.where(has_parent, layers[np.where(has_parent, parents, 0)], -1)
    outermost = layers != parent_layer
    photonsim = layer_names.index("photonsim") if "photonsim" in layer_names else -2
    per = 1.0 / n_iterations

    def named(name):
        return ids == (tracer.table.index(name) if name in tracer.table else -1)

    def total(name, values=dur):
        return float(values[named(name)].sum()) * per

    def count(name):
        return tracer.count(name) * per

    fit_p50, fit_p99, fit_n = _quantiles(dur[named("fitting.fit_sinusoid")], 1e3)
    model_p50, model_p99, model_n = _quantiles(dur[named("bench.model")], 1e6)
    iters = np.asarray(tracer.lm_iterations, dtype=float)
    fits = count("fitting.fit_sinusoid")
    failed = {k: v * per for k, v in tracer.failed.items()}
    # every fit attempt starts with a normalize, which may already refuse the data
    attempted = count("fitting.normalize")
    return {
        "fitting.fits": fits,
        "fitting.fit_s": total("fitting.fit_sinusoid", self_time),
        "fitting.fit_ms.p50": fit_p50,
        "fitting.fit_ms.p99": fit_p99,
        "fitting.fit_ms.n": float(fit_n),
        "fitting.lm_iterations.mean": float(iters.mean()) if iters.size else 0.0,
        "fitting.lm_iterations.p99": float(np.percentile(iters, 99)) if iters.size else 0.0,
        "fitting.failed.input": failed["input"],
        "fitting.failed.invalid": failed["invalid"],
        "fitting.failed.not_converged": failed["not_converged"],
        "fitting.fail_frac": sum(failed.values()) / attempted if attempted else 0.0,
        "fitting.normalize_s": total("fitting.normalize"),
        "photonsim.interferograms": count("photonsim.simulate_interferogram"),
        "photonsim.simulate_s": float(dur[(layers == photonsim) & outermost].sum()) * per,
        "analysis.stats_s": total("analysis.bound_from_campaign"),
        "analysis.sweep_self_s": total("analysis.sensitivity_sweep", self_time),
        "reports.read_s": total("reports.read"),
        "reports.read_bytes": tracer.bytes["reports.read"] * per,
        "reports.write_s": total("reports.write"),
        "reports.write_bytes": tracer.bytes["reports.write"] * per,
        "interferometer.closed_form_calls": count("interferometer.dark_port_prob"),
        "interferometer.closed_form_s": total("interferometer.dark_port_prob"),
        "interferometer.oracle_s": total("interferometer.propagate_state"),
        "interferometer.model_us.p50": model_p50,
        "interferometer.model_us.p99": model_p99,
        "interferometer.model_us.n": float(model_n),
        "quaternion.qexp_calls": count("quaternion.qexp"),
        "quaternion.qexp_s": total("quaternion.qexp"),
        "cli.config_s": total("cli.load_config"),
        "cli.self_s": total("cli.main", self_time),
        "trace.spans": float(len(tracer.name_ids)) * per,
        "trace.overhead_frac": overhead_frac,
    }
