"""Timed work that runs in a fresh interpreter, one process per call.

    python child.py cli TIMING_JSON ARG...
        Import darkport.cli, then run its main(ARG...) as ``python -m
        darkport.cli ARG...`` would, under a DriftMeter, and record the
        import time apart, so interpreter start-up stays out of the command
        time.
    python child.py loop SEED SECONDS RESULT_JSON
        Evaluate the seeded loop models repeatedly for SECONDS, each pass
        under a DriftMeter, and record each pass's time and its check
        failures.

darkport must be importable (PYTHONPATH=<checkout>/src).
"""

from __future__ import annotations

import json
import signal
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# one reference slice every INTERVAL_S of wall time; a slice takes about 5 ms
INTERVAL_S = 0.1


@dataclass(frozen=True)
class _Cell:
    a: float
    b: float
    c: float
    d: float


_X = np.linspace(0.0, 12.0, 100)
_Y = np.sin(_X)
_M = np.eye(4) * 2.0 + 0.1


def reference_slice() -> None:
    """A fixed task that shares no code with darkport.

    It mixes what darkport spends its time on: integer bytecode, small
    frozen dataclasses with float arithmetic, numpy calls on 100-element
    arrays and small linear solves, so it slows down with darkport when
    the shared machine does.
    """
    s = 0
    for i in range(10_000):
        s += i * i
    cell = _Cell(1.0, 0.5, 0.25, 0.125)
    for _ in range(800):
        cell = _Cell(cell.a * 0.999 + cell.b * 1e-3, cell.b - cell.c * 1e-3,
                     cell.c + cell.d * 1e-3, cell.d * 0.9999)
    for _ in range(100):
        r = _Y - 0.5 * np.sin(1.01 * _X + 0.1) ** 2
        float(np.sum(r * r))
    for _ in range(60):
        np.linalg.solve(_M, _Y[:4])


class DriftMeter:
    """Measures a block of work in seconds and in reference slices.

    On a shared machine (a 2-core x86_64 VM, measured) speed drifts by up
    to about 1.8x over seconds to minutes, and CPU time drifts with wall
    time.  While the block runs, a SIGALRM handler runs reference_slice()
    every INTERVAL_S; each stretch of work between two slices is divided
    by the mean duration of those two slices.  The sum, ``units``, moves
    with darkport's speed but hardly with the machine's.  ``seconds`` is
    the plain wall time of the work, slices excluded.
    """

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float]] = []  # (start, duration) of each slice
        self._saved = None
        self._active = False

    def _tick(self) -> None:
        t0 = perf_counter()
        reference_slice()
        self.ticks.append((t0, perf_counter() - t0))

    def _on_alarm(self, signum, frame) -> None:
        if not self._active:
            # an alarm raised just before __exit__ cancelled the timer
            return
        self._tick()
        # re-armed here, not periodic, so a slice never interrupts a slice
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self) -> "DriftMeter":
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        self._tick()
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        self._tick()

    def result(self) -> tuple[float, float]:
        """(seconds, units) of the metered work."""
        seconds = units = 0.0
        for (s0, d0), (s1, d1) in zip(self.ticks, self.ticks[1:]):
            stretch = s1 - (s0 + d0)
            seconds += stretch
            units += stretch / ((d0 + d1) / 2.0)
        return seconds, units

    def slice_s(self) -> list[float]:
        return [d for _, d in self.ticks]


def _warm_up() -> None:
    # the first slices pay one-off costs (numpy dispatch, linalg set-up)
    for _ in range(3):
        reference_slice()


def run_cli(timing_path: str, argv: list[str]) -> int:
    _warm_up()
    t0 = perf_counter()
    import darkport.cli
    import_s = perf_counter() - t0
    with DriftMeter() as meter:
        code = darkport.cli.main(argv)
    seconds, units = meter.result()
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "main_s": seconds, "main_ref": units, "exit": code,
                   "slice_s": meter.slice_s()}, fh)
    return code


def run_loop(seed: int, seconds: float, result_path: str) -> int:
    import checks
    import workloads

    specs = workloads.loop_specs(seed)
    _warm_up()
    times, units, slices, failed, problems = [], [], [], 0, []
    deadline = perf_counter() + seconds
    while not times or perf_counter() < deadline:
        with DriftMeter() as meter:
            results = workloads.evaluate_loop_models(specs)
        pass_s, pass_ref = meter.result()
        times.append(pass_s)
        units.append(pass_ref)
        slices += meter.slice_s()
        found = checks.check_loop_models(results)
        failed += len(found)
        problems = problems or found[:5]
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"times_s": times, "units": units, "slice_s": slices,
                   "n_models": len(specs), "failed": failed, "problems": problems}, fh)
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        sys.exit(run_cli(rest[0], rest[1:]))
    if mode == "loop":
        sys.exit(run_loop(int(rest[0]), float(rest[1]), rest[2]))
    sys.exit(f"unknown mode {mode!r}")
