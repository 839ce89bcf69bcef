"""Compare the outputs of this tree's darkport with those of another tree.

    mkdir -p /some/dir && git archive PARENT src | tar -x -C /some/dir
    python3 tools/same_outputs.py /some/dir/src

Runs the byte-identity set under PARENT_SRC (another tree's ``src/``
directory, usually the parent commit's) and under this tree's ``src/``:

* ``campaign`` and ``sweep`` at seeds 0, 3 and 7, default config;
* ``simulate --seed 0``, whose two draws are seeded by numpy's own
  SeedSequence, and ``campaign --seed 4294967296``, whose two-word master
  seed still takes the one-pass slot seeding;
* two partial campaigns at seed 0, 40 runs at 1.5 and at 1.0 counts/step
  (1 and 6 of the 40 runs have a fit that fails or does not converge);
* ``campaign`` at 2 runs, whose Freedman-Diaconis histograms bin 4
  values, and ``campaign`` with an integer ``analysis.bins`` of 7;
* ``campaign`` with the LC's phase at (0, 0.05, 0), which prints
  ``noncommutative: yes``;
* ``fit`` over the 1,600 seed-3 ``lab_fit`` CSVs, written once by
  ``perfbench/workloads.write_lab_files`` and read by both trees;
* ``fit`` over 200 of those CSVs rewritten with CRLF line ends;
* ``fit`` over 200 CSVs whose fields do not repeat (each file's phases
  jittered, counts near 1e8), which the reader parses with numpy's
  float conversion in place of one float() per distinct text.

Each command runs in a fresh interpreter with ``--out out`` in an empty
working directory of the same layout, so output paths print the same on
both sides.  The files written, stdout, stderr (each tree's ``src/`` path
read as ``<src>``) and exit codes are compared; every difference is
printed, and the exit code is 1 on any difference, 0 otherwise.  Standard
library only; it takes about 15 s on two x86-64 cores.
"""

from __future__ import annotations

import difflib
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (puts this tree's src/ on sys.path)

PARTIAL = {"1.5": 1.5, "1.0": 1.0}
# the CRLF copies of the lab_fit CSVs, and the CSVs of distinct fields
CRLF_FILES = 200
DISTINCT_FILES = 200
# a line of each unified diff beyond this many is not printed
DIFF_LINES = 20


def cases(inputs: Path) -> list[tuple[str, list[str]]]:
    """(label, darkport argv without --out) of each command of the set."""
    seeded = [(command, seed) for seed in (0, 3, 7) for command in ("campaign", "sweep")]
    found = [(f"{command} --seed {seed}", [command, "--seed", str(seed)])
             for command, seed in [*seeded, ("simulate", 0), ("campaign", 2 ** 32)]]
    inputs.mkdir(parents=True)
    for label, counts in PARTIAL.items():
        config = inputs / f"partial_{label}.json"
        config.write_text(json.dumps({"scan": {"mean_counts_per_step": counts},
                                      "campaign": {"n_runs": 40}}))
        found.append((f"campaign at {label} counts/step",
                      ["campaign", "--config", str(config), "--seed", "0"]))
    # the default elements, the LC's phase at (0, 0.05, 0): a flagged campaign
    flagged = [{"label": "lc", "phase": [0.0, 0.05, 0.0]},
               {"label": "nim", "phase": [-math.pi, 0.0, 0.0],
                "amplitude_transmission": math.sqrt(0.13)}]
    for label, section in [("2 runs", {"campaign": {"n_runs": 2}}),
                           ("bins 7", {"analysis": {"bins": 7}}),
                           ("lc phase 0.05", {"apparatus": {"elements": flagged}})]:
        config = inputs / f"{label.replace(' ', '_')}.json"
        config.write_text(json.dumps(section))
        found.append((f"campaign at {label}",
                      ["campaign", "--config", str(config), "--seed", "0"]))
    csvs, _ = workloads.write_lab_files(3, inputs / "lab_fit")
    found.append((f"fit of {len(csvs)} lab_fit CSVs", ["fit", *csvs]))
    crlf = inputs / "crlf"
    crlf.mkdir()
    for csv in csvs[:CRLF_FILES]:
        (crlf / Path(csv).name).write_bytes(Path(csv).read_bytes().replace(b"\n", b"\r\n"))
    found.append((f"fit of {CRLF_FILES} CRLF lab_fit CSVs",
                  ["fit", *sorted(map(str, crlf.iterdir()))]))
    found.append((f"fit of {DISTINCT_FILES} CSVs of distinct fields",
                  ["fit", *distinct_files(inputs / "distinct")]))
    return found


def distinct_files(out: Path) -> list[str]:
    """DISTINCT_FILES fringe CSVs of 100 steps whose field texts seldom repeat:
    each phase jittered, counts near 1e8 with a uniform spread."""
    rng, paths = random.Random(0), []
    out.mkdir()
    for k in range(DISTINCT_FILES):
        rows = ["phase_rad,counts_d1,counts_d2"]
        for step in range(100):
            phi = 4.0 * math.pi * step / 99 + rng.uniform(-1e-3, 1e-3)
            d1 = round(5e7 * (1.0 + 0.6 * math.cos(phi)) + rng.uniform(-3e3, 3e3))
            rows.append(f"{phi!r},{d1},{round(1e8 - d1 + rng.uniform(-3e3, 3e3))}")
        paths.append(str(out / f"scan{k:03d}.csv"))
        Path(paths[-1]).write_text("\n".join(rows) + "\n")
    return paths


def outputs(src: Path, argv: list[str], cwd: Path) -> dict[str, bytes | str | int]:
    """Exit code, stdout, stderr and each written file of one darkport run."""
    cwd.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from darkport.cli import main; sys.exit(main())",
         *argv, "--out", "out"], cwd=cwd, env=env, capture_output=True, text=True)
    found: dict[str, bytes | str | int] = {
        "exit code": proc.returncode, "stdout": proc.stdout,
        "stderr": proc.stderr.replace(str(src), "<src>")}
    for path in sorted((cwd / "out").rglob("*")):
        if path.is_file():
            found[f"file {path.relative_to(cwd)}"] = path.read_bytes()
    return found


def differences(parent: dict, this: dict) -> list[str]:
    """One printable entry per output that differs or exists on one side only."""
    found = []
    for key in sorted(parent.keys() | this.keys()):
        a, b = parent.get(key), this.get(key)
        if a == b:
            continue
        if a is None or b is None:
            found.append(f"{key}: only under {'this tree' if a is None else 'PARENT_SRC'}")
        elif isinstance(a, int):
            found.append(f"{key}: {a} under PARENT_SRC, {b} under this tree")
        else:
            texts = [x.decode(errors="replace") if isinstance(x, bytes) else x for x in (a, b)]
            diff = list(difflib.unified_diff(*(t.splitlines() for t in texts), "PARENT_SRC",
                                             "this tree", lineterm=""))
            more = f"\n  ... {len(diff) - DIFF_LINES} more lines" if len(diff) > DIFF_LINES else ""
            found.append(f"{key}:\n  " + "\n  ".join(diff[:DIFF_LINES]) + more)
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "darkport" / "cli.py").is_file():
        print(__doc__.strip(), file=sys.stderr)
        print("\nPARENT_SRC must be a directory holding darkport/cli.py", file=sys.stderr)
        return 2
    sides = {"parent": Path(argv[0]).resolve(), "this": ROOT / "src"}
    failed = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        for k, (label, command) in enumerate(cases(Path(tmp) / "inputs")):
            parent, this = (outputs(src, command, Path(tmp) / side / str(k))
                            for side, src in sides.items())
            found = differences(parent, this)
            status = "same" if not found else f"{len(found)} outputs differ"
            print(f"{label}: exit {this['exit code']}, {len(this) - 3} files, {status}")
            for entry in found:
                print("  " + entry.replace("\n", "\n  "))
            failed += bool(found)
    print("all outputs identical" if not failed else f"{failed} commands differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
