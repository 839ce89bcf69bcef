"""Run a fixed list of one-line mutants of the decision path against tier-1.

    python3 tools/mutants.py

Each mutant names a file, an exact text that occurs once in it, its
replacement, and what the change breaks.  For each mutant the tree is
copied to a temporary directory, the mutant applied there, and the tier-1
command (ROADMAP.md) run with ``-x``: a failing test kills the mutant, a
passing suite lets it survive.  A mutant may be marked untested, with a
one-line reason why no test is meant to kill it; such a mutant is not
claimed to behave like the tree.  Before the mutants, the unmutated copy
must pass, or every kill would mean nothing.

Prints one line per mutant (killed, with the first failing test, or
survived, with its time).  Exits 1 when the unmutated copy fails, when a
survivor is not marked untested, when a marked mutant is killed (the
mark no longer holds), or when a mutant's text is not found once in its
file; 0 otherwise.  Standard library only.  A killed mutant costs
seconds; a survivor costs a full tier-1 run, about 20-25 s on two x86-64
cores.  This tree is never written to.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-x"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", "*.egg-info", ".pytest_cache",
                                ".hypothesis")


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    breaks: str
    untested: str | None = None


MUTANTS = (
    Mutant("src/darkport/analysis.py", "DETECTION_SIGMA = 5.0", "DETECTION_SIGMA = 4.5",
           "the 5-stderr detection rule of the flag and the sweep"),
    Mutant("src/darkport/analysis.py", "stats.stderr)))", "1.2 * stats.stderr)))",
           "each sweep point's significance, divided by 1.2"),
    Mutant("src/darkport/analysis.py",
           "if p.significance >= DETECTION_SIGMA]",
           "if p.significance >= 0.8 * DETECTION_SIGMA]",
           "min_detectable_epsilon's threshold"),
    Mutant("src/darkport/analysis.py",
           "return _significance(self.mean - 1.0, self.stderr) >= DETECTION_SIGMA",
           "return _significance(max(self.mean - 1.0, 0.0), self.stderr) >= DETECTION_SIGMA",
           "the flag's two sides: a mean below 1 no longer flags"),
    Mutant("src/darkport/analysis.py", "    if deviation == 0.0:\n        return 0.0\n", "",
           "a zero deviation's significance of 0 where the scatter is 0 too"),
    Mutant("src/darkport/analysis.py", "if stderr > 0.0 else math.inf",
           "if stderr > 0.0 else 0.0",
           "a nonzero deviation with zero scatter, which must detect"),
    Mutant("src/darkport/analysis.py", "np.std(values, ddof=1)", "np.std(values, ddof=0)",
           "the sample standard deviation behind every stderr"),
    Mutant("src/darkport/analysis.py", "std / math.sqrt(values.size)",
           "std / math.sqrt(values.size - 1)", "the standard error of the mean"),
    Mutant("src/darkport/analysis.py", "b * values / den * s_nim[physical]",
           "0.0 * s_nim[physical]", "the reference visibility's term of a point's sigma"),
    Mutant("src/darkport/interferometer.py", "conservative_deg=_theta(ratio - sigma)",
           "conservative_deg=_theta(ratio - 0.5 * sigma)",
           "the conservative theta's one-sigma shift"),
    Mutant("src/darkport/quaternion.py", "                and math.isfinite(self.phi3)):",
           "                ):", "PhaseVector's finiteness test of phi3"),
    Mutant("src/darkport/interferometer.py", "-tol <= d <= 1.0 + tol", "-tol <= b <= 1.0 + tol",
           "PortProbabilities' range test of p_dark"),
    Mutant("src/darkport/interferometer.py", "if not (0.0 <= b <= 1.0 and 0.0 <= d <= 1.0):",
           "if not 0.0 <= b <= 1.0:",
           "the clamp of a p_dark outside [0, 1] beside a p_bright in it"),
    Mutant("src/darkport/interferometer.py", "if len({e.label for e in elements})",
           "if len([e.label for e in elements])", "the refusal of duplicate element labels"),
    Mutant("src/darkport/interferometer.py", "for e in elements[1:]:", "for e in elements:",
           "the loop products' fold from the first element, which counts it once"),
    Mutant("src/darkport/fitting.py",
           "np.maximum(np.sqrt(r * (1.0 - r) / n), 1.0 / (n + 2.0))",
           "np.sqrt(r * (1.0 - r) / n)",
           "the binomial sigma's floor at a ratio of 0 or 1"),
    Mutant("src/darkport/fitting.py", "1.0 - c + 5.0 * math.sqrt(c)",
           "1.0 - c + 4.0 * math.sqrt(c)", "the chi-square quantile behind converged"),
    Mutant("src/darkport/fitting.py", "scale, converged = 1.0, False",
           "scale, converged = 0.5, False", "fit_sinusoid's first step scale",
           untested="no command calls fit_sinusoid and no test pins its fit of an unresolved "
                    "fringe (the strict xfail on such fringes still fails with it), where the "
                    "scale moves results (3 of 40 fringes, V 0.39 -> 0.25 and "
                    "0.55 -> 0.18); a resolved fringe stops at the same minimum (V within 5e-7 "
                    "relative at 200 and 20,000 counts/step)"),
)


def run(mutant: Mutant | None, tmp: Path) -> tuple[bool | None, str]:
    """(passed, the failing test or else the last output line) of tier-1 on a
    copy of the tree with mutant applied; passed is None when the mutant's
    text is not found once."""
    tree = tmp / "tree"
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    if mutant is not None:
        target = tree / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return None, f"{mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode == 0, (failed[:1] or lines[-1:] or [proc.stderr.strip()[-200:]])[0]


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutants_") as tmp:
        start = time.perf_counter()
        passed, last = run(None, Path(tmp))
        print(f"unmutated tree: {'passes' if passed else 'FAILS'} "
              f"({time.perf_counter() - start:.1f} s): {last}", flush=True)
        if not passed:
            return 1
        for k, mutant in enumerate(MUTANTS, 1):
            start = time.perf_counter()
            passed, last = run(mutant, Path(tmp))
            seconds = time.perf_counter() - start
            if passed is None:
                verdict, bad = f"NOT APPLIED: {last}", True
            elif passed:
                verdict = "survived" + (f" (untested: {mutant.untested})"
                                        if mutant.untested else "")
                bad = mutant.untested is None
            else:
                verdict = f"killed by {last}" + (
                    " (marked untested: the mark no longer holds)" if mutant.untested else "")
                bad = mutant.untested is not None
            print(f"{k:2d} {mutant.path}, {mutant.breaks}: {verdict} ({seconds:.1f} s)",
                  flush=True)
            failed += bad
    print(f"{failed} of {len(MUTANTS)} mutants need attention" if failed
          else f"all {len(MUTANTS)} mutants killed or marked untested")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
