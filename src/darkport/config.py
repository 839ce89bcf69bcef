"""The experiment configuration: one validated description of the apparatus.

``load_config`` checks every key of a JSON config file against ``SCHEMA``;
``ExperimentConfig`` checks what spans keys, such as the campaign's loops.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field

from .interferometer import PhaseElement, SagnacModel
from .photonsim import ScanConfig
from .quaternion import I, J, K, PhaseVector, Quaternion

__all__ = ["ConfigError", "ExperimentConfig", "load_config"]

_AXES = {"i": I, "j": J, "k": K}
# the most runs a campaign may have, 5,000 times the default: larger counts
# are refused at validation instead of exhausting memory (campaign) or
# running on without end (sweep, which streams its runs)
_MAX_RUNS = 10 ** 6


class ConfigError(ValueError):
    """Bad configuration file or bad option values."""


def _reject_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}")
        seen[key] = value
    return seen


def _finite(value) -> float | None:
    """value as a float if it is a finite number (bools excluded), else None."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    return None


def _floats(value, length: int | None) -> tuple[float, ...] | None:
    """A non-empty list of finite numbers, of the given length unless None."""
    floats = tuple(map(_finite, value)) if type(value) is list else ()
    if not floats or None in floats or length not in (None, len(floats)):
        return None
    return floats


def _phase(value) -> PhaseVector | None:
    floats = _floats(value, 3)
    return None if floats is None else PhaseVector(*floats)


def _reflection(value) -> Quaternion | None:
    if type(value) is str:
        return _AXES.get(value)
    floats = _floats(value, 4)
    return None if floats is None else Quaternion(*floats)


def _elements(value) -> tuple[PhaseElement, ...] | None:
    if type(value) is not list or not value:
        return None
    elements = []
    for idx, entry in enumerate(value):
        path = f"apparatus.elements[{idx}]"
        fields = _read(entry, path, _ELEMENT)
        if "label" not in fields:
            raise ConfigError(f"{path}: element needs a string label")
        try:
            elements.append(PhaseElement(**fields))
        except ValueError as err:
            raise ConfigError(f"{path}: {err}") from err
    return tuple(elements)


_FLOAT = ("finite float", _finite)
_INT = ("int", lambda v: v if type(v) is int else None)
_STR = ("str", lambda v: v if type(v) is str else None)
_LABELS = ("a list of element labels",
           lambda v: tuple(v) if type(v) is list and all(type(s) is str for s in v) else None)
_ELEMENT = {"label": _STR, "phase": ("a list of 3 finite numbers", _phase),
            "amplitude_transmission": _FLOAT}

# section -> key -> (expected type, parser giving None for any other value).
# A key left out keeps its default from ExperimentConfig or ScanConfig;
# "configurations" takes any names, each mapped to _LABELS.
SCHEMA = {
    "apparatus": {"visibility_v": _FLOAT,
                  "reflection": ("i, j, k or a list of 4 finite numbers", _reflection),
                  "elements": ("a non-empty list of elements", _elements)},
    "scan": {"n_steps": _INT, "phase_start": _FLOAT, "phase_end": _FLOAT,
             "mean_counts_per_step": _FLOAT, "rng_seed": _INT},
    "campaign": {"n_runs": _INT, "master_seed": _INT, "reference": _STR, "toggled": _STR},
    "configurations": {},
    "analysis": {
        "bins": ("'fd' or a positive integer",
                 lambda v: v if v == "fd" or (type(v) is int and v >= 1) else None),
        "epsilon_grid": ("a non-empty list of finite numbers", lambda v: _floats(v, None)),
        "theta_convention": ("central, conservative, or both",
                             lambda v: v if v in ("central", "conservative", "both") else None),
    },
    "output": {"dir": _STR},
}


def _check_keys(section, allowed, path: str) -> None:
    if type(section) is not dict:
        raise ConfigError(f"{path}: expected an object, got {section!r}")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}; allowed keys are {sorted(allowed)}")


def _read(section, path: str, table: dict) -> dict:
    """The section's values, each checked and parsed by its table entry."""
    _check_keys(section, table, path)
    values = {}
    for key, value in section.items():
        kind, parse = table[key]
        values[key] = parse(value)
        if values[key] is None:
            raise ConfigError(f"{path}.{key}: expected {kind}, got {value!r}")
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a subcommand needs, already validated."""

    visibility_v: float = 0.9992774
    reflection: Quaternion = I
    elements: tuple[PhaseElement, ...] = (
        PhaseElement("lc", PhaseVector(math.pi, 0.0, 0.0)),
        PhaseElement("nim", PhaseVector(-math.pi, 0.0, 0.0), math.sqrt(0.13)))
    scan: ScanConfig = ScanConfig()
    n_runs: int = 200
    master_seed: int = 0
    reference: str = "nim"
    toggled: str = "both"
    configurations: dict = field(
        default_factory=lambda: {"nim": ("nim",), "both": ("lc", "nim")})
    bins: object = "fd"
    theta_convention: str = "both"
    epsilon_grid: tuple[float, ...] = (0.0, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1)
    out_dir: str = "."

    def __post_init__(self) -> None:
        if not 1 <= self.n_runs <= _MAX_RUNS:
            raise ConfigError(f"campaign.n_runs must lie in [1, {_MAX_RUNS}], "
                              f"got {self.n_runs!r}")
        if not (type(self.master_seed) is int and 0 <= self.master_seed < 2 ** 64):
            raise ConfigError(f"campaign.master_seed must be a 64-bit unsigned "
                              f"integer, got {self.master_seed!r}")
        # a campaign histogram holds at most one value per detector and run
        if self.bins != "fd" and self.bins > 2 * self.n_runs:
            raise ConfigError(f"analysis.bins must be at most 2 * campaign.n_runs = "
                              f"{2 * self.n_runs}, got {self.bins!r}")
        self.build_pair()

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
        try:
            return SagnacModel(visibility_v=self.visibility_v, reflection=self.reflection,
                               elements=[by_label[lbl] for lbl in active])
        except ValueError as err:
            raise ConfigError(f"configuration {configuration!r}: {err}") from err

    def build_pair(self) -> tuple[SagnacModel, SagnacModel]:
        return self.build_model(self.reference), self.build_model(self.toggled)

    def _toggled_label(self) -> str:
        """The one element that the toggle adds to or removes from the loop."""
        loops = [tuple(self.configurations[name]) for name in (self.reference, self.toggled)]
        short, long = sorted(loops, key=len)
        for idx, label in enumerate(long):
            if long[:idx] + long[idx + 1:] == short:
                return label
        raise ConfigError(f"configurations {self.reference!r} {list(loops[0])} and "
                          f"{self.toggled!r} {list(loops[1])} must differ by exactly one "
                          f"element to inject epsilon into it")

    def with_epsilon(self, epsilon: float) -> "ExperimentConfig":
        """The toggled element's phase replaced by (0, epsilon, 0); 0 keeps it."""
        label = self._toggled_label()
        if epsilon == 0.0:
            return self
        phase = PhaseVector(0.0, epsilon, 0.0)
        return dataclasses.replace(self, elements=tuple(
            dataclasses.replace(e, phase=phase) if e.label == label else e
            for e in self.elements))


def load_config(path: str | None) -> ExperimentConfig:
    """Parse and validate a config file; None gives the defaults."""
    if path is None:
        return ExperimentConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_reject_duplicates)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON: {err}") from err
    _check_keys(raw, SCHEMA, path)

    names = raw.get("configurations", {})
    tables = dict(SCHEMA, configurations=dict.fromkeys(names if type(names) is dict else (),
                                                       _LABELS))
    sections = {name: _read(raw.get(name, {}), name, table) for name, table in tables.items()}
    kwargs = {**sections["apparatus"], **sections["campaign"], **sections["analysis"]}
    if "configurations" in raw:
        kwargs["configurations"] = sections["configurations"]
    if "dir" in sections["output"]:
        kwargs["out_dir"] = sections["output"]["dir"]
    try:
        return ExperimentConfig(scan=ScanConfig(**sections["scan"]), **kwargs)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err
