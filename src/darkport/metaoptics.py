"""Phase to effective refractive index conversion for the multilayer slab.

Single-pass relation n = 1 + delta_phi * lambda / (2 pi d), with delta_phi
the phase relative to the same thickness of air and multiple reflections
inside the stack neglected.  Negative delta_phi below -2 pi d / lambda
means a negative index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SlabSpec",
    "PhaseSpectrum",
    "IndexSpectrum",
    "phase_to_index",
    "index_to_phase",
    "index_spectrum",
]

# three Ag/MgF2 repetitions of 40 + 50 nm plus the 15 nm cap
DEFAULT_THICKNESS_NM = 3 * (40.0 + 50.0) + 15.0


@dataclass(frozen=True)
class SlabSpec:
    """Slab geometry; only the optical thickness enters the conversion."""

    thickness_nm: float = DEFAULT_THICKNESS_NM

    def __post_init__(self) -> None:
        if not 0.0 < self.thickness_nm < math.inf:
            raise ValueError(f"thickness_nm must be finite and positive, "
                             f"got {self.thickness_nm!r}")


@dataclass(frozen=True)
class PhaseSpectrum:
    """Measured relative phase versus wavelength, any 2 pi branch per point."""

    wavelength_nm: np.ndarray
    phase_rad: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "wavelength_nm",
                           np.asarray(self.wavelength_nm, dtype=float))
        object.__setattr__(self, "phase_rad", np.asarray(self.phase_rad, dtype=float))
        if self.wavelength_nm.shape != self.phase_rad.shape or self.wavelength_nm.ndim != 1:
            raise ValueError("wavelength and phase must be 1-d arrays of equal length")
        if np.any(self.wavelength_nm <= 0.0):
            raise ValueError("wavelengths must be positive")
        if self.wavelength_nm.size > 1 and np.any(np.diff(self.wavelength_nm) <= 0.0):
            raise ValueError("wavelengths must be strictly increasing")


@dataclass(frozen=True)
class IndexSpectrum:
    """Retrieved index per wavelength; ambiguous points are flagged, not dropped."""

    wavelength_nm: np.ndarray
    n: np.ndarray
    ambiguous: np.ndarray


def phase_to_index(delta_phi: float | np.ndarray, wavelength_nm: float | np.ndarray,
                   slab: SlabSpec) -> float | np.ndarray:
    """Effective index from the single-pass relative phase; arrays work elementwise."""
    if not np.all(wavelength_nm > 0.0):
        raise ValueError(f"wavelength_nm must be positive, got {wavelength_nm!r}")
    return 1.0 + delta_phi * wavelength_nm / (math.tau * slab.thickness_nm)


def index_to_phase(n: float, wavelength_nm: float, slab: SlabSpec) -> float:
    """Exact inverse of phase_to_index."""
    if not wavelength_nm > 0.0:
        raise ValueError(f"wavelength_nm must be positive, got {wavelength_nm!r}")
    return (n - 1.0) * math.tau * slab.thickness_nm / wavelength_nm


def index_spectrum(spectrum: PhaseSpectrum, slab: SlabSpec) -> IndexSpectrum:
    """Pointwise conversion after nearest-branch phase unwrapping.

    Each phase is moved onto the 2 pi branch nearest its unwrapped
    neighbor.  A corrected jump of magnitude pi sits exactly between two
    branches; such points (and everything unwrapped through them) cannot
    be trusted, so they are flagged.  So is a jump too large for its
    rounding error to stay inside the branch, as the correction of one
    beyond about 1e16 rad keeps no information.  Raises ValueError naming
    the first wavelength whose index is not finite.
    """
    wl = spectrum.wavelength_nm
    raw = spectrum.phase_rad
    unwrapped = np.array(raw, dtype=float)
    ambiguous = np.zeros(raw.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, raw.shape[0]):
            jump = raw[i] - unwrapped[i - 1]
            corrected = jump - math.tau * np.round(jump / math.tau)
            if abs(corrected) + np.spacing(abs(jump)) >= math.pi * (1.0 - 1e-9):
                ambiguous[i] = True
            unwrapped[i] = unwrapped[i - 1] + corrected
        n = phase_to_index(unwrapped, wl, slab)
    bad = ~np.isfinite(n)
    if bad.any():
        raise ValueError(f"index is not finite at {float(wl[np.argmax(bad)])!r} nm")
    return IndexSpectrum(wavelength_nm=wl.copy(), n=n, ambiguous=ambiguous)
