import math

import numpy as np
import pytest

from darkport.cli import main
from darkport.metaoptics import (
    DEFAULT_THICKNESS_NM,
    IndexSpectrum,
    PhaseSpectrum,
    SlabSpec,
    index_spectrum,
    index_to_phase,
    phase_to_index,
)
from darkport.reports import read_phase_spectrum_csv

TWO_PI = 2.0 * math.pi


def test_default_thickness_is_the_stack_total():
    assert DEFAULT_THICKNESS_NM == 285.0
    assert SlabSpec().thickness_nm == 285.0


def test_phase_to_index_at_the_operating_wavelength():
    slab = SlabSpec()
    n = phase_to_index(-math.pi, 790.0, slab)
    assert math.isclose(n, 1.0 - 790.0 / (2.0 * 285.0), rel_tol=1e-12)
    assert abs(n - (-0.39)) < 0.01  # about -0.386: a negative index


def test_index_to_phase_examples():
    slab = SlabSpec()
    # n = -0.4 at 790 nm needs about -3.17 rad of relative phase
    phi = index_to_phase(-0.4, 790.0, slab)
    assert abs(phi - (-3.17)) < 0.01
    # the n = 0 crossing at 750 nm sits at -2 pi d / lambda
    phi0 = index_to_phase(0.0, 750.0, slab)
    assert math.isclose(phi0, -TWO_PI * 285.0 / 750.0, rel_tol=1e-12)
    assert abs(phi0 - (-2.388)) < 0.001


def test_round_trip_is_exact():
    slab = SlabSpec(thickness_nm=285.0)
    rng = np.random.default_rng(51)
    for _ in range(200):
        phi = rng.uniform(-6.0, 6.0)
        wl = rng.uniform(400.0, 1600.0)
        assert math.isclose(index_to_phase(phase_to_index(phi, wl, slab), wl, slab),
                            phi, rel_tol=1e-12, abs_tol=1e-12)


def test_conversion_is_affine_in_phase():
    slab = SlabSpec()
    wl = 790.0
    n0 = phase_to_index(0.0, wl, slab)
    assert n0 == 1.0  # no relative phase: the slab acts like air
    n1 = phase_to_index(1.0, wl, slab)
    n2 = phase_to_index(2.0, wl, slab)
    assert math.isclose(n2 - n1, n1 - n0, rel_tol=1e-12)


def test_negative_index_threshold():
    slab = SlabSpec()
    wl = 790.0
    threshold = -TWO_PI * slab.thickness_nm / wl
    assert phase_to_index(threshold, wl, slab) == pytest.approx(0.0, abs=1e-12)
    assert phase_to_index(threshold - 0.01, wl, slab) < 0.0
    assert phase_to_index(threshold + 0.01, wl, slab) > 0.0


def test_validation_errors():
    with pytest.raises(ValueError):
        SlabSpec(thickness_nm=0.0)
    with pytest.raises(ValueError):
        phase_to_index(-math.pi, 0.0, SlabSpec())
    with pytest.raises(ValueError):
        index_to_phase(0.5, -1.0, SlabSpec())
    with pytest.raises(ValueError):
        PhaseSpectrum(wavelength_nm=np.array([700.0, 700.0]),
                      phase_rad=np.array([0.0, 0.1]))
    with pytest.raises(ValueError):
        PhaseSpectrum(wavelength_nm=np.array([700.0, 710.0]),
                      phase_rad=np.array([0.0]))
    with pytest.raises(ValueError):
        PhaseSpectrum(wavelength_nm=np.array([-700.0, 710.0]),
                      phase_rad=np.array([0.0, 0.1]))


def test_index_spectrum_smooth_input_passes_through():
    slab = SlabSpec()
    wl = np.linspace(700.0, 800.0, 21)
    phase = np.linspace(-2.0, -3.2, 21)
    spec = index_spectrum(PhaseSpectrum(wl, phase), slab)
    assert isinstance(spec, IndexSpectrum)
    assert not spec.ambiguous.any()
    want = 1.0 + phase * wl / (TWO_PI * slab.thickness_nm)
    assert np.allclose(spec.n, want, rtol=1e-12)


def test_index_spectrum_unwraps_branch_jumps():
    slab = SlabSpec()
    wl = np.linspace(700.0, 800.0, 11)
    true_phase = np.linspace(-2.0, -3.2, 11)
    wrapped = true_phase.copy()
    wrapped[5:] += TWO_PI  # instrument rewrapped the tail onto another branch
    spec = index_spectrum(PhaseSpectrum(wl, wrapped), slab)
    assert not spec.ambiguous.any()
    want = 1.0 + true_phase * wl / (TWO_PI * slab.thickness_nm)
    assert np.allclose(spec.n, want, rtol=1e-12)


def test_index_spectrum_flags_half_branch_jumps():
    slab = SlabSpec()
    wl = np.array([700.0, 710.0, 720.0, 730.0, 740.0])
    phase = np.array([0.0, 0.05, 0.05 + math.pi, 0.1 + math.pi, 0.15 + math.pi])
    spec = index_spectrum(PhaseSpectrum(wl, phase), slab)
    # only the point the half-branch jump ends at, not those unwrapped through it
    assert spec.ambiguous.tolist() == [False, False, True, False, False]


def test_index_flags_jumps_too_large_to_unwrap(tmp_path, capsys):
    # beyond about 1e16 rad the nearest-branch correction keeps no
    # information, so each such point is ambiguous, not an index of 1
    path = tmp_path / "spectrum.csv"
    path.write_text("wavelength_nm,phase_rad\n500,0\n501,1e17\n502,-1e308\n")
    spec = index_spectrum(read_phase_spectrum_csv(str(path)), SlabSpec())
    assert spec.ambiguous.tolist() == [False, True, True]
    assert main(["index", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: ambiguous unwrapping at 501.0 nm",
        "warning: ambiguous unwrapping at 502.0 nm",
    ]


def test_phase_to_index_of_arrays_is_elementwise():
    slab = SlabSpec()
    wl = np.array([700.0, 750.0, 790.0])
    phase = np.array([-1.0, -2.5, -math.pi])
    n = phase_to_index(phase, wl, slab)
    assert n.tolist() == [phase_to_index(p, w, slab) for p, w in zip(phase.tolist(), wl.tolist())]
    with pytest.raises(ValueError):
        phase_to_index(phase, np.array([700.0, 0.0, 790.0]), slab)


@pytest.mark.parametrize("thickness, wl, phase, at", [
    (1e-320, [500.0, 600.0], [1.0, 1.2], 500.0),
    (285.0, [500.0, 501.0], [1e308, -1e308], 500.0),
    (1e-320, [500.0, 501.0, 502.0], [0.0, 1.0, 2.0], 501.0),
], ids=["thin_slab", "huge_phases", "zero_phase_first"])
def test_index_spectrum_rejects_an_index_that_is_not_finite(thickness, wl, phase, at):
    # no numpy RuntimeWarning either: the test configuration makes it an error
    spectrum = PhaseSpectrum(np.array(wl), np.array(phase))
    with pytest.raises(ValueError, match=f"index is not finite at {at!r} nm"):
        index_spectrum(spectrum, SlabSpec(thickness_nm=thickness))


def test_index_spectrum_single_point():
    slab = SlabSpec()
    spec = index_spectrum(PhaseSpectrum(np.array([790.0]), np.array([-math.pi])), slab)
    assert spec.n.shape == (1,)
    assert not spec.ambiguous[0]
    assert math.isclose(spec.n[0], phase_to_index(-math.pi, 790.0, slab), rel_tol=1e-15)
