"""Helpers shared by more than one test module."""

import numpy as np

from darkport.fitting import FitResult, _fit_block


def known_fit(fringe):
    """The (fitted, mirrored) outcomes of the one-row known-frequency fit of a
    normalized fringe."""
    return tuple(side[0] for side in _fit_block(
        fringe.phase[None], fringe.ratio[None], fringe.sigma[None], np.array([fringe.n_excluded])))


def same_fit(a, b):
    """Two outcomes are the same error (type and text) or bit-equal fits."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in FitResult.__dataclass_fields__)
