"""Quaternionic Sagnac interferometry: simulation, fitting, and bounds.

The dark port of a Sagnac loop stays dark exactly when the optical phases
inside it commute with each other and with the beamsplitter reflection.
This package simulates photon-counting interferograms of a Sagnac nested
in a Mach-Zehnder, fits the fringes, and turns toggle campaigns into a
bound on phase non-commutativity.
"""

from .quaternion import (
    I,
    J,
    K,
    ONE,
    PhaseVector,
    Quaternion,
    commutator_norm,
    generalized_defect,
    qexp,
)
from .interferometer import (
    NonPhysicalVisibilityError,
    PhaseElement,
    PortProbabilities,
    SagnacModel,
    ThetaBound,
    UncertainValue,
    VisibilityValue,
    dark_port_prob,
    dark_port_prob_ideal,
    gamma_of_model,
    gamma_ratio,
    loop_defect,
    mz_signal,
    mz_visibility_from_ports,
    mz_visibility_theta,
    propagate_state,
    sagnac_probs_theta,
    theta_bound,
)
from .photonsim import (
    Interferogram,
    RunPair,
    ScanConfig,
    analytic_visibility,
    simulate_campaign,
    simulate_interferogram,
    simulate_run,
)
from .config import ConfigError, ExperimentConfig, load_config
from .fitting import (
    FitInputError,
    FitResult,
    InvalidFitError,
    NormalizedFringe,
    fit_sinusoid,
    fit_sinusoids,
    normalize,
    propagate,
    visibility_from_fit,
)
from .analysis import (
    BoundReport,
    DeltaVStats,
    GammaRatioStats,
    RunRecord,
    SweepPoint,
    SweepResult,
    bound_from_campaign,
    campaign_records,
    delta_v_statistics,
    gamma_ratio_distribution,
    records_from_runs,
    sensitivity_sweep,
)
from .metaoptics import (
    IndexSpectrum,
    PhaseSpectrum,
    SlabSpec,
    index_spectrum,
    index_to_phase,
    phase_to_index,
)

__version__ = "0.1.0"
