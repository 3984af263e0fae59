"""Cannings fixation-probability simulator.

Dirichlet-type and spiked paintboxes, the selective frequency process,
its Galton-Watson bounding processes with exact survival solvers, and a
Monte Carlo experiment layer with reproducible parallel streams.
"""

from .analysis import (
    CounterexampleReport,
    FixationEstimate,
    PhaseReport,
    counterexample_check,
    duality_fixation,
    estimate_fixation,
    phase_diagnostics,
    read_aeq_samples,
    wilson_interval,
)
from .branching import (
    Binary,
    GWModel,
    MixedBinomial,
    MixedPoisson,
    PlainPoisson,
    SurvivalResult,
    TwoPointImmortal,
    conditioned_pmf,
    extinction_q,
    haldane_ref,
)
from .cannings import (
    AbsorptionRecord,
    CanningsConfig,
    ConfigurationError,
    QnEstimate,
    Tally,
    growth_factor_qn,
    run_ensemble,
    run_to_absorption,
    step,
    step_tilde,
    success_probability,
)
from .paintbox import (
    Deterministic,
    Gamma,
    LogNormal,
    SpikedSpec,
    TwoPoint,
    UnsupportedLawError,
    WeightMomentEstimate,
    WeightVector,
    YLaw,
    estimate_weight_moment,
    sample_y,
    spiked_weights,
    weights_from_y,
)
from .streams import make_rng, trial_rng

__version__ = "0.1.0"
