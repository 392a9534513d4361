"""Sum-secrecy-rate maximization for an IRS-assisted multiuser MISO downlink.

Alternating optimization of transmit beamforming covariances, an
artificial-noise covariance and the IRS phase vector: convexified
beamforming rounds (linearized concave part, projected-gradient inner
solver, rank-one extraction) interleaved with Riemannian conjugate gradient
over the oblique manifold of unit-modulus phases.
"""

from .channels import (
    ChannelSet,
    LinkClass,
    NormalizationRecord,
    generate_scenario,
    normalize,
    path_loss_gain,
)
from .config import ScenarioConfig, dbm_to_watts, derive_seed, watts_to_dbm
from .convex_inner import (
    InnerSolverError,
    SolverReport,
    SolverStatus,
    SubproblemSpec,
    solve,
)
from .manifold import (
    RetractionError,
    euclidean_gradient,
    from_phases,
    polak_ribiere,
    retract,
    riemannian_gradient,
    run_cg,
    tangent_project,
    vector_transport,
)
from .metrics import (
    ObjectiveBreakdown,
    eve_capacity,
    objective_terms,
    objective_value,
    power_used,
    secrecy_rates,
    sinr_user,
)
from .orchestrator import baseline_no_an, baseline_random_phase, optimize
from .sca import (
    Linearization,
    build_subproblem,
    extract_rank_one,
    grad_G1,
    grad_G2,
    run_sca,
)
from .solution import HistoryRecord, RunHistory, TransmitSolution
from .sweep import ResultRow, SweepSpec, run_case_study, run_sweep
from .svgplot import emit_plot

__all__ = [
    "ChannelSet",
    "HistoryRecord",
    "InnerSolverError",
    "Linearization",
    "LinkClass",
    "NormalizationRecord",
    "ObjectiveBreakdown",
    "ResultRow",
    "RetractionError",
    "RunHistory",
    "ScenarioConfig",
    "SolverReport",
    "SolverStatus",
    "SubproblemSpec",
    "SweepSpec",
    "TransmitSolution",
    "baseline_no_an",
    "baseline_random_phase",
    "build_subproblem",
    "dbm_to_watts",
    "derive_seed",
    "emit_plot",
    "eve_capacity",
    "extract_rank_one",
    "euclidean_gradient",
    "from_phases",
    "generate_scenario",
    "grad_G1",
    "grad_G2",
    "normalize",
    "objective_terms",
    "objective_value",
    "optimize",
    "path_loss_gain",
    "polak_ribiere",
    "power_used",
    "retract",
    "riemannian_gradient",
    "run_case_study",
    "run_cg",
    "run_sca",
    "run_sweep",
    "secrecy_rates",
    "sinr_user",
    "solve",
    "tangent_project",
    "vector_transport",
    "watts_to_dbm",
]

__version__ = "0.1.0"
