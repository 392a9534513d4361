"""Sum-secrecy-rate maximization for an IRS-assisted multiuser MISO downlink.

Alternating optimization of transmit beamforming covariances, an
artificial-noise covariance and the IRS phase vector: convexified
beamforming rounds (linearized concave part, projected-gradient inner
solver, rank-one extraction) interleaved with a Riemannian Newton method
over the oblique manifold of unit-modulus phases.
"""

from .channels import generate_scenario, normalize
from .config import ScenarioConfig, dbm_to_watts, derive_seed
from .manifold import run_cg
from .metrics import secrecy_rates
from .orchestrator import baseline_no_an, baseline_random_phase, optimize
from .sca import extract_rank_one, run_sca
from .sweep import SweepSpec, run_case_study, run_sweep
from .svgplot import emit_plot

__all__ = [
    "ScenarioConfig",
    "SweepSpec",
    "baseline_no_an",
    "baseline_random_phase",
    "dbm_to_watts",
    "derive_seed",
    "emit_plot",
    "extract_rank_one",
    "generate_scenario",
    "normalize",
    "optimize",
    "run_case_study",
    "run_cg",
    "run_sca",
    "run_sweep",
    "secrecy_rates",
]

__version__ = "0.1.0"
