"""Reinforced Galton-Watson processes: exact moments, growth rates,
explosion times, and cross-verified Monte Carlo."""

from .analytic import (
    AnalyticContext,
    RateProfile,
    WeightVector,
    conditional_limit_constant,
    constant_weights,
    critical_context,
    critical_weights,
    explosion_time,
    flow,
    gamma_closed_form,
    gamma_constant,
    linear_weights,
    malthusian_rate,
    mgf_closed,
    mgf_vector,
    phi,
    phi_limit,
    weights_from_map,
)
from .exact import (
    MomentTable,
    spine_dp,
    urn_dp,
    yule_functional_series,
)
from .model import (
    ModelParams,
    ReproductionLaw,
    load_params,
    mean,
    new_law,
    params_from_dict,
    params_to_dict,
    parse_law,
)
from .ode import OdeSolution, integrate_M, pde_residual_G, ratio_monotonicity_check
from .sim import (
    Estimate,
    PopulationResult,
    SimConfig,
    YuleResult,
    estimate_yule_functional,
    simulate_rgw,
    simulate_spine,
    simulate_yule,
)

__version__ = "0.1.0"
