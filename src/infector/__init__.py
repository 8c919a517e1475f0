"""Who infected whom in multi-type stochastic epidemics.

Forward shortest-path simulation, backward branching-process Monte
Carlo, and analytic fixed-point bounds for the fractions of infections
attributable to each infector type.
"""

from .analytic import (
    AnalyticReport,
    FixedPointResult,
    analytic_report,
    borel_conditional_pmf,
    borel_mean_inverse,
    borel_pmf,
    extinction_probs,
    fixed_point_q,
    fixed_point_qtilde,
    is_irreducible,
    r0,
    rho21_min,
    theorem2_bounds,
    tv_binomial_poisson,
)
from .backward import (
    RestrictedSetSize,
    SusceptibilitySnapshot,
    default_t_star,
    explore_susceptibility,
    restricted_susceptibility_size,
    susceptibility_counts,
)
from .branching import (
    MalthusianSolution,
    backward_mean_matrix,
    estimate_W,
    estimate_rho_bp,
    extinction_frequency,
    laplace_mean_matrix,
    solve_malthusian,
    survival_probability,
)
from .config import (
    ContactAgeLaw,
    Duration,
    ExtremalTwoType,
    MarkedSingleProcess,
    MarkovSEIR,
    ModelConfig,
    PopulationSpec,
    Violation,
    config_from_dict,
    config_to_dict,
    eta_cdf,
    load_config,
    mean_matrix,
    validate_config,
)
from .errors import (
    CapExceededError,
    ConfigError,
    DomainError,
    InfectorError,
    NoDataError,
    NumericError,
    OutOfHorizonError,
)
from .graph import (
    FIG1_LABELS,
    EpidemicGraph,
    build_graph,
    degree_stats,
    draw_out_edges,
    dump_graph,
    fixture_graph_fig1,
    load_graph,
)
from .rng import derive_key, stream

__version__ = "0.1.0"

# forward loads scipy.sparse; its names are imported on first use.
_FORWARD = frozenset({
    "OutbreakResult", "RhoEstimate", "aggregate_rho", "attribute_infectors",
    "is_large_outbreak", "replicate_records", "replicate_rho", "run_epidemic",
    "run_epidemic_lazy",
})


def __getattr__(name):
    if name in _FORWARD:
        from . import forward

        return getattr(forward, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
