"""Minimum-divergence estimation in models defined by L-moment constraints.

The package fits semiparametric models whose members are pinned down by a
finite set of linear constraints on the quantile function (L-moments or,
more generally, expectations of order statistics).  Estimation minimizes a
convex divergence between the empirical quantile measure and the constrained
set, computed through its finite-dimensional concave dual.

numpy is the only runtime dependency.  A failed inner solve is labelled by
a convex-hull test in L-moment-ratio space, not by a linear program.
"""

from .poly import PolyBasis, shifted_legendre_eval, integrated_legendre_eval
from .lmoments import (
    SortedSample,
    LmomentVector,
    sample_lmoments_v,
    sample_lmoments_u,
    lmoment_ratios,
    discrete_lmoments,
    lambda_covariance,
)
from .divergence import (
    CHI2,
    KL,
    KLM,
    ConjugateDomainError,
    DivergenceSpec,
    divergence_by_name,
    power_divergence,
)
from .models import (
    SplqModel,
    ParametricFamily,
    gpd_model,
    weibull_model,
    order_stat_model_3,
    model_by_name,
)
from .dualsolve import (
    DualProblem,
    DualSolution,
    make_dual_problem,
    solve_dual,
    chi2_value_closed_form,
    wasserstein_fit_inner,
)
from .estimator import (
    FitReport,
    fit_divergence,
    asymptotic_covariance,
    confidence_stat,
    fit_lmoment_method_gpd,
    fit_moment_method_gpd,
    fit_mle_gpd,
)
from .sim import ScenarioConfig, SimSummary, run_scenario, l1_density_distance

__all__ = [
    "PolyBasis",
    "shifted_legendre_eval",
    "integrated_legendre_eval",
    "SortedSample",
    "LmomentVector",
    "sample_lmoments_v",
    "sample_lmoments_u",
    "lmoment_ratios",
    "discrete_lmoments",
    "lambda_covariance",
    "DivergenceSpec",
    "divergence_by_name",
    "power_divergence",
    "CHI2",
    "KL",
    "KLM",
    "ConjugateDomainError",
    "make_dual_problem",
    "SplqModel",
    "ParametricFamily",
    "gpd_model",
    "weibull_model",
    "order_stat_model_3",
    "model_by_name",
    "DualProblem",
    "DualSolution",
    "solve_dual",
    "chi2_value_closed_form",
    "wasserstein_fit_inner",
    "FitReport",
    "fit_divergence",
    "asymptotic_covariance",
    "confidence_stat",
    "fit_lmoment_method_gpd",
    "fit_moment_method_gpd",
    "fit_mle_gpd",
    "ScenarioConfig",
    "SimSummary",
    "run_scenario",
    "l1_density_distance",
]

__version__ = "0.1.0"
