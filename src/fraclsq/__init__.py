"""fraclsq: least-squares fitting on fractional monomial ladders.

The space span{1, x^lam, ..., x^(n*lam)} with a tunable exponent step lam
generalizes polynomial fitting; this package provides:

* Muntz-Legendre polynomials;
* Gaussian quadrature adapted to fractional integrands;
* weight-orthogonal fractional bases via three-term recurrences;
* continuous/discrete least-squares fits (normal equations or projection);
* a Caputo-residual least-squares solver for linear fractional ODEs;
* a Longstaff-Schwartz American-put pricer regressing on the fractional
  ladder.

See the ``fraclsq`` CLI (``fraclsq --help``) for the command-line surface.
"""

from .errors import (
    ConditioningError,
    ConvergenceError,
    DegeneracyError,
    DomainError,
    FraclsqError,
    RankDeficiencyError,
    UsageError,
)
from .special import gamma, mittag_leffler
from .fracpoly import (
    FractionalPolynomial,
    frac_poly_eval,
    muntz_legendre_coeffs,
    muntz_legendre_eval,
)
from .quadrature import (
    QuadratureRule,
    common_step,
    frac_moment,
    gauss_jacobi,
    gauss_legendre,
    integrate,
    substituted_rule,
    weighted_rule,
)
from .orthobasis import (
    OrthogonalBasis,
    WeightSpec,
    build_continuous,
    build_discrete,
    inner_product,
)
from .lsq import (
    DataSet,
    FitResult,
    add_noise,
    expand_to_monomial,
    fit_continuous_normal,
    fit_discrete_normal,
    fit_projection,
    predict,
)
from .fraccalc import (
    FdeProblem,
    FracFunction,
    apply_operator,
    caputo_derivative,
    fde_abs_error,
    solve_fde,
)
from .pricing import GbmConfig, LsmcJob, PriceResult, price_american_put, simulate_paths

__version__ = "0.1.0"

__all__ = [
    "ConditioningError", "ConvergenceError", "DegeneracyError", "DomainError",
    "FraclsqError", "RankDeficiencyError", "UsageError",
    "gamma", "mittag_leffler",
    "FractionalPolynomial", "frac_poly_eval", "muntz_legendre_coeffs",
    "muntz_legendre_eval",
    "QuadratureRule", "common_step", "frac_moment", "gauss_jacobi",
    "gauss_legendre", "integrate", "substituted_rule", "weighted_rule",
    "OrthogonalBasis", "WeightSpec", "build_continuous", "build_discrete",
    "inner_product",
    "DataSet", "FitResult", "add_noise", "expand_to_monomial",
    "fit_continuous_normal", "fit_discrete_normal", "fit_projection", "predict",
    "FdeProblem", "FracFunction", "apply_operator", "caputo_derivative",
    "fde_abs_error", "solve_fde",
    "GbmConfig", "LsmcJob", "PriceResult", "price_american_put", "simulate_paths",
]
