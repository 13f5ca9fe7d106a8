import importlib
import math
import pkgutil

import numpy as np
import pytest

import fraclsq


def test_public_names_are_stable():
    assert fraclsq.__all__ == [
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
    assert all(hasattr(fraclsq, name) for name in fraclsq.__all__)


def _lambda_entry_points(lam):
    """Every public entry point that takes a ladder step, called with ``lam``."""
    gbm = fraclsq.GbmConfig(s0=1.0, r=0.0, sigma=0.1, horizon=1.0, steps=2, paths=2)
    data = fraclsq.DataSet([0.1, 0.5, 0.9], [1.0, 2.0, 3.0])
    prob = fraclsq.FdeProblem(terms=((0.5, 1.0),), rhs=np.exp)
    return [
        lambda: fraclsq.FractionalPolynomial(lam, (1.0,)),
        lambda: fraclsq.muntz_legendre_coeffs(1, lam),
        lambda: fraclsq.muntz_legendre_eval(1, lam, 0.5),
        lambda: fraclsq.weighted_rule(4, lam),
        lambda: fraclsq.build_continuous(fraclsq.WeightSpec.unit(), lam, 1),
        lambda: fraclsq.build_discrete(None, [0.1, 0.5, 0.9], lam, 1),
        lambda: fraclsq.fit_continuous_normal(np.exp, 0.0, 1.0, lam, 1),
        lambda: fraclsq.fit_discrete_normal(data, lam, 1),
        lambda: fraclsq.solve_fde(prob, lam, 1),
        lambda: fraclsq.LsmcJob(gbm=gbm, strike=1.0, lam=lam),
    ]


@pytest.mark.parametrize("lam", [0.0, -0.5, 2.5, math.nan])
def test_every_entry_point_applies_one_lambda_policy(lam):
    for call in _lambda_entry_points(lam):
        with pytest.raises(fraclsq.DomainError) as info:
            call()
        assert str(info.value) == f"lambda must lie in (0, 2], got {lam}"


def test_every_module_export_resolves():
    # a stale name left in a module's __all__ fails here, not at import *;
    # importing __main__ must not run the CLI
    for info in pkgutil.iter_modules(fraclsq.__path__):
        module = importlib.import_module(f"fraclsq.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"fraclsq.{info.name}.__all__ names {name}"
