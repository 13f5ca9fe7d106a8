import fraclsq


def test_public_names_are_stable():
    assert fraclsq.__all__ == [
        "ConditioningError", "ConvergenceError", "DegeneracyError", "DomainError",
        "FraclsqError", "RankDeficiencyError", "UsageError",
        "gamma", "mittag_leffler",
        "FractionalPolynomial", "JacobiParams", "frac_poly_eval",
        "frac_poly_linear_combine", "frac_poly_shift_mul", "jacobi_eval",
        "muntz_legendre_coeffs", "muntz_legendre_eval",
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
