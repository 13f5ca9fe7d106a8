import ast
import importlib
import inspect
import math
import pickle
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import fraclsq
from fraclsq import fraccalc, fracpoly, functions, lsq, quadrature, reproduce


def test_public_names_are_stable():
    assert fraclsq.__all__ == [
        "ConditioningError", "ConvergenceError", "DegeneracyError", "DomainError",
        "FraclsqError", "RankDeficiencyError", "UsageError",
        "gamma", "mittag_leffler",
        "FractionalPolynomial", "muntz_legendre_coeffs", "muntz_legendre_eval",
        "QuadratureRule", "common_step", "frac_moment", "gauss_jacobi",
        "gauss_legendre", "integrate", "substituted_rule", "weighted_rule",
        "OrthogonalBasis", "WeightSpec", "build_continuous", "build_discrete",
        "DataSet", "FitResult", "add_noise", "expand_to_monomial",
        "fit_continuous_normal", "fit_discrete_normal", "fit_projection", "predict",
        "FdeProblem", "FracFunction", "apply_operator", "caputo_derivative",
        "fde_abs_error", "solve_fde",
        "GbmConfig", "LsmcJob", "PriceResult", "price_american_put", "simulate_paths",
    ]
    assert all(hasattr(fraclsq, name) for name in fraclsq.__all__)


_GBM = fraclsq.GbmConfig(s0=1.0, r=0.0, sigma=0.1, horizon=1.0, steps=2, paths=2)
_DATA = fraclsq.DataSet([0.1, 0.5, 0.9], [1.0, 2.0, 3.0])
_PROB = fraclsq.FdeProblem(terms=((0.5, 1.0),), rhs=np.exp)

#: every public entry point that takes a ladder step, as a call with ``lam``
LAMBDA_ENTRY_POINTS = {
    fraclsq.FractionalPolynomial: lambda lam: fraclsq.FractionalPolynomial(lam, (1.0,)),
    fraclsq.muntz_legendre_coeffs: lambda lam: fraclsq.muntz_legendre_coeffs(1, lam),
    fraclsq.muntz_legendre_eval: lambda lam: fraclsq.muntz_legendre_eval(1, lam, 0.5),
    fraclsq.weighted_rule: lambda lam: fraclsq.weighted_rule(4, lam),
    fraclsq.OrthogonalBasis: lambda lam: fraclsq.OrthogonalBasis(
        lam, (), (), (1.0,), "discrete", np.array([0.5]), np.array([1.0]), 0.5, 0.5),
    fraclsq.build_continuous:
        lambda lam: fraclsq.build_continuous(fraclsq.WeightSpec.unit(), lam, 1),
    fraclsq.build_discrete: lambda lam: fraclsq.build_discrete(None, [0.1, 0.5, 0.9], lam, 1),
    fraclsq.FitResult: lambda lam: fraclsq.FitResult("monomial", lam, [1.0], 0.0, 1.0),
    fraclsq.fit_continuous_normal:
        lambda lam: fraclsq.fit_continuous_normal(np.exp, 0.0, 1.0, lam, 1),
    fraclsq.fit_discrete_normal: lambda lam: fraclsq.fit_discrete_normal(_DATA, lam, 1),
    fraclsq.solve_fde: lambda lam: fraclsq.solve_fde(_PROB, lam, 1),
    fraclsq.LsmcJob: lambda lam: fraclsq.LsmcJob(gbm=_GBM, strike=1.0, lam=lam),
}


@pytest.mark.parametrize("lam", [0.0, -0.5, 2.5, math.nan])
def test_every_entry_point_applies_one_lambda_policy(lam):
    for call in LAMBDA_ENTRY_POINTS.values():
        with pytest.raises(fraclsq.DomainError) as info:
            call(lam)
        assert str(info.value) == f"lambda must lie in (0, 2], got {lam}"


#: every public entry point that takes a ladder degree: a call with ``n`` and
#: the noun and the [least, cap] range (cap None: unbounded) of its message
DEGREE_ENTRY_POINTS = {
    fraclsq.muntz_legendre_coeffs: (lambda n: fraclsq.muntz_legendre_coeffs(n, 0.5),
                                    "degree index", 0, fracpoly.MAX_DIRECT_DEGREE),
    fraclsq.muntz_legendre_eval: (lambda n: fraclsq.muntz_legendre_eval(n, 0.5, 0.5),
                                  "degree index", 0, None),
    fraclsq.build_continuous:
        (lambda n: fraclsq.build_continuous(fraclsq.WeightSpec.unit(), 0.5, n),
         "degree index", 0, None),
    fraclsq.build_discrete:
        (lambda n: fraclsq.build_discrete(None, [0.1, 0.5, 0.9], 0.5, n),
         "degree index", 0, None),
    fraclsq.fit_continuous_normal:
        (lambda n: fraclsq.fit_continuous_normal(np.exp, 0.0, 1.0, 0.5, n),
         "degree index", 0, lsq.MAX_CONTINUOUS_SIZE - 1),
    fraclsq.fit_discrete_normal: (lambda n: fraclsq.fit_discrete_normal(_DATA, 0.5, n),
                                  "degree index", 0, None),
    fraclsq.solve_fde: (lambda n: fraclsq.solve_fde(_PROB, 0.5, n),
                        "degree index", 0, fraccalc.MAX_FDE_SIZE - 1),
    fraclsq.LsmcJob: (lambda n: fraclsq.LsmcJob(gbm=_GBM, strike=1.0, lam=0.5,
                                                basis_degree=n),
                      "basis degree", 1, None),
}


@pytest.mark.parametrize("n", [-1, 2.0, 2.5, "2", None, "cap + 1"])
def test_every_entry_point_applies_one_degree_policy(n):
    for call, noun, least, cap in DEGREE_ENTRY_POINTS.values():
        bad = n
        if n == "cap + 1":
            if cap is None:
                continue
            bad = cap + 1
        rule = f">= {least}" if cap is None else f"in [{least}, {cap}]"
        with pytest.raises(fraclsq.DomainError) as info:
            call(bad)
        assert str(info.value) == f"{noun} must be an integer {rule}, got {bad!r}"


def test_numpy_integer_degrees_are_accepted():
    # the same result, byte for byte, as with a Python int
    for call, _, _, _ in DEGREE_ENTRY_POINTS.values():
        for n in (1, 2):
            assert pickle.dumps(call(np.int64(n))) == pickle.dumps(call(n))
    job = DEGREE_ENTRY_POINTS[fraclsq.LsmcJob][0](np.int32(2))
    assert type(job.basis_degree) is int
    cap = DEGREE_ENTRY_POINTS[fraclsq.solve_fde][3]
    assert fraclsq.solve_fde(_PROB, 0.5, np.int64(cap)).coeffs.shape == (cap + 1,)


#: every rule constructor, called with a point count ``m``
POINT_COUNT_ENTRY_POINTS = {
    "gauss_legendre": lambda m: quadrature.gauss_legendre(m, 0.0, 1.0),
    "gauss_jacobi": lambda m: quadrature.gauss_jacobi(m, 0.5, -0.5, 0.0, 1.0),
    "substituted_rule": lambda m: quadrature.substituted_rule(m, 0.5),
    "weighted_rule": lambda m: quadrature.weighted_rule(m, 0.5, 0.0, -0.5),
    "ladder_rule": lambda m: quadrature.ladder_rule(m, (0.5,), 0.0, 1.0, 0.5),
}


@pytest.mark.parametrize("m", [0, 2.5, 3.0, "3", None, quadrature.MAX_POINTS + 1])
@pytest.mark.parametrize("name", sorted(POINT_COUNT_ENTRY_POINTS))
def test_every_rule_constructor_applies_one_point_count_policy(name, m):
    with pytest.raises(fraclsq.DomainError) as info:
        POINT_COUNT_ENTRY_POINTS[name](m)
    assert str(info.value) == (
        f"point count must be an integer in [1, {quadrature.MAX_POINTS}], got {m!r}")
    assert len(POINT_COUNT_ENTRY_POINTS[name](np.int64(3))) == 3


def test_only_quadrature_builds_rules():
    # every rule in src/ comes from quadrature.ladder_rule, the one picker
    constructors = {"gauss_legendre", "gauss_jacobi", "substituted_rule", "weighted_rule"}
    calls = []
    for path in sorted(Path(fraclsq.__file__).parent.glob("*.py")):
        if path.name == "quadrature.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in constructors:
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert not calls, f"rules built outside quadrature.ladder_rule: {calls}"


def test_only_solvers_holds_exact_systems():
    # the Python-int form of [A | b] is built and read in solvers.py alone: no
    # other module splits a float into ints, takes an lcm of denominators or
    # imports the dyadic split
    found = []
    for path in sorted(Path(fraclsq.__file__).parent.glob("*.py")):
        if path.name == "solvers.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("as_integer_ratio", "lcm"):
                    found.append(f"{path.name}:{node.lineno} {name}")
            elif isinstance(node, ast.ImportFrom) and any(a.name == "_dyadic"
                                                         for a in node.names):
                found.append(f"{path.name}:{node.lineno} imports _dyadic")
    assert not found, f"exact-system arithmetic outside solvers.py: {found}"


def _abscissa_entry_points(x):
    """(call, noun) for every entry point that takes points where x^lam is
    taken, each called with ``x`` among valid points."""
    pts = np.array([0.1, x, 0.9])
    fit = fraclsq.fit_discrete_normal(_DATA, 0.5, 1)
    job = fraclsq.LsmcJob(gbm=_GBM, strike=1.0, lam=0.5, basis_degree=1)
    paths = fraclsq.simulate_paths(job.gbm).copy()
    paths[1, 1] = x
    return [
        (lambda: fraclsq.DataSet(pts, [1.0, 2.0, 3.0]), "xs"),
        (lambda: fraclsq.build_discrete(None, pts, 0.5, 1), "discrete points"),
        (lambda: fraclsq.predict(fit, pts), "fit abscissae"),
        (lambda: fraclsq.FractionalPolynomial(0.5, (1.0, 2.0))(pts),
         "fractional polynomial abscissae"),
        (lambda: fracpoly.muntz_legendre_rungs(1, 0.5, pts), "Muntz-Legendre abscissae"),
        (lambda: fraclsq.price_american_put(job, paths), "path prices"),
    ]


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -1.0])
def test_every_entry_point_applies_one_abscissa_policy(x):
    want = "{} must be finite" if not math.isfinite(x) else \
        f"{{}} must be finite and >= 0, got {x}"
    for call, noun in _abscissa_entry_points(x):
        with pytest.raises(fraclsq.DomainError) as info:
            call()
        assert str(info.value) == want.format(noun)
    for call, _ in _abscissa_entry_points(0.5):
        call()


@pytest.mark.parametrize("w", [math.nan, math.inf, 0.0, -1.0])
def test_every_entry_point_applies_one_weight_policy(w):
    weights = [1.0, w, 1.0]
    for call, noun in [
        (lambda: fraclsq.DataSet([0.1, 0.5, 0.9], [1.0, 2.0, 3.0], weights), "weights"),
        (lambda: fraclsq.build_discrete(weights, [0.1, 0.5, 0.9], 0.5, 1), "weight values"),
    ]:
        with pytest.raises(fraclsq.DomainError) as info:
            call()
        assert str(info.value) == f"{noun} must be finite and strictly positive"


@pytest.mark.parametrize("param", ["lam", "n", "basis_degree"])
def test_every_public_entry_point_is_in_its_policy_test(param):
    # a new public callable taking a ladder step or degree must be added to
    # the matching policy table above, so it cannot skip the boundary check
    policy = LAMBDA_ENTRY_POINTS if param == "lam" else DEGREE_ENTRY_POINTS
    takers = [name for name in fraclsq.__all__
              if param in _parameters(getattr(fraclsq, name))]
    assert takers, f"no public callable takes {param}"
    missing = [name for name in takers if getattr(fraclsq, name) not in policy]
    assert not missing, f"{missing} take {param} but are not policy-tested"


def _parameters(obj):
    try:
        return inspect.signature(obj).parameters
    except (TypeError, ValueError):  # not callable, or a builtin exception type
        return {}


def test_every_module_export_resolves():
    # a stale name left in a module's __all__ fails here, not at import *;
    # importing __main__ must not run the CLI
    for info in pkgutil.iter_modules(fraclsq.__path__):
        module = importlib.import_module(f"fraclsq.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"fraclsq.{info.name}.__all__ names {name}"


def test_every_exception_class_is_defined_in_errors():
    # one error family: exit 2 means UsageError or DomainError, both from errors.py
    homes = {obj.__module__
             for info in pkgutil.iter_modules(fraclsq.__path__)
             for obj in vars(importlib.import_module(f"fraclsq.{info.name}")).values()
             if inspect.isclass(obj) and issubclass(obj, BaseException)
             and obj.__module__.startswith("fraclsq")}
    assert homes == {"fraclsq.errors"}


def test_unknown_names_are_usage_errors():
    with pytest.raises(fraclsq.UsageError, match="unknown function 'nope'"):
        functions.lookup("nope")
    with pytest.raises(fraclsq.UsageError, match="unsupported table id 'T3'"):
        reproduce.run_table("T3")


def test_readme_library_surface_runs():
    # a name retired from the API but left in the README fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library surface", 1)[1].split("```python\n", 1)[1]
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})
