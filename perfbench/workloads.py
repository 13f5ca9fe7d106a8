"""The four benchmark workloads: job pools, job execution and the oracle.

Every workload is a list of strata.  A stratum fixes the properties that
decide which code path a job takes and roughly what it costs (basis kind,
degree, exponent class, problem size band); its variants fill in the rest
(coefficients, exponents, seeds) from a fixed pool seed.  One *round* runs
every stratum once, in an order and with variants drawn from the run's
``--seed``.  Runs measure whole rounds, so every run sees the same traffic
mix and seeds only change which variants appear; that keeps run-to-run
spreads small without hiding any part of the mix.

The pool is finite (``VARIANTS`` per stratum) so that reference outputs for
every job the stream can produce are recorded in ``refs/<workload>.json``
(see ``record.py``) and each job's output is checked against them.
"""

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

import fraclsq as fl
from fraclsq import cli, functions

#: fixes the variant pool; the references in refs/ were recorded on it
POOL_SEED = 20240501
VARIANTS = 8
#: every predict() call evaluates this many grid points
GRID_POINTS = 10_000
#: grid indices whose predictions are stored as references
_REF_IDX = np.linspace(0, GRID_POINTS - 1, 101).astype(int)

# Oracle tolerances.  Exact-arithmetic outputs must match bit for bit.  The
# sampled-route tolerances are no looser than the acceptance gates they
# correspond to (1e-9 for Muntz-Legendre/projection values, 3 standard errors
# for prices).
PRED_RTOL = 1e-9        # max |pred - ref| <= PRED_RTOL * max |ref|
RESID_RTOL = 1e-9       # |sqrt(E) - sqrt(E_ref)| <= RESID_RTOL * ||y||_w
PRICE_SE = 0.5          # |price - ref| <= PRICE_SE * std_error_ref
EURO_RTOL = 1e-10       # european value depends on the paths only
NOISE_RTOL = 1e-12      # seeded noise injection is plain arithmetic


@dataclass(frozen=True)
class Stratum:
    name: str
    kind: str
    fixed: tuple = ()
    variants: int = VARIANTS


def spec_digest(spec):
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:16]


def _rng(workload_key, stratum_name, variant):
    # Python's hash() is salted per process, so the name is hashed explicitly
    name_key = int(hashlib.sha256(stratum_name.encode()).hexdigest()[:8], 16)
    return np.random.default_rng([POOL_SEED, workload_key, name_key, variant])


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def _r2(x):
    return round(float(x), 2)


def _hexes(values):
    return [float(v).hex() for v in values]


def _close(got, ref, rtol, scale, what):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return [f"{what}: shape {got.shape} != {ref.shape}"]
    dev = float(np.max(np.abs(got - ref))) if got.size else 0.0
    if not dev <= rtol * scale:
        return [f"{what}: deviation {dev:.3e} > {rtol:g} * {scale:.3e}"]
    return []


def _grid_refs(values):
    values = np.asarray(values, dtype=float)
    return {"pred": values[_REF_IDX].tolist(), "pred_max": float(np.max(np.abs(values)))}


def _check_grid(out, ref):
    scale = max(ref["pred_max"], 1e-300)
    return (_close(out["pred"], ref["pred"], PRED_RTOL, scale, "predictions")
            + _close(out["pred_max"], ref["pred_max"], PRED_RTOL, scale, "max |prediction|"))


class Workload:
    """A named list of strata plus the job semantics behind them."""

    name = ""
    why = ""
    strata = ()

    def spec(self, stratum, variant):
        """Parameters of one pool job as a JSON-able dict."""
        raise NotImplementedError

    def warmups(self):
        """One small job per job kind, run during set-up."""
        raise NotImplementedError

    def job(self, spec, workdir):
        """Build the inputs of ``spec`` and return a call that runs it.

        Input construction happens here, outside the timed call; the
        returned callable returns the job's output as a JSON-able dict.
        """
        raise NotImplementedError

    def finish(self, spec, raw):
        """Turn a job's raw return value into the output the oracle compares."""
        return raw

    def check(self, out, ref):
        """List of oracle violations (empty when ``out`` matches ``ref``)."""
        raise NotImplementedError

    def shape(self, spec, out):
        """Traffic-shape tags of a checked job, summarized per run."""
        return {}

    def pool(self):
        """(job id, spec) for every job the stream can produce."""
        for s in self.strata:
            for v in range(s.variants):
                yield f"{s.name}/{v}", self.spec(s, v)


# ---------------------------------------------------------------------------
# fde_exact: exact-moment solve_fde
# ---------------------------------------------------------------------------

_OFF_LADDER_EXPONENTS = (1.1, 1.6, 2.3, 3.1)


def _fde_variant(rng, lam, orders, n, reaction, in_ladder, variant):
    """Seeded coefficients and exact solution for a stratum's fixed structure.

    Odd variants give the solution a nonzero initial value; the solution's
    exponents are >= every order, as the Caputo power rule needs.
    """
    c0 = _r2(rng.uniform(-1, 1)) if variant % 2 else 0.0
    if in_ladder:
        ks = sorted(set(int(k) for k in rng.integers(1, min(n, 4) + 1, size=2)))
        sol = [[c0, 0.0]] + [[_r2(rng.uniform(-2, 2)) or 1.0, k * lam] for k in ks]
    else:
        beta = _pick(rng, [b for b in _OFF_LADDER_EXPONENTS
                           if abs(b / lam - round(b / lam)) > 1e-9])
        sol = [[c0, 0.0], [_r2(rng.uniform(0.5, 2)), beta]]
    return {
        "terms": [[a, _r2(rng.uniform(0.5, 2.0))] for a in orders],
        "reaction": _r2(rng.uniform(0.5, 2.0)) if reaction else 0.0,
        "solution": sol, "lam": lam, "in_ladder": in_ladder,
    }


def fde_problem(spec):
    """Manufactured problem: rhs = L[y] for the spec's exact solution y."""
    bare = fl.FdeProblem(terms=tuple(map(tuple, spec["terms"])), reaction=spec["reaction"])
    y = fl.FracFunction.from_terms([tuple(p) for p in spec["solution"]])
    prob = fl.FdeProblem(terms=bare.terms, reaction=bare.reaction,
                         rhs=fl.apply_operator(bare, y), initial_value=y.at_zero())
    return prob, y


def _is_dyadic(x):
    return float(x) * 64 == int(float(x) * 64)


class FdeExact(Workload):
    name = "fde_exact"
    why = ("exact-rational solve_fde: Fraction Gram assembly and exact refinement, "
           "nearly nothing else runs")
    # (basis, n, lambda, Caputo orders, reaction term, solution in the ladder).
    # Every order is <= lambda, so x^lambda stays differentiable; the seeded
    # strata split between dyadic exponents (0.25/0.5/0.75) and others
    # (0.3/0.7/0.9/1.39); lambda == order takes the semidefinite route.  The
    # structure is fixed per stratum so that variants cost about the same,
    # and every seeded stratum costs less than the cheaper anchor.
    strata = (
        # the n=10 anchor runs twice per round, so that the 90th percentile
        # falls well inside its samples
        Stratum("ml_multi_n14", "anchor", (14,), 1),
        Stratum("ml_multi_n10", "anchor", (10,), 1),
        Stratum("ml_multi_n10_again", "anchor", (10,), 1),
        *(Stratum(f"{b[:2]}_n{n}_l{lam}_a{'+'.join(map(str, orders))}"
                  f"{'_r' if r else ''}{'_in' if l else '_off'}", "seeded",
                  (b, n, lam, orders, r, l)) for b, n, lam, orders, r, l in (
            ("muntz_legendre", 4, 1.39, (0.3, 0.7, 0.9), True, True),
            ("muntz_legendre", 5, 0.75, (0.25, 0.5), False, False),
            ("muntz_legendre", 6, 0.75, (0.25, 0.5, 0.75), True, False),
            ("muntz_legendre", 8, 0.5, (0.25, 0.5), True, True),
            ("muntz_legendre", 8, 0.7, (0.3,), True, False),
            ("muntz_legendre", 10, 0.3, (0.3,), True, False),
            ("muntz_legendre", 12, 0.25, (0.25,), False, True),
            ("muntz_legendre", 14, 0.7, (0.3,), False, False),
            ("monomial", 5, 0.7, (0.3, 0.7), True, True),
            ("monomial", 7, 0.9, (0.3, 0.45, 0.7), False, False),
            ("monomial", 9, 1.39, (0.7,), True, False),
            ("monomial", 10, 0.5, (0.25, 0.5), False, True),
            ("monomial", 12, 0.25, (0.25,), False, False),
            ("monomial", 14, 0.75, (0.25, 0.5, 0.75), False, True),
        )),
    )

    def spec(self, stratum, variant):
        if stratum.kind == "anchor":
            # ROADMAP baseline: multi-term problem, Muntz-Legendre, lambda 0.75
            prob, y = functions.multi_term_problem()
            return {"terms": [list(t) for t in prob.terms], "reaction": prob.reaction,
                    "solution": [[c, e] for e, c in y.terms], "lam": 0.75,
                    "in_ladder": False, "n": stratum.fixed[0], "basis": "muntz_legendre"}
        basis, n, lam, orders, reaction, in_ladder = stratum.fixed
        sp = _fde_variant(_rng(1, stratum.name, variant), lam, orders, n,
                          reaction, in_ladder, variant)
        sp.update(n=n, basis=basis)
        return sp

    def warmups(self):
        return [{"terms": [[0.5, 1.0]], "reaction": 1.0, "solution": [[0.0, 0.0], [1.0, 1.0]],
                 "lam": 0.5, "in_ladder": True, "n": 3, "basis": b}
                for b in ("monomial", "muntz_legendre")]

    def job(self, spec, workdir):
        prob, _ = fde_problem(spec)

        def run():
            fit = fl.solve_fde(prob, spec["lam"], spec["n"], spec["basis"])
            return {"coeffs": _hexes(fit.coeffs), "error": float(fit.error).hex()}
        return run

    def check(self, out, ref):
        bad = []
        if out["coeffs"] != ref["coeffs"]:
            bad.append("coefficients differ from the exact-path reference bits")
        if out["error"] != ref["error"]:
            bad.append(f"error {out['error']} != reference {ref['error']}")
        return bad

    def shape(self, spec, out):
        exps = [spec["lam"]] + [a for a, _ in spec["terms"]]
        return {"dyadic": all(_is_dyadic(e) for e in exps), "in_ladder": spec["in_ladder"],
                "muntz_legendre": spec["basis"] == "muntz_legendre"}


# ---------------------------------------------------------------------------
# lsmc: Longstaff-Schwartz pricing
# ---------------------------------------------------------------------------

_MONEYNESS = {"otm": (0.8, 0.95), "atm": (0.95, 1.05), "itm": (1.05, 1.3),
              "deep": (1.3, 1.6)}
_SIGMA = {"lo": (0.1, 0.4), "hi": (0.4, 0.8)}
LSMC_PATHS, LSMC_STEPS = 10_000, 50


class Lsmc(Workload):
    name = "lsmc"
    why = ("many tiny per-date regressions through lsq and solvers plus path "
           "simulation; fraccalc idle")
    strata = (
        Stratum("t9_lam075", "anchor", (), 1),
        *(Stratum(f"{m}_{s}_d{d}", "seeded", (m, s, d))
          for m in _MONEYNESS for s in _SIGMA for d in (2, 3)),
    )

    def spec(self, stratum, variant):
        if stratum.kind == "anchor":
            # the reference table's job: S0=38, K=48, sigma=0.71, T=1/6, 60 dates
            return {"s0": 38.0, "r": 0.05, "sigma": 0.71, "horizon": 1.0 / 6.0,
                    "steps": 60, "paths": 10_000, "seed": 1, "strike": 48.0,
                    "lam": 0.75, "degree": 2}
        m, s, d = stratum.fixed
        rng = _rng(2, stratum.name, variant)
        s0 = _r2(rng.uniform(20, 100))
        return {
            "s0": s0, "r": round(float(rng.uniform(0.0, 0.08)), 3),
            "sigma": _r2(rng.uniform(*_SIGMA[s])),
            "horizon": round(float(math.exp(rng.uniform(math.log(1 / 12), 0.0))), 4),
            "steps": LSMC_STEPS, "paths": LSMC_PATHS, "seed": int(rng.integers(2**31)),
            "strike": _r2(s0 * rng.uniform(*_MONEYNESS[m])),
            "lam": _r2(rng.uniform(0.05, 2.0)), "degree": d,
        }

    def warmups(self):
        return [{"s0": 40.0, "r": 0.05, "sigma": 0.3, "horizon": 0.5, "steps": 10,
                 "paths": 2000, "seed": 3, "strike": 44.0, "lam": 1.0, "degree": 2}]

    def job(self, spec, workdir):
        job = fl.LsmcJob(
            gbm=fl.GbmConfig(s0=spec["s0"], r=spec["r"], sigma=spec["sigma"],
                             horizon=spec["horizon"], steps=spec["steps"],
                             paths=spec["paths"], seed=spec["seed"]),
            strike=spec["strike"], lam=spec["lam"], basis_degree=spec["degree"])

        def run():
            res = fl.price_american_put(job)
            return {"price": res.price, "std_error": res.std_error,
                    "european": res.european, "skipped": len(res.skipped_dates)}
        return run

    def check(self, out, ref):
        bad = []
        if not abs(out["price"] - ref["price"]) <= PRICE_SE * ref["std_error"]:
            bad.append(f"price {out['price']!r} vs reference {ref['price']!r} "
                       f"(tolerance {PRICE_SE} * SE {ref['std_error']:.4g})")
        bad += _close(out["european"], ref["european"], EURO_RTOL,
                      max(abs(ref["european"]), 1e-12), "european value")
        return bad

    def shape(self, spec, out):
        return {"dyadic_lambda": _is_dyadic(spec["lam"]),
                "skipped_date_share": out["skipped"] / (spec["steps"] - 1)}


# ---------------------------------------------------------------------------
# fit_predict: large fits, continuous fits, quadrature-path solve, predict
# ---------------------------------------------------------------------------

_FIT_LAMBDAS = (0.5, 0.75, 1.0, 1.5, 0.3, 0.7, 1.39, 1.1)
_DATA_TARGETS = {
    "x075+x15": lambda x: x**0.75 + x**1.5,
    "exp": np.exp,
    "rational": lambda x: 1.0 / (1.0 + x),
    "sin": lambda x: 2.0 + np.sin(3.0 * x),
    "x139": lambda x: x**1.39,
}
_CONT_FUNCTIONS = ("x075+x15", "x15", "sqrt-shift", "x35+x4", "x075", "ml-population")
# (function, lambda) pairs for continuous normal fits.  How long the solver's
# Fraction refinement runs depends erratically on the case, so the cases are
# split by measured cost: a few milliseconds at n=4, and 20-40 ms at n=8
# (refinement runs to its iteration cap, mostly on targets in the ladder).
_CN_QUICK = (("x075+x15", 1.0), ("x075+x15", 0.3), ("x15", 0.7), ("x35+x4", 1.39),
             ("x075", 1.1), ("sqrt-shift", 0.7), ("ml-population", 0.5))
_CN_REFINING = (("x075+x15", 0.75), ("x35+x4", 0.5), ("x075", 0.75), ("ml-population", 1.39))
# lambdas chosen so the operator images are commensurable (x^step substitution
# rule) or, for 1/sqrt(2), not (Gauss-Legendre fallback)
_FQ_CASES = (
    (0.5, ((0.5, 1.0),), 0.0), (0.75, ((0.5, 1.0), (0.25, 1.0)), 1.0),
    (0.7, ((0.3, 1.0),), 1.0), (1.39, ((0.7, 1.0),), 0.0),
    (2 ** -0.5, ((0.5, 1.0),), 1.0), (2 ** -0.5, ((0.3, 1.0), (0.7, 0.5)), 0.0),
)


def fit_data(spec):
    rng = np.random.default_rng(spec["data_seed"])
    n_pts = spec["points"]
    xs = (np.arange(n_pts) + rng.uniform(0.05, 0.95, n_pts)) / n_pts  # distinct, sorted
    ys = _DATA_TARGETS[spec["target"]](xs)
    if spec["noise"]:
        ys = ys * (1.0 + spec["noise"] * rng.standard_normal(n_pts))
    w = rng.uniform(0.5, 2.0, n_pts) if spec["weighted"] else None
    return fl.DataSet(xs, ys, w)


def _callable_only(f):
    """Hide a FracFunction behind a plain callable: forces the quadrature path."""
    return lambda x: f(x)


class FitPredict(Workload):
    name = "fit_predict"
    why = ("few large systems through lsq/solvers, quadrature and basis builds, "
           "and predict on all three basis kinds")
    # Sizes and degrees are fixed per stratum, so variants cost about the same.
    # The discrete fits sit on a log-uniform grid of N from 10^3 to 10^6.
    # With 15 strata per round the 90th percentile falls inside the second
    # most expensive stratum and the median inside the eighth, the 10^4-point
    # n=6 normal fit; the strata next to it in cost are well apart from it.
    strata = (
        Stratum("dn_1e6", "anchor", ("discrete_normal", 6.0, 6), 1),
        Stratum("fq_ml_n10", "anchor", ("fde_quadrature", "muntz_legendre", 10), 1),
        *(Stratum(f"dn_1e{e}_n{n}", "seeded", ("discrete_normal", e, n))
          for e, n in ((3.0, 2), (4.0, 6), (5.0, 4), (5.5, 6))),
        *(Stratum(f"dp_1e{e}_n{n}", "seeded", ("discrete_projection", e, n))
          for e, n in ((3.5, 5), (4.0, 6), (4.5, 3), (6.0, 4))),
        Stratum("cn_n4", "seeded", ("continuous_normal", 4, _CN_QUICK)),
        Stratum("cn_n8_refining", "seeded", ("continuous_normal", 8, _CN_REFINING)),
        Stratum("jp_n6", "seeded", ("jacobi_projection", 6)),
        Stratum("fq_mono_n4", "seeded", ("fde_quadrature", "monomial", 4)),
        Stratum("fq_ml_n5", "seeded", ("fde_quadrature", "muntz_legendre", 5)),
    )

    def spec(self, stratum, variant):
        kind = stratum.fixed[0]
        if stratum.name == "dn_1e6":
            # ROADMAP baseline: fit_discrete_normal on 10^6 points, n = 6
            return {"kind": kind, "points": 10**6, "lam": 0.5, "n": 6, "target": "exp",
                    "noise": 0.01, "weighted": False, "data_seed": 6}
        if stratum.name == "fq_ml_n10":
            # ROADMAP baseline: predict on a Muntz-Legendre n = 10 fit, 10k points
            return {"kind": kind, "lam": 0.75, "n": 10, "basis": "muntz_legendre",
                    "terms": [[0.5, 1.0], [0.25, 1.0]], "reaction": 1.0,
                    "solution": [[1.0, 3.5], [1.0, 4.0]]}
        rng = _rng(3, stratum.name, variant)
        lam = _pick(rng, _FIT_LAMBDAS)
        if kind in ("discrete_normal", "discrete_projection"):
            _, log10_points, n = stratum.fixed
            return {"kind": kind, "points": int(round(10**log10_points)), "lam": lam, "n": n,
                    "target": _pick(rng, sorted(_DATA_TARGETS)),
                    "noise": _pick(rng, (0.0, 0.01)), "weighted": bool(variant % 2),
                    "data_seed": int(rng.integers(2**31))}
        if kind == "continuous_normal":
            function, lam = _pick(rng, stratum.fixed[2])
            return {"kind": kind, "function": function, "lam": lam, "n": stratum.fixed[1]}
        if kind == "jacobi_projection":
            return {"kind": kind, "function": _pick(rng, _CONT_FUNCTIONS), "lam": lam,
                    "n": stratum.fixed[1],
                    "beta_left": _pick(rng, (0.0, 0.5, -0.5)),
                    "beta_right": _pick(rng, (-0.5, 0.5, -0.25))}
        _, basis, n = stratum.fixed
        lam, terms, reaction = _pick(rng, _FQ_CASES)
        beta = _pick(rng, (1.1, 1.6, 2.3))
        return {"kind": kind, "lam": lam, "n": n, "basis": basis,
                "terms": [list(t) for t in terms], "reaction": reaction,
                "solution": [[_r2(rng.uniform(0.5, 2)), beta]]}

    def warmups(self):
        data = {"points": 500, "lam": 0.5, "n": 2, "target": "exp", "noise": 0.0,
                "weighted": False, "data_seed": 1}
        return [
            {"kind": "discrete_normal", **data},
            {"kind": "discrete_projection", **data},
            {"kind": "continuous_normal", "function": "x15", "lam": 0.5, "n": 2},
            {"kind": "jacobi_projection", "function": "x15", "lam": 0.5, "n": 2,
             "beta_left": 0.0, "beta_right": -0.5},
            {"kind": "fde_quadrature", "lam": 0.5, "n": 3, "basis": "muntz_legendre",
             "terms": [[0.5, 1.0]], "reaction": 0.0, "solution": [[1.0, 1.5]]},
        ]

    def job(self, spec, workdir):
        kind = spec["kind"]
        if kind in ("discrete_normal", "discrete_projection"):
            data = fit_data(spec)
            grid = np.linspace(data.xs[0], data.xs[-1], GRID_POINTS)
            yy = float(np.sum(data.weight_array() * data.ys**2))

            def fit():
                if kind == "discrete_normal":
                    return fl.fit_discrete_normal(data, spec["lam"], spec["n"])
                basis = fl.build_discrete(data.weights, data.xs, spec["lam"], spec["n"])
                return fl.fit_projection(data, basis)
        elif kind in ("continuous_normal", "jacobi_projection"):
            target = functions.lookup(spec["function"])
            grid = np.linspace(0.0, 1.0, GRID_POINTS)
            yy = 1.0

            def fit():
                if kind == "continuous_normal":
                    return fl.fit_continuous_normal(target, 0.0, 1.0, spec["lam"], spec["n"])
                weight = fl.WeightSpec.jacobi(spec["beta_left"], spec["beta_right"])
                basis = fl.build_continuous(weight, spec["lam"], spec["n"])
                return fl.fit_projection(target, basis)
        else:
            prob, _ = fde_problem(spec)
            prob = fl.FdeProblem(terms=prob.terms, reaction=prob.reaction,
                                 rhs=_callable_only(prob.rhs),
                                 initial_value=prob.initial_value)
            grid = np.linspace(0.0, 1.0, GRID_POINTS)
            yy = 1.0

            def fit():
                return fl.solve_fde(prob, spec["lam"], spec["n"], spec["basis"])

        def run():
            f = fit()
            pred = fl.predict(f, grid)
            return {"basis": f.basis, "resid": math.sqrt(f.error), "scale": math.sqrt(yy),
                    **_grid_refs(pred)}
        return run

    def check(self, out, ref):
        bad = [] if out["basis"] == ref["basis"] else [f"basis {out['basis']} != {ref['basis']}"]
        bad += _close(out["resid"], ref["resid"], RESID_RTOL, ref["scale"], "residual norm")
        return bad + _check_grid(out, ref)

    def shape(self, spec, out):
        tags = {"dyadic": _is_dyadic(spec["lam"]), "kind": spec["kind"]}
        if "points" in spec:
            tags["log10_points"] = round(math.log10(spec["points"]), 1)
        return tags


# ---------------------------------------------------------------------------
# cli_reproduce: in-process CLI calls
# ---------------------------------------------------------------------------

_TABLES = ("T1", "T2", "T4", "T6", "T8", "T9", "T10")
_FDE_RHS = ("fde-single-rhs", "fde-multi-rhs", "x075+x15", "x15", "x35+x4")
# exact-path solves on the Muntz-Legendre basis at n=8: (lambda, alphas, coeffs)
_FDE_CLI_CASES = ((0.75, "0.5,0.25", ""), (0.5, "0.25,0.5", "1,2"), (0.75, "0.25,0.5", "2,1"))
#: rows of the seeded CSV inputs: large enough that reading them dominates
FIT_CSV_ROWS, NOISE_CSV_ROWS = 40_000, 20_000
#: every NOISE_SAMPLE-th value of the noise verb's output is kept as reference
NOISE_SAMPLE = 500


def _csv_text(spec):
    data = fit_data(spec)
    rows = ["x,y"] + [f"{x!r},{y!r}" for x, y in zip(data.xs.tolist(), data.ys.tolist())]
    return "\n".join(rows) + "\n"


class CliReproduce(Workload):
    name = "cli_reproduce"
    why = ("the only path through cli and reproduce: every reference table and "
           "every other verb on seeded inputs")
    # 13 strata: six cost under 20 ms (T1, T2, T4, T6, orthpoly, fit on a
    # named function), the median is T10 (~70 ms), and six cost over 120 ms
    # (CSV fit and noise on large files, an n=8 solve, price, T8, T9), so the
    # median sits inside T10's samples and the 90th percentile inside T9's.
    strata = (
        *(Stratum(f"reproduce_{t}", "table", (t,), 1) for t in _TABLES),
        Stratum("fit_csv", "verb"), Stratum("fit_function", "verb"),
        Stratum("orthpoly", "verb"), Stratum("solve_fde", "verb"),
        Stratum("price", "verb"), Stratum("noise", "verb"),
    )

    def spec(self, stratum, variant):
        if stratum.kind == "table":
            return {"argv": ["reproduce", stratum.fixed[0]]}
        rng = _rng(4, stratum.name, variant)
        lam = _pick(rng, _FIT_LAMBDAS)
        if stratum.name in ("fit_csv", "noise"):
            data = {"points": FIT_CSV_ROWS if stratum.name == "fit_csv" else NOISE_CSV_ROWS,
                    "target": _pick(rng, sorted(_DATA_TARGETS)), "noise": 0.01,
                    "weighted": False, "data_seed": int(rng.integers(2**31))}
            if stratum.name == "noise":
                return {"argv": ["noise", "--input", "{csv}", "--percent",
                                 str(_pick(rng, (1, 5, 10))), "--seed", str(variant)],
                        "csv": data}
            return {"argv": ["fit", "--input", "{csv}", "--lambda",
                             f"{lam},{_pick(rng, _FIT_LAMBDAS)}", "--degree", "3",
                             "--method", _pick(rng, ("normal", "projection")),
                             "--predict", "0.1,0.5,0.9"], "csv": data}
        if stratum.name == "fit_function":
            argv = ["fit", "--function", _pick(rng, _CONT_FUNCTIONS), "--lambda", str(lam),
                    "--degree", str(int(rng.integers(1, 6))), "--predict", "0.25,0.5,0.9"]
            if variant % 2:
                argv += ["--method", "projection", "--weight",
                         f"jacobi:{_pick(rng, ('0', '0.5'))}:{_pick(rng, ('-0.5', '0.5'))}"]
            return {"argv": argv}
        if stratum.name == "orthpoly":
            return {"argv": ["orthpoly", "--weight", _pick(rng, ("unit", "jacobi:0:-0.5",
                                                                 "jacobi:0.5:0")),
                             "--lambda", str(lam), "--degree", str(int(rng.integers(2, 9)))]}
        if stratum.name == "solve_fde":
            lam, alphas, coeffs = _pick(rng, _FDE_CLI_CASES)
            argv = ["solve-fde", "--alphas", alphas, "--rhs", _pick(rng, _FDE_RHS),
                    "--reaction", str(_pick(rng, (0.0, 1.0))), "--lambda", str(lam),
                    "--degree", "8", "--basis", "muntz_legendre"]
            return {"argv": argv + (["--term-coeffs", coeffs] if coeffs else [])}
        s0 = _r2(rng.uniform(20, 100))
        return {"argv": ["price", "--s0", str(s0), "--rate", "0.05",
                         "--sigma", str(_r2(rng.uniform(0.1, 0.8))),
                         "--strike", str(_r2(s0 * rng.uniform(0.8, 1.4))),
                         "--horizon", str(_pick(rng, (0.25, 0.5, 1.0))),
                         "--steps", "50", "--paths", "10000", "--lambda", str(lam),
                         "--seed", str(variant)]}

    def warmups(self):
        csv = {"points": 20, "target": "exp", "noise": 0.0, "weighted": False, "data_seed": 1}
        return [
            {"argv": ["reproduce", "T6"]},
            {"argv": ["fit", "--input", "{csv}", "--lambda", "0.5", "--degree", "1"], "csv": csv},
            {"argv": ["orthpoly", "--lambda", "0.5", "--degree", "2"]},
            {"argv": ["solve-fde", "--alphas", "0.5", "--rhs", "fde-single-rhs",
                      "--lambda", "0.5", "--degree", "2"]},
            {"argv": ["price", "--s0", "40", "--rate", "0.05", "--sigma", "0.3", "--strike",
                      "44", "--horizon", "0.5", "--steps", "10", "--paths", "2000",
                      "--lambda", "1"]},
            {"argv": ["noise", "--input", "{csv}", "--percent", "5"], "csv": csv},
        ]

    def job(self, spec, workdir):
        argv = spec["argv"]
        if "csv" in spec:
            path = workdir / f"data-{spec_digest(spec['csv'])}.csv"
            if not path.exists():
                path.write_text(_csv_text(spec["csv"]), encoding="utf-8")
            argv = [str(path) if a == "{csv}" else a for a in argv]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return {"exit": code, "stdout": buf.getvalue()}
        return run

    def finish(self, spec, raw):
        """Reduce captured stdout to the fields the oracle compares."""
        verb, text = spec["argv"][0], raw["stdout"]
        out = {"exit": raw["exit"], "bytes": len(text.encode())}
        if verb == "reproduce":
            rows = {}
            for line in text.splitlines():
                status, _, rest = line.partition("  ")
                if status in ("PASS", "FAIL"):
                    rows[rest.split(": computed=")[0]] = status
            out["rows"] = rows
        elif verb == "noise":
            values = np.array([float(v) for line in text.splitlines()[1:]
                               for v in line.split(",")])
            out.update(values=values[::NOISE_SAMPLE].tolist(), count=len(values),
                       sum=float(values.sum()), max_abs=float(np.max(np.abs(values))))
        else:
            out["doc"] = json.loads(text)
        return out

    def check(self, out, ref):
        if out["exit"] != ref["exit"]:
            return [f"exit code {out['exit']} != {ref['exit']}"]
        if "rows" in ref:
            return [] if out["rows"] == ref["rows"] else ["PASS/FAIL pattern differs by row label"]
        if "values" in ref:
            if out["count"] != ref["count"]:
                return [f"{out['count']} noisy values, reference has {ref['count']}"]
            scale = max(ref["max_abs"], 1e-300)
            return (_close(out["values"], ref["values"], NOISE_RTOL, scale, "noisy values")
                    + _close(out["sum"], ref["sum"], NOISE_RTOL, scale * ref["count"],
                             "sum of noisy values"))
        got, want = out["doc"], ref["doc"]
        job = want["job"]
        if job == "solve-fde":
            bad = []
            if _hexes(got["coeffs"]) != _hexes(want["coeffs"]) or \
                    float(got["error"]).hex() != float(want["error"]).hex():
                bad.append("solve-fde exact-path coefficients/error differ from reference bits")
            samples = [s["value"] for s in want["solution_samples"]]
            scale = max(np.max(np.abs(samples)), 1e-300)
            return bad + _close([s["value"] for s in got["solution_samples"]], samples,
                                PRED_RTOL, scale, "solution samples")
        if job == "price":
            bad = []
            if not abs(got["price"] - want["price"]) <= PRICE_SE * want["std_error"]:
                bad.append(f"price {got['price']!r} vs reference {want['price']!r}")
            return bad + _close(got["european"], want["european"], EURO_RTOL,
                                abs(want["european"]), "european value")
        if job == "orthpoly":
            bad = []
            for key in ("B", "C", "sq_norms"):
                scale = max(np.max(np.abs(want[key])), 1e-300) if want[key] else 1.0
                bad += _close(got[key], want[key], PRED_RTOL, scale, key)
            return bad
        got_fits, want_fits = got.get("results", [got]), want.get("results", [want])
        if len(got_fits) != len(want_fits):
            return [f"{len(got_fits)} fits, reference has {len(want_fits)}"]
        bad = []
        for g, w in zip(got_fits, want_fits):
            preds = [p["value"] for p in w["predictions"]]
            scale = max(np.max(np.abs(preds)), 1e-300)
            bad += _close([p["value"] for p in g["predictions"]], preds, PRED_RTOL, scale,
                          "fit predictions")
            bad += _close(math.sqrt(g["error"]), math.sqrt(w["error"]), RESID_RTOL,
                          max(scale, 1.0), "fit residual norm")
        return bad

    def shape(self, spec, out):
        return {"verb": spec["argv"][0]}


WORKLOADS = {w.name: w for w in (FdeExact(), Lsmc(), FitPredict(), CliReproduce())}
