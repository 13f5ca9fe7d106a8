"""Command-line front end.

Verbs: fit, orthpoly, solve-fde, price, reproduce, noise.  Results go to
stdout (and ``--out``) as a single JSON document; floats keep full double
precision via round-trip repr.  Exit codes: 0 success, 2 input error,
3 numerical failure.
"""

import argparse
import contextlib
import csv
import functools
import inspect
import json
import sys
import warnings

import numpy as np

from .errors import DomainError, FraclsqError, UsageError, check_lambda
from .fraccalc import FdeProblem, solve_fde
from .functions import NAMED_FUNCTIONS, lookup
from .lsq import DataSet, add_noise, fit_continuous_normal, fit_discrete_normal, \
    fit_projection, predict
from .orthobasis import WeightSpec, build_continuous, build_discrete
from .pricing import GbmConfig, LsmcJob, price_american_put
from .reproduce import TABLE_JOBS, run_table
from . import lsq, orthobasis, quadrature as quad

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

#: points of the fitted-curve CSV that --curve-out writes
CURVE_SAMPLES = 201


# ---------------------------------------------------------------------------
# small parsers
# ---------------------------------------------------------------------------

def _parse_interval(text):
    try:
        lo, hi = (float(p) for p in text.split(":"))
    except ValueError:
        raise UsageError(f"--interval expects lo:hi, got {text!r}") from None
    return lo, hi


def _parse_floats(flag, text):
    try:
        return [float(p) for p in text.split(",") if p]
    except ValueError:
        raise UsageError(f"{flag} expects a comma-separated number list, got {text!r}") \
            from None


def _parse_weight(text, lo, hi):
    if text == "unit":
        return WeightSpec.unit(lo, hi)
    if text.startswith("jacobi:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"--weight jacobi expects jacobi:bl:br, got {text!r}")
        try:
            bl, br = float(parts[1]), float(parts[2])
        except ValueError:
            raise UsageError(f"non-numeric jacobi exponents in {text!r}") from None
        return WeightSpec.jacobi(bl, br, lo, hi)
    raise UsageError(f"unknown weight {text!r}; use unit or jacobi:bl:br")


def _reject_continuous_flags(args, source):
    """Data from ``source`` (--input, --points-file) fixes the weights and the
    span of a fit or basis, so --weight and --interval may only spell their
    defaults: the unit weight (its exponents both 0) and [0, 1]."""
    if _parse_weight(args.weight, 0.0, 1.0) != WeightSpec.unit():
        raise UsageError(f"--weight applies to continuous fits and bases, not to "
                         f"{source} data")
    if _parse_interval(args.interval) != (0.0, 1.0):
        raise UsageError(f"--interval applies to continuous fits and bases, not to "
                         f"{source} data")


def _basis(args, lam, points=None, weights=None):
    """The orthogonal basis of degree --degree: discrete over ``points`` (with
    ``weights``, None for the unit weight) when given, else continuous under
    --weight on --interval with --quad-points nodes."""
    if points is not None:
        return build_discrete(weights, points, lam, args.degree)
    lo, hi = _parse_interval(args.interval)
    return build_continuous(_parse_weight(args.weight, lo, hi), lam, args.degree,
                            quad_points=args.quad_points)


@contextlib.contextmanager
def _text_input(path, **open_kw):
    """``path`` opened as UTF-8 text, a leading byte-order mark skipped; a
    file that cannot be opened or decoded raises UsageError naming it."""
    try:
        fh = open(path, encoding="utf-8-sig", **open_kw)
    except OSError as exc:
        raise UsageError(f"cannot open {path}: {exc}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path}: not valid UTF-8 text ({exc.reason})") from None


def read_xy_csv(path):
    """Read a CSV with header x,y[,w]; returns a DataSet.

    The body is parsed in one ``np.loadtxt`` pass, which converts fields as
    ``float()`` does, to the same bits.  A file it rejects, or whose column
    count misses the header, is read again by the per-row loop: it takes the
    rarer forms ``float()`` reads (quoted cells, ``1_000``, whitespace-only
    lines) and raises UsageError naming the offending row/column.
    """
    with _text_input(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise UsageError(f"{path}: empty file") from None
        cols = [h.strip().lower() for h in header]
        if cols[:2] != ["x", "y"] or len(cols) > 3 or (len(cols) == 3 and cols[2] != "w"):
            raise UsageError(f"{path}: header must be x,y[,w], got {header}")
        try:
            with warnings.catch_warnings():
                # an empty body reads as shape (0, 1); the loop reports it
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            table = None
        if table is None or table.shape[1] != len(cols):
            fh.seek(0)
            table = _read_xy_rows(fh, path, cols)
    # fresh contiguous columns, as np.array of a list gives
    xs, ys, *ws = map(np.array, table.T)
    try:
        return DataSet(xs, ys, ws[0] if ws else None)
    except DomainError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _read_xy_rows(fh, path, cols):
    """The reference reader: ``float()`` per cell, one row at a time."""
    reader = csv.reader(fh)
    next(reader)  # the header, already checked
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(cols):
            raise UsageError(f"{path}:{lineno}: expected {len(cols)} fields, "
                             f"got {len(row)}")
        vals = []
        for col, cell in zip(cols, row):
            try:
                vals.append(float(cell))
            except ValueError:
                raise UsageError(
                    f"{path}:{lineno}: column {col!r} is not numeric: {cell!r}"
                ) from None
        rows.append(vals)
    if not rows:
        raise UsageError(f"{path}: no data rows")
    return np.array(rows)


def read_points_file(path):
    pts = []
    with _text_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                pts.append(float(line))
            except ValueError:
                raise UsageError(f"{path}:{lineno}: point is not numeric: "
                                 f"{line.strip()!r}") from None
    if not pts:
        raise UsageError(f"{path}: no points")
    return np.array(pts)


def _write_csv(path, header, *columns):
    """Write float columns as ``csv.writer`` would: round-trip reprs and
    ``\\r\\n`` line ends.  ``path`` None writes to stdout."""
    row = ",".join(["{!r}"] * len(columns)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") if path \
            else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(header + "\r\n")
        fh.writelines(map(row.format, *(c.tolist() for c in columns)))


def _emit(doc, out_path):
    text = json.dumps(doc, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _fit_doc(fit, predictions):
    return {
        "basis": fit.basis,
        "lambda": fit.lam,
        "coeffs": fit.coeffs.tolist(),
        "error": fit.error,
        "cond": fit.cond,
        "interval": [fit.lo, fit.hi],
        "predictions": [{"x": x, "value": v} for x, v in predictions],
    }


def _write_curve(path, fit, lo, hi):
    xs = np.linspace(lo, hi, CURVE_SAMPLES)
    _write_csv(path, "x,y_fit", xs, predict(fit, xs))


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def cmd_fit(args):
    lams = _parse_floats("--lambda", args.lam)
    if not lams:
        raise UsageError(f"--lambda expects at least one value, got {args.lam!r}")
    predict_at = _parse_floats("--predict", args.predict) if args.predict else []
    results = []
    data = None
    if args.input:
        data = read_xy_csv(args.input)
        _reject_continuous_flags(args, "--input")
    elif not args.function:
        raise UsageError("fit needs --input CSV or --function NAME")

    for lam in lams:
        if data is not None:
            if args.method == "projection":
                basis = _basis(args, lam, data.xs, data.weight_array())
                fit = fit_projection(data, basis)
            else:
                fit = fit_discrete_normal(data, lam, args.degree)
        else:
            fn = lookup(args.function)
            if args.method == "projection":
                fit = fit_projection(fn, _basis(args, lam))
            else:
                lo, hi = _parse_interval(args.interval)
                if _parse_weight(args.weight, lo, hi) != WeightSpec.unit(lo, hi):
                    raise UsageError(
                        "the continuous normal equations use the unit weight; "
                        "use --method projection for weighted fits")
                check_lambda(lam)  # before the rule is built from its multiples
                exps = fn.exponents + tuple(lam * i for i in range(args.degree + 1))
                rule = quad.ladder_rule(args.quad_points, exps, lo, hi, fallback_step=lam)
                fit = fit_continuous_normal(fn, lo, hi, lam, args.degree, rule=rule)
        preds = [(x, predict(fit, x)) for x in predict_at]
        results.append((fit, preds))

    params = {
        "lambda": lams, "degree": args.degree, "method": args.method,
        "input": args.input, "function": args.function,
    }
    if len(results) == 1:
        doc = {"job": "fit", "params": params, **_fit_doc(*results[0])}
    else:
        doc = {"job": "fit", "params": params,
               "results": [_fit_doc(f, p) for f, p in results]}
    if args.curve_out:
        fit0 = results[0][0]
        _write_curve(args.curve_out, fit0, fit0.lo, fit0.hi)
    _emit(doc, args.out)
    return EXIT_OK


def cmd_orthpoly(args):
    lam = args.lam
    if args.points_file:
        points = read_points_file(args.points_file)
        _reject_continuous_flags(args, "--points-file")
        basis = _basis(args, lam, points)
    else:
        basis = _basis(args, lam)
    doc = {
        "job": "orthpoly",
        "params": {"lambda": lam, "degree": args.degree, "weight": args.weight,
                   "interval": [basis.lo, basis.hi], "mode": basis.mode},
        "B": basis.B,
        "C": basis.C,
        "sq_norms": basis.sq_norms,
        "polys": [p.coeffs for p in basis.polys],
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_solve_fde(args):
    rhs = lookup(args.rhs)
    alphas = _parse_floats("--alphas", args.alphas)
    coeffs = _parse_floats("--term-coeffs", args.term_coeffs) if args.term_coeffs \
        else [1.0] * len(alphas)
    if len(coeffs) != len(alphas):
        raise UsageError("--term-coeffs must match --alphas in length")
    prob = FdeProblem(terms=tuple(zip(alphas, coeffs)), reaction=args.reaction,
                      rhs=rhs.fn,
                      initial_value=args.y0)
    fit = solve_fde(prob, args.lam, args.degree, basis_kind=args.basis)
    grid = np.linspace(0.0, 1.0, 11)
    doc = {
        "job": "solve-fde",
        "params": {"alphas": alphas, "term_coeffs": coeffs,
                   "reaction": args.reaction, "y0": args.y0, "rhs": args.rhs,
                   "lambda": args.lam, "degree": args.degree,
                   "basis": args.basis},
        "coeffs": fit.coeffs.tolist(),
        "error": fit.error,
        "cond": fit.cond,
        "solution_samples": [{"x": float(x), "value": float(predict(fit, x))}
                             for x in grid],
    }
    if args.curve_out:
        _write_curve(args.curve_out, fit, 0.0, 1.0)
    _emit(doc, args.out)
    return EXIT_OK


def cmd_price(args):
    job = LsmcJob(
        gbm=GbmConfig(s0=args.s0, r=args.rate, sigma=args.sigma,
                      horizon=args.horizon, steps=args.steps, paths=args.paths,
                      seed=args.seed),
        strike=args.strike, lam=args.lam, basis_degree=args.degree)
    res = price_american_put(job)
    doc = {
        "job": "price",
        "params": {"s0": args.s0, "rate": args.rate, "sigma": args.sigma,
                   "strike": args.strike, "horizon": args.horizon,
                   "steps": args.steps, "paths": args.paths, "seed": args.seed,
                   "lambda": args.lam, "degree": args.degree},
        "price": res.price,
        "std_error": res.std_error,
        "european": res.european,
        "diagnostics": {"skipped_dates": list(res.skipped_dates)},
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_reproduce(args):
    kwargs = {}
    if args.qualitative:
        kwargs["qualitative"] = True
    if args.seed is not None:
        kwargs["seed"] = args.seed
    job = TABLE_JOBS.get(args.table.upper())
    for name in kwargs:
        # name the flag, rather than fail inside the job with a TypeError
        if job is not None and name not in inspect.signature(job).parameters:
            raise UsageError(f"table {args.table.upper()} does not read --{name}")
    rows = run_table(args.table, **kwargs)
    for row in rows:
        print(row.format())
    n_fail = sum(not r.passed for r in rows)
    print(f"{len(rows) - n_fail}/{len(rows)} checks passed")
    if args.out:
        doc = {"job": "reproduce", "table": args.table.upper(),
               "rows": [{"label": r.label, "computed": r.computed,
                         "reference": r.reference, "passed": r.passed,
                         "note": r.note} for r in rows]}
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
    return EXIT_OK if n_fail == 0 else EXIT_NUMERICAL


def cmd_noise(args):
    data = read_xy_csv(args.input)
    noisy = add_noise(data, args.percent, args.seed)
    if noisy.weights is None:
        _write_csv(args.out, "x,y", noisy.xs, noisy.ys)
    else:
        _write_csv(args.out, "x,y,w", noisy.xs, noisy.ys, noisy.weights)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The argparse tree, built once per process: parsing reads it and never
    changes it, so every ``main`` call shares one.  Each verb's ``run``
    handler is bound here, at that first build."""
    p = argparse.ArgumentParser(
        prog="fraclsq",
        description="Least-squares fitting, fractional ODE solving and LSMC "
                    "pricing on fractional monomial ladders.")
    sub = p.add_subparsers(dest="verb", required=True)

    fit = sub.add_parser("fit", help="fit CSV data or a named function")
    fit.add_argument("--input", help="CSV file with header x,y[,w]")
    fit.add_argument("--function", help="named analytic function: "
                     + ", ".join(sorted(NAMED_FUNCTIONS)))
    fit.add_argument("--lambda", dest="lam", required=True,
                     help="exponent step, or comma-separated sweep list")
    fit.add_argument("--degree", type=int, required=True, help="ladder degree n")
    fit.add_argument("--interval", default="0:1", help="lo:hi for continuous fits")
    fit.add_argument("--method", choices=("normal", "projection"), default="normal")
    fit.add_argument("--weight", default="unit",
                     help="unit or jacobi:bl:br (continuous projection fits)")
    fit.add_argument("--quad-points", type=int, default=lsq.DEFAULT_QUAD_POINTS)
    fit.add_argument("--predict", help="comma-separated abscissae to predict")
    fit.add_argument("--out", help="write the JSON result document here")
    fit.add_argument("--curve-out", help="write fitted-curve samples (CSV x,y_fit)")
    fit.set_defaults(run=cmd_fit)

    orth = sub.add_parser("orthpoly", help="build a weight-orthogonal ladder")
    orth.add_argument("--lambda", dest="lam", type=float, required=True)
    orth.add_argument("--degree", type=int, required=True)
    orth.add_argument("--weight", default="unit", help="unit or jacobi:bl:br")
    orth.add_argument("--interval", default="0:1")
    orth.add_argument("--points-file", help="discrete mode: one abscissa per line")
    orth.add_argument("--quad-points", type=int, default=orthobasis.DEFAULT_QUAD_POINTS)
    orth.add_argument("--out")
    orth.set_defaults(run=cmd_orthpoly)

    fde = sub.add_parser("solve-fde", help="residual least-squares FDE solve")
    fde.add_argument("--alphas", required=True, help="comma-separated Caputo orders")
    fde.add_argument("--term-coeffs", help="comma-separated term coefficients "
                     "(default all 1)")
    fde.add_argument("--reaction", type=float, default=0.0)
    fde.add_argument("--rhs", required=True, help="named right-hand side function")
    fde.add_argument("--y0", type=float, default=0.0)
    fde.add_argument("--lambda", dest="lam", type=float, required=True)
    fde.add_argument("--degree", type=int, required=True)
    fde.add_argument("--basis", choices=("monomial", "muntz_legendre"),
                     default="monomial")
    fde.add_argument("--out")
    fde.add_argument("--curve-out")
    fde.set_defaults(run=cmd_solve_fde)

    price = sub.add_parser("price", help="LSMC American put")
    price.add_argument("--s0", type=float, required=True)
    price.add_argument("--rate", type=float, required=True)
    price.add_argument("--sigma", type=float, required=True)
    price.add_argument("--strike", type=float, required=True)
    price.add_argument("--horizon", type=float, required=True, help="years")
    price.add_argument("--steps", type=int, default=60)
    price.add_argument("--paths", type=int, default=10000)
    price.add_argument("--lambda", dest="lam", type=float, required=True)
    price.add_argument("--degree", type=int, default=2)
    price.add_argument("--seed", type=int, default=0)
    price.add_argument("--out")
    price.set_defaults(run=cmd_price)

    rep = sub.add_parser("reproduce", help="re-run a reference table")
    rep.add_argument("table", help="one of " + ", ".join(sorted(TABLE_JOBS)))
    rep.add_argument("--qualitative", action="store_true",
                     help="include seeded-noise informational rows")
    rep.add_argument("--seed", type=int, help="override the job seed")
    rep.add_argument("--out")
    rep.set_defaults(run=cmd_reproduce)

    noise = sub.add_parser("noise", help="inject seeded multiplicative noise")
    noise.add_argument("--input", required=True)
    noise.add_argument("--percent", type=float, required=True)
    noise.add_argument("--seed", type=int, default=0)
    noise.add_argument("--out")
    noise.set_defaults(run=cmd_noise)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.run(args)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FraclsqError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
