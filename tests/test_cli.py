import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fraclsq import cli, gauss_jacobi
from fraclsq.cli import main, read_xy_csv


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def write_csv(path, rows, header="x,y"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


@pytest.fixture
def sales_csv(tmp_path):
    p = tmp_path / "sales.csv"
    write_csv(p, ["1,10000", "2,21000", "3,50000", "4,70000"])
    return p


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_sales_line_prediction(sales_csv, capsys, tmp_path):
    out_path = tmp_path / "fit.json"
    code, out, _ = run_cli(
        ["fit", "--input", str(sales_csv), "--lambda", "1", "--degree", "1",
         "--predict", "5", "--out", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["job"] == "fit"
    assert doc["predictions"][0]["value"] == pytest.approx(90000.0, abs=1e-6)
    assert doc["cond"] > 1.0
    assert json.loads(out) == doc


def test_fit_lambda_sweep_document(sales_csv, capsys):
    code, out, _ = run_cli(
        ["fit", "--input", str(sales_csv), "--lambda", "0.5,1.0", "--degree", "1",
         "--predict", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]) == 2
    lams = [r["lambda"] for r in doc["results"]]
    assert lams == [0.5, 1.0]


def test_fit_lambda_sweep_sales_reference_row(tmp_path, capsys):
    # year coding with the first fitted year at 0 generates the published
    # prediction row; forecast abscissa is 4
    p = tmp_path / "sales0.csv"
    write_csv(p, ["0,10000", "1,21000", "2,50000", "3,70000"])
    code, out, _ = run_cli(
        ["fit", "--input", str(p), "--lambda", "0.5,0.75,1,1.25,1.5",
         "--degree", "1", "--predict", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    preds = [round(r["predictions"][0]["value"]) for r in doc["results"]]
    for got, want in zip(preds, (69692, 80546, 90000, 98307, 105870)):
        assert abs(got - want) <= 1


def test_fit_roundtrip_lossless(sales_csv, capsys, tmp_path):
    from fraclsq import FitResult, predict

    out_path = tmp_path / "fit.json"
    code, out, _ = run_cli(
        ["fit", "--input", str(sales_csv), "--lambda", "0.75", "--degree", "1",
         "--predict", "5,6.5", "--out", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    # a fit rebuilt from the serialized document must reproduce the
    # serialized predictions bit for bit (doubles round-trip JSON exactly)
    fit = FitResult(doc["basis"], doc["lambda"], np.array(doc["coeffs"]),
                    doc["error"], doc["cond"], *doc["interval"])
    for entry in doc["predictions"]:
        assert predict(fit, entry["x"]) == entry["value"]


def test_fit_named_function(capsys):
    code, out, _ = run_cli(
        ["fit", "--function", "x075+x15", "--lambda", "0.75", "--degree", "2"],
        capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["coeffs"] == pytest.approx([0.0, 1.0, 1.0], abs=1e-8)
    assert doc["error"] <= 1e-18


def test_fit_projection_method(sales_csv, capsys):
    code, out, _ = run_cli(
        ["fit", "--input", str(sales_csv), "--lambda", "1", "--degree", "1",
         "--method", "projection", "--predict", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["cond"] == 1.0
    assert doc["predictions"][0]["value"] == pytest.approx(90000.0, abs=1e-6)


def test_fit_weighted_projection_of_named_function(capsys):
    # weighted continuous projection recovers x^0.5 - pi/4 as the first
    # ladder member under (1-x)^(-1/2) with no linear solve
    code, out, _ = run_cli(
        ["fit", "--function", "sqrt-shift", "--lambda", "0.5", "--degree", "1",
         "--method", "projection", "--weight", "jacobi:0:-0.5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["coeffs"] == pytest.approx([0.0, 1.0], abs=1e-9)
    assert doc["cond"] == 1.0


def test_fit_weight_flag_needs_projection(capsys):
    code, _, err = run_cli(
        ["fit", "--function", "sqrt-shift", "--lambda", "0.5", "--degree", "1",
         "--weight", "jacobi:0:-0.5"], capsys)
    assert code == 2
    assert "projection" in err


@pytest.mark.parametrize("method", ["normal", "projection"])
def test_fit_jacobi_zero_zero_is_the_unit_weight(method, capsys):
    base = ["fit", "--function", "x15", "--lambda", "0.75", "--degree", "3",
            "--method", method, "--weight"]
    unit = run_cli(base + ["unit"], capsys)
    assert unit[0] == 0
    assert run_cli(base + ["jacobi:0:0"], capsys) == unit


@pytest.mark.parametrize("args", [
    ["fit", "--function", "x15", "--method", "projection"],
    ["orthpoly"],
])
@pytest.mark.parametrize("count", ["0", "-5", "257"])
def test_quad_points_out_of_range_is_input_error(args, count, capsys):
    code, out, err = run_cli(args + ["--lambda", "0.5", "--degree", "2",
                                     "--quad-points", count], capsys)
    assert code == 2
    assert out == "" and err == f"error: point count must be an integer in [1, 256], " \
                                f"got {count}\n"


def test_fit_curve_out(sales_csv, capsys, tmp_path):
    curve = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        ["fit", "--input", str(sales_csv), "--lambda", "1", "--degree", "1",
         "--curve-out", str(curve)], capsys)
    assert code == 0
    lines = curve.read_text().strip().splitlines()
    assert lines[0] == "x,y_fit"
    assert len(lines) == 202
    # byte for byte what csv.writer gives for the repr of every sample
    from fraclsq import FitResult, predict
    doc = json.loads(run_cli(["fit", "--input", str(sales_csv), "--lambda", "1",
                              "--degree", "1"], capsys)[1])
    fit = FitResult(doc["basis"], doc["lambda"], np.array(doc["coeffs"]),
                    doc["error"], doc["cond"], *doc["interval"])
    xs = np.linspace(fit.lo, fit.hi, 201)
    want = io.StringIO(newline="")
    csv.writer(want).writerows([["x", "y_fit"]] + [[repr(float(x)), repr(float(y))]
                                                   for x, y in zip(xs, predict(fit, xs))])
    assert curve.read_bytes() == want.getvalue().encode()


def test_fit_empty_csv_is_input_error(tmp_path, capsys):
    p = tmp_path / "empty.csv"
    p.write_text("", encoding="utf-8")
    code, _, err = run_cli(
        ["fit", "--input", str(p), "--lambda", "1", "--degree", "1"], capsys)
    assert code == 2
    assert "empty" in err


def test_fit_malformed_csv_has_row_diagnostic(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    write_csv(p, ["1,10", "2,oops", "3,30"])
    code, _, err = run_cli(
        ["fit", "--input", str(p), "--lambda", "1", "--degree", "1"], capsys)
    assert code == 2
    assert ":3:" in err and "'y'" in err


def _float_cells(text):
    """The reference parse: float() of every cell of every non-blank row."""
    rows = [r for r in csv.reader(io.StringIO(text, newline="")) if any(c.strip() for c in r)]
    return np.array([[float(c) for c in r] for r in rows[1:]])


_FORMS = ["0.0", "5e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
          "0.1000000000000000055511151231257827", ".5", "5.", "1E+05", "-0.0e0",
          "123456789012345678901234.5", "4.9406564584124654e-324", "3"]
# random finite doubles over the whole exponent range, printed three ways
_BITS = np.random.default_rng(5).integers(0, 0x7FEFFFFFFFFFFFFF, 1000, dtype=np.int64)
_FORMS += [form % v for v in _BITS.view(float).tolist() for form in ("%r", "%.25e", "%.12g")]


@pytest.mark.parametrize("text,fallback", [
    ("x,y\r\n" + "".join(f"{a},{b}\r\n" for a, b in zip(_FORMS, _FORMS[::-1])), False),
    ("x,y,w\n0.5,1.5,2\n1,2,.25\n", False),
    ("x,y\n1,2\n\n3,4\n", False),
    ("x,y\n1,2\n   \n3,4\n", True),
    ('x,y\n"1",2\n3,"4.5"\n', True),
    ("x,y\n1_000,2\n3,4\n", True),
    ("x,y\n  1 ,\t2.5 \n3 , 4\n", False),
    ("x,y\n1,2\n3,4\n\n", False),
], ids=["crlf-forms", "w-column", "blank-line", "whitespace-line", "quoted", "underscore",
        "padded", "trailing-blank"])
def test_read_xy_csv_matches_float_of_cells(tmp_path, monkeypatch, text, fallback):
    p = tmp_path / "data.csv"
    p.write_bytes(text.encode())
    calls = []
    reference_loop = cli._read_xy_rows
    monkeypatch.setattr(cli, "_read_xy_rows",
                        lambda *a: calls.append(a) or reference_loop(*a))
    data = read_xy_csv(str(p))
    want = _float_cells(text)
    got = np.column_stack([data.xs, data.ys] + ([data.weights] if want.shape[1] == 3 else []))
    assert got.tobytes() == want.tobytes()
    assert data.xs.flags.c_contiguous and data.ys.flags.c_contiguous
    assert len(calls) == int(fallback)


@pytest.mark.parametrize("body,message", [
    ("1,10\n2,oops\n3,30\n", ":3: column 'y' is not numeric: 'oops'"),
    ("1,10\n2\n3,30\n", ":3: expected 2 fields, got 1"),
    ("1,10,\n2,20,\n", ":2: expected 2 fields, got 3"),
    ("1,10\n2,20,\n", ":3: expected 2 fields, got 3"),
    ("", ": no data rows"),
    ("\n\n", ": no data rows"),
    ("\n  \n\n", ": no data rows"),
], ids=["bad-cell", "ragged", "trailing-commas", "one-trailing-comma", "header-only",
        "blank-body", "whitespace-body"])
def test_fit_csv_diagnostics(tmp_path, capsys, body, message):
    p = tmp_path / "bad.csv"
    p.write_text("x,y\n" + body, encoding="utf-8")
    code, out, err = run_cli(
        ["fit", "--input", str(p), "--lambda", "1", "--degree", "1"], capsys)
    assert code == 2
    assert out == "" and err == f"error: {p}{message}\n"


def test_fit_bad_header(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    write_csv(p, ["1,2"], header="a,b")
    code, _, err = run_cli(
        ["fit", "--input", str(p), "--lambda", "1", "--degree", "1"], capsys)
    assert code == 2


def test_fit_rank_deficiency_is_numerical_failure(tmp_path, capsys):
    p = tmp_path / "two.csv"
    write_csv(p, ["1,1", "2,2"])
    code, _, err = run_cli(
        ["fit", "--input", str(p), "--lambda", "1", "--degree", "3"], capsys)
    assert code == 3


@pytest.mark.parametrize("rows,method", [
    (["1,10", "nan,20", "3,30"], "normal"),
    (["1,10", "2,inf", "3,30"], "projection"),
    (["1,10", "2,-inf", "3,30"], "normal"),
])
def test_fit_nonfinite_csv_is_input_error(tmp_path, capsys, rows, method):
    p = tmp_path / "nonfinite.csv"
    write_csv(p, rows)
    code, out, err = run_cli(
        ["fit", "--input", str(p), "--lambda", "1", "--degree", "1",
         "--method", method], capsys)
    assert code == 2
    assert "finite" in err and out == ""


def test_fit_overflowing_moments_is_one_error_line(tmp_path, capfd):
    # x^4 of 1e200 overflows: exit 2 with one line, and no numpy warning or
    # LAPACK DLASCL message (printed at the C level) before it
    p = tmp_path / "big.csv"
    write_csv(p, [f"{k}e200,{k}" for k in range(1, 6)])
    code = main(["fit", "--input", str(p), "--lambda", "1", "--degree", "2"])
    out, err = capfd.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: the discrete normal equations overflow: max x = 5e+200 "
                          "with lambda = 1.0 and degree 2")
    assert err.count("\n") == 1


_BIG = ["--lambda", "1", "--degree", "3", "--interval", "0:1e200"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args,message", [
    (["fit", "--function", "x15", *_BIG],
     "the moment of x^1.0 on [0.0, 1e+200] is past the float range"),
    (["fit", "--function", "x15", *_BIG, "--method", "projection"],
     "the basis recurrence overflows: max point = "),
    (["orthpoly", *_BIG], "the basis recurrence overflows: max point = "),
    (["fit", "--input", "{big}", "--lambda", "1", "--degree", "2", "--method", "projection"],
     "the basis recurrence overflows: max point = 4e+200 with lambda = 1.0 and degree 2"),
    (["solve-fde", "--alphas", "0.5", "--term-coeffs", "1e308", "--rhs", "x15",
      "--lambda", "0.5", "--degree", "3"],
     "the exact residual normal equations overflow the float range (largest |term "
     "coefficient| = 1e+308, |reaction| = 0, |y0| = 0)"),
    (["solve-fde", "--alphas", "0.5", "--rhs", "x15", "--lambda", "0.5", "--degree", "3",
      "--y0", "1e308"],
     "the exact residual normal equations overflow the float range (largest |term "
     "coefficient| = 1, |reaction| = 0, |y0| = 1e+308)"),
])
def test_results_past_the_float_range_are_one_error_line(args, message, tmp_path, capfd):
    # exit 2 with one line: no traceback, no numpy warning, no NaN in the JSON
    big = tmp_path / "big.csv"
    write_csv(big, [f"{k}e200,{k}" for k in range(1, 5)])
    code = main([a.format(big=big) for a in args])
    out, err = capfd.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


_FDE_OVERFLOW = ("residual normal equations overflow the float range (largest |term "
                 "coefficient| = 1e+308, |reaction| = 0, |y0| = 0)")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args,message", [
    (["fit", "--input", "{big_y}", "--lambda", "0.5", "--degree", "2"],
     "the least-squares error overflows: max |y| = 2e+300 with max w = 1 puts the sum "
     "of w * (y - fit)^2 past the float range"),
    (["fit", "--input", "{big_y}", "--lambda", "0.5", "--degree", "2", "--method",
      "projection"],
     "the least-squares error overflows: max |y| = 2e+300 with max w = 1 puts the sum "
     "of w * (y - fit)^2 past the float range"),
    # the Muntz-Legendre rungs put Psi itself past the float range
    (["solve-fde", "--alphas", "0.5", "--term-coeffs", "1e308", "--rhs", "x15",
      "--lambda", "0.5", "--degree", "3", "--basis", "muntz_legendre"],
     f"the exact {_FDE_OVERFLOW}"),
    # a right-hand side that is no power sum takes the quadrature route
    (["solve-fde", "--alphas", "0.5", "--term-coeffs", "1e308", "--rhs", "ml-population",
      "--lambda", "0.5", "--degree", "3"],
     f"the quadrature {_FDE_OVERFLOW}"),
])
def test_fit_errors_and_both_fde_routes_past_the_float_range_are_one_error_line(
        args, message, tmp_path, capfd):
    big_y = tmp_path / "big_y.csv"
    write_csv(big_y, [f"{k / 4},{1 + k / 4}e300" for k in range(5)])
    code = main([a.format(big_y=big_y) for a in args])
    out, err = capfd.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# orthpoly
# ---------------------------------------------------------------------------

def test_orthpoly_singular_weight_b1(capsys):
    code, out, _ = run_cli(
        ["orthpoly", "--weight", "jacobi:0:-0.5", "--lambda", "0.5",
         "--degree", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["B"][0] == pytest.approx(math.pi / 4, abs=1e-9)


def test_orthpoly_unit_weight_b1(capsys):
    code, out, _ = run_cli(
        ["orthpoly", "--weight", "unit", "--lambda", "1", "--degree", "1"],
        capsys)
    assert code == 0
    assert json.loads(out)["B"][0] == pytest.approx(0.5, abs=1e-13)


def test_orthpoly_discrete_points_file(tmp_path, capsys):
    pts = tmp_path / "points.txt"
    pts.write_text("0.0\n0.5\n1.0\n", encoding="utf-8")
    code, out, _ = run_cli(
        ["orthpoly", "--points-file", str(pts), "--lambda", "1",
         "--degree", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["B"][0] == pytest.approx(0.5)
    assert doc["params"]["mode"] == "discrete"


def test_orthpoly_points_file_reports_the_points_span(tmp_path, capsys):
    pts = tmp_path / "points.txt"
    pts.write_text("0.7\n0.1\n2.3\n1.2\n", encoding="utf-8")
    code, out, _ = run_cli(
        ["orthpoly", "--points-file", str(pts), "--lambda", "0.5", "--degree", "2"],
        capsys)
    assert code == 0
    assert json.loads(out)["params"]["interval"] == [0.1, 2.3]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_orthpoly_nonfinite_points_file_is_input_error(tmp_path, capsys, bad):
    pts = tmp_path / "points.txt"
    pts.write_text(f"0.0\n{bad}\n1.0\n", encoding="utf-8")
    code, out, err = run_cli(
        ["orthpoly", "--points-file", str(pts), "--lambda", "1", "--degree", "1"], capsys)
    assert code == 2
    assert out == "" and err == "error: discrete points must be finite\n"


def test_orthpoly_points_file_names_the_bad_line(tmp_path, capsys):
    pts = tmp_path / "points.txt"
    pts.write_text("0.0\n\nabc\n1.0\n", encoding="utf-8")
    code, out, err = run_cli(
        ["orthpoly", "--points-file", str(pts), "--lambda", "1", "--degree", "1"], capsys)
    assert code == 2
    assert out == "" and err == f"error: {pts}:3: point is not numeric: 'abc'\n"


# input files are UTF-8: a leading byte-order mark is skipped, and a byte
# that does not decode is an input error naming the file
_INPUT_FILES = {
    "fit": (lambda p: ["fit", "--input", str(p), "--lambda", "1", "--degree", "1"],
            b"x,y\n0.1,1.0\n0.5,2.0\n0.9,2.5\n"),
    # a quoted cell sends the CSV through the rewound per-row reader
    "fit_quoted": (lambda p: ["fit", "--input", str(p), "--lambda", "1", "--degree", "1"],
                   b'x,y\n"0.1",1.0\n0.5,2.0\n0.9,2.5\n'),
    "orthpoly": (lambda p: ["orthpoly", "--points-file", str(p), "--lambda", "1",
                            "--degree", "1"],
                 b"0.1\n0.5\n0.9\n"),
}


@pytest.mark.parametrize("case", sorted(_INPUT_FILES))
def test_byte_order_mark_is_skipped(tmp_path, capsys, case):
    args, body = _INPUT_FILES[case]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(body)
    marked.write_bytes(b"\xef\xbb\xbf" + body)
    code, out, err = run_cli(args(marked), capsys)
    assert code == 0 and err == ""
    _, want, _ = run_cli(args(plain), capsys)
    assert out.replace(str(marked), "") == want.replace(str(plain), "")


@pytest.mark.parametrize("case", sorted(_INPUT_FILES))
def test_undecodable_input_is_input_error(tmp_path, capsys, case):
    args, body = _INPUT_FILES[case]
    path = tmp_path / "latin1"
    path.write_bytes(body.replace(b"0.5", b"0.5\xff"))
    code, out, err = run_cli(args(path), capsys)
    assert code == 2
    assert out == "" and err == f"error: {path}: not valid UTF-8 text (invalid start byte)\n"


def test_orthpoly_degenerate_is_numerical_failure(tmp_path, capsys):
    pts = tmp_path / "points.txt"
    pts.write_text("0.0\n1.0\n", encoding="utf-8")
    code, _, err = run_cli(
        ["orthpoly", "--points-file", str(pts), "--lambda", "1",
         "--degree", "3"], capsys)
    assert code == 3


# ---------------------------------------------------------------------------
# solve-fde / price
# ---------------------------------------------------------------------------

def test_solve_fde_multi_term(capsys):
    code, out, _ = run_cli(
        ["solve-fde", "--alphas", "0.5,0.25", "--reaction", "1",
         "--rhs", "fde-multi-rhs", "--lambda", "0.75", "--degree", "4",
         "--basis", "muntz_legendre"], capsys)
    assert code == 0
    doc = json.loads(out)
    # reference-column value for this configuration
    assert doc["error"] == pytest.approx(2.33e-4, rel=0.05)


def test_solve_fde_unknown_rhs(capsys):
    code, _, err = run_cli(
        ["solve-fde", "--alphas", "0.5", "--rhs", "nosuch", "--lambda", "0.5",
         "--degree", "2"], capsys)
    assert code == 2
    assert "unknown function" in err


@pytest.mark.parametrize("basis", ["monomial", "muntz_legendre"])
@pytest.mark.parametrize("terms", [["--alphas", "0.5", "--term-coeffs", "0"],
                                   ["--alphas", ","]])
def test_solve_fde_zero_operator_is_input_error(terms, basis, capsys):
    code, out, err = run_cli(
        ["solve-fde", *terms, "--rhs", "x15", "--lambda", "0.5", "--degree", "3",
         "--basis", basis], capsys)
    assert code == 2
    assert out == "" and err == ("error: the operator is zero: every term coefficient "
                                 "and the reaction are 0\n")


def test_price_smoke(capsys):
    code, out, _ = run_cli(
        ["price", "--s0", "38", "--rate", "0.05", "--sigma", "0.71",
         "--strike", "48", "--horizon", "0.16666666666666666",
         "--steps", "20", "--paths", "2000", "--lambda", "0.75",
         "--seed", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["price"] >= doc["european"] - 3 * doc["std_error"]
    assert doc["price"] == pytest.approx(11.1, abs=1.0)


_FDE = ["solve-fde", "--alphas", "0.5", "--rhs", "fde-single-rhs", "--lambda", "0.5",
        "--degree", "2"]
_PRICE = ["price", "--s0", "38", "--rate", "0.05", "--sigma", "0.71", "--strike", "48",
          "--horizon", "0.5", "--steps", "4", "--paths", "100", "--lambda", "0.75"]


@pytest.mark.parametrize("basis", ["monomial", "muntz_legendre"])
def test_solve_fde_curve_out(basis, capsys, tmp_path):
    from fraclsq import FitResult, predict
    curve = tmp_path / "curve.csv"
    code, out, _ = run_cli(_FDE + ["--basis", basis, "--curve-out", str(curve)], capsys)
    assert code == 0
    doc = json.loads(out)
    fit = FitResult(basis, 0.5, np.array(doc["coeffs"]), doc["error"], doc["cond"])
    lines = curve.read_text().splitlines()
    assert lines[0] == "x,y_fit"
    assert len(lines) == 202
    xs = np.linspace(0.0, 1.0, 201)
    assert lines[1:] == [f"{x!r},{y!r}" for x, y in
                         zip(xs.tolist(), predict(fit, xs).tolist())]


def _with(base, flag, value):
    args = list(base)
    if flag in args:
        args[args.index(flag) + 1] = value
    else:
        args += [flag, value]
    return args


@pytest.mark.parametrize("args,named", [
    (_with(_FDE, "--y0", "nan"), "initial value"),
    (_with(_FDE, "--reaction", "inf"), "reaction"),
    (_with(_FDE, "--term-coeffs", "nan"), "coefficients"),
    (_with(_PRICE, "--s0", "nan"), "s0"),
    (_with(_PRICE, "--rate", "nan"), "r must be finite"),
    (_with(_PRICE, "--horizon", "inf"), "horizon"),
    (_with(_PRICE, "--strike", "inf"), "strike"),
    (["fit", "--function", "x15", "--lambda", "0.5", "--degree", "2", "--predict", "nan"],
     "finite"),
    (_with(_PRICE, "--sigma", "1e160"), "volatility squared overflows"),  # sigma**2 = inf
    # a later --rate overrides; its = form lets argparse take a negative exponent
    (_PRICE + ["--rate=-1e308"], "rate r = -1e+308 overflows the discount factor"),
    (_PRICE + ["--rate=-700", "--strike=1e300"],
     "rate r = -700.0 overflows the discounted strike"),
    # 100 paths of cash flows up to 1e308 overflow the price's sums
    (_with(_PRICE, "--strike", "1e308"), "strike 1e+308 is too large"),
    # a 1000 % rate drives every simulated price past the float range
    (_PRICE + ["--s0=40", "--strike=44", "--horizon=1", "--steps=1", "--lambda=1",
               "--sigma=0.2", "--rate=1000"],
     "s0 = 40.0, r = 1000.0, sigma = 0.2 and horizon = 1.0"),
])
def test_nonfinite_options_are_input_errors(args, named, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == "" and named in err
    assert err.startswith("error: ") and err.count("\n") == 1  # no warning, no traceback


@pytest.mark.parametrize("args,flag", [
    (["orthpoly", "--lambda", "abc", "--degree", "2"], "--lambda"),
    (_with(_FDE, "--lambda", "abc"), "--lambda"),
    (_with(_PRICE, "--lambda", "0.5x"), "--lambda"),
    (["fit", "--function", "x15", "--lambda", "0.5", "--degree", "2", "--predict", "abc"],
     "--predict"),
])
def test_nonnumeric_options_are_input_errors(args, flag, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == "" and flag in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--alphas", "--term-coeffs"])
def test_solve_fde_number_lists_name_their_flag(flag, capsys):
    code, out, err = run_cli(_with(_FDE, flag, "0.5,x"), capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} expects a comma-separated number list, got '0.5,x'\n"


def test_lambda_param_keeps_its_json_form(capsys):
    code, out, _ = run_cli(["orthpoly", "--lambda", "1", "--degree", "1"], capsys)
    assert code == 0
    assert json.loads(out)["params"]["lambda"] == 1.0 and '"lambda": 1.0,' in out


# ---------------------------------------------------------------------------
# reproduce / noise
# ---------------------------------------------------------------------------

def test_reproduce_t6_all_pass(capsys):
    code, out, _ = run_cli(["reproduce", "T6"], capsys)
    assert code == 0
    assert "5/5 checks passed" in out


def test_reproduce_t10_exact_fit_reports_infinite_ratio(capsys, tmp_path, monkeypatch):
    # an exact lam = 1.39 fit has A.E.(1.39) = 0: the ratio is inf, not a crash
    from fraclsq import reproduce
    from fraclsq.functions import POPULATION_ORDER, POPULATION_RATE
    from fraclsq.special import mittag_leffler

    real_predict = reproduce.predict

    def exact_at_own_order(fit, x):
        if fit.lam == POPULATION_ORDER:
            return mittag_leffler(POPULATION_ORDER, POPULATION_RATE * x**POPULATION_ORDER)
        return real_predict(fit, x)

    monkeypatch.setattr(reproduce, "predict", exact_at_own_order)
    out_path = tmp_path / "t10.json"
    code, _, _ = run_cli(["reproduce", "T10", "--out", str(out_path)], capsys)
    assert code == 0
    rows = json.loads(out_path.read_text())["rows"]
    assert len(rows) == 10
    assert all(r["computed"] == math.inf and r["passed"] for r in rows)


def test_reproduce_unsupported_table(capsys):
    code, _, err = run_cli(["reproduce", "T3"], capsys)
    assert code == 2
    assert "unsupported" in err


def test_reproduce_qualitative_flag(capsys):
    code, out, _ = run_cli(["reproduce", "T2", "--qualitative"], capsys)
    assert code == 0
    assert "noise" in out


@pytest.mark.parametrize("args,flag", [
    (["reproduce", "T2", "--seed", "-1"], "--seed"),
    (["reproduce", "T2", "--qualitative", "--seed", "5"], "--seed"),
    (["reproduce", "T1", "--qualitative"], "--qualitative"),
    (["reproduce", "t9", "--qualitative"], "--qualitative"),
])
def test_reproduce_rejects_flags_the_table_does_not_read(args, flag, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == "" and f"does not read {flag}" in err


def test_noise_roundtrip(tmp_path, sales_csv, capsys):
    out_csv = tmp_path / "noisy.csv"
    code, _, _ = run_cli(
        ["noise", "--input", str(sales_csv), "--percent", "5", "--seed", "9",
         "--out", str(out_csv)], capsys)
    assert code == 0
    rows = out_csv.read_text().strip().splitlines()
    assert rows[0] == "x,y"
    assert len(rows) == 5
    ys = np.array([float(r.split(",")[1]) for r in rows[1:]])
    code, _, _ = run_cli(
        ["noise", "--input", str(sales_csv), "--percent", "5", "--seed", "9",
         "--out", str(out_csv)], capsys)
    ys2 = np.array([float(r.split(",")[1])
                    for r in out_csv.read_text().strip().splitlines()[1:]])
    assert np.array_equal(ys, ys2)


_NOISY_SALES = (b"x,y\r\n1.0,9598.581532008562\r\n2.0,21254.992402432952\r\n"
                b"3.0,45859.136432394414\r\n4.0,72296.36707144833\r\n")


def test_noise_output_bytes(tmp_path, sales_csv, capsys):
    out_csv = tmp_path / "noisy.csv"
    args = ["noise", "--input", str(sales_csv), "--percent", "5", "--seed", "9"]
    assert run_cli(args + ["--out", str(out_csv)], capsys) == (0, "", "")
    assert out_csv.read_bytes() == _NOISY_SALES
    assert run_cli(args, capsys) == (0, _NOISY_SALES.decode(), "")


def test_noise_keeps_the_weight_column(tmp_path, sales_csv, capsys):
    weighted = tmp_path / "weighted.csv"
    write_csv(weighted, ["1,10000,0.1", "2,21000,2", "3,50000,1e-300", "4,70000,7.25"],
              header="x,y,w")
    args = ["--percent", "5", "--seed", "9"]
    code, plain, _ = run_cli(["noise", "--input", str(sales_csv), *args], capsys)
    assert code == 0
    code, out, err = run_cli(["noise", "--input", str(weighted), *args], capsys)
    assert (code, err) == (0, "")
    # x and y as the unweighted file gets them, then w as read, in repr form
    rows = [line.split(",") for line in out.split("\r\n")[:-1]]
    assert [r[:2] for r in rows] == [r.split(",") for r in plain.split("\r\n")[:-1]]
    assert [r[2] for r in rows] == ["w", "0.1", "2.0", "1e-300", "7.25"]
    assert out.endswith("\r\n") and "\n" not in out.replace("\r\n", "")
    code, out, _ = run_cli(["noise", "--input", str(weighted), "--percent", "0"], capsys)
    assert code == 0
    assert out == ("x,y,w\r\n1.0,10000.0,0.1\r\n2.0,21000.0,2.0\r\n"
                   "3.0,50000.0,1e-300\r\n4.0,70000.0,7.25\r\n")
    noisy = tmp_path / "noisy.csv"
    assert run_cli(["noise", "--input", str(weighted), *args, "--out", str(noisy)],
                   capsys)[0] == 0
    assert np.array_equal(read_xy_csv(noisy).weights, read_xy_csv(weighted).weights)


def test_noise_nonfinite_percent_is_input_error(sales_csv, capsys):
    code, out, err = run_cli(
        ["noise", "--input", str(sales_csv), "--percent", "nan"], capsys)
    assert code == 2
    assert out == "" and err == "error: noise percent must be finite, got nan\n"


def test_unknown_verb_is_input_error(capsys):
    assert run_cli(["frobnicate"], capsys)[0] == 2


def test_continuous_projection_reports_weight_interval(capsys, tmp_path):
    curve = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        ["fit", "--function", "x15", "--interval", "0.5:2", "--method", "projection",
         "--lambda", "0.5", "--degree", "2", "--curve-out", str(curve)], capsys)
    assert code == 0
    assert json.loads(out)["interval"] == [0.5, 2.0]
    xs = [float(line.split(",")[0]) for line in curve.read_text().splitlines()[1:]]
    assert (xs[0], xs[-1]) == (0.5, 2.0)


@pytest.mark.parametrize("weight,interval", [
    ("jacobi:0:inf", "0:1"),
    ("jacobi:nan:0", "0:1"),
    ("unit", "0:inf"),
    ("jacobi:0:0", "nan:1"),
])
def test_orthpoly_nonfinite_weight_is_input_error(weight, interval, capsys):
    code, out, err = run_cli(
        ["orthpoly", "--weight", weight, "--interval", interval, "--lambda", "0.5",
         "--degree", "2"], capsys)
    assert code == 2
    assert out == "" and "finite" in err
    assert "Traceback" not in err


def _python(args, cwd, text=True):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=text, timeout=120)


def _python_m_fraclsq(args, cwd, text=True):
    return _python(["-m", "fraclsq", *args], cwd, text)


def test_python_m_fraclsq_runs_the_cli(tmp_path):
    proc = _python_m_fraclsq(["reproduce", "T1"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "checks passed" in proc.stdout


def test_python_m_fraclsq_help(tmp_path):
    proc = _python_m_fraclsq(["--help"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "price" in proc.stdout and proc.stderr == ""


@pytest.mark.parametrize("args", [
    ["price", "--s0", "38", "--rate", "0.05", "--sigma", "0.71", "--strike", "48",
     "--horizon", "0.5", "--steps", "5", "--paths", "100", "--lambda", "0.75",
     "--seed", "-1"],
    ["reproduce", "T9", "--seed", "-1"],
    ["noise", "--input", "{csv}", "--percent", "5", "--seed", "-1"],
])
def test_negative_seed_is_input_error(args, sales_csv, capsys):
    code, out, err = run_cli([a.format(csv=sales_csv) for a in args], capsys)
    assert code == 2
    assert out == "" and err.endswith("seed must be an integer >= 0, got -1\n")
    assert err.count("\n") == 1


_DEGREE_MESSAGE = "error: degree index must be an integer >= 0, got -1\n"


@pytest.mark.parametrize("args,message", [
    (["fit", "--input", "{csv}", "--method", "projection", "--lambda", "0.5",
      "--degree", "-1"], _DEGREE_MESSAGE),
    (["fit", "--input", "{csv}", "--lambda", "0.5", "--degree", "-1"], _DEGREE_MESSAGE),
    (["orthpoly", "--points-file", "{pts}", "--lambda", "0.5", "--degree", "-1"],
     _DEGREE_MESSAGE),
    (["orthpoly", "--lambda", "0.5", "--degree", "-1"], _DEGREE_MESSAGE),
    (["orthpoly", "--points-file", "{pts}", "--lambda", "0.5", "--degree", "2",
      "--weight", "jacobi:0:-0.5", "--interval", "3:7"],
     "error: --weight applies to continuous fits and bases, not to --points-file data\n"),
    (["orthpoly", "--points-file", "{pts}", "--lambda", "0.5", "--degree", "2",
      "--interval", "3:7"],
     "error: --interval applies to continuous fits and bases, not to --points-file "
     "data\n"),
    (["fit", "--input", "{csv}", "--method", "projection", "--lambda", "0.5",
      "--degree", "1", "--weight", "jacobi:0:-0.5"],
     "error: --weight applies to continuous fits and bases, not to --input data\n"),
    (["fit", "--input", "{csv}", "--lambda", "0.5", "--degree", "1", "--interval", "3:7"],
     "error: --interval applies to continuous fits and bases, not to --input data\n"),
])
def test_bad_degree_and_discrete_flags_are_input_errors(args, message, sales_csv,
                                                         tmp_path, capsys):
    pts = tmp_path / "points.txt"
    pts.write_text("0.1\n0.5\n0.9\n", encoding="utf-8")
    code, out, err = run_cli([a.format(csv=sales_csv, pts=pts) for a in args], capsys)
    assert code == 2
    assert out == "" and err == message


def test_discrete_sources_accept_the_default_interval_spelled_out(sales_csv, tmp_path,
                                                                  capsys):
    pts = tmp_path / "points.txt"
    pts.write_text("0.1\n0.5\n0.9\n", encoding="utf-8")
    base = ["orthpoly", "--points-file", str(pts), "--lambda", "0.5", "--degree", "2"]
    code, plain, _ = run_cli(base, capsys)
    assert code == 0
    code, spelled, _ = run_cli(base + ["--interval", "0.0:1", "--weight", "unit"], capsys)
    assert code == 0 and spelled == plain
    # jacobi:0:0 is the unit weight; params echo the flag as given
    code, jacobi, _ = run_cli(base + ["--weight", "jacobi:0:0"], capsys)
    assert code == 0
    assert jacobi == plain.replace('"weight": "unit"', '"weight": "jacobi:0:0"')


def test_a_bug_inside_a_verb_is_not_reported_as_bad_input(sales_csv, monkeypatch):
    # only UsageError and DomainError mean bad input (exit 2); a KeyError
    # raised by the program itself propagates
    def broken(*args):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "add_noise", broken)
    with pytest.raises(KeyError, match="bug"):
        main(["noise", "--input", str(sales_csv), "--percent", "5"])


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_matches_fresh_processes(sales_csv, tmp_path, capsys):
    # a rejected call leaves nothing behind in the shared parser: later verbs
    # print what a fresh process prints for them
    code, out, err = run_cli(["price", "--s0", "38", "--lambda", "0.5"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage: fraclsq price") and "error: the following" in err
    good = [["noise", "--input", str(sales_csv), "--percent", "5", "--seed", "9"], _FDE]
    for args in good:
        code, out, _ = run_cli(args, capsys)
        proc = _python_m_fraclsq(args, tmp_path, text=False)  # keep noise's \r\n
        assert code == proc.returncode == 0
        assert out.encode() == proc.stdout


@pytest.mark.parametrize("args", [["--help"], ["price", "--help"]])
def test_help_exits_zero_on_every_call(args, capsys):
    first = run_cli(args, capsys)
    assert first[0] == 0 and first[1].startswith("usage: fraclsq") and first[2] == ""
    assert run_cli(args, capsys) == first


def test_price_power_table_overflow_is_one_error_line(tmp_path):
    # the regression's power table would reach (1.1e150)**8: rejected before
    # numpy warnings or LAPACK messages, which go to the C-level stderr
    proc = _python_m_fraclsq(
        ["price", "--s0", "1e150", "--strike", "1.1e150", "--horizon", "0.5", "--steps",
         "4", "--paths", "100", "--lambda", "2", "--sigma=0.2", "--rate=0"], tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: strike 1.1e+150 is too large for lambda = 2.0 "
                                  "and basis degree 2")
    assert proc.stderr.count("\n") == 1


def test_price_near_the_power_table_bound_runs_under_warnings_as_errors(tmp_path):
    # the regression's refinement residuals pass sqrt(float max) here, so their
    # sum of squares overflows unless it is rescaled
    proc = _python(
        ["-W", "error", "-m", "fraclsq", "price", "--s0", "1.4e38", "--strike", "1.5e38",
         "--horizon", "0.5", "--steps", "4", "--paths", "100", "--lambda", "2",
         "--sigma=0.2", "--rate=0"], tmp_path)
    assert proc.returncode == 0 and proc.stderr == ""
    doc = json.loads(proc.stdout)  # one JSON document and nothing else
    assert doc["job"] == "price" and math.isfinite(doc["price"])


#: run in a fresh interpreter: the paths that build no Gauss-Jacobi rule,
#: then one Jacobi rule; prints whether scipy was loaded before and after it
_COLD_START = """
import contextlib, io, json, sys
import fraclsq, fraclsq.cli
from fraclsq.functions import lookup

job = fraclsq.LsmcJob(gbm=fraclsq.GbmConfig(s0=38.0, r=0.05, sigma=0.71, horizon=0.5,
                                            steps=4, paths=200, seed=1),
                      strike=48.0, lam=0.75)
fraclsq.price_american_put(job)
problem = fraclsq.FdeProblem(terms=((0.5, 1.0),), rhs=lookup("fde-single-rhs").frac)
fraclsq.solve_fde(problem, 0.5, 4)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [fraclsq.cli.main(["noise", "--input", sys.argv[1], "--percent", "5"]),
             fraclsq.cli.main(["price", "--s0", "38", "--rate", "0.05", "--sigma", "0.71",
                               "--strike", "48", "--horizon", "0.5", "--steps", "4",
                               "--paths", "100", "--lambda", "0.75"])]
before = "scipy" in sys.modules
rule = fraclsq.gauss_jacobi(8, 0.0, -0.5)
print(json.dumps({"codes": codes, "before": before, "after": "scipy" in sys.modules,
                  "nodes": [v.hex() for v in rule.nodes.tolist()],
                  "weights": [v.hex() for v in rule.weights.tolist()]}))
"""


def test_scipy_is_imported_only_for_a_jacobi_rule(sales_csv, tmp_path):
    # a subprocess, since this test process may already hold scipy
    proc = _python(["-c", _COLD_START, str(sales_csv)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [0, 0]
    assert (got["before"], got["after"]) == (False, True)
    rule = gauss_jacobi(8, 0.0, -0.5)
    assert got["nodes"] == [v.hex() for v in rule.nodes.tolist()]
    assert got["weights"] == [v.hex() for v in rule.weights.tolist()]


@pytest.mark.parametrize("args, message", [
    (["fit", "--lambda", "1", "--degree", "1"],
     "fit needs --input CSV or --function NAME"),
    (["fit", "--function", "x15", "--interval", "0-1", "--lambda", "1", "--degree", "1"],
     "--interval expects lo:hi, got '0-1'"),
    *((["fit", "--function", "x15", "--method", "projection", "--weight", weight,
        "--lambda", "1", "--degree", "1"], message) for weight, message in [
        ("jacobi:1", "--weight jacobi expects jacobi:bl:br, got 'jacobi:1'"),
        ("jacobi:a:b", "non-numeric jacobi exponents in 'jacobi:a:b'"),
        ("foo", "unknown weight 'foo'; use unit or jacobi:bl:br"),
    ]),
    (["fit", "--input", "{tmp}/missing.csv", "--lambda", "1", "--degree", "1"],
     "cannot open {tmp}/missing.csv: [Errno 2] No such file or directory: "
     "'{tmp}/missing.csv'"),
    (["orthpoly", "--points-file", "{tmp}/empty.txt", "--lambda", "1", "--degree", "1"],
     "{tmp}/empty.txt: no points"),
    (["solve-fde", "--alphas", "0.5", "--term-coeffs", "1,2", "--rhs", "x15",
      "--lambda", "0.5", "--degree", "2"],
     "--term-coeffs must match --alphas in length"),
], ids=["no_input", "interval", "jacobi_one_exponent", "jacobi_non_numeric",
        "unknown_weight", "missing_input", "empty_points_file", "term_coeffs_length"])
def test_bad_input_is_one_error_line(args, message, tmp_path, capsys):
    (tmp_path / "empty.txt").write_text("", encoding="utf-8")
    code, out, err = run_cli([a.format(tmp=tmp_path) for a in args], capsys)
    assert (code, out, err) == (2, "", f"error: {message.format(tmp=tmp_path)}\n")
