import json
import math

import numpy as np
import pytest

from fraclsq.cli import main


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


def test_fit_curve_out(sales_csv, capsys, tmp_path):
    curve = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        ["fit", "--input", str(sales_csv), "--lambda", "1", "--degree", "1",
         "--curve-out", str(curve)], capsys)
    assert code == 0
    lines = curve.read_text().strip().splitlines()
    assert lines[0] == "x,y_fit"
    assert len(lines) == 202


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
])
def test_nonfinite_options_are_input_errors(args, named, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == "" and named in err
    assert "Traceback" not in err


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


def test_unknown_verb_is_input_error(capsys):
    assert run_cli(["frobnicate"], capsys)[0] == 2
