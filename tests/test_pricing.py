import hashlib
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from fraclsq import (
    ConditioningError,
    DataSet,
    DomainError,
    GbmConfig,
    LsmcJob,
    fit_discrete_normal,
    predict,
    price_american_put,
    simulate_paths,
)
from fraclsq import pricing


def _cfg(**kw):
    base = dict(s0=38.0, r=0.05, sigma=0.71, horizon=1.0 / 6.0, steps=60,
                paths=2000, seed=1)
    base.update(kw)
    return GbmConfig(**base)


# ---------------------------------------------------------------------------
# path simulation
# ---------------------------------------------------------------------------

def test_paths_start_at_s0():
    paths = simulate_paths(_cfg())
    assert np.all(paths[:, 0] == 38.0)


def test_zero_volatility_is_deterministic_growth():
    cfg = _cfg(sigma=0.0, paths=16, steps=10)
    paths = simulate_paths(cfg)
    dt = cfg.horizon / cfg.steps
    for t in range(cfg.steps + 1):
        assert paths[:, t] == pytest.approx(
            np.full(16, cfg.s0 * math.exp(cfg.r * t * dt)), rel=1e-12)


def test_terminal_mean_matches_forward():
    # martingale check: E[S_T] = S0 e^(rT), within 3 standard errors
    cfg = _cfg(paths=100_000, steps=1, seed=77)
    paths = simulate_paths(cfg)
    st = paths[:, -1]
    want = cfg.s0 * math.exp(cfg.r * cfg.horizon)
    se = st.std(ddof=1) / math.sqrt(cfg.paths)
    assert abs(st.mean() - want) <= 3 * se


def test_paths_deterministic_given_seed():
    a = simulate_paths(_cfg(seed=123))
    b = simulate_paths(_cfg(seed=123))
    c = simulate_paths(_cfg(seed=124))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_budget_guard():
    with pytest.raises(DomainError):
        GbmConfig(s0=1.0, r=0.0, sigma=0.1, horizon=1.0, steps=1000,
                  paths=100_000)


# ---------------------------------------------------------------------------
# pricing
# ---------------------------------------------------------------------------

def test_price_deterministic_given_seed():
    job = LsmcJob(gbm=_cfg(), strike=48.0, lam=0.75)
    r1 = price_american_put(job)
    r2 = price_american_put(job)
    assert r1.price == r2.price
    assert r1.std_error == r2.std_error


def test_zero_volatility_deep_itm_exercises_immediately():
    # sigma -> 0 with S0 < K: earliest exercise dominates, so the price
    # approaches K - S0 from below as the grid refines
    job = LsmcJob(gbm=_cfg(sigma=0.0, paths=64, steps=60), strike=48.0, lam=1.0)
    res = price_american_put(job)
    dt = job.gbm.horizon / job.gbm.steps
    want = 48.0 * math.exp(-job.gbm.r * dt) - 38.0
    assert res.price == pytest.approx(want, abs=1e-9)
    assert res.price == pytest.approx(10.0, abs=0.01)
    assert res.std_error <= 1e-12  # identical paths up to rounding


def test_american_at_least_european_and_intrinsic():
    for lam in (0.25, 0.5, 0.75, 1.0):
        job = LsmcJob(gbm=_cfg(paths=10_000), strike=48.0, lam=lam)
        res = price_american_put(job)
        assert res.price >= res.european
        assert res.price >= max(48.0 - 38.0, 0.0) - 3 * res.std_error


def test_european_estimate_near_closed_form():
    # Black-Scholes put at these parameters = 11.1346
    job = LsmcJob(gbm=_cfg(paths=10_000, seed=5), strike=48.0, lam=1.0)
    res = price_american_put(job)
    assert res.european == pytest.approx(11.1346, abs=3 * 0.09)


def test_skipped_dates_when_no_itm_paths():
    # deep out of the money at sigma ~ 0: regression has no ITM paths at all
    job = LsmcJob(gbm=_cfg(sigma=1e-8, s0=100.0, paths=32, steps=8),
                  strike=48.0, lam=1.0)
    res = price_american_put(job)
    assert res.price == 0.0
    assert len(res.skipped_dates) == 7


def test_job_validation():
    with pytest.raises(DomainError):
        LsmcJob(gbm=_cfg(), strike=-1.0, lam=1.0)
    with pytest.raises(DomainError):
        LsmcJob(gbm=_cfg(), strike=48.0, lam=2.5)
    with pytest.raises(DomainError):
        GbmConfig(s0=-1.0, r=0.0, sigma=0.1, horizon=1.0, steps=1, paths=1)


@pytest.mark.parametrize("field", ["s0", "r", "sigma", "horizon"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gbm_config_rejects_nonfinite(field, bad):
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        _cfg(**{field: bad})


_SIGMA_EDGE = math.sqrt(1.7976931348623157e308)  # the largest sigma with finite sigma**2


@pytest.mark.parametrize("sigma", [1e160, math.nextafter(_SIGMA_EDGE, math.inf)])
def test_gbm_config_rejects_overflowing_sigma(sigma):
    with pytest.raises(DomainError, match="volatility squared overflows"):
        _cfg(sigma=sigma)


def test_gbm_config_accepts_the_largest_finite_sigma_squared():
    assert math.isfinite(_cfg(sigma=_SIGMA_EDGE).sigma ** 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_job_rejects_nonfinite_strike(bad):
    with pytest.raises(DomainError, match="strike"):
        LsmcJob(gbm=_cfg(), strike=bad, lam=1.0)


# ---------------------------------------------------------------------------
# integer fields
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field,bad", [
    ("seed", -1), ("seed", 1.5), ("seed", 1.0), ("seed", None),
    ("steps", 2.5), ("steps", 60.0), ("paths", 100.0), ("paths", "100"),
])
def test_gbm_config_rejects_bad_integers(field, bad):
    with pytest.raises(DomainError, match=field):
        _cfg(**{field: bad})


@pytest.mark.parametrize("field,bad,least", [("steps", 0, 1), ("paths", 0, 1),
                                             ("seed", -1, 0), ("steps", 60.0, 1)])
def test_gbm_config_integer_messages_state_the_rule(field, bad, least):
    with pytest.raises(DomainError) as info:
        _cfg(**{field: bad})
    assert str(info.value) == f"{field} must be an integer >= {least}, got {bad!r}"


def test_gbm_config_accepts_numpy_integers():
    cfg = _cfg(steps=np.int64(60), paths=np.int32(2000), seed=np.uint64(1))
    assert (cfg.steps, cfg.paths, cfg.seed) == (60, 2000, 1)
    assert all(type(v) is int for v in (cfg.steps, cfg.paths, cfg.seed))
    assert np.array_equal(simulate_paths(cfg), simulate_paths(_cfg()))


@pytest.mark.parametrize("bad", [2.0, 2.5])
def test_job_rejects_non_integer_degree(bad):
    with pytest.raises(DomainError, match="basis degree"):
        LsmcJob(gbm=_cfg(), strike=44.0, lam=0.5, basis_degree=bad)


# ---------------------------------------------------------------------------
# bit pins, recorded before paths were stored date-major and before the
# continuation came from the regression's own fitted values
# ---------------------------------------------------------------------------

def _hex(res):
    return res.price.hex(), res.std_error.hex(), res.european.hex()


_T9_EUROPEAN = "0x1.63f51774fe6f1p+3"


@pytest.mark.parametrize("lam,price,std_error", [
    (0.25, "0x1.65f77b8aeee8ap+3", "0x1.0528018b799c1p-4"),
    (0.5, "0x1.660fd5a5cac08p+3", "0x1.05e77b66622d4p-4"),
    (0.75, "0x1.66a6d7418388ep+3", "0x1.0c8eac6efefa3p-4"),
    (1.0, "0x1.677d31f484ac7p+3", "0x1.15e785e81f5ccp-4"),
])
def test_t9_prices_pinned(lam, price, std_error):
    res = price_american_put(LsmcJob(gbm=_cfg(paths=10_000), strike=48.0, lam=lam))
    assert _hex(res) == (price, std_error, _T9_EUROPEAN)
    assert res.skipped_dates == ()


def test_ill_conditioned_itm_job_pinned():
    # lambda = 0.08 at degree 3: the ladder columns are nearly collinear
    gbm = GbmConfig(s0=46.98, r=0.062, sigma=0.17, horizon=0.9783, steps=50,
                    paths=10_000, seed=1672110158)
    res = price_american_put(LsmcJob(gbm=gbm, strike=50.68, lam=0.08, basis_degree=3))
    assert _hex(res) == ("0x1.01a9268f8098cp+2", "0x1.a961f8fd76964p-6",
                         "0x1.c0fc62db2ae1ep+1")
    assert res.skipped_dates == ()


def test_zero_volatility_skipped_dates_pinned():
    # identical regressors up to rounding: two dates fall back to the mean
    res = price_american_put(LsmcJob(gbm=_cfg(sigma=0.0, paths=64), strike=48.0,
                                     lam=1.0))
    assert _hex(res) == ("0x1.3fc963f52062fp+3", "0x1.02061446ffa9ap-52",
                         "0x1.3340d0c3b59a6p+3")
    assert res.skipped_dates == (7, 49)


@pytest.mark.parametrize("cfg,digest", [
    (_cfg(), "e8673ee45b4b07b27a693e2b5ed428527c9289827942bdf3ff87feb8d712ce6f"),
    (GbmConfig(s0=100.0, r=0.0, sigma=0.2, horizon=1.0, steps=7, paths=33,
               seed=2**31 - 1),
     "6d3fe5f93fbd1bd2c8af1cbaf74d424e6244b3baa1f66c91128f60a90eef21f1"),
])
def test_simulated_paths_pinned(cfg, digest):
    paths = np.ascontiguousarray(simulate_paths(cfg))
    assert hashlib.sha256(paths.tobytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# block simulation
# ---------------------------------------------------------------------------

_B = pricing._BLOCK_PATHS


def _full_draw_paths(cfg):
    """simulate_paths as one (paths, steps) normal draw, the reference for the
    block loop: the same arithmetic on the whole array at once."""
    dt = cfg.horizon / cfg.steps
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    z = rng.standard_normal((cfg.paths, cfg.steps))
    z *= cfg.sigma * np.sqrt(dt)
    z += (cfg.r - 0.5 * cfg.sigma**2) * dt
    np.cumsum(z, axis=1, out=z)
    np.exp(z, out=z)
    z *= cfg.s0
    return np.hstack([np.full((cfg.paths, 1), cfg.s0), z])


@pytest.mark.parametrize("sigma", [0.0, 0.71])
@pytest.mark.parametrize("steps", [1, 7, 60])
@pytest.mark.parametrize("paths", [1, _B - 1, _B, _B + 1, 2 * _B + 1])
def test_block_simulation_equals_one_full_draw(paths, steps, sigma):
    cfg = _cfg(paths=paths, steps=steps, sigma=sigma)
    got = simulate_paths(cfg)
    assert got.T.flags.c_contiguous
    assert got.tobytes() == _full_draw_paths(cfg).tobytes()


@pytest.mark.parametrize("block", [1, 3, 64])
def test_any_block_size_gives_the_same_bits(block, monkeypatch):
    cfg = _cfg(paths=200, steps=9)
    monkeypatch.setattr(pricing, "_BLOCK_PATHS", block)
    assert simulate_paths(cfg).tobytes() == _full_draw_paths(cfg).tobytes()


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulation_holds_the_result_plus_one_block():
    cfg = _cfg(steps=50, paths=20_000)  # 10**6 path-steps
    simulate_paths(_cfg(steps=2, paths=3))  # warm the generator code
    peak = _traced_peak(lambda: simulate_paths(cfg))
    assert peak <= 8 * (cfg.steps + 1) * cfg.paths + 8 * _B * cfg.steps + 2**20


def test_pricing_job_holds_the_paths_plus_one_block():
    job = LsmcJob(gbm=_cfg(paths=10_000), strike=48.0, lam=0.5)  # the T9 size
    price_american_put(job)  # warm imports and the first call's allocations
    cfg = job.gbm
    peak = _traced_peak(lambda: price_american_put(job))
    assert peak <= 8 * (cfg.steps + 1) * cfg.paths + 8 * _B * cfg.steps + 2 * 2**20


def test_overflowing_paths_are_one_domain_error():
    # a 1000 % rate over one year: exp(~1000) overflows every path
    job = LsmcJob(gbm=GbmConfig(s0=40.0, r=1000.0, sigma=0.2, horizon=1.0, steps=1,
                                paths=100), strike=44.0, lam=1.0)
    named = re.escape("s0 = 40.0, r = 1000.0, sigma = 0.2 and horizon = 1.0")
    with pytest.raises(DomainError, match=named) as own:
        price_american_put(job)
    with pytest.raises(DomainError, match=named) as shared:
        price_american_put(job, simulate_paths(job.gbm))
    assert str(own.value) == str(shared.value)


def test_some_overflowing_paths_are_one_domain_error():
    # log price 709.48 + 0.2 z: past log(float max) = 709.78 only where z > 1.5,
    # so most paths stay finite and the check must still see the others
    cfg = GbmConfig(s0=1.0, r=709.5, sigma=0.2, horizon=1.0, steps=1, paths=3000)
    with pytest.raises(DomainError, match=r"simulated prices overflow: s0 = 1\.0, "
                                          r"r = 709\.5"):
        simulate_paths(cfg)
    ok = simulate_paths(GbmConfig(s0=1.0, r=709.0, sigma=0.2, horizon=1.0, steps=1,
                                  paths=3000))  # z > 4 is needed there: none
    assert np.isfinite(ok).all()


def test_underflowing_paths_keep_zero_prices():
    # a -600 rate takes the second date's prices to about 40 * e^-900, below
    # the smallest float: they underflow to 0, which is kept
    cfg = GbmConfig(s0=40.0, r=-600.0, sigma=0.2, horizon=1.5, steps=2, paths=10)
    paths = simulate_paths(cfg)
    assert (paths[:, 1] > 0).all() and (paths[:, 2] == 0.0).all()


# ---------------------------------------------------------------------------
# precomputed paths
# ---------------------------------------------------------------------------

def test_paths_are_date_major():
    cfg = _cfg(paths=50, steps=7)
    paths = simulate_paths(cfg)
    assert paths.shape == (50, 8)
    assert paths.T.flags.c_contiguous


@pytest.mark.parametrize("lam,degree", [(0.08, 3), (0.75, 2), (2.0, 1)])
def test_precomputed_paths_price_bit_for_bit(lam, degree):
    job = LsmcJob(gbm=_cfg(), strike=48.0, lam=lam, basis_degree=degree)
    paths = simulate_paths(job.gbm)
    before = paths.copy()
    own = price_american_put(job)
    shared = price_american_put(job, paths)
    assert _hex(shared) == _hex(own)
    assert shared.skipped_dates == own.skipped_dates
    assert np.array_equal(paths, before)  # read, never written
    # a path-major copy is accepted and gives the same bits
    assert _hex(price_american_put(job, np.ascontiguousarray(paths))) == _hex(own)


def test_precomputed_paths_validated():
    job = LsmcJob(gbm=_cfg(paths=20, steps=5), strike=48.0, lam=1.0)
    paths = simulate_paths(job.gbm)
    for bad in (paths.T, paths[:, :-1], paths[:-1], paths[0]):
        with pytest.raises(DomainError, match="shape"):
            price_american_put(job, bad)
    for value in (math.nan, math.inf, -1.0):
        bad = paths.copy()
        bad[3, 2] = value
        with pytest.raises(DomainError, match="finite"):
            price_american_put(job, bad)


def test_t9_simulates_once(monkeypatch):
    from fraclsq import reproduce

    calls = []

    def counting(cfg):
        calls.append(cfg)
        return simulate_paths(cfg)

    monkeypatch.setattr(reproduce, "simulate_paths", counting)
    monkeypatch.setattr(pricing, "simulate_paths", counting)
    rows = reproduce.run_table("T9", paths=500)
    assert len(calls) == 1
    assert len(rows) == 12


# ---------------------------------------------------------------------------
# the pricer's regression is the public discrete fit
# ---------------------------------------------------------------------------

def _reference_lsmc(job):
    """Longstaff-Schwartz written with the public API: a DataSet per date,
    fit_discrete_normal, and predict at the in-the-money spots."""
    cfg = job.gbm
    dates = np.ascontiguousarray(simulate_paths(cfg).T)
    disc = np.exp(-cfg.r * (cfg.horizon / cfg.steps))
    cash = np.maximum(job.strike - dates[-1], 0.0)
    skipped = []
    for t in range(cfg.steps - 1, 0, -1):
        cash *= disc
        intrinsic = job.strike - dates[t]
        itm = intrinsic > 0
        if itm.sum() < job.basis_degree + 1:
            skipped.append(t)
            continue
        data = DataSet(dates[t][itm], cash[itm])
        try:
            fit = fit_discrete_normal(data, job.lam, job.basis_degree)
            continuation = predict(fit, data.xs)
        except ConditioningError:
            skipped.append(t)
            continuation = np.full(len(data), data.ys.mean())
        cash[itm] = np.where(intrinsic[itm] > continuation, intrinsic[itm], data.ys)
    cash *= disc
    price = float(cash.mean())
    std_error = float(cash.std(ddof=1) / np.sqrt(cfg.paths))
    european = float(np.exp(-cfg.r * cfg.horizon)
                     * np.maximum(job.strike - dates[-1], 0.0).mean())
    return (price.hex(), std_error.hex(), european.hex()), tuple(reversed(skipped))


@pytest.mark.parametrize("job", [
    *(LsmcJob(gbm=_cfg(), strike=48.0, lam=lam, basis_degree=degree)
      for lam in (0.08, 0.75, 2.0) for degree in (1, 2, 3)),
    LsmcJob(gbm=_cfg(sigma=0.0, paths=64), strike=48.0, lam=1.0),
], ids=lambda job: f"lam{job.lam}-d{job.basis_degree}-sigma{job.gbm.sigma}")
def test_price_equals_public_discrete_fit_loop(job):
    res = price_american_put(job)
    assert (_hex(res), res.skipped_dates) == _reference_lsmc(job)


def test_discounted_strike_overflow_names_the_rate():
    # a large negative rate compounds the discounted cash past the float range;
    # strike * exp(-r * horizon) bounds that cash, so the job rejects the rate
    with pytest.raises(DomainError, match=r"rate r = -700\.0 overflows the discounted "
                                          r"strike 1e\+300"):
        LsmcJob(gbm=_cfg(r=-700.0, paths=50), strike=1e300, lam=1.0)
    cfg = _cfg(r=-700.0, horizon=0.5, steps=4, paths=50)
    # 1e150 * e^350 ~ 1e302 is finite, so the rate passes; 50 paths of that
    # cash overflow the variance sum, so the strike is named instead
    with pytest.raises(DomainError, match=r"strike 1e\+150 is too large"):
        LsmcJob(gbm=cfg, strike=1e150, lam=1.0)
    LsmcJob(gbm=cfg, strike=10.0, lam=1.0)  # 50 * (10 * e^350)**2 ~ 5e307 is finite


def test_per_step_discount_overflow_names_the_rate():
    # exp(-r * horizon / steps) itself overflows past -r * dt = log(float max)
    edge = math.log(sys.float_info.max)
    _cfg(r=-edge * 0.999, horizon=1.0, steps=1)
    for r in (-edge * 1.001, -1e308):
        with pytest.raises(DomainError, match=re.escape(f"rate r = {r} overflows the "
                                                        f"discount factor")):
            _cfg(r=r, horizon=1.0, steps=1)


def test_power_table_overflow_names_strike_lambda_and_degree():
    # in-the-money spots lie below the strike, so paths * strike**(2 * degree * lam)
    # bounds the regression's moment sums; past float max the job is rejected
    cfg = _cfg(s0=1e150, r=0.0, sigma=0.2, horizon=0.5, steps=4, paths=100)
    with pytest.raises(DomainError, match=re.escape(
            "strike 1.1e+150 is too large for lambda = 2.0 and basis degree 2")):
        LsmcJob(gbm=cfg, strike=1.1e150, lam=2.0)
    # the edge for lam = 2, degree 2: strike**8 * 100 = float max
    edge = math.exp(math.log(sys.float_info.max / 100) / 8)
    LsmcJob(gbm=cfg, strike=edge * 0.999, lam=2.0)
    with pytest.raises(DomainError, match="basis degree 2"):
        LsmcJob(gbm=cfg, strike=edge * 1.001, lam=2.0)
    with pytest.raises(DomainError, match="basis degree 3"):
        LsmcJob(gbm=cfg, strike=edge * 0.999, lam=2.0, basis_degree=3)
    LsmcJob(gbm=cfg, strike=edge * 0.999, lam=1.0, basis_degree=3)
    # strikes up to 1 bound every power by 1, whatever the degree
    LsmcJob(gbm=cfg, strike=1.0, lam=2.0, basis_degree=10**400)
    with pytest.raises(DomainError, match="basis degree 10000000000"):
        LsmcJob(gbm=cfg, strike=1.5, lam=2.0, basis_degree=10**10)


def test_power_table_bound_is_checked_last():
    # 1e100 passes the cash-flow bound but not the power-table one (1e800), so
    # a bad lambda or degree is named first
    cfg = _cfg(r=0.0, paths=100)
    with pytest.raises(DomainError, match="lambda must lie in"):
        LsmcJob(gbm=cfg, strike=1e100, lam=2.5)
    with pytest.raises(DomainError, match="basis degree must be"):
        LsmcJob(gbm=cfg, strike=1e100, lam=2.0, basis_degree=0)
    with pytest.raises(DomainError, match=r"strike 1e\+100 is too large for lambda"):
        LsmcJob(gbm=cfg, strike=1e100, lam=2.0)


@pytest.mark.parametrize("kw, message", [
    (dict(sigma=-0.2), "volatility must be >= 0, got -0.2"),
    (dict(horizon=0.0), "horizon must be positive, got 0.0"),
], ids=["negative_sigma", "zero_horizon"])
def test_gbm_config_rejects_bad_input(kw, message):
    with pytest.raises(DomainError) as info:
        _cfg(**kw)
    assert str(info.value) == message
