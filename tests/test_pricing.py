import math

import numpy as np
import pytest

from fraclsq import (
    DomainError,
    GbmConfig,
    LsmcJob,
    price_american_put,
    simulate_paths,
)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_job_rejects_nonfinite_strike(bad):
    with pytest.raises(DomainError, match="strike"):
        LsmcJob(gbm=_cfg(), strike=bad, lam=1.0)
