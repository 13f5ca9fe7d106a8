"""Longstaff-Schwartz Monte Carlo pricing of an American put with the
fractional ladder {1, S^lam, S^(2*lam)} as the regression basis.

Paths follow the exact log-normal solution of geometric Brownian motion, so
there is no time-discretization error; the only approximations are the
Monte Carlo average and the regression-based exercise policy.  Normal
variates come from a counter-based Philox generator keyed by the job seed,
which makes every run bit-reproducible.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConditioningError, DomainError
from .lsq import DataSet, fit_discrete_normal, predict

__all__ = ["GbmConfig", "LsmcJob", "PriceResult", "simulate_paths",
           "price_american_put"]


@dataclass(frozen=True)
class GbmConfig:
    """Geometric Brownian motion sampling grid.

    Rates are per year, volatility per sqrt(year), horizon in years; the
    grid has ``steps`` exercise dates after time zero.  ``budget`` caps
    steps*paths to keep one job's memory bounded.
    """

    s0: float
    r: float
    sigma: float
    horizon: float
    steps: int
    paths: int
    seed: int = 0
    budget: int = 10_000_000

    def __post_init__(self):
        for name in ("s0", "r", "sigma", "horizon"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if self.s0 <= 0:
            raise DomainError(f"initial price must be positive, got {self.s0}")
        if self.sigma < 0:
            raise DomainError(f"volatility must be >= 0, got {self.sigma}")
        if self.horizon <= 0:
            raise DomainError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1 or self.paths < 1:
            raise DomainError("need at least one step and one path")
        if self.steps * self.paths > self.budget:
            raise DomainError(
                f"steps*paths = {self.steps * self.paths} exceeds the budget "
                f"of {self.budget} path-steps"
            )


@dataclass(frozen=True)
class LsmcJob:
    """An American-put pricing job: market config, strike and basis choice."""

    gbm: GbmConfig
    strike: float
    lam: float
    basis_degree: int = 2

    def __post_init__(self):
        if not (self.strike > 0 and math.isfinite(self.strike)):
            raise DomainError(f"strike must be positive and finite, got {self.strike}")
        if not 0 < self.lam <= 2:
            raise DomainError(f"lambda must lie in (0, 2], got {self.lam}")
        if self.basis_degree < 1:
            raise DomainError("basis degree must be >= 1")


class PriceResult(NamedTuple):
    price: float
    std_error: float
    european: float
    skipped_dates: tuple


def simulate_paths(cfg):
    """paths x (steps+1) matrix of prices on the uniform grid t = k*horizon/steps.

    Exact log-normal stepping: S_{t+1} = S_t exp((r - sigma^2/2) dt
    + sigma sqrt(dt) Z).  Deterministic given the seed (Philox stream).
    """
    dt = cfg.horizon / cfg.steps
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    z = rng.standard_normal((cfg.paths, cfg.steps))
    increments = (cfg.r - 0.5 * cfg.sigma**2) * dt + cfg.sigma * np.sqrt(dt) * z
    paths = np.empty((cfg.paths, cfg.steps + 1))
    paths[:, 0] = cfg.s0
    paths[:, 1:] = cfg.s0 * np.exp(np.cumsum(increments, axis=1))
    return paths


def price_american_put(job):
    """Backward-induction Longstaff-Schwartz price of the American put.

    At each exercise date the continuation value is regressed on
    {1, S^lam, ..., S^(degree*lam)} over the in-the-money paths only;
    exercise happens where the immediate payoff beats the fitted
    continuation.  Dates with too few in-the-money paths (or a degenerate
    regressor set, e.g. sigma = 0) skip the regression and fall back to the
    sample-mean continuation; they are reported in ``skipped_dates``.

    Returns PriceResult(price, std_error, european, skipped_dates) where
    ``european`` discounts only the terminal payoffs of the same paths.
    """
    cfg = job.gbm
    paths = simulate_paths(cfg)
    dt = cfg.horizon / cfg.steps
    disc = np.exp(-cfg.r * dt)
    strike = job.strike

    cash = np.maximum(strike - paths[:, -1], 0.0)
    skipped = []
    for t in range(cfg.steps - 1, 0, -1):
        cash *= disc
        spot = paths[:, t]
        intrinsic = strike - spot
        itm = intrinsic > 0
        n_itm = int(itm.sum())
        if n_itm < job.basis_degree + 1:
            skipped.append(t)
            continue
        x = spot[itm]
        try:
            fit = fit_discrete_normal(DataSet(x, cash[itm]), job.lam,
                                      job.basis_degree)
            continuation = predict(fit, x)
        except ConditioningError:
            # all regressors (nearly) identical: best fit is the plain mean
            skipped.append(t)
            continuation = np.full(n_itm, cash[itm].mean())
        exercise = intrinsic[itm] > continuation
        idx = np.flatnonzero(itm)[exercise]
        cash[idx] = intrinsic[idx]
    cash *= disc

    price = float(cash.mean())
    std_error = float(cash.std(ddof=1) / np.sqrt(cfg.paths)) if cfg.paths > 1 else 0.0
    european = float(np.exp(-cfg.r * cfg.horizon)
                     * np.maximum(strike - paths[:, -1], 0.0).mean())
    return PriceResult(price, std_error, european, tuple(reversed(skipped)))
