"""Longstaff-Schwartz Monte Carlo pricing of an American put with the
fractional ladder {1, S^lam, S^(2*lam)} as the regression basis.

Paths follow the exact log-normal solution of geometric Brownian motion, so
there is no time-discretization error; the only approximations are the
Monte Carlo average and the regression-based exercise policy.  Normal
variates come from a counter-based Philox generator keyed by the job seed,
which makes every run bit-reproducible.  Paths are stored date-major, so
the pricer reads each exercise date as one contiguous row.
"""

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConditioningError, DomainError, check_abscissae, check_degree,
                     check_lambda)
from .lsq import _discrete_fit

__all__ = ["GbmConfig", "LsmcJob", "PriceResult", "simulate_paths",
           "price_american_put"]

#: cap on steps * paths, which keeps one job's memory bounded: the paths are
#: one (steps+1) x paths float64 array, 80 MB at the cap, plus one block
PATH_STEP_BUDGET = 10_000_000
#: paths drawn per block of ``simulate_paths`` (about 400 KB at 50 steps)
_BLOCK_PATHS = 1024


def _discount(r, t):
    """exp(-r * t), or DomainError naming the rate when it overflows."""
    try:
        return math.exp(-r * t)
    except OverflowError:
        raise DomainError(f"rate r = {r} overflows the discount factor exp(-r*t) "
                          f"at t = {t}") from None


@dataclass(frozen=True)
class GbmConfig:
    """Geometric Brownian motion sampling grid.

    Rates are per year, volatility per sqrt(year), horizon in years; the
    grid has ``steps`` exercise dates after time zero, and steps*paths may
    not exceed ``PATH_STEP_BUDGET``.  sigma**2 enters the drift, so sigma may
    not exceed sqrt(float max), about 1.34e154, and a negative rate may not
    make the per-step discount exp(-r*horizon/steps) overflow.  ``steps``
    and ``paths`` are integers >= 1 and ``seed`` one >= 0 (numpy integers
    are accepted).
    """

    s0: float
    r: float
    sigma: float
    horizon: float
    steps: int
    paths: int
    seed: int = 0

    def __post_init__(self):
        for name, least in (("steps", 1), ("paths", 1), ("seed", 0)):
            object.__setattr__(self, name,
                               check_degree(getattr(self, name), least=least, noun=name))
        for name in ("s0", "r", "sigma", "horizon"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if self.s0 <= 0:
            raise DomainError(f"initial price must be positive, got {self.s0}")
        if self.sigma < 0:
            raise DomainError(f"volatility must be >= 0, got {self.sigma}")
        if self.sigma > math.sqrt(sys.float_info.max):
            raise DomainError(f"volatility squared overflows, got sigma = {self.sigma}")
        if self.horizon <= 0:
            raise DomainError(f"horizon must be positive, got {self.horizon}")
        _discount(self.r, self.horizon / self.steps)
        if self.steps * self.paths > PATH_STEP_BUDGET:
            raise DomainError(
                f"steps*paths = {self.steps * self.paths} exceeds the budget "
                f"of {PATH_STEP_BUDGET} path-steps"
            )


@dataclass(frozen=True)
class LsmcJob:
    """An American-put pricing job: market config, strike and basis choice.

    strike * exp(-r*horizon) must not overflow (a large negative rate with a
    large strike).  M = strike * max(1, exp(-r*horizon)) bounds every
    discounted cash flow, so the price's mean and variance sums stay finite
    when paths * M**2 <= float max; a larger strike is rejected."""

    gbm: GbmConfig
    strike: float
    lam: float
    basis_degree: int = 2

    def __post_init__(self):
        if not (self.strike > 0 and math.isfinite(self.strike)):
            raise DomainError(f"strike must be positive and finite, got {self.strike}")
        disc = _discount(self.gbm.r, self.gbm.horizon)
        if not math.isfinite(self.strike * disc):
            raise DomainError(f"rate r = {self.gbm.r} overflows the discounted strike "
                              f"{self.strike} * exp(-r*t) at t = {self.gbm.horizon}")
        bound = self.strike * max(1.0, disc)
        if self.gbm.paths * bound * bound > sys.float_info.max:
            raise DomainError(f"strike {self.strike} is too large: the cash-flow bound "
                              f"M = strike * max(1, exp(-r*t)) = {bound} overflows the "
                              f"price's variance sum over {self.gbm.paths} paths "
                              f"(need paths * M**2 <= float max)")
        check_lambda(self.lam)
        object.__setattr__(self, "basis_degree",
                           check_degree(self.basis_degree, least=1, noun="basis degree"))
        # an in-the-money spot is below the strike, so every power-table entry
        # S^(k*lam), k <= 2 * degree, is below max(1, strike)^(2 * degree * lam);
        # compared in log space, the degree kept an exact int
        growth = 2 * self.lam * math.log(max(1.0, self.strike))
        if growth > 0 and \
                self.basis_degree > math.log(sys.float_info.max / self.gbm.paths) / growth:
            raise DomainError(f"strike {self.strike} is too large for lambda = {self.lam} "
                              f"and basis degree {self.basis_degree}: the regression's "
                              f"moment sums over {self.gbm.paths} paths overflow "
                              f"(need paths * max(1, strike)**(2 * degree * lambda) "
                              f"<= float max)")


class PriceResult(NamedTuple):
    price: float
    std_error: float
    european: float
    skipped_dates: tuple


def simulate_paths(cfg):
    """paths x (steps+1) matrix of prices on the uniform grid t = k*horizon/steps.

    Exact log-normal stepping: S_{t+1} = S_t exp((r - sigma^2/2) dt
    + sigma sqrt(dt) Z).  Deterministic given the seed (Philox stream).
    The result is the transpose of a C-contiguous (steps+1) x paths buffer,
    so ``paths.T[t]`` (all paths at date t) is contiguous.  The normals are
    drawn ``_BLOCK_PATHS`` whole paths at a time into one reused block, which
    takes the Philox stream in the order of one (paths, steps) draw, so a job
    holds the result plus one block: 80 MB at the path-step budget, where a
    full-size draw beside the result peaked at 160 MB.  Each block's
    log-increments are copied into the date-major buffer, and their running
    sums are then one add per date over all paths: cumsum's own order, with
    numpy's loop running over the paths instead of along each path's few
    dates.  A price that overflows raises DomainError; one that underflows
    to 0 is kept.
    """
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    dates = np.empty((cfg.steps + 1, cfg.paths))
    dates[0] = cfg.s0
    logs = dates[1:]
    block = np.empty((min(_BLOCK_PATHS, cfg.paths), cfg.steps))
    # the log-increments become their running sums and then the prices in
    # place, every entry rounded as in s0 * exp(cumsum(drift + vol * z)); an
    # overflow leaves inf (or nan from inf - inf), caught below
    with np.errstate(over="ignore", invalid="ignore"):
        dt = cfg.horizon / cfg.steps
        vol = cfg.sigma * np.sqrt(dt)
        drift = (cfg.r - 0.5 * cfg.sigma**2) * dt
        for a in range(0, cfg.paths, _BLOCK_PATHS):
            z = block[:min(_BLOCK_PATHS, cfg.paths - a)]
            rng.standard_normal(out=z)
            z *= vol
            z += drift
            logs[:, a:a + len(z)] = z.T
        for k in range(1, cfg.steps):
            np.add(logs[k - 1], logs[k], out=logs[k])
        np.exp(logs, out=logs)
        logs *= cfg.s0
        # prices are >= 0, so the largest is inf or nan when any is
        if not np.isfinite(logs.max()):
            raise DomainError(
                f"simulated prices overflow: s0 = {cfg.s0}, r = {cfg.r}, "
                f"sigma = {cfg.sigma} and horizon = {cfg.horizon} drive a path "
                f"past the float range")
    return dates.T


def price_american_put(job, paths=None):
    """Backward-induction Longstaff-Schwartz price of the American put.

    At each exercise date the continuation value is regressed on
    {1, S^lam, ..., S^(degree*lam)} over the in-the-money paths only;
    exercise happens where the immediate payoff beats the fitted
    continuation.  The paths are gathered once per date and fitted by
    ``lsq._discrete_fit``, the arithmetic of ``fit_discrete_normal`` and
    ``predict`` with no DataSet or FitResult and no condition estimate, in one
    power table allocated per job.  Dates with too few in-the-money paths (or
    a degenerate regressor set, e.g. sigma = 0) skip the regression and fall
    back to the sample-mean continuation; they are reported in
    ``skipped_dates``.

    ``paths`` optionally supplies the price paths, as returned by
    ``simulate_paths(job.gbm)``: a paths x (steps+1) array of finite prices
    >= 0, which is read and never modified.  Passing the same array to jobs
    that differ only in strike, lambda or degree prices them all on one
    simulation, with the same bits as simulating inside each call; the T9
    table prices its four lambdas this way.  Any other layout is accepted
    but copied to the date-major one.

    Returns PriceResult(price, std_error, european, skipped_dates) where
    ``european`` discounts only the terminal payoffs of the same paths.
    """
    cfg = job.gbm
    if paths is None:
        paths = simulate_paths(cfg)
    else:
        paths = np.asarray(paths, dtype=float)
        if paths.shape != (cfg.paths, cfg.steps + 1):
            raise DomainError(
                f"paths must have shape {(cfg.paths, cfg.steps + 1)} "
                f"(paths, steps+1), got {paths.shape}")
        check_abscissae(paths, "path prices")
    dates = np.ascontiguousarray(paths.T)  # row t = every path at date t
    dt = cfg.horizon / cfg.steps
    disc = np.exp(-cfg.r * dt)
    strike = job.strike

    cash = np.maximum(strike - dates[-1], 0.0)
    european = float(np.exp(-cfg.r * cfg.horizon) * cash.mean())
    # one power table for every date's regression (row 0 takes the moments):
    # a buffer per date, sized by that date's in-the-money count, left the
    # lsmc benchmark's peak RSS about 4.7 MiB higher in most runs
    table = np.empty((cfg.paths + 1, 2 * job.basis_degree + 1))
    skipped = []
    for t in range(cfg.steps - 1, 0, -1):
        cash *= disc
        # spot < strike is exactly strike - spot > 0 for finite prices
        itm = np.flatnonzero(dates[t] < strike)
        if len(itm) < job.basis_degree + 1:
            skipped.append(t)
            continue
        spot, ys = dates[t][itm], cash[itm]
        try:
            continuation = _discrete_fit(spot, ys, None, job.lam, job.basis_degree,
                                         table, cond=False)[2]
        except ConditioningError:
            # all regressors (nearly) identical: best fit is the plain mean
            skipped.append(t)
            continuation = np.full(len(itm), ys.mean())
        intrinsic = strike - spot
        cash[itm] = np.where(intrinsic > continuation, intrinsic, ys)
    cash *= disc

    price = float(cash.mean())
    std_error = float(cash.std(ddof=1) / np.sqrt(cfg.paths)) if cfg.paths > 1 else 0.0
    return PriceResult(price, std_error, european, tuple(reversed(skipped)))
