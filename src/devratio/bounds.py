"""Closed-form ratio bounds and the numeric smoothness constant.

Pure functions: risk-aversion bounds, perturbation stability, the
smoothness constant mu_hat of a latency function, and the derived
biased-price-of-anarchy and path-deviation bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Curve
from .errors import (DemandNotNormalized, EpsilonOutOfRange, GammaOutOfRange,
                     MuTooLarge, ParameterOutOfRange, Unbounded)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ParameterOutOfRange(message)


def _require_finite(*values: float) -> None:
    _require(all(map(math.isfinite, values)),
             f"arguments must be finite, got {', '.join(map(str, values))}")


def _half_ceil(n: int) -> int:
    return math.ceil((n - 1) / 2)


def pra_bound(gamma: float, kappa: float, n: int, r: float) -> float:
    """Worst-case cost ratio of risk-averse vs risk-neutral equilibria.

    1 + gamma*kappa*ceil((n-1)/2)*r for gamma >= 0, and
    1 - gamma*kappa/(1+gamma*kappa)*ceil((n-1)/2)*r for -1/kappa < gamma <= 0.
    """
    _require_finite(gamma, kappa, r)
    _require(kappa > 0.0 and n >= 2 and r > 0.0,
             f"need kappa > 0, n >= 2, r > 0; got {kappa}, {n}, {r}")
    if gamma <= -1.0 / kappa:
        raise GammaOutOfRange(f"gamma={gamma} must exceed -1/kappa={-1/kappa}")
    gk = gamma * kappa
    if gamma >= 0.0:
        return 1.0 + gk * _half_ceil(n) * r
    return 1.0 - gk / (1.0 + gk) * _half_ceil(n) * r


def pra_lower_even(gamma: float, kappa: float, n: int, r: float) -> float:
    """Achievable ratio on even-n constructions; closes the gap at r=1.

    (1 + gamma*kappa*r*ceil((n-1)/2)) - gamma*kappa*(r-1) for gamma >= 0,
    with gamma*kappa replaced by -gamma*kappa/(1+gamma*kappa) for negative
    gamma.
    """
    _require(n % 2 == 0, f"even number of nodes required, got n={n}")
    _require_finite(gamma, kappa, r)
    _require(kappa > 0.0 and n >= 2 and r > 0.0,
             f"need kappa > 0, n >= 2, r > 0; got {kappa}, {n}, {r}")
    if gamma <= -1.0 / kappa:
        raise GammaOutOfRange(f"gamma={gamma} must exceed -1/kappa={-1/kappa}")
    gk = gamma * kappa
    if gamma >= 0.0:
        return (1.0 + gk * r * _half_ceil(n)) - gk * (r - 1.0)
    factor = gk / (1.0 + gk)
    return (1.0 - factor * r * _half_ceil(n)) + factor * (r - 1.0)


def stability_bound(epsilon: float, n: int, r: float) -> float:
    """Relative cost error under multiplicative latency perturbations in
    [1-eps, 1+eps]: 2*eps/(1-eps) * ceil((n-1)/2) * r."""
    if not (0.0 < epsilon < 1.0):
        raise EpsilonOutOfRange(f"epsilon={epsilon} must lie in (0, 1)")
    _require(n >= 2 and 0.0 < r < math.inf,
             f"need n >= 2, 0 < r < inf; got {n}, {r}")
    return 2.0 * epsilon / (1.0 - epsilon) * _half_ceil(n) * r


@dataclass(frozen=True)
class SmoothnessQuery:
    latency: Curve
    beta: float
    domain_max: float
    grid: int = 512

    def __post_init__(self):
        _require(0.0 < self.domain_max < math.inf,
                 f"domain_max={self.domain_max} must be positive and finite")
        _require(self.grid >= 100, f"grid={self.grid} must be at least 100")
        _require(0.0 <= self.beta < math.inf,
                 f"beta={self.beta} must be non-negative and finite")


@dataclass(frozen=True)
class MuHatResult:
    value: float
    arg_x: float
    arg_z: float
    #: argmax on the domain boundary — the supremum may diverge beyond it
    boundary: bool

    def __float__(self) -> float:
        return self.value


def mu_hat(query: SmoothnessQuery) -> MuHatResult:
    """sup over x, z in (0, domain_max] of z(l(x)-(1+b)l(z)) / (x l(x)).

    Grid maximum, refined locally. The grid keeps one grid² float matrix of
    numerators (rows x, columns z); fl(a/d) rises with a for d > 0, so x is
    the first row with the best max(num)/(x l(x)) and z its first best
    quotient. Rows with x l(x) = 0 score 0; a positive numerator diverges.
    """
    from scipy.optimize import minimize_scalar
    l, beta = query.latency, query.beta
    h = query.domain_max / query.grid
    pts = np.linspace(h, query.domain_max, query.grid)
    lv = np.array([l.eval(p) for p in pts])
    num = np.subtract.outer(lv, (1.0 + beta) * lv)
    num *= pts
    den = pts * lv
    zero_den = den <= 0.0
    if np.any(num[zero_den] > 1e-15):
        raise Unbounded("positive numerator over zero denominator")
    with np.errstate(divide="ignore", invalid="ignore"):
        i = int(np.argmax(np.where(zero_den, 0.0, num.max(axis=1) / den)))
        row = np.where(zero_den[i], 0.0, num[i] / den[i])
    j = int(np.argmax(row))
    best_x, best_z = float(pts[i]), float(pts[j])

    def value(x: float, z: float) -> float:
        d = x * l.eval(x)
        if d <= 0.0:
            return 0.0
        return z * (l.eval(x) - (1.0 + beta) * l.eval(z)) / d

    # alternate 1-D refinements around the grid argmax
    for _ in range(4):
        res = minimize_scalar(lambda z: -value(best_x, z), bounds=(
            max(best_z - h, 0.0), min(best_z + h, query.domain_max)),
            method="bounded", options={"xatol": 1e-12})
        best_z = float(res.x)
        res = minimize_scalar(lambda x: -value(x, best_z), bounds=(
            max(best_x - h, 1e-15), min(best_x + h, query.domain_max)),
            method="bounded", options={"xatol": 1e-12})
        best_x = float(res.x)

    best = max(float(row[j]), value(best_x, best_z), 0.0)
    boundary = best_x >= query.domain_max - h or best_z >= query.domain_max - h
    return MuHatResult(best, best_x, best_z, boundary)


def bpoa_bound(mu_hat_value: float, beta: float) -> float:
    """(1+beta) / (1-mu): deviated equilibrium cost vs the social optimum."""
    _require_finite(mu_hat_value, beta)
    if mu_hat_value >= 1.0:
        raise MuTooLarge(f"mu={mu_hat_value} must be below 1")
    return (1.0 + beta) / (1.0 - mu_hat_value)


def path_deviation_bound(mu_hat_zero: float, beta: float) -> float:
    """(1+beta) / (1-(1+beta)*mu0) for path-based deviations; needs the
    beta=0 smoothness constant mu0 below 1/(1+beta)."""
    _require_finite(mu_hat_zero, beta)
    if mu_hat_zero >= 1.0 / (1.0 + beta):
        raise MuTooLarge(
            f"mu0={mu_hat_zero} must be below 1/(1+beta)={1 / (1 + beta)}")
    return (1.0 + beta) / (1.0 - (1.0 + beta) * mu_hat_zero)


def bpoa_dr_gap(mu_hat_value: float, beta: float) -> float:
    """(1+beta)*mu/(1-mu): gap between the optimum-relative and
    equilibrium-relative worst-case ratios."""
    _require_finite(mu_hat_value, beta)
    if mu_hat_value >= 1.0:
        raise MuTooLarge(f"mu={mu_hat_value} must be below 1")
    return (1.0 + beta) * mu_hat_value / (1.0 - mu_hat_value)


def heterogeneous_bound(taus: list[float], demands: list[float],
                        beta: float) -> float:
    """1 + beta * sum_i tau_i r_i for players with individual risk factors
    tau_i in [0, 1]; demands must be normalized to sum to one.

    Only valid when the alternating path of every commodity consists of a
    single all-Z segment (e.g. series-parallel networks); callers supply
    flows elsewhere to check that structure.
    """
    _require_finite(*taus, *demands, beta)
    if abs(sum(demands) - 1.0) > 1e-9:
        raise DemandNotNormalized(f"demands sum to {sum(demands)}, need 1")
    _require(len(taus) == len(demands),
             f"{len(taus)} risk factors for {len(demands)} demands")
    _require(all(t >= 0.0 for t in taus), f"risk factors {taus} must be >= 0")
    return 1.0 + beta * sum(t * r for t, r in zip(taus, demands))
