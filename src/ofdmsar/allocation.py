"""Per-subcarrier power allocation and waveform-design optimization.

Covers the three allocation regimes (imaging-optimal uniform, rate-maximizing
water-filling, and the rate-constrained expected-MSE minimizer), plus the
evaluators they trade against: achievable rate and expected LS-estimator MSE
(EMSE) under a symbol law, ``ConstantModulus`` or Gaussian (``TruncationPolicy``).

Conventions used throughout:

* Channel gains are ``|h_k|^2 / sigma_n^2`` (dimensionless, per unit power).
* Rate is in bits per channel use per OFDM symbol, i.e. ``sum log2(1 + P_k g_k)``
  without any bandwidth prefactor.  The bandwidth scale is a constant and does
  not change any optimizer; callers that want throughput multiply by B.
* Each symbol law holds its EMSE constant ``A``: 1 for constant modulus; for
  Gaussian symbols the integral of ``exp(-t^2)/t``, which diverges at zero, so
  its lower limit is the q-quantile of the unit Rayleigh magnitude (default
  q = 1e-3, i.e. keep the top 99.9% of the magnitude distribution).  A enters
  only the EMSE value (``emse_of_alloc``): it scales the objective of the
  rate-constrained design, so the optimizer works in units of it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, InfeasibleChannelError, InfeasibleRateError

__all__ = ["PowerAllocation", "ChannelGains", "ConstantModulus", "TruncationPolicy",
           "SymbolLaw", "water_filling", "achievable_rate", "emse_of_alloc",
           "emse_rate_constrained", "tradeoff_sweep", "TradeoffPoint"]


@dataclass(frozen=True)
class PowerAllocation:
    """Nonnegative per-subcarrier powers summing to a fixed budget."""

    powers: np.ndarray
    total: float

    def __post_init__(self):
        powers = np.asarray(self.powers, dtype=float)
        object.__setattr__(self, "powers", powers)
        if powers.ndim != 1:
            raise DimensionError("powers must be a 1-D vector")
        if (powers < 0).any() or not np.isfinite(powers).all():
            raise ValueError("powers must be finite and nonnegative")
        if self.total <= 0:
            raise ValueError("total power budget must be positive")
        if abs(powers.sum() - self.total) > 1e-9 * self.total:
            raise ValueError(
                f"sum of powers {powers.sum():.12g} != budget {self.total:.12g}"
            )

    def __len__(self) -> int:
        return self.powers.size

    @classmethod
    def uniform(cls, n: int, total: float) -> "PowerAllocation":
        return cls(np.full(n, total / n), total)


@dataclass(frozen=True)
class ChannelGains:
    """Squared channel gains divided by communication noise power."""

    gains: np.ndarray

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=float)
        object.__setattr__(self, "gains", gains)
        if gains.ndim != 1:
            raise DimensionError("gains must be a 1-D vector")
        if (gains < 0).any() or not np.isfinite(gains).all():
            raise ValueError("gains must be finite and nonnegative")

    def __len__(self) -> int:
        return self.gains.size

    def rescaled(self, noise_power: float) -> "ChannelGains":
        """Unit-noise gains re-expressed at noise power ``noise_power``."""
        if not 0.0 < noise_power < np.inf:
            raise ValueError(f"noise power {noise_power!r} is not positive and finite")
        return ChannelGains(self.gains * (1.0 / noise_power))


@dataclass(frozen=True)
class ConstantModulus:
    """The constant-modulus symbol law: |S_k| = sqrt(P_k), EMSE constant A = 1."""

    A = 1.0
    uniforms = 1  # read per symbol: its phase

    def magnitudes(self, powers: np.ndarray, u) -> np.ndarray:
        return np.sqrt(powers)

    def unit_symbols(self, z: np.ndarray, r: np.ndarray) -> tuple:
        """z / |z| of a unit-power block ``z`` of moduli ``r``, and its least |S_k|^2, 1."""
        return z * np.reciprocal(r), 1.0  # = z / |z| bit for bit (numpy scales by 1/r)


@dataclass(frozen=True)
class TruncationPolicy:
    """The Gaussian symbol law, cut at its lower tail for the diverging 1/|S|^2 expectation.

    ``tail_prob`` is the probability mass removed at the low-magnitude end;
    ``A`` is the resulting truncated integral constant, computed on first use.
    """

    tail_prob: float = 1e-3
    uniforms = 2  # read per symbol: its magnitude, then its phase

    def __post_init__(self):
        if not 0.0 < self.tail_prob < 1.0:
            raise ConfigError(f"tail_prob = {self.tail_prob} must lie in (0, 1)")

    @functools.cached_property
    def A(self) -> float:
        """Truncated integral of exp(-t^2)/t above the Rayleigh q-quantile.

        The lower limit is ``t_low = sqrt(-ln(1 - q))``, the q-quantile of the
        unit Rayleigh magnitude.  Substituting u = t^2 gives the closed form
        ``A = E1(t_low^2) / 2`` with E1 the exponential integral.
        """
        return 0.5 * _exp1(float(-np.log1p(-self.tail_prob)))

    def magnitudes(self, powers: np.ndarray, u) -> np.ndarray:
        """|S_k| from uniforms ``u``: Rayleigh of scale sqrt(P_k) conditioned above the
        ``tail_prob`` quantile q by inverse-CDF sampling, so that |S_k|^2 / (2 P_k) =
        -ln(1 - q) - ln(1 - u), of mean 1 - ln(1 - q), the law under which A holds."""
        q = self.tail_prob
        return np.sqrt(powers) * np.sqrt(-2.0 * (np.log1p(-q) + np.log1p(-u)))

    def unit_symbols(self, z: np.ndarray, r: np.ndarray) -> tuple:
        """A unit-power block ``z`` (N, P) of moduli ``r`` as it is, and min_p |z_kp|^2."""
        return z, np.square(np.fmin.reduce(r, axis=1))


SymbolLaw = ConstantModulus | TruncationPolicy


def _exp1(x: float) -> float:
    """Exponential integral E1(x) for x > 0, by routine E1XB of Zhang & Jin,
    Computation of Special Functions (1996): the power series up to 1, the
    backward continued fraction above."""
    if x <= 1.0:
        e1 = r = 1.0
        for k in range(1, 26):
            r = -r * k * x / (k + 1.0) ** 2
            e1 += r
            if abs(r) <= abs(e1) * 1e-15:
                break
        return -0.5772156649015328 - math.log(x) + x * e1
    t0 = 0.0
    for k in range(20 + int(80.0 / x), 0, -1):
        t0 = k / (1.0 + k / (x + t0))
    return math.exp(-x) * (1.0 / (x + t0))


def water_filling(ch: ChannelGains, total: float) -> PowerAllocation:
    """Rate-maximizing allocation P_k = (w - 1/g_k)+ in closed form.

    With the floors 1/g_k sorted ascending, the m lowest are wet exactly when
    the level (total + sum of those floors) / m lies above the m-th floor; that
    test holds for a prefix of m, so the largest such m fixes the active set
    and the level in one pass.  Zero-gain subcarriers stay dry.
    """
    g = ch.gains
    live = g > 0
    if not live.any():
        raise InfeasibleChannelError("all channel gains are zero")
    if not total > 0:
        raise ValueError("total power budget must be positive")
    # Floors and level are measured from the lowest floor, which can dwarf the
    # budget at low SNR; the wet floors lie within the budget of it.
    floors = 1.0 / g[live]
    rise = floors - floors.min()
    ranked = np.sort(rise)
    filled = np.cumsum(ranked)
    m = np.count_nonzero(total + filled > np.arange(1, rise.size + 1) * ranked)
    level = (total + filled[m - 1]) / m
    powers = np.zeros_like(g)
    powers[live] = np.maximum(level - rise, 0.0)
    return PowerAllocation(powers, total)


def achievable_rate(alloc: PowerAllocation, ch: ChannelGains) -> float:
    """Gaussian-signaling rate sum log2(1 + P_k g_k), bits per channel use."""
    if len(alloc) != len(ch):
        raise DimensionError(
            f"allocation length {len(alloc)} != channel length {len(ch)}"
        )
    return float(np.log2(1.0 + alloc.powers * ch.gains).sum())


def emse_of_alloc(alloc: PowerAllocation, sigma2: float, law: SymbolLaw) -> float:
    """Expected LS MSE A * sigma^2 * sum 1/P_k under ``law``, infinite if a subcarrier is dry."""
    with np.errstate(divide="ignore"):
        return float(law.A * sigma2 * (1.0 / alloc.powers).sum())


# ---------------------------------------------------------------------------
# Rate-constrained EMSE minimization: damped Newton on the KKT system
# (Boyd & Vandenberghe, Convex Optimization, sec. 5.5).  A and sigma^2 only
# scale the objective, so it is solved in units of A: stationarity for
# subcarrier k is
#
#     f_k(P) = 1 / P^2 + lam * g_k / (1 + g_k P) - mu = 0
#
# with lam >= 0 the rate multiplier and mu the power multiplier, both over A.
# f_k is convex and decreasing in P, so a Newton step from any point lands at
# or left of its root, and Newton then climbs to it; iterates are clipped to a
# closed-form lower bound, so any start is safe.  With the roots P_k(mu, lam), the
# budget and the rate floor are two equations in (mu, lam), solved together
# by Newton from the uniform allocation's multipliers.  Each step is damped by
# the natural monotonicity test (Deuflhard, Newton Methods for Nonlinear
# Problems, 2004): the old Jacobian's correction at the trial point must
# shrink against the full step.
#
# The step caps only turn a broken invariant into an error instead of a
# wrong answer; no tested or fuzzed case reaches one.
# ---------------------------------------------------------------------------

_RATE_TOL = 1e-8  # relative rate tolerance of the rate-constrained solver
_MAX_STEPS = 100  # per loop


def _stationarity_roots(
    mu: float, lam: float, g: np.ndarray, guess: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Roots P_k of f_k, and the slopes f_k'(P_k) there, from any ``guess``."""
    # At sqrt(1/mu) the first term alone equals mu, and at lam/mu - 1/g_k the
    # second does, so both points lie left of the root.
    with np.errstate(divide="ignore"):
        low = np.maximum(np.sqrt(1.0 / mu), lam / mu - 1.0 / g)
    p = np.maximum(guess, low)
    for _ in range(_MAX_STEPS):
        gd = g / (1.0 + g * p)
        slope = -2.0 / p**3 - lam * gd * gd
        resid = 1.0 / p**2 + lam * gd - mu
        p = np.maximum(p - resid / slope, low)
        # Newton converges quadratically, so one step past a residual of
        # 1e-12 of the level leaves only rounding error.
        if np.abs(resid).max() <= 1e-12 * mu:
            return p, slope
    raise RuntimeError("per-subcarrier Newton did not converge")


def _endpoints(ch: ChannelGains, total: float) -> tuple:
    """Uniform, its rate, water-filling and capacity: shared by every floor."""
    wf, uniform = water_filling(ch, total), PowerAllocation.uniform(len(ch), total)
    return uniform, achievable_rate(uniform, ch), wf, achievable_rate(wf, ch)


def _rate_constrained(
    ch: ChannelGains, total: float, rate_floor: float, ends: tuple
) -> tuple[PowerAllocation, float]:
    """The minimizer and its rate multiplier lam / A (inf at capacity), given
    the channel's ``_endpoints``."""
    uniform, uniform_rate, wf, capacity = ends
    cap_tol = _RATE_TOL * max(1.0, capacity)
    if rate_floor > capacity + cap_tol:
        raise InfeasibleRateError(rate_floor, capacity)
    # Uniform first: at a capacity below cap_tol, it meets every floor with none dry.
    floor_tol = _RATE_TOL * max(1.0, rate_floor)
    if uniform_rate >= rate_floor - floor_tol:
        return uniform, 0.0
    if rate_floor >= capacity - cap_tol:
        return wf, np.inf

    # In units of the mean power, the powers start at 1 whatever the budget.
    unit = total / len(ch)
    g, budget = ch.gains * unit, float(len(ch))

    def residuals(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """g_k / (1 + g_k P_k), and the budget and rate residuals."""
        r = np.array([p.sum() - budget, np.log2(1.0 + g * p).sum() - rate_floor])
        return g / (1.0 + g * p), r

    def budget_step(mu: float, slope: np.ndarray, r: np.ndarray) -> float | None:
        """The last step on mu, taken on the powers alone to first order, once
        it is below 1e-13 of mu and the rate is within half the tolerance."""
        step = -r[0] / (1.0 / slope).sum()
        done = abs(step) <= 1e-13 * mu and abs(r[1]) <= 0.5 * floor_tol
        return step if done else None

    # The uniform allocation's multipliers, where the budget residual is 0.
    mu, lam, p, slope = 1.0, 0.0, np.ones(g.size), np.full(g.size, -2.0)
    gd, r = residuals(p)
    for _ in range(_MAX_STEPS):
        last = budget_step(mu, slope, r)
        if last is not None:
            return PowerAllocation((p + last / slope) * unit, total), lam / unit
        # dP_k = (dmu - gd_k dlam) / f_k' keeps f_k at zero, so with w = 1/f'
        # the Jacobian is [[sw, -sgw], [sgw, -sggw] / ln 2].  Its determinant
        # times ln 2 is -sw * sum(w (gd - sgw/sw)^2), free of cancellation.
        w, ln2 = 1.0 / slope, math.log(2.0)
        sw, sgw, sggw = w.sum(), (gd * w).sum(), (gd * gd * w).sum()
        spread = sw * (w * (gd - sgw / sw) ** 2).sum()
        inv = np.array([[sggw, -sgw * ln2], [sgw, -sw * ln2]]) / spread
        step = -inv @ r
        # Sizes are relative to (mu, lam), with lam at least its step: lam starts at 0.
        scale = np.array([mu, max(lam, abs(step[1]))])
        err = step / scale
        size = math.sqrt(err.dot(err))  # what np.linalg.norm computes, bit for bit
        t = 1.0
        for _ in range(_MAX_STEPS):
            mu_t, lam_t = mu + t * step[0], max(lam + t * step[1], 0.0)
            if mu_t > 0.0:
                guess = p + (mu_t - mu - gd * (lam_t - lam)) / slope
                p_t, slope_t = _stationarity_roots(mu_t, lam_t, g, guess)
                gd_t, r_t = residuals(p_t)
                # A converged trial is taken as it is: rounding stalls the test there.
                if (budget_step(mu_t, slope_t, r_t) is not None
                        or math.sqrt((e := inv @ r_t / scale).dot(e)) <= (1.0 - t / 4.0) * size):
                    break
            t *= 0.5
        else:
            raise RuntimeError("multiplier Newton found no descending step")
        mu, lam, p, slope, gd, r = mu_t, lam_t, p_t, slope_t, gd_t, r_t
    raise RuntimeError("multiplier Newton did not converge")


def emse_rate_constrained(ch: ChannelGains, total: float, rate_floor: float) -> PowerAllocation:
    """Minimize A*sigma^2*sum(1/P_k) subject to the budget and rate floor.

    Solved on the KKT system (no general-purpose solver): Newton on the
    per-subcarrier powers inside a damped Newton on the power and rate
    multipliers together, started from the uniform allocation.  The achieved
    rate is at least ``rate_floor - 1e-8 * max(1, rate_floor)``; where the
    floor binds, it lies within half that tolerance of the floor.  A and sigma^2
    only scale the objective, so neither is an argument: the problem is solved
    in units of A and of the mean power total / N.  Endpoints, tested in this
    order: rate_floor <= uniform rate returns the uniform allocation (lam = 0,
    slack rate constraint); rate_floor at capacity returns the water-filling
    closed form, where the feasible set collapses to a single point.  A rate
    floor that is NaN or -inf raises ValueError; one above capacity raises
    InfeasibleRateError.
    """
    if np.isnan(rate_floor) or rate_floor == -np.inf:
        raise ValueError(f"rate floor must be a number of bits, got {rate_floor!r}")
    alloc, _ = _rate_constrained(ch, total, rate_floor, _endpoints(ch, total))
    return alloc


@dataclass(frozen=True)
class TradeoffPoint:
    rate_floor: float
    rate_achieved: float
    emse: float
    allocation: PowerAllocation


def tradeoff_sweep(
    ch: ChannelGains,
    total: float,
    sigma2: float,
    law: SymbolLaw,
    n_points: int,
) -> list[TradeoffPoint]:
    """EMSE-vs-rate curve on a rate grid from 0 to water-filling capacity.

    The EMSE is nondecreasing along the grid; the endpoints are the two
    closed-form solutions (uniform and water-filling).  Dry subcarriers at
    the capacity endpoint yield an infinite EMSE.
    """
    if n_points < 2:
        raise ConfigError(f"tradeoff_points = {n_points} must be at least 2")
    ends = _endpoints(ch, total)  # (uniform, its rate, water-filling, capacity)
    points = []
    for r0 in np.linspace(0.0, ends[3], n_points).tolist():
        alloc, _ = _rate_constrained(ch, total, r0, ends)
        if not points or alloc is not points[-1].allocation:  # else a repeated endpoint
            rate, emse = achievable_rate(alloc, ch), emse_of_alloc(alloc, sigma2, law)
        points.append(TradeoffPoint(r0, rate, emse, alloc))
    return points
