"""Per-subcarrier power allocation and waveform-design optimization.

Covers the three allocation regimes (imaging-optimal uniform, rate-maximizing
water-filling, and the rate-constrained expected-MSE minimizer), plus the
evaluators they trade against: achievable rate and expected LS-estimator MSE
(EMSE) under random Gaussian signaling.

Conventions used throughout:

* Channel gains are ``|h_k|^2 / sigma_n^2`` (dimensionless, per unit power).
* Rate is in bits per channel use per OFDM symbol, i.e. ``sum log2(1 + P_k g_k)``
  without any bandwidth prefactor.  The bandwidth scale is a constant and does
  not change any optimizer; callers that want throughput multiply by B.
* The EMSE constant ``A`` comes from the lower-truncated integral of
  ``exp(-t^2)/t``; the raw integral diverges at zero, so the lower limit is the
  q-quantile of the unit Rayleigh magnitude (default q = 1e-3, i.e. keep the
  top 99.9% of the magnitude distribution).  Gaussian symbols are sqrt(2 P_k)
  times that magnitude (``waveform.symbol_magnitudes``), so E|S_k|^2 ~ 2 P_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, InfeasibleChannelError, InfeasibleRateError

__all__ = ["PowerAllocation", "ChannelGains", "TruncationPolicy", "water_filling",
           "achievable_rate", "emse_of_alloc", "emse_rate_constrained", "tradeoff_sweep",
           "TradeoffPoint"]


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
        if np.any(powers < 0) or not np.all(np.isfinite(powers)):
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
        if np.any(gains < 0) or not np.all(np.isfinite(gains)):
            raise ValueError("gains must be finite and nonnegative")

    def __len__(self) -> int:
        return self.gains.size

    def rescaled(self, noise_power: float) -> "ChannelGains":
        """Unit-noise gains re-expressed at noise power ``noise_power``."""
        if not 0.0 < noise_power < np.inf:
            raise ValueError(f"noise power {noise_power!r} is not positive and finite")
        return ChannelGains(self.gains * (1.0 / noise_power))


@dataclass(frozen=True)
class TruncationPolicy:
    """Lower-tail truncation for the diverging 1/|S|^2 expectation.

    ``tail_prob`` is the probability mass removed at the low-magnitude end;
    ``A`` is the resulting truncated integral constant, computed on demand.
    """

    tail_prob: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.tail_prob < 1.0:
            raise ConfigError(f"tail_prob = {self.tail_prob} must lie in (0, 1)")

    @property
    def A(self) -> float:
        """Truncated integral of exp(-t^2)/t above the Rayleigh q-quantile.

        The lower limit is ``t_low = sqrt(-ln(1 - q))``, the q-quantile of the
        unit Rayleigh magnitude.  Substituting u = t^2 gives the closed form
        ``A = E1(t_low^2) / 2`` with E1 the exponential integral; the
        quadrature route is cross-checked against this in the test suite.
        """
        return 0.5 * _exp1(float(-np.log1p(-self.tail_prob)))


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
    if not np.any(live):
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
    return float(np.sum(np.log2(1.0 + alloc.powers * ch.gains)))


def emse_of_alloc(
    alloc: PowerAllocation, sigma2: float, policy: TruncationPolicy | None
) -> float:
    """Expected LS MSE A * sigma^2 * sum 1/P_k, infinite if a subcarrier is dry.

    ``policy`` None means constant-modulus symbols, whose MSE has A = 1.
    """
    a = 1.0 if policy is None else policy.A
    with np.errstate(divide="ignore"):
        return float(a * sigma2 * np.sum(1.0 / alloc.powers))


# ---------------------------------------------------------------------------
# Rate-constrained EMSE minimization: damped Newton on the KKT system
# (Boyd & Vandenberghe, Convex Optimization, sec. 5.5).  Stationarity for
# subcarrier k:
#
#     f_k(P) = A / P^2 + lam * g_k / (1 + g_k P) - mu = 0
#
# with lam >= 0 the rate multiplier and mu the power multiplier.  f_k is
# convex and decreasing in P, so a Newton step from any point lands at or left
# of its root, and Newton then climbs to it; iterates are clipped to a closed-
# form lower bound, so any start is safe.  With the roots P_k(mu, lam), the
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
    mu: float, lam: float, g: np.ndarray, a: float, guess: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Roots P_k of f_k, and the slopes f_k'(P_k) there, from any ``guess``."""
    # At sqrt(A/mu) the first term alone equals mu, and at lam/mu - 1/g_k the
    # second does, so both points lie left of the root.
    with np.errstate(divide="ignore"):
        low = np.maximum(np.sqrt(a / mu), lam / mu - 1.0 / g)
    p = low if guess is None else np.maximum(guess, low)
    for _ in range(_MAX_STEPS):
        gd = g / (1.0 + g * p)
        slope = -2.0 * a / p**3 - lam * gd * gd
        resid = a / p**2 + lam * gd - mu
        p = np.maximum(p - resid / slope, low)
        # Newton converges quadratically, so one step past a residual of
        # 1e-12 of the level leaves only rounding error.
        if np.max(np.abs(resid)) <= 1e-12 * mu:
            return p, slope
    raise RuntimeError("per-subcarrier Newton did not converge")


def _rate_constrained(
    ch: ChannelGains, total: float, rate_floor: float, a: float, wf: PowerAllocation
) -> tuple[PowerAllocation, float]:
    """The minimizer and its rate multiplier lam (inf at capacity), given the
    channel's water-filling allocation ``wf``."""
    g = ch.gains
    capacity = achievable_rate(wf, ch)
    cap_tol = _RATE_TOL * max(1.0, capacity)
    if rate_floor > capacity + cap_tol:
        raise InfeasibleRateError(rate_floor, capacity)
    if rate_floor >= capacity - cap_tol:
        return wf, np.inf
    floor_tol = _RATE_TOL * max(1.0, rate_floor)
    uniform = PowerAllocation.uniform(g.size, total)
    if achievable_rate(uniform, ch) >= rate_floor - floor_tol:
        return uniform, 0.0

    # In units of the mean power, the powers start at 1 whatever the budget.
    unit = total / g.size
    g, budget = g * unit, float(g.size)

    def residuals(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """g_k / (1 + g_k P_k), and the budget and rate residuals."""
        r = np.array([p.sum() - budget, np.sum(np.log2(1.0 + g * p)) - rate_floor])
        return g / (1.0 + g * p), r

    def budget_step(mu: float, slope: np.ndarray, r: np.ndarray) -> float | None:
        """The last step on mu, taken on the powers alone to first order, once
        it is below 1e-13 of mu and the rate is within half the tolerance."""
        step = -r[0] / np.sum(1.0 / slope)
        done = abs(step) <= 1e-13 * mu and abs(r[1]) <= 0.5 * floor_tol
        return step if done else None

    # The uniform allocation's multipliers, where the budget residual is 0.
    mu, lam, p = a, 0.0, np.ones(g.size)
    slope = -2.0 * a / p**3
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
        spread = sw * np.sum(w * (gd - sgw / sw) ** 2)
        inv = np.array([[sggw, -sgw * ln2], [sgw, -sw * ln2]]) / spread
        step = -inv @ r
        # Sizes are relative to (mu, lam), with lam at least its step: lam starts at 0.
        scale = np.array([mu, max(lam, abs(step[1]))])
        size = np.linalg.norm(step / scale)
        t = 1.0
        for _ in range(_MAX_STEPS):
            mu_t, lam_t = mu + t * step[0], max(lam + t * step[1], 0.0)
            if mu_t > 0.0:
                guess = p + (mu_t - mu - gd * (lam_t - lam)) / slope
                p_t, slope_t = _stationarity_roots(mu_t, lam_t, g, a, guess)
                gd_t, r_t = residuals(p_t)
                # A converged trial is taken as it is: rounding stalls the test there.
                if (budget_step(mu_t, slope_t, r_t) is not None
                        or np.linalg.norm(inv @ r_t / scale) <= (1.0 - t / 4.0) * size):
                    break
            t *= 0.5
        else:
            raise RuntimeError("multiplier Newton found no descending step")
        mu, lam, p, slope, gd, r = mu_t, lam_t, p_t, slope_t, gd_t, r_t
    raise RuntimeError("multiplier Newton did not converge")


def emse_rate_constrained(
    ch: ChannelGains,
    total: float,
    rate_floor: float,
    policy: TruncationPolicy = TruncationPolicy(),
) -> PowerAllocation:
    """Minimize A*sigma^2*sum(1/P_k) subject to the budget and rate floor.

    Solved on the KKT system (no general-purpose solver): Newton on the
    per-subcarrier powers inside a damped Newton on the power and rate
    multipliers together, started from the uniform allocation.  The achieved
    rate is at least ``rate_floor - 1e-8 * max(1, rate_floor)``; where the
    floor binds, it lies within half that tolerance of the floor.  The optimizer is invariant to
    the values of A and sigma^2; they only scale the objective, so sigma^2 is
    not an argument.  Endpoints: rate_floor <= uniform rate returns the
    uniform allocation (lam = 0, slack rate constraint); rate_floor at
    capacity returns the water-filling closed form, where the feasible set
    collapses to a single point.  A rate floor that is NaN or -inf raises
    ValueError; one above capacity raises InfeasibleRateError.
    """
    if np.isnan(rate_floor) or rate_floor == -np.inf:
        raise ValueError(f"rate floor must be a number of bits, got {rate_floor!r}")
    alloc, _ = _rate_constrained(
        ch, total, rate_floor, policy.A, water_filling(ch, total)
    )
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
    policy: TruncationPolicy,
    n_points: int,
) -> list[TradeoffPoint]:
    """EMSE-vs-rate curve on a rate grid from 0 to water-filling capacity.

    The EMSE is nondecreasing along the grid; the endpoints are the two
    closed-form solutions (uniform and water-filling).  Dry subcarriers at
    the capacity endpoint yield an infinite EMSE.
    """
    if n_points < 2:
        raise ConfigError(f"tradeoff_points = {n_points} must be at least 2")
    wf = water_filling(ch, total)
    capacity = achievable_rate(wf, ch)
    a = policy.A
    points = []
    for r0 in np.linspace(0.0, capacity, n_points):
        alloc, _ = _rate_constrained(ch, total, float(r0), a, wf)
        emse = emse_of_alloc(alloc, sigma2, policy)
        points.append(
            TradeoffPoint(float(r0), achievable_rate(alloc, ch), emse, alloc)
        )
    return points
