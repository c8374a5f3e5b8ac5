import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import exp1

from ofdmsar import (
    ChannelGains,
    ConstantModulus,
    PowerAllocation,
    TruncationPolicy,
    achievable_rate,
    emse_of_alloc,
    emse_rate_constrained,
    tradeoff_sweep,
    water_filling,
)
from ofdmsar import allocation
from ofdmsar.allocation import _endpoints, _exp1, _rate_constrained, _stationarity_roots
from ofdmsar.config import parse_config
from ofdmsar.errors import InfeasibleChannelError, InfeasibleRateError


def seeded_gains(n, seed, spread=10.0):
    rng = np.random.default_rng(seed)
    return ChannelGains(10.0 ** rng.uniform(-1.0, 1.0, n) * spread / 10.0)


def mse_of_symbols(symbols, sigma2):
    """LS-estimator MSE for a fixed symbol draw: sigma^2 * sum 1/|S_k|^2."""
    return float(sigma2 * np.sum(1.0 / np.abs(symbols) ** 2))


class TestPowerAllocation:
    def test_sum_invariant_enforced(self):
        with pytest.raises(ValueError):
            PowerAllocation(np.array([1.0, 1.0]), 3.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_powers_rejected(self, bad):
        with pytest.raises(ValueError):
            PowerAllocation(np.array([bad, 1.0]), 1.0)
        with pytest.raises(ValueError):
            PowerAllocation(np.array([-0.5, 3.5]), 3.0)

    def test_uniform(self):
        alloc = PowerAllocation.uniform(4, 2.0)
        np.testing.assert_allclose(alloc.powers, 0.5)


class TestImagingOptimal:
    def test_symmetry(self):
        np.testing.assert_allclose(PowerAllocation.uniform(4, 4.0).powers, 1.0)
        np.testing.assert_allclose(PowerAllocation.uniform(2, 1.0).powers, 0.5)

    def test_grid_oracle_n3(self):
        # Brute force over the simplex: uniform minimizes sum(1/P_k).
        total = 6.0
        best = PowerAllocation.uniform(3, total)
        obj_uniform = np.sum(1.0 / best.powers)
        grid = np.arange(0.01, total, 0.01)
        for p0, p1 in itertools.product(grid, grid):
            p2 = total - p0 - p1
            if p2 <= 0.005:
                continue
            assert obj_uniform <= 1.0 / p0 + 1.0 / p1 + 1.0 / p2 + 1e-9

    @given(
        n=st.integers(2, 6),
        delta=st.floats(1e-6, 0.4),
    )
    @settings(max_examples=50, deadline=None)
    def test_uniform_is_strict_minimizer(self, n, delta):
        total = float(n)
        base = np.full(n, 1.0)
        perturbed = base.copy()
        perturbed[0] += delta
        perturbed[1] -= delta
        assert np.sum(1.0 / perturbed) > np.sum(1.0 / base)


class TestWaterFilling:
    def test_symmetric_channel(self):
        alloc = water_filling(ChannelGains(np.ones(2)), 2.0)
        np.testing.assert_allclose(alloc.powers, 1.0, atol=1e-9)

    def test_weak_subcarrier_stays_dry(self):
        alloc = water_filling(ChannelGains(np.array([1.0, 1.0 / 3.0])), 2.0)
        np.testing.assert_allclose(alloc.powers, [2.0, 0.0], atol=1e-8)

    def test_weak_subcarrier_grid_oracle(self):
        # 1-D search over the split of P between the two subcarriers.
        g = np.array([1.0, 1.0 / 3.0])
        splits = np.linspace(0.0, 2.0, 20001)
        rates = np.log2(1 + splits * g[0]) + np.log2(1 + (2.0 - splits) * g[1])
        best = splits[np.argmax(rates)]
        alloc = water_filling(ChannelGains(g), 2.0)
        assert abs(alloc.powers[0] - best) < 1e-3

    def test_uniform_for_equal_gains(self):
        alloc = water_filling(ChannelGains(np.ones(4) * 0.7), 3.0)
        np.testing.assert_allclose(alloc.powers, 0.75, atol=1e-9)

    def test_floors_dwarfing_the_budget(self):
        # At -400 dB the floors are 1e40; the level is found relative to
        # them, not as a difference of two 1e40-sized numbers.
        alloc = water_filling(ChannelGains(np.array([1e-40, 0.0, 1e-40])), 4.0)
        np.testing.assert_array_equal(alloc.powers, [2.0, 0.0, 2.0])

    def test_all_zero_gains_rejected(self):
        with pytest.raises(InfeasibleChannelError):
            water_filling(ChannelGains(np.zeros(3)), 1.0)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_kkt_conditions(self, seed):
        ch = seeded_gains(8, seed)
        alloc = water_filling(ch, 8.0)
        assert abs(alloc.powers.sum() - 8.0) < 1e-8 * 8.0
        active = alloc.powers > 1e-9
        levels = alloc.powers[active] + 1.0 / ch.gains[active]
        assert levels.max() - levels.min() < 1e-8
        if np.any(~active):
            water = levels.mean()
            assert np.all(1.0 / ch.gains[~active] >= water - 1e-8)


class TestAchievableRate:
    def test_examples(self):
        one = PowerAllocation(np.array([1.0]), 1.0)
        assert achievable_rate(one, ChannelGains(np.array([1.0]))) == pytest.approx(1.0)
        two = PowerAllocation(np.array([1.0, 3.0]), 4.0)
        assert achievable_rate(two, ChannelGains(np.ones(2))) == pytest.approx(3.0)

    def test_zero_iff_no_power_gain_product(self):
        alloc = PowerAllocation(np.array([2.0, 0.0]), 2.0)
        assert achievable_rate(alloc, ChannelGains(np.array([0.0, 5.0]))) == 0.0


class TestComputeA:
    def test_known_value_at_unit_cutoff(self):
        # q = 1 - e^{-1} puts the cutoff at t_low = 1: A = E1(1)/2.
        policy = TruncationPolicy(1.0 - np.exp(-1.0))
        assert policy.A == pytest.approx(0.109692, abs=1e-6)

    @pytest.mark.parametrize("q", [1e-3, 1e-2, 0.1, 1.0 - np.exp(-1.0)])
    def test_quadrature_agrees_with_exponential_integral(self, q):
        policy = TruncationPolicy(q)
        t_low = np.sqrt(-np.log1p(-q))
        # Truncate the upper limit at 40: the tail beyond it is < e^{-1600}.
        val, err = quad(
            lambda t: np.exp(-t * t) / t, t_low, 40.0, epsabs=1e-13, limit=400
        )
        assert err < 1e-8  # quad's estimate is conservative; the check below is tight
        assert abs(policy.A - val) < 1e-9

    def test_monotone_in_cutoff(self):
        assert TruncationPolicy(1e-3).A > TruncationPolicy(1e-2).A

    def test_exp1_bit_equal_to_scipy_at_default_tail(self):
        x = float(-np.log1p(-1e-3))
        assert _exp1(x) == float(exp1(x))
        assert TruncationPolicy(1e-3).A == 0.5 * float(exp1(x))

    def test_exp1_agrees_with_scipy_over_tail_probs(self):
        # Log-spaced in q toward 0 and in 1 - q toward 1: x from 1e-12 to 27.6,
        # both sides of the series / continued-fraction switch at x = 1.
        qs = np.concatenate([np.logspace(-12, -0.3, 200), 1.0 - np.logspace(-0.3, -12, 200)])
        for q in qs:
            x = float(-np.log1p(-q))
            assert math.isclose(_exp1(x), float(exp1(x)), rel_tol=1e-15, abs_tol=0.0), q

    @pytest.mark.parametrize("q", [1e-12, 1e-3, 0.1, 1.0 - np.exp(-1.0), 0.99])
    def test_A_is_computed_once_and_exactly(self, q):
        # A is cached on the policy: the first read and every later one are the
        # closed form bit for bit, and the cache leaves equality and hash alone.
        policy, expected = TruncationPolicy(q), 0.5 * _exp1(float(-np.log1p(-q)))
        assert policy.A == expected
        assert policy.A == expected
        assert policy == TruncationPolicy(q) and hash(policy) == hash(TruncationPolicy(q))

    def test_rejects_bad_tail_prob(self):
        with pytest.raises(ValueError):
            TruncationPolicy(0.0)
        with pytest.raises(ValueError):
            TruncationPolicy(1.0)

    def test_tail_prob_is_the_one_field(self):
        # The law's uniform count is a class constant, not a field: equality, hash
        # and repr stay those of tail_prob alone.
        assert [f.name for f in dataclasses.fields(TruncationPolicy)] == ["tail_prob"]
        assert repr(TruncationPolicy(0.5)) == "TruncationPolicy(tail_prob=0.5)"
        assert TruncationPolicy(0.5) != TruncationPolicy()


class TestConstantModulus:
    def test_is_a_value_with_A_one(self):
        law = ConstantModulus()
        assert law == ConstantModulus() and hash(law) == hash(ConstantModulus())
        assert law != TruncationPolicy() and law.A == 1.0
        assert dataclasses.fields(law) == ()

    def test_magnitudes_are_root_powers_whatever_the_uniforms(self):
        powers = np.array([0.0, 0.5, 2.0])
        for u in (0.0, np.array([0.1, 0.9, 0.5])):
            np.testing.assert_array_equal(ConstantModulus().magnitudes(powers, u),
                                          np.sqrt(powers))

    def test_emse_is_sigma2_times_the_inverse_power_sum(self):
        alloc = PowerAllocation(np.array([1.0, 2.0, 4.0]), 7.0)
        assert emse_of_alloc(alloc, 0.3, ConstantModulus()) == 0.3 * 1.75


class TestMseOfSymbols:
    def test_uniform_powers(self):
        sym = np.ones(4, dtype=complex)
        assert mse_of_symbols(sym, 1.0) == pytest.approx(4.0)

    def test_direct_sum_and_matrix_trace(self):
        powers = np.array([1.0, 2.0, 4.0, 8.0])
        sym = np.sqrt(powers).astype(complex)
        assert mse_of_symbols(sym, 2.0) == pytest.approx(3.75)
        # Explicit matrix oracle: circulant with eigenvalues S_k.
        n = 4
        f = np.fft.fft(np.eye(n)) / np.sqrt(n)
        s_mat = f.conj().T @ np.diag(sym) @ f
        trace = np.trace(np.linalg.inv(s_mat.conj().T @ s_mat)).real
        assert mse_of_symbols(sym, 2.0) == pytest.approx(2.0 * trace, rel=1e-12)

    def test_scaling(self):
        sym = (np.arange(4) + 1.0).astype(complex)
        assert mse_of_symbols(np.sqrt(2.0) * sym, 1.0) == pytest.approx(
            0.5 * mse_of_symbols(sym, 1.0)
        )


class TestChannelGains:
    @pytest.mark.parametrize("noise", [0.0, np.inf, np.nan])
    def test_rescale_needs_positive_finite_noise(self, noise):
        with pytest.raises(ValueError):
            ChannelGains(np.ones(4)).rescaled(noise)


class TestEmse:
    def test_uniform(self):
        policy = TruncationPolicy()
        alloc = PowerAllocation.uniform(4, 4.0)
        assert emse_of_alloc(alloc, 1.0, policy) == pytest.approx(4.0 * policy.A)

    def test_ratio_to_mse_is_A(self):
        policy = TruncationPolicy()
        powers = np.array([0.5, 1.5, 2.0])
        alloc = PowerAllocation(powers, 4.0)
        mse = mse_of_symbols(np.sqrt(powers).astype(complex), 0.7)
        assert emse_of_alloc(alloc, 0.7, policy) / mse == pytest.approx(
            policy.A, rel=1e-12
        )

    def test_zero_power_rejected(self):
        # A dry subcarrier makes the LS estimator singular: infinite EMSE.
        alloc = PowerAllocation(np.array([2.0, 0.0]), 2.0)
        assert emse_of_alloc(alloc, 1.0, TruncationPolicy()) == np.inf


class TestRateConstrainedSolver:
    def test_equal_gains_uniform(self):
        ch = ChannelGains(np.ones(4))
        alloc = emse_rate_constrained(ch, 4.0, 2.0)
        np.testing.assert_allclose(alloc.powers, 1.0, atol=1e-7)

    def test_zero_rate_floor_uniform(self):
        ch = seeded_gains(8, 3)
        alloc = emse_rate_constrained(ch, 8.0, 0.0)
        np.testing.assert_allclose(alloc.powers, 1.0, atol=1e-8)

    def test_capacity_floor_matches_water_filling(self):
        ch = seeded_gains(8, 4)
        wf = water_filling(ch, 8.0)
        cap = achievable_rate(wf, ch)
        alloc = emse_rate_constrained(ch, 8.0, cap)
        np.testing.assert_allclose(alloc.powers, wf.powers, atol=1e-6)

    def test_infeasible_rate_carries_capacity(self):
        ch = seeded_gains(8, 5)
        cap = achievable_rate(water_filling(ch, 8.0), ch)
        with pytest.raises(InfeasibleRateError) as err:
            emse_rate_constrained(ch, 8.0, cap * 1.5)
        assert err.value.capacity == pytest.approx(cap)

    def test_n2_grid_oracle(self):
        ch = ChannelGains(np.array([1.0, 0.25]))
        total = 2.0
        cap = achievable_rate(water_filling(ch, total), ch)
        r0 = 0.9 * cap
        alloc = emse_rate_constrained(ch, total, r0)
        obj = np.sum(1.0 / alloc.powers)
        # Fine grid on P_0; only rate-feasible splits compete.
        p0 = np.arange(1e-4, total, 1e-4)
        p1 = total - p0
        rate = np.log2(1 + p0 * ch.gains[0]) + np.log2(1 + p1 * ch.gains[1])
        feasible = rate >= r0
        best = np.min((1.0 / p0 + 1.0 / p1)[feasible])
        assert obj <= best + 1e-6
        assert achievable_rate(alloc, ch) >= r0 - 1e-7

    def test_zero_gain_subcarriers_keep_power(self):
        gains = np.array([1.0, 2.0, 0.0, 0.5])
        ch = ChannelGains(gains)
        cap = achievable_rate(water_filling(ch, 4.0), ch)
        alloc = emse_rate_constrained(ch, 4.0, 0.8 * cap)
        assert np.all(alloc.powers > 0.0)

    @given(seed=st.integers(0, 10**5))
    @settings(max_examples=20, deadline=None)
    def test_solution_feasibility_and_kkt(self, seed):
        ch = seeded_gains(6, seed)
        total = 6.0
        wf = water_filling(ch, total)
        cap = achievable_rate(wf, ch)
        r0 = 0.8 * cap
        alloc = emse_rate_constrained(ch, total, r0)
        assert abs(alloc.powers.sum() - total) < 1e-8 * total
        assert np.all(alloc.powers >= 0.0)
        assert achievable_rate(alloc, ch) >= r0 - 1e-8 * max(1.0, r0)
        core, lam = _rate_constrained(ch, total, r0, _endpoints(ch, total))
        np.testing.assert_array_equal(core.powers, alloc.powers)
        # In units of A: lam is the rate multiplier over A.
        levels = 1.0 / alloc.powers**2 + lam * ch.gains / (1.0 + ch.gains * alloc.powers)
        assert np.ptp(levels) <= 1e-9 * levels.mean()

    @pytest.mark.parametrize("frac", [0.5, 0.9, 0.999])
    def test_n1024_near_capacity(self, frac):
        # Every floor binds at -30 dB (uniform reaches 0.49 of capacity).
        # Returning at all means no iteration cap was reached: the solver
        # raises when one is.
        cfg = parse_config("n_subcarriers = 1024\nchannel = multipath\n")
        sigma2 = cfg.waveform_spec().noise_power(-30.0)
        ch = cfg.channel_gains().rescaled(sigma2)
        cap = achievable_rate(water_filling(ch, cfg.power_budget), ch)
        r0 = frac * cap
        alloc = emse_rate_constrained(ch, cfg.power_budget, r0)
        assert achievable_rate(alloc, ch) >= r0 - 1e-8 * max(1.0, r0)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_number_rate_floor_rejected(self, bad):
        with pytest.raises(ValueError):
            emse_rate_constrained(seeded_gains(4, 11), 4.0, bad)


class TestSolverRobustness:
    """Every floor between the uniform rate and capacity is met on extreme
    channels.  Returning at all means no step cap was reached: the solver
    raises when one is."""

    def solve_between(self, gains, total, way):
        """Solve at the floor ``way`` of the way from the uniform rate to
        capacity, and check the floor and the budget."""
        ch = ChannelGains(np.asarray(gains, dtype=float))
        cap = achievable_rate(water_filling(ch, total), ch)
        r_uniform = achievable_rate(PowerAllocation.uniform(len(ch), total), ch)
        r0 = r_uniform + way * (cap - r_uniform)
        alloc = emse_rate_constrained(ch, total, r0)
        assert achievable_rate(alloc, ch) >= r0 - 1e-8 * max(1.0, r0)
        assert abs(alloc.powers.sum() - total) <= 1e-9 * total

    @pytest.mark.parametrize(
        "gains, total",
        [
            ([4e-7, 1.0], 2.8e-3),
            ([0.0, 0.0, 0.0, 0.0, 1.8e-3, 0.0, 0.0, 3e-2], 4.6e-4),
        ],
    )
    def test_halfway_floor_on_hard_channels(self, gains, total):
        # A line search on the scaled residual norm stalls on both.
        self.solve_between(gains, total, 0.5)

    @given(
        log_g=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=64),
        dry=st.lists(st.booleans(), min_size=64, max_size=64),
        log_total=st.floats(-4.0, 4.0),
        log_way=st.floats(-9.0, math.log10(0.5)),
        near_capacity=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_floor_on_extreme_channels(
        self, log_g, dry, log_total, log_way, near_capacity
    ):
        gains = 10.0 ** np.array(log_g)
        gains[np.array(dry[: gains.size])] = 0.0
        assume(np.any(gains > 0.0))
        way = 1.0 - 10.0**log_way if near_capacity else 10.0**log_way
        self.solve_between(gains, 10.0**log_total, way)


class TestWarmStartedRoots:
    """Any guess for the stationarity roots is safe: the iterates are clipped
    to a lower bound, so a guess changes the path, not the roots.  Returning
    at all means the step cap was not reached: the solver raises when it is."""

    def assert_same_roots(self, mu, lam, g, guess_from_roots):
        # A zero guess is clipped to the lower bound: the cold start.
        cold, _ = _stationarity_roots(mu, lam, g, np.zeros_like(g))
        warm, _ = _stationarity_roots(mu, lam, g, guess_from_roots(cold))
        np.testing.assert_allclose(warm, cold, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("mu_lam", [(0.5, 0.0), (0.05, 0.1), (2.0, 30.0)])
    @pytest.mark.parametrize(
        "guess_from_roots",
        [
            lambda p: 1e6 * p,
            lambda p: 1e-6 * p,
            lambda p: np.random.default_rng(22).uniform(0.0, 10.0 * p.max(), p.size),
        ],
        ids=["right", "left", "random"],
    )
    def test_guess_far_from_root(self, mu_lam, guess_from_roots):
        mu, lam = mu_lam
        self.assert_same_roots(mu, lam, seeded_gains(16, 21).gains, guess_from_roots)

    @given(
        log_g=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12),
        log_mu=st.floats(-4.0, 4.0),
        log_lam=st.floats(-4.0, 4.0),
        log_scale=st.floats(-6.0, 6.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_guess_any_gains(self, log_g, log_mu, log_lam, log_scale):
        self.assert_same_roots(
            10.0**log_mu,
            10.0**log_lam,
            10.0 ** np.array(log_g),
            lambda p: p * 10.0**log_scale,
        )


class TestTradeoffSweep:
    policy = TruncationPolicy()

    @staticmethod
    def multipath_channel(channel_seed):
        """Config, noise power and gains of the 64-subcarrier, 4-tap multipath
        channel at -10 dB."""
        cfg = parse_config(
            f"channel = multipath\nchannel_taps = 4\nchannel_seed = {channel_seed}\n"
        )
        sigma2 = cfg.waveform_spec().noise_power(-10.0)
        return cfg, sigma2, cfg.channel_gains().rescaled(sigma2)

    @classmethod
    def multipath_sweep(cls, channel_seed, n_points=8):
        cfg, sigma2, ch = cls.multipath_channel(channel_seed)
        return tradeoff_sweep(
            ch, cfg.power_budget, sigma2, TruncationPolicy(cfg.tail_prob), n_points
        )

    @pytest.mark.parametrize("channel_seed", range(8))
    def test_every_rate_floor_met(self, channel_seed):
        for pt in self.multipath_sweep(channel_seed):
            assert pt.rate_achieved >= pt.rate_floor - 1e-8 * max(1.0, pt.rate_floor)

    def test_rate_floor_met_channel1_point4(self):
        # Nested bisection returned a lambda other than the one it had
        # checked here and fell 6.1e-6 bits short of this floor.
        pt = self.multipath_sweep(1)[4]
        assert pt.rate_achieved >= pt.rate_floor - 1e-8 * max(1.0, pt.rate_floor)

    def test_flat_curve_for_equal_gains(self):
        ch = ChannelGains(np.ones(4))
        points = tradeoff_sweep(ch, 4.0, 1.0, self.policy, 5)
        emses = [pt.emse for pt in points]
        np.testing.assert_allclose(emses, emses[0], rtol=1e-9)

    def test_uniform_endpoint_formula(self):
        ch = seeded_gains(8, 9)
        points = tradeoff_sweep(ch, 8.0, 0.5, self.policy, 4)
        expected = self.policy.A * 0.5 * 64.0 / 8.0  # A * sigma^2 * N^2 / P
        assert points[0].emse == pytest.approx(expected, rel=1e-9)

    def test_monotone_and_above_uniform(self):
        ch = seeded_gains(8, 10)
        points = tradeoff_sweep(ch, 8.0, 1.0, self.policy, 12)
        emses = np.array([pt.emse for pt in points])
        assert np.all(np.diff(emses) >= -1e-9 * emses[:-1].clip(min=1.0))
        assert np.all(emses >= points[0].emse - 1e-9)

    @pytest.mark.parametrize("n_points", [8, 32])
    def test_carried_state_matches_standalone_solves(self, n_points):
        # The sweep computes the uniform and water-filling allocations and
        # their rates once per channel and solves each point from the uniform
        # allocation; none of it may move a bit of an answer.
        for channel_seed in range(8):
            cfg, _, ch = self.multipath_channel(channel_seed)
            for pt in self.multipath_sweep(channel_seed, n_points):
                r0 = pt.rate_floor
                assert pt.rate_achieved >= r0 - 1e-8 * max(1.0, r0)
                alone = emse_rate_constrained(ch, cfg.power_budget, r0)
                assert achievable_rate(alone, ch) >= r0 - 1e-8 * max(1.0, r0)
                np.testing.assert_array_equal(pt.allocation.powers, alone.powers)

    @staticmethod
    def count_root_solves(monkeypatch):
        """A list that grows by one at each call of ``_stationarity_roots``."""
        calls = []
        roots = allocation._stationarity_roots

        def counted(*args):
            calls.append(None)
            return roots(*args)

        monkeypatch.setattr(allocation, "_stationarity_roots", counted)
        return calls

    def test_warm_started_work_count(self, monkeypatch):
        # A deterministic work count, not a wall-clock bound: the 8-seed,
        # 8-point sweep has 18 binding points and makes 107 root solves, one
        # per trial step of the multiplier Newton.
        calls = self.count_root_solves(monkeypatch)
        for channel_seed in range(8):
            self.multipath_sweep(channel_seed)
        assert len(calls) == 107

    def test_flat_channel_sweep_is_its_endpoints(self, monkeypatch):
        # On a flat channel uniform is water-filling: no floor binds, so no
        # root is solved, and the rows hold the closed forms bit for bit.
        calls = self.count_root_solves(monkeypatch)
        ch = ChannelGains(np.ones(64))
        points = tradeoff_sweep(ch, 64.0, 0.1, self.policy, 8)
        assert calls == []
        uniform = PowerAllocation.uniform(64, 64.0)
        np.testing.assert_array_equal(points[0].allocation.powers, uniform.powers)
        np.testing.assert_array_equal(points[-1].allocation.powers,
                                      water_filling(ch, 64.0).powers)
        assert {pt.emse for pt in points} == {emse_of_alloc(uniform, 0.1, self.policy)}
