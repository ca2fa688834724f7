import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from lobliq import discrete
from lobliq.cases import resolve
from lobliq.discrete import (
    _bidiagonal_solve,
    _log_series_terms,
    _newton_chain,
    level_of,
    power_constant,
    power_time_factor,
    solve_exp_finite,
    solve_exp_infinite,
    solve_power_zero_rate,
)
from lobliq.intensity import (
    ExpDecayIntensity,
    MarketParams,
    PowerLawIntensity,
)
from ode_oracles import (
    bracketed_power_recursion,
    exp_recursion_by_level,
    lambert_w0_exparg,
    power_recursion_by_level,
    stationary_by_level,
)

LAM, ALPHA, R = 1.0, 2.0, 0.1
POWER = PowerLawIntensity(lam=LAM, alpha=ALPHA)
STATIONARY = MarketParams(r=R)


def bisect_lambert(y):
    lo, hi = 0.0, max(1.0, y)
    while hi * math.exp(hi) < y:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _assert_solves_discounted(c, d_ref, lam, alpha, r, delta):
    """c_1..c_n against the r-free reference d_n times (alpha*r)**(-1/alpha),
    and the residual of r*c_n = A*lam*delta**(alpha-1)*(c_n - c_{n-1})**(1-alpha)
    at every level; the scale and the log of the right side's constant come
    from mpmath, so neither shares a rounding with the package."""
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        scale = float((a * r) ** (-1 / a))
        log_k = float(mpmath.log((a - 1) ** (a - 1) / a ** a * lam
                                 * mpmath.mpf(delta) ** (a - 1) / r))
    np.testing.assert_allclose(c[1:], d_ref[1:] * scale, rtol=1e-14, atol=0.0)
    prev, cur = c[1:-1], c[2:]
    m = cur - prev  # exact, as c_{n-1} <= c_n <= 2*c_{n-1}
    resid = np.log(cur) + (alpha - 1.0) * np.log(m) - log_k
    # in eps = 2**-52: the scale (1/(alpha*r))**(1/alpha) in floats, good to
    # (2 + |log(alpha*r)|)/alpha + 1, which the residual carries alpha times;
    # the roundings of d_n, of the increment and of the products by the
    # scale, 3 eps of c_n in m_n, which the residual carries (alpha-1)*c_n/m_n
    # times; the package's Newton root, whose own residual is good to 2 eps of
    # its terms alpha*log(c_{n-1}/c_1) and (alpha-1)*log(m_n/c_{n-1}); and this
    # evaluation, an eps of each log, product and sum in it
    bound = 2.0 ** -52 * (
        2.0 * alpha + abs(math.log(alpha * r)) + 6.0 + 3.0 * (alpha - 1.0) * cur / m
        + 2.0 * alpha * np.abs(np.log(prev / c[1]))
        + 2.0 * (alpha - 1.0) * np.abs(np.log(m / prev))
        + 2.0 * np.abs(np.log(cur)) + 3.0 * (alpha - 1.0) * np.abs(np.log(m)) + abs(log_k))
    assert np.all(np.abs(resid) <= bound)


def _reference_exp_recursion(x_max, delta, lam, kappa, r):
    """The stationary exp-book recursion with one cold W(e^z) solve per
    level: the reference for the package's Newton solve warm-started at the
    previous level."""
    v = np.zeros(level_of(x_max, delta) + 1)
    log_base = math.log(lam / (r * delta))
    for n in range(1, len(v)):
        v[n] = (delta / kappa) * lambert_w0_exparg(log_base + kappa * v[n - 1] / delta - 1.0)
    return v


def _mpmath_power_recursion(lam, alpha, r, n_max, delta, dps=30):
    """c_0..c_n of r*c_n = A*lam*delta**(alpha-1) * (c_n - c_{n-1})**(1-alpha)
    at ``dps`` digits, each level's increment a root in log(m); at r = 0 the
    r-free d_n of d_n = ((alpha-1)/alpha)**(alpha-1)*lam*delta**(alpha-1) *
    (d_n - d_{n-1})**(1-alpha)."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        weight = a * r if r > 0.0 else 1
        log_k = mpmath.log(((a - 1) / a) ** (a - 1) * lam
                           * mpmath.mpf(delta) ** (a - 1) / weight)
        c = [mpmath.mpf(0), mpmath.exp(log_k / a)]
        z = mpmath.log(c[1])
        for _ in range(2, n_max + 1):
            prev = c[-1]
            z = mpmath.findroot(lambda z: mpmath.log(prev + mpmath.exp(z))
                                + (a - 1) * z - log_k, z)
            c.append(prev + mpmath.exp(z))
        return c


@pytest.mark.parametrize("alpha", [1.5, 2.0, 7.0, 145.0, 200.0, 1000.0])
def test_power_constant_matches_mpmath(alpha):
    # each power of (alpha-1)**(alpha-1) / alpha**alpha overflows from alpha ~ 145
    exact = mpmath.mpf(alpha - 1.0) ** (alpha - 1.0) / mpmath.mpf(alpha) ** alpha
    assert math.isclose(power_constant(alpha), float(exact), rel_tol=1e-13)


class TestPowerCoefficients:
    def test_boundary(self):
        c = resolve(POWER, STATIONARY).solve(1.0, 5).coefficients
        assert c[0] == 0.0

    def test_first_two_closed_forms(self):
        c = resolve(POWER, STATIONARY).solve(1.0, 5).coefficients
        c1 = math.sqrt(power_constant(2.0) * LAM / R)  # sqrt(2.5)
        c2 = 0.5 * (c1 + math.sqrt(c1 * c1 + LAM / R))
        assert abs(c[1] - c1) < 1e-12
        assert abs(c[2] - c2) < 1e-12
        assert abs(c[1] - 1.5811388300841898) < 1e-10

    def test_defining_equation_residuals(self):
        c = resolve(POWER, STATIONARY).solve(1.0, 200).coefficients
        b = power_constant(ALPHA) * LAM
        for n in range(1, 201):
            resid = abs(R * c[n] - b * (c[n] - c[n - 1]) ** (1.0 - ALPHA))
            assert resid <= 1e-10 * R * c[n]

    def test_shape_invariants(self):
        c = resolve(PowerLawIntensity(lam=1.7, alpha=3.2),
                    MarketParams(r=0.04)).solve(1.0, 120).coefficients
        inc = np.diff(c)
        assert np.all(inc > 0.0)            # strictly increasing
        assert np.all(np.diff(inc) <= 1e-14)  # concave in the level

    @given(st.one_of(st.just(2.0), st.just(1.001), st.floats(1.001, 30.0)),
           st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
           st.floats(1e-4, 1.0),
           st.one_of(st.integers(1, 300), st.integers(300, 20_000)))
    # where the level-by-level solve, which rounds each d_n = d_{n-1} + m,
    # ends 1.2e-14 and 1.6e-14 off a 30-digit recursion
    @example(1.001, 0.0, 0.125, 100_000)
    @example(1.01, 0.1, 0.125, 100_000)
    # where d_n solved as d_n/d_1 and scaled by d_1 ended 3 ulps off the
    # alpha = 2 closed form
    @example(2.0, 0.0, 0.35546875, 140)
    @example(2.0, 0.0, 0.08179819592992184, 8538)
    @settings(max_examples=40, deadline=None)
    def test_newton_matches_reference_at_domain_edges(self, alpha, r, delta, n_max):
        # the r-free d_n against the bracketed solve of the same recursion,
        # d_n = b*(d_n - d_{n-1})**(1-alpha), from the same d_1; for r > 0 the
        # reported c_n against that reference and the discounted equation
        lam = 1.3
        b = lam * delta ** (alpha - 1.0) * ((alpha - 1.0) / alpha) ** (alpha - 1.0)
        d = solve_power_zero_rate(lam, alpha, n_max, delta)
        ref = bracketed_power_recursion(b, 1.0, alpha, n_max)
        assert d[0] == 0.0 and d[1] == ref[1]
        np.testing.assert_allclose(d[1:], ref[1:], rtol=1e-14, atol=0.0)
        # the level-by-level solve rounds each sum d_{n-1} + m, by half an ulp,
        # and dd_n/dd_{n-1} < 1 amplifies none of these roundings; its roots
        # and the chain's solve add a few more
        by_level = power_recursion_by_level(lam, alpha, n_max, delta)
        n = np.arange(n_max + 1.0)
        assert np.all(np.abs(d - by_level) <= (4.0 + n) * 2.0 ** -53 * d)
        if alpha == 2.0:
            # (d + m)*m = b: m = (-d + sqrt(d**2 + 4b))/2, written without the
            # cancellation
            prev = d[1:-1]
            closed = prev + 2.0 * b / (prev + np.sqrt(prev * prev + 4.0 * b))
            assert np.all(np.abs(d[2:] - closed) <= 2.0 * np.spacing(d[2:]))
        c = d
        if r > 0.0:
            c = resolve(PowerLawIntensity(lam=lam, alpha=alpha),
                        MarketParams(r=r)).solve(delta, n_max).coefficients
            _assert_solves_discounted(c, ref, lam, alpha, r, delta)
        inc = np.diff(c)
        assert np.all(inc > 0.0)
        # the differences of rounded c_n carry up to an ulp of c_n each
        assert np.all(np.diff(inc) <= 2.0 * np.spacing(c[2:]))

    def test_near_alpha_one_matches_mpmath(self):
        # a case where the discounted reference, solved in c_n from its own
        # c_1, ends 7.7e-15 from 30-digit mpmath, and the scaled r-free solve
        # 2.9e-15
        lam, alpha, r, delta, n = 1.3, 1.001, 1.0, 0.125, 7159
        c = resolve(PowerLawIntensity(lam=lam, alpha=alpha),
                    MarketParams(r=r)).solve(delta, n).coefficients
        ref = _mpmath_power_recursion(lam, alpha, r, n, delta)
        np.testing.assert_allclose(c[1:], [float(v) for v in ref[1:]], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("alpha, k", [(200.0, 6), (150.0, 9)])
    def test_large_alpha_fine_delta_matches_mpmath(self, alpha, k):
        # the finest rungs of the x = 5 convergence ladders: b = A*lam*delta**(alpha-1)
        # is about 1e-362 and 1e-406, far below the normal floats, so c_1
        # comes from log b
        delta = 0.5 ** k
        n = round(5.0 / delta)
        sol = resolve(PowerLawIntensity(lam=1.0, alpha=alpha),
                      MarketParams(r=0.1)).solve(delta, n)
        ref = _mpmath_power_recursion(1.0, alpha, 0.1, n, delta)
        np.testing.assert_allclose(sol.coefficients[1:], [float(v) for v in ref[1:]],
                                   rtol=1e-13, atol=0.0)
        for level in (1, 2, n):
            spread = (alpha / (alpha - 1.0)) * (ref[level] - ref[level - 1]) / delta
            assert math.isclose(sol.spreads[level], float(spread), rel_tol=1e-13)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            solve_power_zero_rate(1.0, 0.9, 5)
        with pytest.raises(ValueError):
            resolve(POWER, MarketParams(r=0.0)).solve(1.0, 5)


class TestPowerValueSpread:
    def test_expiry_is_worthless(self):
        # no time to go: the time factor, and with it every value and spread, is 0
        assert power_time_factor(0.0, ALPHA, R) == 0.0
        policy = resolve(POWER, MarketParams(r=R, horizon=1.0)).policy(1.0, 60)
        assert policy.spreads_at(3, np.array([0.0]))[0] == 0.0

    def test_infinite_horizon_level_one(self):
        sol = resolve(POWER, STATIONARY).solve(1.0, 60)
        assert abs(sol.values[1] - 1.5811388300841898) < 1e-10
        assert abs(sol.spreads[1] - 3.1622776601683795) < 1e-10  # lam/(alpha*r*c1)

    def test_marginal_value_identity(self):
        # spread = alpha/(alpha-1) * (V(n,T) - V(n-1,T))
        for t in [0.05, 0.7, 3.0, math.inf]:
            sol = resolve(POWER, MarketParams(r=R, horizon=t)).solve(1.0, 60)
            for n in [1, 5, 20, 60]:
                marginal = ALPHA / (ALPHA - 1.0) * (sol.values[n] - sol.values[n - 1])
                assert abs(sol.spreads[n] - marginal) < 1e-10

    def test_full_liquidation_constant(self):
        # rate at the optimal spread times the horizon factor^alpha is flat in T
        products = []
        for t in [0.01, 0.1, 1.0, 10.0]:
            s = resolve(POWER, MarketParams(r=R, horizon=t)).solve(1.0, 4).spreads[4]
            products.append(POWER.rate(s) * (-math.expm1(-R * ALPHA * t)))
        assert np.ptp(products) < 1e-10 * products[0]


class TestZeroRate:
    def test_boundary_and_first(self):
        d = solve_power_zero_rate(LAM, ALPHA, 10)
        assert d[0] == 0.0
        assert abs(d[1] - math.sqrt(0.5)) < 1e-12

    def test_residuals(self):
        d = solve_power_zero_rate(2.3, 2.6, 80)
        b = 2.3 * ((2.6 - 1.0) / 2.6) ** (2.6 - 1.0)
        for n in range(1, 81):
            resid = abs(d[n] - b * (d[n] - d[n - 1]) ** (1.0 - 2.6))
            assert resid <= 1e-10 * d[n]

    @given(st.floats(1e-9, 1e-3), st.floats(1.1, 5.0))
    @example(1e-3, 2.0)
    @example(1e-6, 2.0)
    @example(1e-9, 2.0)
    @settings(max_examples=40, deadline=None)
    def test_discounted_values_tend_to_zero_rate_linearly_in_r(self, r, alpha):
        # V_r(n, T) / V_0(n, T) = ((1 - exp(-x)) / x)**(1/alpha) with x = r*alpha*T at
        # every level, as c_n * (r*alpha)**(1/alpha) = d_n: a relative gap of
        # -r*T/2 + O(r**2), so about -5e-4, -5e-7 and -5e-10 at T = 1
        model, t = PowerLawIntensity(lam=LAM, alpha=alpha), 1.0
        v_r = resolve(model, MarketParams(r=r, horizon=t)).solve(1.0, 6).values[1:]
        v_0 = resolve(model, MarketParams(r=0.0, horizon=t)).solve(1.0, 6).values[1:]
        gap = v_r / v_0 - 1.0
        x = r * alpha * t
        exact = math.expm1(math.log(-math.expm1(-x) / x) / alpha)
        assert np.all(np.abs(gap - exact) <= 1e-14)
        assert np.all(np.abs(gap + 0.5 * r * t) <= alpha * (r * t) ** 2 + 1e-14)

    @pytest.mark.parametrize("delta", [1.0, 2.0 ** -6])
    def test_spreads_match_mpmath_near_alpha_one(self, delta):
        # sigma_n = (lam/d_n)**(1/(alpha-1)) at T = 1, against the marginal
        # form (alpha/(alpha-1)) * (d_n - d_{n-1})/delta in 50 digits; in
        # doubles that form cancels (3.0e-12 relative at alpha 1.01, delta 1)
        alpha, n = 1.01, 300
        model = PowerLawIntensity(lam=LAM, alpha=alpha)
        sol = resolve(model, MarketParams(r=0.0, horizon=1.0)).solve(delta, n)
        d = _mpmath_power_recursion(LAM, alpha, 0.0, n, delta, dps=50)
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            exact = [float(a / (a - 1) * (d[k] - d[k - 1]) / delta) for k in range(1, n + 1)]
        np.testing.assert_allclose(sol.spreads[1:], exact, rtol=2e-13, atol=0.0)

    def test_small_r_limit(self):
        # discounted V at r = 1e-6 approaches d_n * T**(1/alpha)
        discounted = resolve(POWER, MarketParams(r=1e-6, horizon=1.0)).solve(1.0, 8)
        zero = resolve(POWER, MarketParams(r=0.0, horizon=1.0)).solve(1.0, 8)
        for n in [1, 4, 8]:
            assert abs(discounted.values[n] - zero.values[n]) <= 1e-4 * zero.values[n]


class TestExpectedLiquidationTime:
    def test_values(self):
        case = resolve(POWER, STATIONARY)
        s = case.solve(1.0, 10).liquidation_times
        assert s[0] == 0.0
        assert abs(s[1] - 10.0) < 1e-9  # 1/rate(3.16227766) with rate s**-2

    def test_increments_match_rates(self):
        model = PowerLawIntensity(lam=1.4, alpha=2.5)
        case = resolve(model, MarketParams(r=0.07))
        sol = case.solve(1.0, 30)
        increments = np.diff(sol.liquidation_times)
        for n in range(1, 31):
            assert abs(increments[n - 1] - 1.0 / model.rate(sol.spreads[n])) < 1e-12
        assert np.all(np.diff(increments) < 0.0)  # later units sell faster

    def test_units_of_size_delta(self):
        # each wait is delta/rate(s*(n)): the physical spread fills delta units at
        # rate rate(s)/delta; the unit-size problem with lam*delta**(alpha-1)
        # gives the same times
        lam, alpha, r, delta = 1.4, 2.5, 0.07, 0.25
        model = PowerLawIntensity(lam=lam, alpha=alpha)
        case = resolve(model, MarketParams(r=r))
        sol = case.solve(delta, 30)
        s = sol.liquidation_times
        unit = resolve(PowerLawIntensity(lam=lam * delta ** (alpha - 1.0), alpha=alpha),
                       MarketParams(r=r))
        s_unit = unit.solve(1.0, 30).liquidation_times
        for n in range(1, 31):
            assert math.isclose(s[n] - s[n - 1], delta / model.rate(sol.spreads[n]),
                                rel_tol=1e-12)
            assert math.isclose(s[n] - s[n - 1], s_unit[n] - s_unit[n - 1], rel_tol=1e-12)

    @pytest.mark.parametrize("alpha", [1.001, 1.01, 2.5, 150.0])
    def test_times_match_mpmath(self, alpha):
        # the times from the float d_n against the same sums in 40 digits:
        # wait_n = delta/(alpha*r*lam) * (lam/d_n)**e, e = alpha/(alpha-1).
        # In eps = 2**-53 a wait carries the rounding of lam/d_n, times e;
        # that of e (2 eps), times e*|log(lam/d_n)|; and the pow, the three
        # roundings of the constant and the product, 5 eps.  The k-th
        # partial sum of positive terms adds k-1 eps.
        lam, r, delta, n = 1.3, 0.4, 0.25, 40
        case = resolve(PowerLawIntensity(lam=lam, alpha=alpha), MarketParams(r=r))
        times = case.solve(delta, n).liquidation_times
        d = solve_power_zero_rate(lam, alpha, n, delta)
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)
            scale = mpmath.mpf(delta) / (a * r * lam)
            exact, total = [], mpmath.mpf(0)
            for dn in d[1:]:
                total += scale * (lam / mpmath.mpf(dn)) ** (a / (a - 1))
                exact.append(float(total))
        e = alpha / (alpha - 1.0)
        per_wait = e * (1.0 + 2.0 * np.max(np.abs(np.log(lam / d[1:])))) + 5.0
        bound = (per_wait + np.arange(n)) * 2.0 ** -53
        assert times[0] == 0.0
        assert np.all(np.abs(times[1:] - exact) <= bound * np.array(exact))


class TestChainNewton:
    @pytest.mark.parametrize("draw_k", [
        lambda u: 10.0 ** (-8.0 * u),
        lambda u: np.full(u.shape, 1e-3),
        lambda u: 1.0 - 10.0 ** (-1.0 - 5.0 * u),
    ], ids=["spread", "small", "near-one"])
    def test_scan_restarts_where_the_products_underflow(self, draw_k):
        # 5 000 levels whose products k_0...k_n fall to about e**-46 000,
        # e**-34 500 and e**-40, against the same recurrence stepped level by
        # level.  The products come from a cumsum of log k, whose absolute
        # rounding grows with the total, here to about 1e-11
        rng = np.random.default_rng(7)
        k = draw_k(rng.uniform(0.0, 1.0, 5000))
        g = rng.uniform(0.0, 1.0, 5000) * 10.0 ** rng.uniform(-3.0, 3.0, 5000)
        ref, s = np.empty(5000), 0.0
        for n in range(5000):
            s = k[n] * s + g[n]
            ref[n] = s
        np.testing.assert_allclose(_bidiagonal_solve(k, g), ref, rtol=1e-10, atol=0.0)

    def test_exp_chain_at_tiny_fill_rate(self):
        # lam/(r*delta) = 1e-4: w and k_n = w/(1 + w) stay below 4e-5, so the
        # products k_1...k_n fall by e**-3 000 over the 300 levels; the bound
        # is that of test_warm_newton_at_domain_edges
        values, spreads = solve_exp_infinite(300.0, 1.0, 1e-4, 1.0, 1.0)
        ref = exp_recursion_by_level(300.0, 1.0, 1e-4, 1.0, 1.0)[0]
        n = np.arange(1.0, 301.0)
        assert np.all(np.abs(values[1:] - ref[1:]) <= (32.0 + 4.0 * n) * 2.0 ** -53 * ref[1:])
        assert np.all(spreads[1:] >= 1.0)

    def test_step_cap_names_the_level_with_the_largest_residual(self, monkeypatch):
        # steps that never shrink: the error after the cap names the level of
        # the largest relative residual |g_n/x_n|, counted from first_level
        monkeypatch.setattr(discrete, "_NEWTON_STEPS", 3)
        x = np.ones(4)
        c = np.array([0.5, 2.0, 1.0, 0.25])
        linearize = lambda: (np.full(4, 0.5), c * x)
        with pytest.raises(ArithmeticError, match=r"did not converge in 3 Newton steps: "
                           r"the largest relative residual, 2\.000e\+00, is at level 8$"):
            _newton_chain(x, linearize, 7)

    def test_increments_below_the_rounding_raise(self):
        # at alpha = 1 + 1e-12 the increments d_n - d_{n-1} fall below an ulp
        # of d_n by level 4 000: no float chain solves the recursion
        with pytest.raises(ArithmeticError, match="did not converge"):
            solve_power_zero_rate(1.0, 1.0 + 1e-12, 20_000)

    @pytest.mark.parametrize("solve", [
        lambda n: solve_power_zero_rate(1.3, 1.5, n, 0.1),
        lambda n: solve_exp_infinite(n / 4096, 2.0 ** -12, 1.0, 1.0, 0.1),
        lambda n: solve_exp_infinite(n / 4096, 2.0 ** -12, 1e6, 1.0, 1.0),
    ], ids=["power", "exp", "exp-far-from-cap"])
    def test_peak_memory_is_a_few_level_arrays(self, solve):
        # the whole chain is solved at once: the temporaries of a Newton step
        # and the output, at most 16 float64 arrays of the level count
        n = 200_000
        tracemalloc.start()
        try:
            solve(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 8 * n


class TestExpFinite:
    def test_log_series_terms_match_gammaln(self):
        # math.lgamma in place of scipy.special.gammaln, which stays the oracle
        n = 3000
        y = np.array([0.0, 1e-300, 0.37, 1.0, 42.0, 1e4])
        j = np.arange(n + 1.0)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = j * np.log(y) - gammaln(j + 1.0)
            scale = np.abs(j * np.log(y)) + gammaln(j + 1.0)
        ref[0] = scale[0] = 0.0  # the empty product, also where y = 0
        got = _log_series_terms(n, y)
        assert np.array_equal(np.isneginf(got), np.isneginf(ref))
        live = np.isfinite(ref)
        assert np.all(np.abs(got[live] - ref[live]) <= 4.0 * np.spacing(scale[live]))
    def test_boundaries(self):
        values, _ = solve_exp_finite(4, 1.0, [0.0, 1.0, 2.0], 1.0, 1.0)
        assert np.all(values[0, :] == 0.0)   # no inventory
        assert np.all(values[:, 0] == 0.0)   # no time

    def test_closed_form_examples(self):
        # lam*T/(delta*e) = 1 at T = e
        values, _ = solve_exp_finite(2, 1.0, [math.e], 1.0, 1.0)
        assert abs(values[1, 0] - math.log(2.0)) < 1e-12
        assert abs(values[2, 0] - math.log(2.5)) < 1e-12

    def test_first_level_log_form(self):
        lam, kappa, delta = 1.3, 0.7, 0.25
        values, _ = solve_exp_finite(1, delta, [2.0], lam, kappa)
        expected = (delta / kappa) * math.log1p(lam / (kappa * math.e)
                                                * kappa / delta * 2.0)
        assert abs(values[1, 0] - expected) < 1e-12

    def test_log_sum_exp_stability(self):
        # 5000 terms: the raw partial sums overflow, the log-space path must not
        values, spreads = solve_exp_finite(5000, 1e-3, [1.0], 1.0, 1.0)
        assert np.all(np.isfinite(values[1:, 0]))
        assert np.all(np.isfinite(spreads[1:, 0]))

    def test_spread_floor(self):
        _, spreads = solve_exp_finite(30, 0.5, [0.0, 0.3, 2.0, 20.0], 2.0, 3.0)
        assert np.all(spreads[1:, :] >= 1.0 / 3.0 - 1e-13)


class TestExpInfinite:
    def test_boundary(self):
        values, _ = solve_exp_infinite(5.0, 1.0, 1.0, 1.0, 0.1)
        assert values[0] == 0.0

    def test_first_level_is_lambert(self):
        values, _ = solve_exp_infinite(5.0, 1.0, 1.0, 1.0, 0.1)
        oracle = bisect_lambert(10.0 / math.e)
        assert abs(values[1] - oracle) < 1e-10

    def test_monotone_bounded(self):
        values, spreads = solve_exp_infinite(40.0, 1.0, 1.0, 1.0, 0.1)
        cap = 1.0 / (0.1 * math.e)
        assert np.all(np.diff(values) > 0.0)
        assert np.all(values <= cap + 1e-12)
        assert np.all(spreads[1:] >= 1.0 - 1e-13)  # 1/kappa floor
        assert np.all(np.diff(spreads[1:]) < 0.0)  # richer inventory, tighter spread

    def test_small_delta_overflow_safe(self):
        values, _ = solve_exp_infinite(2.0, 1.0 / 512.0, 1.0, 1.0, 0.1)
        assert np.all(np.isfinite(values))
        assert values[-1] <= 1.0 / (0.1 * math.e) + 1e-12

    @pytest.mark.parametrize("x_max, delta, kappa", [
        # delta/kappa overflows, though every value lies below lam/(kappa*r*e)
        (3e12, 1e12, 1e-300),
        # the values are finite, but 1/kappa plus their rise over delta is not
        (0.03, 0.01, 1e-308),
    ])
    def test_overflow_raises(self, x_max, delta, kappa):
        # not inf and nan written out, nor a RuntimeWarning (an error here)
        with pytest.raises(ArithmeticError, match=f"overflow at delta = {delta!r}, "
                                                  f"kappa = {kappa!r}"):
            solve_exp_infinite(x_max, delta, 1.0, kappa, 1.0)

    @given(j=st.integers(0, 14), log_r=st.floats(-6.0, 0.5),
           log_ratio=st.floats(-3.0, 6.0), log_kappa=st.floats(-2.0, 2.0),
           share=st.floats(0.0, 1.0))
    @example(j=14, log_r=-6.0, log_ratio=6.0, log_kappa=0.0, share=1.0)
    @example(j=14, log_r=0.5, log_ratio=-3.0, log_kappa=-2.0, share=1.0)
    @example(j=0, log_r=-6.0, log_ratio=-3.0, log_kappa=2.0, share=1.0)
    # reaches the asymptote by level 15, where a level can round below the last
    @example(j=4, log_r=-0.9, log_ratio=-2.0, log_kappa=1.1, share=1.0)
    # the finest unit, 98 304 levels, at the smallest and largest lam/r: the
    # first sits at its asymptote from about level 200 on, the second stays
    # far below it
    @example(j=14, log_r=-1.0, log_ratio=-3.0, log_kappa=0.0, share=1.0)
    @example(j=14, log_r=-1.0, log_ratio=6.0, log_kappa=0.0, share=1.0)
    @settings(max_examples=30, deadline=None)
    def test_warm_newton_at_domain_edges(self, j, log_r, log_ratio, log_kappa, share):
        # delta = 2**-j down to 2**-14 (up to 98 304 levels), r down to 1e-6,
        # lam/r from 1e-3 to 1e6
        delta, r, kappa = 2.0 ** -j, 10.0 ** log_r, 10.0 ** log_kappa
        lam = 10.0 ** log_ratio * r
        levels = max(1, round(share * 6.0 / delta))
        values, spreads = solve_exp_infinite(levels * delta, delta, lam, kappa, r)
        eps = 2.0 ** -53
        cap = lam / (kappa * r * math.e)
        rise = np.diff(values)
        assert values[0] == 0.0 and np.all(rise >= 0.0)
        # strictly, until the value is within rounding of the asymptote: the
        # relative increment of w = kappa*V/delta is about gap/max(1, w_cap)
        gap = (cap - values[1:]) / cap
        w_cap = lam / (r * delta * math.e)
        assert np.all(rise[gap > 16.0 * eps * max(1.0, w_cap)] > 0.0)
        assert np.all(values <= cap * (1.0 + 16.0 * eps))
        assert np.all(spreads[1:] >= 1.0 / kappa)
        # each level adds a few roundings to either recursion and
        # dw_n/dw_{n-1} = w_n/(1 + w_n) < 1 amplifies none of them; level 1
        # carries the conditioning of w + log(w) = z, |z| ulps at small w
        ref = _reference_exp_recursion(levels * delta, delta, lam, kappa, r)
        by_level = exp_recursion_by_level(levels * delta, delta, lam, kappa, r)[0]
        n = np.arange(1.0, levels + 1.0)
        for other in (ref, by_level):
            assert np.all(np.abs(values[1:] - other[1:]) <= (32.0 + 4.0 * n) * eps * other[1:])

    def test_matches_mpmath_at_fine_delta(self):
        delta, lam, kappa, r = 2.0 ** -11, 1.0, 1.0, 0.1
        values, _ = solve_exp_infinite(1.0, delta, lam, kappa, r)
        with mpmath.workdps(40):
            log_cap = mpmath.log(mpmath.mpf(lam) / (mpmath.mpf(r) * delta)) - 1
            w, exact = mpmath.mpf(0), [0.0]
            for _ in range(len(values) - 1):
                w = mpmath.lambertw(mpmath.exp(log_cap + w)).real
                exact.append(float(w * delta / kappa))
        exact = np.array(exact)
        n = np.arange(1.0, len(values))
        assert np.all(np.abs(values[1:] - exact[1:]) <= (4.0 + n) * 2.0 ** -53 * exact[1:])


def _power_slope(s):
    """The derivative of POWER's rate."""
    return -ALPHA * POWER.rate(s) / s


class TestGenericStationary:
    def test_matches_power_closed_form(self):
        values, spreads = stationary_by_level(POWER.rate, _power_slope, 1.0, R, 12)
        closed = resolve(POWER, STATIONARY).solve(1.0, 12)
        assert np.max(np.abs(values - closed.coefficients)) < 1e-8
        assert np.max(np.abs(spreads[1:] - closed.spreads[1:])) < 1e-8

    def test_matches_exp_closed_form(self):
        model = ExpDecayIntensity(lam=1.0, kappa=1.0)
        generic_values, generic_spreads = stationary_by_level(
            model.rate, lambda s: -model.rate(s), 1.0, R, 12)
        values, spreads = solve_exp_infinite(12.0, 1.0, 1.0, 1.0, R)
        assert np.max(np.abs(generic_values - values)) < 1e-8
        assert np.max(np.abs(generic_spreads[1:] - spreads[1:])) < 1e-8

    def test_delta_scaling_reduction(self):
        # the power-law recursion, where delta enters only through
        # lam*delta**(alpha-1), must agree with the generic dynamic program
        # run directly at delta != 1
        delta = 0.25
        values, _ = stationary_by_level(POWER.rate, _power_slope, delta, R, 8)
        c = resolve(POWER, STATIONARY).solve(delta, 8).coefficients
        assert np.max(np.abs(values - c)) < 1e-8


class TestSolveDiscreteDispatch:
    def test_power_finite_horizon(self):
        # the value at T is the stationary c_n times (1 - exp(-r*alpha*T))**(1/alpha)
        sol = resolve(POWER, MarketParams(r=R, horizon=1.0)).solve(1.0, 6)
        factor = (-math.expm1(-R * ALPHA * 1.0)) ** (1.0 / ALPHA)
        assert abs(sol.values[6] - sol.coefficients[6] * factor) < 1e-14

    def test_exp_finite_requires_zero_rate(self):
        model = ExpDecayIntensity(lam=1.0, kappa=1.0)
        with pytest.raises(ValueError):
            resolve(model, MarketParams(r=0.1, horizon=1.0)).solve(1.0, 5)

    def test_zero_rate_infinite_rejected(self):
        with pytest.raises(ValueError):
            MarketParams(r=0.0, horizon=math.inf)

    def test_grid_alignment(self):
        assert level_of(5.0, 0.05) == 100
        with pytest.raises(ValueError):
            level_of(5.0, 0.3)
