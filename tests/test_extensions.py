import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lobliq import extensions
from lobliq.cases import resolve
from lobliq.discrete import power_constant
from lobliq.extensions import (
    _NEWTON_CELLS,
    ExpansionSolution,
    RegimeParams,
    TwoExchangeParams,
    _patch_integrate,
    _seed,
    _seed_width,
    _series,
    regime_fluid_fixed_point,
    two_exchange_expansion,
    two_exchange_patch,
)
from lobliq.intensity import MarketParams, PowerLawIntensity
from ode_oracles import patch_march_by_step, regime_fixed_point_by_point, regime_residuals

FIG4 = dict(lambda0=1.5, lambda1=0.5, r=0.1, alpha=2.0)


class TestRegimeFixedPoint:
    def test_ordering_chain(self):
        p = RegimeParams(theta0=1.0, theta1=1.0, **FIG4)
        c0, c1 = regime_fluid_fixed_point(p)
        assert p.single_regime_constant(1) < c1 < c0 < p.single_regime_constant(0)

    def test_residuals(self):
        p = RegimeParams(theta0=1.0, theta1=1.0, **FIG4)
        c0, c1 = regime_fluid_fixed_point(p)
        g0, g1 = regime_residuals(c0, c1, p)
        assert abs(g0) <= 1e-12 and abs(g1) <= 1e-12

    def test_slow_switching_limit(self):
        p = RegimeParams(theta0=1e-8, theta1=1e-8, **FIG4)
        c0, c1 = regime_fluid_fixed_point(p)
        assert abs(c0 - math.sqrt(7.5)) < 1e-6
        assert abs(c1 - math.sqrt(2.5)) < 1e-6

    def test_fast_switching_limit(self):
        p = RegimeParams(theta0=1e8, theta1=1e8, **FIG4)
        c0, c1 = regime_fluid_fixed_point(p)
        assert abs(c0 - math.sqrt(5.0)) < 1e-6
        assert abs(c1 - math.sqrt(5.0)) < 1e-6

    def test_exact_zero_rates_decouple(self):
        p = RegimeParams(theta0=0.0, theta1=0.0, **FIG4)
        c0, c1 = regime_fluid_fixed_point(p)
        assert c0 == p.single_regime_constant(0)
        assert c1 == p.single_regime_constant(1)

    def test_one_sided_switching(self):
        p = RegimeParams(theta0=0.0, theta1=2.0, **FIG4)
        c0, c1 = regime_fluid_fixed_point(p)
        assert c0 == p.single_regime_constant(0)
        g0, g1 = regime_residuals(c0, c1, p)
        assert abs(g1) < 1e-12

    def test_monotone_in_theta(self):
        thetas = np.geomspace(1e-3, 1e3, 13)
        c0s, c1s = [], []
        for th in thetas:
            c0, c1 = regime_fluid_fixed_point(
                RegimeParams(theta0=float(th), theta1=float(th), **FIG4))
            c0s.append(c0)
            c1s.append(c1)
        assert np.all(np.diff(c0s) < 0.0)  # active regime loses its edge
        assert np.all(np.diff(c1s) > 0.0)  # slow regime gains optionality

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RegimeParams(lambda0=0.5, lambda1=1.5, theta0=1.0, theta1=1.0,
                         r=0.1, alpha=2.0)

    def test_asymmetric_rates_solve(self):
        # fast exit from the slow regime, a rate of 1e-8 out of the active one
        p = RegimeParams(0.6743826715669278, 0.019690931665751185, 1.120200028291722e-08,
                         64184065.89452929, 0.0047441412571557545, 1.271150772663323)
        _assert_matches_mpmath(p, regime_fluid_fixed_point(p))

    def test_fast_switching_with_a_nearly_dry_slow_regime(self):
        # the theta = 1e8 point of a regimes sweep
        p = RegimeParams(lambda0=0.05, lambda1=5e-7, theta0=1e8, theta1=1e8, r=1.5e-4,
                         alpha=2.0)
        _assert_matches_mpmath(p, regime_fluid_fixed_point(p))

    def test_near_the_top_of_the_float_range(self):
        # (alpha-1)*lambda0 and theta1*g0 would overflow in the Newton step
        for p in (RegimeParams(5.629693880468705e+306, 2.0238306210786603e+26,
                               36136.40020018233, 0.0015389098346410496,
                               0.002457798250928624, 93.80988677917786),
                  RegimeParams(1.177480923794698e+308, 4.639730613196512e+93,
                               0.02423734915330839, 0.22691144332158775,
                               283.6362270940902, 1.0074674259681662)):
            _assert_matches_mpmath(p, regime_fluid_fixed_point(p))

    @given(alpha=st.floats(1.001, 30.0), lambda1=st.floats(1e-3, 1e3),
           ratio=st.floats(1.01, 1e4),
           theta0=st.one_of(st.just(0.0), st.floats(1e-8, 1e8)),
           theta1=st.one_of(st.just(0.0), st.floats(1e-8, 1e8)),
           r=st.floats(1e-4, 10.0))
    @example(alpha=30.0, lambda1=1e-3, ratio=1e4, theta0=1e-8, theta1=1e-8, r=10.0)
    @example(alpha=1.001, lambda1=1e3, ratio=1.01, theta0=1e8, theta1=1e8, r=1e-4)
    @settings(max_examples=60, deadline=None)
    def test_matches_mpmath_root(self, alpha, lambda1, ratio, theta0, theta1, r):
        p = RegimeParams(lambda0=lambda1 * ratio, lambda1=lambda1, theta0=theta0,
                         theta1=theta1, r=r, alpha=alpha)
        c0, c1 = regime_fluid_fixed_point(p)
        hi, lo = p.single_regime_constant(0), p.single_regime_constant(1)
        # hi and lo carry their own rounding, and a root may lie within it
        slack = 4.0 * math.ulp(hi)
        assert lo <= c1 <= c0 + slack and c0 <= hi + slack
        if theta0 == 0.0:
            assert c0 == hi
        if theta1 == 0.0:
            assert c1 == lo
        _assert_matches_mpmath(p, (c0, c1))



# the edge cases above, as (lambda0, lambda1, theta0, theta1, r, alpha)
REGIME_EDGES = [
    (1.5, 0.5, 0.0, 0.0, 0.1, 2.0),
    (1.5, 0.5, 0.0, 2.0, 0.1, 2.0),
    (1.5, 0.5, 2.0, 0.0, 0.1, 2.0),
    (1.5, 0.5, 1e-8, 1e-8, 0.1, 2.0),
    (1.5, 0.5, 1e8, 1e8, 0.1, 2.0),
    (0.05, 5e-7, 1e8, 1e8, 1.5e-4, 2.0),
    (0.6743826715669278, 0.019690931665751185, 1.120200028291722e-08,
     64184065.89452929, 0.0047441412571557545, 1.271150772663323),
    (5.629693880468705e+306, 2.0238306210786603e+26, 36136.40020018233,
     0.0015389098346410496, 0.002457798250928624, 93.80988677917786),
    (1.177480923794698e+308, 4.639730613196512e+93, 0.02423734915330839,
     0.22691144332158775, 283.6362270940902, 1.0074674259681662),
    # the first step's determinant underflows to 0: both solves raise
    (1.5, 0.5, 0.0, 0.0, 1e-170, 2.0),
]


class TestRegimeArray:
    """The array solve against the scalar Newton of one rate pair a call."""

    @staticmethod
    def _by_point(lambda0, lambda1, theta0, theta1, r, alpha):
        return np.array([regime_fixed_point_by_point(RegimeParams(
            lambda0=lambda0, lambda1=lambda1, theta0=float(t0), theta1=float(t1),
            r=r, alpha=alpha)) for t0, t1 in zip(theta0, theta1)]).T

    def test_cli_grid_matches_the_scalar_solve(self):
        # the 200-point log grid of the benchmark's regimes job
        thetas = np.geomspace(0.01, 100.0, 200)
        kw = dict(lambda0=1.0, lambda1=0.5, r=0.1, alpha=2.0)
        c0, c1 = regime_fluid_fixed_point(RegimeParams(theta0=thetas, theta1=thetas, **kw))
        want = self._by_point(theta0=thetas, theta1=thetas, **kw)
        np.testing.assert_array_equal(c0, want[0])
        np.testing.assert_array_equal(c1, want[1])

    @pytest.mark.parametrize("edge", REGIME_EDGES)
    def test_edge_cases_match_the_scalar_solve(self, edge):
        # the edge pair among pairs that stop at other steps: zero rates on
        # one side and both, and the extremes of the Hypothesis range
        lambda0, lambda1, theta0, theta1, r, alpha = edge
        t0 = np.array([theta0, 0.0, 0.0, 3.0, 1e-8, 1e8, theta1])
        t1 = np.array([theta1, 0.0, 3.0, 0.0, 1e8, 1e-8, theta0])
        kw = dict(lambda0=lambda0, lambda1=lambda1, r=r, alpha=alpha)
        array, single = (RegimeParams(theta0=t0, theta1=t1, **kw),
                         RegimeParams(theta0=theta0, theta1=theta1, **kw))
        try:
            want = self._by_point(theta0=t0, theta1=t1, **kw)
        except ArithmeticError as exc:
            # the scalar solve raises on the first pair: so do both here
            with pytest.raises(type(exc)):
                regime_fluid_fixed_point(array)
            with pytest.raises(type(exc)):
                regime_fluid_fixed_point(single)
            return
        c0, c1 = regime_fluid_fixed_point(array)
        np.testing.assert_array_equal(c0, want[0])
        np.testing.assert_array_equal(c1, want[1])
        assert regime_fluid_fixed_point(single) == (want[0][0], want[1][0])

    def test_zero_determinant_raises_and_names_the_pair(self):
        params = RegimeParams(lambda0=1.5, lambda1=0.5, theta0=np.array([1.0, 0.0]),
                              theta1=np.array([1.0, 0.0]), r=1e-170, alpha=2.0)
        with pytest.raises(ZeroDivisionError, match=r"divides by zero: RegimeParams\("
                           r"lambda0=1\.5, lambda1=0\.5, theta0=0\.0, theta1=0\.0, "):
            regime_fluid_fixed_point(params)
        with pytest.raises(ZeroDivisionError):
            regime_fixed_point_by_point(replace(params, theta0=0.0, theta1=0.0))

    def test_array_rates_compare_and_hash(self):
        grid = np.geomspace(0.1, 10.0, 4)
        p = RegimeParams(theta0=grid, theta1=grid, **FIG4)
        q = RegimeParams(theta0=grid.tolist(), theta1=tuple(grid), **FIG4)
        assert p == q and hash(p) == hash(q)
        assert p != replace(p, theta1=grid[::-1])
        assert p.theta0 == tuple(grid.tolist())
        assert {p: 1}[q] == 1

    def test_rates_are_two_floats_or_two_equal_1d_arrays(self):
        for t0, t1 in ((np.ones((2, 3)), np.ones((2, 3))), (np.ones(3), np.ones(4)),
                       (np.ones(3), 1.0), (1.0, [1.0])):
            with pytest.raises(ValueError, match="two floats or two 1-D arrays"):
                RegimeParams(theta0=t0, theta1=t1, **FIG4)

    def test_scalar_rates_return_floats(self):
        c0, c1 = regime_fluid_fixed_point(RegimeParams(theta0=1.0, theta1=0.5, **FIG4))
        assert type(c0) is float and type(c1) is float

    def test_negative_rate_anywhere_raises(self):
        for t0, t1 in ((np.array([1.0, -1e-300]), np.ones(2)),
                       (np.ones(3), np.array([2.0, 3.0, -1.0]))):
            with pytest.raises(ValueError, match="transition rates must be nonnegative"):
                RegimeParams(theta0=t0, theta1=t1, **FIG4)

    def test_step_cap_names_the_failing_rates(self, monkeypatch):
        # zero rates stop at the first step; the pair (2, 0.5) needs more than 2
        import lobliq.extensions as extensions
        monkeypatch.setattr(extensions, "_REGIME_STEPS", 2)
        params = RegimeParams(theta0=np.array([0.0, 2.0, 7.0]),
                              theta1=np.array([0.0, 0.5, 7.0]), **FIG4)
        with pytest.raises(ArithmeticError, match=r"no regime fixed point in 2 Newton steps: "
                           r"RegimeParams\(lambda0=1\.5, lambda1=0\.5, theta0=2\.0, "
                           r"theta1=0\.5, r=0\.1, alpha=2\.0\)$"):
            regime_fluid_fixed_point(params)

def _mpmath_regime_root(p, dps=50):
    """(c0*, c1*) in mpmath at ``dps`` digits, by a one-dimensional
    bisection.  With theta1 > 0 the slow equation gives c0 from c1 as
    c1 + (r*c1 - q1(c1))/theta1, and the active residual at (c0(c1), c1) is
    positive at c1 = lo and negative at c1 = hi; with theta1 = 0, c1 = lo
    and c0 is hi or, if theta0 > 0, the root of the active residual at
    c1 = lo on [lo, hi]."""
    with mpmath.workdps(dps):
        l0, l1, t0, t1, r, a = (mpmath.mpf(v) for v in (
            p.lambda0, p.lambda1, p.theta0, p.theta1, p.r, p.alpha))
        q = lambda lam, c: lam / a * c ** (1 - a)
        g0 = lambda c0, c1: q(l0, c0) - r * c0 + t0 * (c1 - c0)
        lo, hi = (l1 / (r * a)) ** (1 / a), (l0 / (r * a)) ** (1 / a)
        # the residual is too steep for findroot's absolute check; a bisection
        # that has not converged leaves a wide error, which fails the caller
        solve = lambda f: mpmath.findroot(f, (lo, hi), solver="bisect", verify=False,
                                          maxsteps=400)
        if t1 == 0:
            return float(solve(lambda c: g0(c, lo)) if t0 else hi), float(lo)
        c0_of = lambda c1: c1 + (r * c1 - q(l1, c1)) / t1
        c1 = solve(lambda c: g0(c0_of(c), c))
        return float(c0_of(c1)), float(c1)


def _assert_matches_mpmath(p, got, rel=1e-13):
    want = _mpmath_regime_root(p)
    for g, w in zip(got, want):
        assert abs(g - w) <= rel * w, (got, want)


def regime_discrete(p, n_max):
    """(U(n), W(n)) of the coupled regime recursion
    b0 m**(1-a) = (r+theta0) U(n) - theta0 W(n), b1 k**(1-a) = (r+theta1) W(n)
    - theta1 U(n) in the increments m = U(n) - U(n-1), k = W(n) - W(n-1): a
    2x2 Newton iteration per level from the previous level's increments, a
    step that would make m or k nonpositive halved."""
    a, r, t0, t1 = p.alpha, p.r, p.theta0, p.theta1
    b0, b1 = ((a - 1.0) ** (a - 1.0) / a ** a * lam for lam in (p.lambda0, p.lambda1))
    u, w = np.zeros(n_max + 1), np.zeros(n_max + 1)
    m, k = (b0 / r) ** (1.0 / a), (b1 / r) ** (1.0 / a)
    for n in range(1, n_max + 1):
        for _ in range(100):
            f0 = b0 * m ** (1.0 - a) - (r + t0) * (u[n - 1] + m) + t0 * (w[n - 1] + k)
            f1 = b1 * k ** (1.0 - a) - (r + t1) * (w[n - 1] + k) + t1 * (u[n - 1] + m)
            j00 = (1.0 - a) * b0 * m ** -a - (r + t0)
            j11 = (1.0 - a) * b1 * k ** -a - (r + t1)
            det = j00 * j11 - t0 * t1
            dm, dk = (j11 * f0 - t0 * f1) / det, (j00 * f1 - t1 * f0) / det
            while dm >= m or dk >= k:
                dm, dk = 0.5 * dm, 0.5 * dk
            m, k = m - dm, k - dk
            if abs(dm) <= 1e-13 * m and abs(dk) <= 1e-13 * k:
                break
        else:
            raise ArithmeticError(f"no convergence at level {n}")
        u[n], w[n] = u[n - 1] + m, w[n - 1] + k
    return u, w


class TestRegimeDiscrete:
    def test_terminal_condition(self):
        p = RegimeParams(theta0=1.0, theta1=1.0, **FIG4)
        u, w = regime_discrete(p, 5)
        assert u[0] == 0.0 and w[0] == 0.0

    def test_active_regime_worth_more(self):
        p = RegimeParams(theta0=0.7, theta1=1.3, **FIG4)
        u, w = regime_discrete(p, 25)
        assert np.all(u[1:] > w[1:])

    def test_zero_rates_decouple_to_single_regime(self):
        p = RegimeParams(theta0=0.0, theta1=0.0, **FIG4)
        u, w = regime_discrete(p, 10)
        for lam, values in ((1.5, u), (0.5, w)):
            single = resolve(PowerLawIntensity(lam=lam, alpha=2.0), MarketParams(r=0.1))
            assert np.max(np.abs(values - single.solve(1.0, 10).coefficients)) < 1e-10

    def test_large_n_matches_fluid_constants(self):
        p = RegimeParams(theta0=1.0, theta1=1.0, **FIG4)
        n = 3000
        u, w = regime_discrete(p, n)
        c0, c1 = regime_fluid_fixed_point(p)
        assert abs(u[n] / (c0 * math.sqrt(n)) - 1.0) < 0.02
        assert abs(w[n] / (c1 * math.sqrt(n)) - 1.0) < 0.02

    def test_residual_discipline(self):
        p = RegimeParams(theta0=0.4, theta1=2.5, r=0.07, alpha=2.6,
                         lambda0=2.0, lambda1=0.3)
        u, w = regime_discrete(p, 30)
        aa = (2.6 - 1.0) ** 1.6 / 2.6 ** 2.6
        for n in range(1, 31):
            res_u = aa * 2.0 * (u[n] - u[n - 1]) ** -1.6 - (0.07 + 0.4) * u[n] + 0.4 * w[n]
            res_w = aa * 0.3 * (w[n] - w[n - 1]) ** -1.6 - (0.07 + 2.5) * w[n] + 2.5 * u[n]
            assert abs(res_u) <= 1e-10 * max(1.0, 0.07 * u[n])
            assert abs(res_w) <= 1e-10 * max(1.0, 0.07 * u[n])


def make_params(**kw):
    base = dict(lambda0=1.0, lambda1=0.05, delta_block=1.0, alpha=2.0, r=0.1,
                x_max=3.0, grid_step=0.002)
    base.update(kw)
    return TwoExchangeParams(**base)


class TestTwoExchangePatch:
    def test_degenerate_reduction(self):
        sol = two_exchange_patch(make_params(lambda1=0.0))
        v0 = sol.params.single_exchange_value(sol.x_grid)
        assert np.max(np.abs(sol.value - v0)) < 1e-8

    def test_block_venue_adds_value(self):
        sol = two_exchange_patch(make_params(lambda1=0.05))
        v0 = sol.params.single_exchange_value(sol.x_grid)
        assert np.all(sol.value - v0 >= -1e-12)
        assert sol.value[-1] > v0[-1]

    def test_delay_ode_residual(self):
        params = make_params(lambda1=0.08)
        sol = two_exchange_patch(params)
        a, r, dblk = params.alpha, params.r, params.delta_block
        aa = (a - 1.0) ** (a - 1.0) / a ** a
        xs, v = sol.x_grid, sol.value
        h = params.grid_step
        lag = int(round(dblk / h))
        # 5-point stencil needs smooth v: stay clear of the seed layer and of
        # the singular image carried a little way above each knot
        windows = [(0.3, 0.95), (1.3, 1.95), (2.3, 2.95)]
        checked = 0
        for i in range(2, len(xs) - 2):
            x = xs[i]
            if not any(lo <= x <= hi for lo, hi in windows):
                continue
            vp = (v[i - 2] - 8.0 * v[i - 1] + 8.0 * v[i + 1] - v[i + 2]) / (12.0 * h)
            gap = v[i] - (v[i - lag] if i > lag else 0.0)
            resid = aa * params.lambda0 * vp ** (1.0 - a) \
                + aa * params.lambda1 * min(x, dblk) ** a * gap ** (1.0 - a) \
                - r * v[i]
            assert abs(resid) < 1e-6, f"residual {resid:.2e} at x = {x}"
            checked += 1
        assert checked > 900

    def test_value_continuous_at_knots(self):
        params = make_params(lambda1=0.3)
        sol = two_exchange_patch(params)
        h = params.grid_step
        steps = np.abs(np.diff(sol.value))
        for knot in (1.0, 2.0):
            k = int(round(knot / h))
            # no jump: the step across the knot is comparable to its neighbours
            assert steps[k] <= 3.0 * max(steps[k - 1], steps[k + 1]) + 1e-12

    def test_spreads_positive(self):
        sol = two_exchange_patch(make_params(lambda1=0.2))
        assert np.all(sol.spread_continuous[1:] > 0.0)
        assert np.all(sol.spread_block[1:] > 0.0)

    def test_seed_width_check_reports_misconfiguration(self):
        # one step a block: at a single step the series seed already drops a
        # term above 1e-6 of v, so no seed width on the lattice will do
        with pytest.raises(ArithmeticError, match="grid_step = 1.0 is too wide"):
            two_exchange_patch(make_params(lambda1=0.5, grid_step=1.0))

    def test_strong_block_venue_not_concave_near_knot(self):
        # the solver must not assert concavity: with a strong block venue the
        # value turns convex just above the knot, where the delayed image of
        # the steep small-inventory region enters the block term
        params = make_params(lambda1=5.0, delta_block=0.5, x_max=2.0,
                             grid_step=0.001)
        _, v, _ = _patch_integrate(params, 5e-4)
        second = np.diff(v, 2)
        knot = int(round(0.5 / 0.001))
        assert np.any(second[knot:] > 0.0)


def _series_oracle(alpha, zs):
    """F(z) of the seed's series at the increasing points zs, by a 30-digit
    solve of its ODE.  In s = log z and W = F**(1/p), p = (alpha-1)/alpha,
    the ODE is dW/ds = (1 - z W**(1-alpha))**(-1/(alpha-1)) - W, and every
    solution falls onto F's as z0/z; so W = 1 at z0 = 1e-16 starts it.  Each
    step of width at most 0.5 in s is the Gragg-Bulirsch-Stoer
    extrapolation of midpoint rules of 2, 4, ..., 20 substeps."""
    a = mpmath.mpf(alpha)

    def rate(s, w):
        return (1 - mpmath.exp(s) * w ** (1 - a)) ** (-1 / (a - 1)) - w

    s, w, out = mpmath.log(mpmath.mpf("1e-16")), mpmath.mpf(1), []
    for z in zs:
        n = int(mpmath.ceil(2 * (mpmath.log(z) - s)))
        width = (mpmath.log(z) - s) / n
        for _ in range(n):
            table = []
            for j in range(10):
                m = 2 * (j + 1)
                h = width / m
                w0, w1 = w, w + h * rate(s, w)
                for i in range(1, m):
                    w0, w1 = w1, w0 + 2 * h * rate(s + i * h, w1)
                row = [(w0 + w1 + h * rate(s + width, w1)) / 2]
                for k in range(j):
                    q = (mpmath.mpf(j + 1) / (j - k)) ** 2
                    row.append(row[k] + (row[k] - table[j - 1][k]) / (q - 1))
                table.append(row)
            s, w = s + width, table[-1][-1]
        out.append(w ** ((a - 1) / a))
    return out


@pytest.mark.parametrize("alpha", [1.05, 1.3, 2.0, 2.6, 12.0])
def test_series_seed_against_mpmath(alpha):
    # B = alpha*power_constant(alpha)*lambda1/lambda0 puts z = B x at 0.02
    # at delta_block/10
    params = make_params(alpha=alpha, lambda1=0.2 / (alpha * power_constant(alpha)),
                         grid_step=0.01)
    g = _series(params)[2:]
    xs, v, _ = _patch_integrate(params, 0.1)
    z_seed = (0.2 * xs[1:11]).tolist()
    with mpmath.workdps(30):
        small = [mpmath.mpf("5e-4"), mpmath.mpf("1e-3")]
        f = _series_oracle(alpha, small + z_seed)
        # each coefficient from F less the terms below it, over z**k, at z
        # and z/2, with the next term's share extrapolated away; g4 z**4 is
        # near 1e-17 here, and the oracle's error near 1e-21, so g4 to 1e-3
        for k in range(1, 5):
            est = [(fz - 1 - sum(g[i] * z ** (i + 1) for i in range(k - 1))) / z ** k
                   for fz, z in zip(f, small)]
            assert abs((2 * est[0] - est[1]) / g[k - 1] - 1) < (1e-4 if k < 4 else 1e-3), f"g{k}"
        # the seed, through z**2, is v within twice the first term it drops
        v_true = params.single_exchange_value(xs[1:11]) * np.array(f[2:], dtype=float)
    err = np.abs(v[1:11] / v_true - 1.0)
    bound = abs(g[2]) * np.array(z_seed) ** 3
    assert np.all(err <= 2.0 * bound + 1e-15)
    assert err[-1] >= 0.5 * bound[-1]


@pytest.mark.parametrize("grid_step, delta_block", [(0.1, 1.0), (0.04, 1.0), (0.025, 0.3)])
def test_seed_width_is_the_lattice_width_the_march_seeds(grid_step, delta_block):
    # min(delta_block, x_max)/100 is narrower than one step here, and the
    # march seeds over one step: the reported width is that step
    sol = two_exchange_patch(make_params(grid_step=grid_step, delta_block=delta_block,
                                         x_max=1.2))
    assert sol.x_seed == sol.x_grid[1]


def test_seed_width_counts_the_fourth_order_term():
    # g3 is 0 near alpha = 1.675, so there the seed's error is g4 z**4: with
    # B = 80 the default width, z = 0.8, keeps |g3| z**3 below 1e-6 but is
    # off v by 4.4e-3, and the guard narrows it to z below 0.1
    alpha = 1.675
    params = make_params(alpha=alpha, lambda1=80.0 / (alpha * power_constant(alpha)),
                         grid_step=1e-4)
    _, b, _, _, g3, _ = _series(params)
    assert abs(g3) * (b * 0.01) ** 3 < 1e-6
    x_seed = _seed_width(params)
    assert 0.08 < b * x_seed < 0.1
    xs = np.append(params.grid_step * np.arange(1, round(x_seed / params.grid_step) + 1), 0.01)
    v = np.array(_seed(params, xs.tolist())[0]) ** ((alpha - 1.0) / alpha)
    with mpmath.workdps(30):
        f = _series_oracle(alpha, (b * xs).tolist())
        v_true = params.single_exchange_value(xs) * np.array(f, dtype=float)
    err = np.abs(v / v_true - 1.0)
    assert np.all(err[:-1] <= 1e-6)
    assert err[-1] > 1e-3


def _reference_patch(params, x_seed):
    """The patching march with delayed values from one cubic spline of v per
    completed segment, built afresh for each query: the accuracy reference
    for the solver's Hermite midpoints in u."""
    from scipy.interpolate import CubicSpline
    a, r, dblk, h = params.alpha, params.r, params.delta_block, params.grid_step
    p, aa = (a - 1.0) / a, (a - 1.0) ** (a - 1.0) / a ** a
    n = int(round(params.x_max / h)) + 1
    xs = h * np.arange(n)
    seed = min(max(1, int(round(x_seed / h))), n - 1)
    u = np.full(n, np.nan)
    u[: seed + 1] = _seed(params, xs[: seed + 1].tolist())[0]
    v = u ** p
    seg_len = int(round(dblk / h))

    def slope(x, u_val, n_done):
        v_here = u_val ** p
        block = 0.0
        if params.lambda1 > 0.0:
            v_delay = 0.0
            if x > dblk:
                i0 = max(0, int(math.floor((x - dblk) / dblk - 1e-12))) * seg_len
                if i0 + seg_len > n_done:  # a knot query rounded past its knot
                    v_delay = v[i0]
                else:
                    sp = CubicSpline(xs[i0:i0 + seg_len + 1], v[i0:i0 + seg_len + 1])
                    v_delay = float(sp(x - dblk))
            block = aa * params.lambda1 * min(x, dblk) ** a * (v_here - v_delay) ** (1.0 - a)
        d = r * v_here - block
        return (a / (a - 1.0)) * u_val ** (1.0 / a) * (aa * params.lambda0 / d) ** (1.0 / (a - 1.0))

    for i in range(seed, n - 1):
        x, ui = xs[i], u[i]
        k1 = slope(x, ui, i)
        k2 = slope(x + 0.5 * h, ui + 0.5 * h * k1, i)
        k3 = slope(x + 0.5 * h, ui + 0.5 * h * k2, i)
        k4 = slope(x + h, ui + h * k3, i)
        u[i + 1] = ui + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v[i + 1] = u[i + 1] ** p
    return v


@pytest.mark.parametrize("kw, x_seed", [
    (dict(lambda1=0.3, grid_step=0.01), 0.01),
    (dict(lambda1=0.3, grid_step=0.01), 1.0),
    (dict(lambda1=0.7, alpha=2.6, delta_block=0.5, grid_step=0.01), 0.005),
    (dict(lambda1=2.0, alpha=1.3, delta_block=0.3, grid_step=0.02, x_max=2.1), 0.02),
    (dict(lambda1=0.0, grid_step=0.01), 0.01),  # no block venue
])
def test_patch_matches_per_step_reference(kw, x_seed):
    # the solver is at least as accurate as the spline reference, measured
    # against the solve at a 16 times finer step (and the same x_seed) on
    # the nodes of the coarse lattice
    params = make_params(**kw)
    fine = replace(params, grid_step=params.grid_step / 16.0)
    truth = _patch_integrate(fine, x_seed)[1][::16]
    value = _patch_integrate(params, x_seed)[1]
    assert np.max(np.abs(value - truth)) <= np.max(np.abs(_reference_patch(params, x_seed) - truth))


def _assert_within_block_bound(got, want):
    # the Newton blocks' bound on (x, v, v'): x the same, v within 8 ulps, v'
    # within 1e-13 relative, and inf where the oracle has it
    xs, v, dv = got
    assert np.array_equal(xs, want[0])
    assert np.all(np.abs(v - want[1]) <= 8.0 * np.spacing(want[1]))
    finite = np.isfinite(want[2])
    assert np.array_equal(dv[~finite], want[2][~finite])
    assert np.all(np.abs(dv[finite] - want[2][finite]) <= 1e-13 * want[2][finite])


def _count_block_solves(monkeypatch):
    """A list that gains one entry, the chain's length, per Newton step the
    march takes."""
    steps = []
    solve = extensions._bidiagonal_solve

    def counted(k, g):
        steps.append(len(g))
        return solve(k, g)

    monkeypatch.setattr(extensions, "_bidiagonal_solve", counted)
    return steps


def _assert_march_matches_oracle(params, x_seed):
    # bit for bit where the blocks are shorter than _NEWTON_CELLS cells, and
    # within the Newton blocks' bound where they are not
    got = _patch_integrate(params, x_seed)
    want = patch_march_by_step(params, x_seed)
    if round(params.delta_block / params.grid_step) < _NEWTON_CELLS:
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
    else:
        _assert_within_block_bound(got, want)


# from one cell a block, where a step reads the cell ending at its own node,
# to a thousand, through both sides of the Newton blocks' threshold
@pytest.mark.parametrize("steps", [1, 2, 15, 31, 32, 33, 100, _NEWTON_CELLS - 1,
                                   _NEWTON_CELLS, _NEWTON_CELLS + 1, 1000])
@pytest.mark.parametrize("alpha", [1.3, 2.0, 2.6])
def test_march_matches_the_per_step_oracle(steps, alpha, monkeypatch):
    # three blocks and one step past the third knot
    h = 1.0 / steps
    params = make_params(lambda1=0.5, alpha=alpha, grid_step=h, x_max=h * (3 * steps + 1))
    solves = _count_block_solves(monkeypatch)
    _assert_march_matches_oracle(params, 0.01)
    # the blocks past the first knot are solved as chains from the threshold on
    assert bool(solves) == (steps >= _NEWTON_CELLS)


@pytest.mark.parametrize("kw", [dict(lambda1=0.5), dict(lambda1=0.0),
                                dict(lambda1=5.0, delta_block=0.5, x_max=2.0, grid_step=0.001)])
def test_blocks_past_the_step_cap_take_the_loop_bit_for_bit(kw, monkeypatch):
    # a block whose chain misses the step cap is marched by the loop, which is
    # the per-step oracle bit for bit
    monkeypatch.setattr(extensions, "_BLOCK_STEPS", 0)
    params = make_params(**{"grid_step": 1.0 / 500.0, **kw})
    for got, want in zip(_patch_integrate(params, 0.01), patch_march_by_step(params, 0.01)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kw, x_seed", [
    # no block venue, from one cell a block to a hundred
    (dict(lambda1=0.0, grid_step=1.0), 0.01),
    (dict(lambda1=0.0, grid_step=1.0 / 32.0), 0.01),
    (dict(lambda1=0.0, grid_step=0.01), 0.01),
    # the seed past the first knot: the first steps read seeded cells
    (dict(lambda1=0.5, grid_step=0.5), 1.3),
    (dict(lambda1=0.5, grid_step=0.025), 1.3),
    (dict(lambda1=0.5, grid_step=0.01), 1.3),
    # a strong block venue, whose value turns convex above the knot
    (dict(lambda1=5.0, delta_block=0.5, x_max=2.0, grid_step=0.001), 5e-4),
])
def test_march_matches_the_oracle_at(kw, x_seed):
    _assert_march_matches_oracle(make_params(**kw), x_seed)


@pytest.mark.parametrize("kw, message", [
    # alpha near 1: the block term comes so close to r*v that v' =
    # (b0/d)**(1/(alpha-1)) passes 1e308
    (dict(lambda1=71.1, alpha=1.004, x_max=0.02, grid_step=5e-5),
     "delay ODE blow-up at x = 0.01"),
    # a strong block venue at alpha near 1: the solve refuses this lattice, one
    # step being too wide for the series seed, so the march is run from a seed
    # of two steps; the value loses its gain over one block past the second knot
    (dict(lambda1=52.5, alpha=1.05, delta_block=0.5, x_max=2.0, grid_step=0.01, x_seed=0.02),
     "value failed to increase over one block at x = 1.22"),
    # alpha near 1: the seed slope in u = v**(alpha/(alpha-1)) passes 1e308
    (dict(lambda0=1000.0, lambda1=0.2, alpha=1.002, r=0.001),
     r"seed u-slope \(lambda0/\(alpha\*r\)\)\*\*\(1/\(alpha-1\)\) overflows at "
     r"alpha = 1\.002, lambda0 = 1000\.0, r = 0\.001"),
    # alpha one ulp above 1: the seed slope is finite, and the terms the seed
    # drops are within 1e-6, but u = v**(1/p) on the series passes 1e308 at
    # the first seed node
    (dict(lambda1=3e-9, alpha=1.0 + 2 ** -52, r=1.0, x_max=2e-4, grid_step=1e-4),
     r"seed u overflows at x = 0\.0001"),
    # alpha near 1 and lambda0/(alpha*r) < 1: the seed u-slope
    # (lambda0/(alpha*r))**(1/(alpha-1)) underflows to 0, with a block venue
    # and without one
    (dict(lambda0=0.5, lambda1=0.15, delta_block=0.1, alpha=1.0015, r=2.5, x_max=1.0,
          grid_step=0.001),
     r"seed u underflows at x = 0\.001: alpha = 1\.0015, lambda0 = 0\.5, r = 2\.5"),
    (dict(lambda0=0.5, lambda1=0.0, delta_block=0.1, alpha=1.0015, r=2.5, x_max=1.0,
          grid_step=0.001),
     r"seed u underflows at x = 0\.001: alpha = 1\.0015, lambda0 = 0\.5, r = 2\.5"),
])
def test_patch_error_paths(kw, message):
    kw = dict(kw)
    x_seed = kw.pop("x_seed", None)
    params = make_params(**kw)
    with pytest.raises(ArithmeticError, match=message) as raised:
        if x_seed is None:
            two_exchange_patch(params)
        else:
            _patch_integrate(params, x_seed)
    # the per-step oracle stops at the same step with the same message
    with pytest.raises(ArithmeticError) as oracle:
        patch_march_by_step(params, x_seed or _seed_width(params))
    assert str(raised.value) == str(oracle.value)


@given(alpha=st.one_of(st.floats(1.002, 1.05), st.floats(1.002, 12.0)),
       lambda1=st.one_of(st.just(0.0), st.floats(1e-3, 1e2)),
       steps=st.integers(1, 50), blocks=st.floats(0.0, 4.0))
@example(alpha=1.002, lambda1=0.0, steps=1, blocks=0.0)
@example(alpha=12.0, lambda1=1e2, steps=1, blocks=4.0)
@example(alpha=2.0, lambda1=0.5, steps=1, blocks=3.0)
@example(alpha=1.05, lambda1=50.0, steps=50, blocks=4.0)
@example(alpha=1.0064925260028508, lambda1=4.406541786153167, steps=7, blocks=1.0)
# unclamped, the Hermite midpoint of u goes negative here, and its power complex
@example(alpha=1.003524988258552, lambda1=0.8471176336539091, steps=29,
         blocks=3.1600643816271416)
@settings(max_examples=150, deadline=None)
def test_patch_solves_or_raises_at_the_domain_edges(alpha, lambda1, steps, blocks):
    # steps = 1 puts the delayed cell's right node at the node stepped from;
    # the lattice runs 1 + blocks * steps nodes past zero, one step at least
    h = 1.0 / steps
    params = make_params(alpha=alpha, lambda1=lambda1, grid_step=h,
                         x_max=h * (1 + int(blocks * steps)))
    try:
        x_seed = _seed_width(params)
    except ArithmeticError:
        # one step is already too wide for the series seed, and the solve
        # refuses the lattice; the march is run from one step all the same,
        # so that it still meets these edges
        x_seed = h
    try:
        xs, v, dv = _patch_integrate(params, x_seed)
    except ArithmeticError as raised:
        # the per-step oracle stops at the same step with the same message
        with pytest.raises(ArithmeticError) as oracle:
            patch_march_by_step(params, x_seed)
        assert str(raised) == str(oracle.value)
        return
    for got, ref in zip((xs, v, dv), patch_march_by_step(params, x_seed)):
        assert np.array_equal(got, ref)
    # near alpha = 1 the rise v' = (b0/d)**(1/(alpha-1)) over a step can fall
    # below an ulp of v, so equal neighbours are allowed
    assert np.all(np.isfinite(v)) and np.all(np.diff(v) >= 0.0)
    assert v[1] > 0.0
    # the block venue only adds value
    assert np.all(v >= params.single_exchange_value(xs) * (1.0 - 1e-12))


@pytest.mark.parametrize("kw", [
    dict(delta_block=0.3, grid_step=0.02, x_max=2.1),  # 15 * 0.02 > 0.3
    dict(delta_block=1.0 - 5e-12, grid_step=0.01),    # on the lattice within 1e-9
    # blocks of 700 cells, solved as Newton chains: 700 * 0.001 > 0.7
    dict(delta_block=0.7, grid_step=0.001, x_max=2.1),
])
def test_patch_knot_query_past_the_knot_reads_the_knot(kw, monkeypatch):
    # x + h - delta_block rounds just past a knot not yet marched to; the
    # result must not depend on the unwritten node there
    params = make_params(lambda1=0.5, **kw)
    v = two_exchange_patch(params).value
    real_empty = np.empty

    def poisoned(shape, *args, **kwargs):
        out = real_empty(shape, *args, **kwargs)
        out[...] = np.nan
        return out

    monkeypatch.setattr(np, "empty", poisoned)
    np.testing.assert_array_equal(two_exchange_patch(params).value, v)


# lambda1 log-uniform: above about 1.5 most chains fall back to the loop
@given(alpha=st.floats(1.002, 12.0),
       lambda1=st.one_of(st.just(0.0), st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e)),
       cells=st.integers(_NEWTON_CELLS, 2000), blocks=st.integers(1, 3))
# a strong block venue: from the block-free line every block's chain goes
# non-finite within two evaluations, and the loop marches them all
@example(alpha=2.0, lambda1=5.0, cells=500, blocks=3)
@example(alpha=12.0, lambda1=1e2, cells=_NEWTON_CELLS, blocks=3)
@settings(max_examples=40, deadline=None)
def test_newton_blocks_agree_with_the_per_step_oracle(alpha, lambda1, cells, blocks):
    # delta_block 0.5 in `cells` steps; the lattice runs `blocks` delay blocks
    # and one step past the last knot
    h = 0.5 / cells
    params = make_params(alpha=alpha, lambda1=lambda1, delta_block=0.5, grid_step=h,
                         x_max=h * (blocks * cells + 1))
    try:
        x_seed = _seed_width(params)
    except ArithmeticError:
        x_seed = h  # the solve refuses the lattice; the march still runs
    try:
        got = _patch_integrate(params, x_seed)
    except ArithmeticError as raised:
        # the loop raises the march's own errors, and the oracle the same
        with pytest.raises(ArithmeticError) as oracle:
            patch_march_by_step(params, x_seed)
        assert str(raised) == str(oracle.value)
        return
    _assert_within_block_bound(got, patch_march_by_step(params, x_seed))


class TestTwoExchangeExpansion:
    def test_eps_zero_is_single_exchange(self):
        expansion = two_exchange_expansion(make_params(lambda1=1.0), 0.0)
        for x in [0.3, 1.0, 2.5]:
            assert expansion.value(x) == expansion.v0(x)

    def test_inner_branch_closed_form(self):
        params = make_params(lambda1=1.0)
        expansion = two_exchange_expansion(params, 0.1)
        a = params.alpha
        for x in [0.2, 0.7, 1.0]:
            assert abs(expansion.v1(x) - expansion.c1_constant * x ** (2.0 - 1.0 / a)) < 1e-14

    def test_first_order_term_against_patch_derivative(self):
        # (v_patch(eps) - v0)/eps at tiny eps is an independent oracle for v1
        lbar = 1.0
        eps = 1e-4
        params = make_params(lambda1=lbar * eps, grid_step=0.001)
        sol = two_exchange_patch(params)
        expansion = two_exchange_expansion(make_params(lambda1=lbar), eps)
        for x in [0.5, 1.0, 1.5, 2.5]:
            v_eps = float(np.interp(x, sol.x_grid, sol.value))
            v0 = float(sol.params.single_exchange_value(x))
            numeric_v1 = (v_eps - v0) / eps
            assert abs(numeric_v1 - expansion.v1(x)) < 2e-3 * max(1.0, abs(numeric_v1))

    def test_second_order_error_decay(self):
        lbar = 1.0
        errs = {}
        for eps in (0.05, 0.025):
            params = make_params(lambda1=lbar * eps)
            sol = two_exchange_patch(params)
            expansion = two_exchange_expansion(make_params(lambda1=lbar), eps)
            grid = sol.x_grid[sol.x_grid >= 0.05]
            exact = np.interp(grid, sol.x_grid, sol.value)
            approx = np.array([expansion.value(x) for x in grid])
            errs[eps] = np.max(np.abs(exact - approx))
        ratio = errs[0.05] / errs[0.025]
        assert 3.5 <= ratio <= 4.5

    def test_grid_step_must_divide_block(self):
        with pytest.raises(ValueError):
            make_params(grid_step=0.3)

    def test_x_max_must_sit_on_the_lattice(self):
        with pytest.raises(ValueError, match="x_max: 2.0005 is not on the grid_step = 0.002 lattice"):
            make_params(x_max=2.0005)


def _v1_oracle(params, x):
    """v1 at x from a 30-digit mpmath integral of the tail integrand."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a, r, d, l0, l1 = (mpmath.mpf(v) for v in (params.alpha, params.r,
                                                    params.delta_block,
                                                    params.lambda0, params.lambda1))
        p = (a - 1) / a
        k = (a - 1) ** (a - 1) / a ** a * l1 * (l0 / (a * r)) ** ((1 - a) / a)
        x = mpmath.mpf(x)
        f = lambda y: (k * d ** a * (y ** p - (y - d) ** p) ** (1 - a)
                       * y ** (1 / a - 1) / (a * r))
        tail = mpmath.quad(f, mpmath.linspace(d, x, 5))
        return x ** (-1 / a) * (k * d ** 2 / (2 * a * r) + tail)


def test_gauss_legendre_rule_matches_numpy():
    from lobliq.numerics import GAUSS_NODES, GAUSS_WEIGHTS
    nodes, weights = np.polynomial.legendre.leggauss(8)
    np.testing.assert_allclose(GAUSS_NODES, nodes, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(GAUSS_WEIGHTS, weights, rtol=0.0, atol=1e-15)


class TestExpansionOracle:
    @pytest.mark.parametrize("alpha", [1.05, 1.3, 2.0, 2.6, 4.0, 8.0])
    def test_v1_against_mpmath(self, alpha):
        params = make_params(lambda1=1.0, alpha=alpha, grid_step=0.001)
        expansion = two_exchange_expansion(params, 0.1)
        grid = 0.001 * np.arange(3001)
        on_grid = expansion.v1(grid)
        # just above the block size, mid-segment and at x_max, read off one
        # array evaluation, then a lone off-grid scalar
        cases = [(grid[i], on_grid[i]) for i in (1001, 1500, 3000)]
        cases.append((2.2345678, expansion.v1(2.2345678)))
        for x, got in cases:
            ref = _v1_oracle(params, x)
            assert abs(got - float(ref)) <= 1e-13 * abs(float(ref)), f"x = {x}"

    def test_array_equals_scalar_elementwise(self):
        expansion = two_exchange_expansion(make_params(lambda1=1.0, alpha=2.6), 0.2)
        xs = np.concatenate([[0.0, 0.5, 1.0, 1.0 + 1e-9, 1.0005, 1.015625],
                             np.linspace(1.01, 3.0, 97), [2.999, 1.7]])
        values = expansion.value(xs)
        assert values.shape == xs.shape
        np.testing.assert_array_equal(values, [expansion.value(float(x)) for x in xs])

    def test_scalar_value_is_a_float(self):
        expansion = two_exchange_expansion(make_params(lambda1=1.0), 0.1)
        for x in (0.0, 0.4, 1.0, 2.5):
            assert type(expansion.value(x)) is float
            assert type(expansion.v1(x)) is float
