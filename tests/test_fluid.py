import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import lobliq.fluid
from lobliq.fluid import (
    _e1_of_log,
    _log_w,
    exp_fluid_finite,
    exp_fluid_infinite,
    exp_trade_curve,
    fluid_solution,
    power_fluid,
    power_trade_curve,
)
from lobliq.intensity import ExpDecayIntensity, MarketParams, PowerLawIntensity
from ode_oracles import (
    OdeProblem,
    brentq_log_w,
    integrate_ode,
    log_integral,
    scipy_e1_of_log,
)


class TestPowerFluid:
    def test_empty_inventory(self):
        v, s = power_fluid(0.0, 1.0, 1.0, 2.0, 0.1)
        assert v == 0.0 and s == math.inf

    def test_infinite_horizon_unit_inventory(self):
        v, s = power_fluid(1.0, math.inf, 1.0, 2.0, 0.1)
        assert abs(v - math.sqrt(5.0)) < 1e-12
        assert abs(s - math.sqrt(5.0)) < 1e-12

    def test_pde_residual(self):
        # -v_T + A*lam*v_x**(1-alpha) - r*v = 0 via central differences
        lam, alpha, r = 1.3, 2.4, 0.08
        a_const = (alpha - 1.0) ** (alpha - 1.0) / alpha ** alpha
        h = 1e-5
        for x in [0.5, 2.0, 7.0]:
            for t in [0.4, 1.5, 6.0]:
                v = lambda xx, tt: power_fluid(xx, tt, lam, alpha, r)[0]
                v_t = (v(x, t + h) - v(x, t - h)) / (2.0 * h)
                v_x = (v(x + h, t) - v(x - h, t)) / (2.0 * h)
                resid = -v_t + a_const * lam * v_x ** (1.0 - alpha) - r * v(x, t)
                assert abs(resid) < 1e-6

    def test_concave_increasing_in_inventory(self):
        xs = np.linspace(0.2, 12.0, 60)
        vals = np.array([power_fluid(x, 2.0, 1.0, 3.0, 0.1)[0] for x in xs])
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(np.diff(vals, 2) < 1e-12)

    def test_spread_decreasing_in_inventory(self):
        xs = np.linspace(0.2, 12.0, 60)
        spreads = np.array([power_fluid(x, math.inf, 1.0, 2.0, 0.1)[1] for x in xs])
        assert np.all(np.diff(spreads) < 0.0)

    def test_zero_rate_limit(self):
        # (lam*T)**(1/alpha) * x**((alpha-1)/alpha) as r -> 0, stable in r
        lam, alpha, x, t = 1.0, 2.0, 3.0, 2.0
        limit = (lam * t) ** 0.5 * x ** 0.5
        v6 = power_fluid(x, t, lam, alpha, 1e-6)[0]
        v8 = power_fluid(x, t, lam, alpha, 1e-8)[0]
        assert abs(v6 - limit) < 1e-5 * limit
        assert abs(v8 - limit) < 1e-7 * limit


class TestPowerTradeCurve:
    def test_starts_at_initial_inventory(self):
        assert power_trade_curve(0.0, 4.0, 1.0, 2.0, 0.1) == 4.0

    def test_decreasing_to_zero(self):
        ts = np.linspace(0.0, 0.999999, 200)
        xs = [power_trade_curve(t, 6.0, 1.0, 2.0, 0.1) for t in ts]
        assert np.all(np.diff(xs) < 0.0)
        assert xs[-1] < 1e-4

    def test_antiderivative_matches_quadrature(self):
        alpha, r, t_h, x = 2.0, 0.1, 1.0, 6.0
        a = alpha * r
        integral, _ = quad(lambda u: a / (-math.expm1(-a * (t_h - u))),
                           0.0, 0.5, epsabs=1e-13, epsrel=1e-13)
        oracle = x * math.exp(-integral)
        assert abs(power_trade_curve(0.5, x, t_h, alpha, r) - oracle) < 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            power_trade_curve(1.0, 6.0, 1.0, 2.0, 0.1)


class TestExpFluidFinite:
    def test_regime_boundary_continuity(self):
        lam, kappa, t_h = 1.0, 1.0, 2.0
        x_star = lam * t_h / math.e
        v_lo, s_lo, _ = exp_fluid_finite(x_star * (1.0 - 1e-12), t_h, lam, kappa)
        v_hi, s_hi, _ = exp_fluid_finite(x_star * (1.0 + 1e-12), t_h, lam, kappa)
        assert abs(v_lo - v_hi) < 1e-10
        assert abs(s_lo - s_hi) < 1e-10
        assert abs(v_lo - x_star / kappa) < 1e-10

    def test_full_liquidation_branch(self):
        v, s, curve = exp_fluid_finite(1.0, math.e ** 2, 1.0, 1.0)
        assert abs(s - 2.0) < 1e-14
        assert abs(v - 2.0) < 1e-14
        assert abs(curve(math.e ** 2 / 2.0) - 0.5) < 1e-14
        assert abs(curve(math.e ** 2)) < 1e-12  # drained by the deadline

    def test_capped_branch_independent_of_x(self):
        lam, kappa, t_h = 1.0, 2.0, 1.0
        vals = [exp_fluid_finite(x, t_h, lam, kappa)[0]
                for x in [0.5, 1.0, 5.0]]  # all above lam*T/e
        assert np.ptp(vals) == 0.0
        assert abs(vals[0] - lam * t_h / (kappa * math.e)) < 1e-14
        _, s, curve = exp_fluid_finite(5.0, t_h, lam, kappa)
        assert s == 1.0 / kappa
        assert curve(t_h) > 0.0  # cannot finish

    def test_bounds(self):
        lam, kappa, t_h = 1.0, 1.0, 3.0
        for x in np.linspace(0.05, 4.0, 40):
            v, _, _ = exp_fluid_finite(x, t_h, lam, kappa)
            lower = x / kappa * math.log(lam * t_h / x)
            upper = lam * t_h / (kappa * math.e)
            assert lower <= v + 1e-12
            assert v <= upper + 1e-12

    def test_kappa_scaling(self):
        for x in [0.3, 1.5]:
            v1, s1, _ = exp_fluid_finite(x, 2.0, 1.0, 1.0)
            v2, s2, _ = exp_fluid_finite(x, 2.0, 1.0, 2.0)
            assert abs(v1 - 2.0 * v2) < 1e-13
            assert abs(s1 - 2.0 * s2) < 1e-13


class TestE1:
    """E1 from its series and continued fraction, and its root in s = log(w)."""

    @given(st.floats(min_value=math.log(1e-300), max_value=7.0))
    @settings(max_examples=400, deadline=None)
    @example(s=-40.0)                      # the asymptote's edge
    @example(s=0.0)                        # w = 1: the series' last point
    @example(s=math.nextafter(0.0, 1.0))   # the continued fraction's first
    @example(s=math.log(700.0))
    @example(s=7.0)                        # the underflow clamp
    def test_e1_against_mpmath(self, s):
        # E1 at the double exp(s): 40 digits from mpmath, within 3e-15
        # relative where E1 is a normal double; past w ~ 708 it is subnormal
        # and keeps only a few of its last bits
        w = math.exp(s)
        with mpmath.workdps(40):
            ref = float(mpmath.e1(mpmath.mpf(w)))
        got = _e1_of_log(s)
        assert abs(got - ref) <= 3e-15 * ref + 4 * 5e-324, (s, got, ref)
        if w <= 700.0:
            assert abs(got - ref) <= 3e-15 * ref, (s, got, ref)

    def test_e1_beyond_the_clamp_and_on_the_asymptote(self):
        assert _e1_of_log(7.5) == 0.0 == _e1_of_log(math.inf)
        assert _e1_of_log(-100.0) == -lobliq.fluid._EULER_GAMMA + 100.0

    @given(st.floats(min_value=1e-300, max_value=40.0))
    @settings(max_examples=300, deadline=None)
    @example(c=1e-300)
    @example(c=40.0)
    @example(c=0.25)    # where the start for small c takes over
    @example(c=0.21938393435873232)  # E1(1 + 1e-10): the oracle's walk hangs nearby
    def test_root_is_the_last_double(self, c):
        s = _log_w(c)
        assert _e1_of_log(s) >= c > _e1_of_log(math.nextafter(s, math.inf))

    @given(st.floats(min_value=1e-300, max_value=40.0))
    @settings(max_examples=200, deadline=None)
    @example(c=1e-300)
    @example(c=31.44147919389287)  # 56 ulps of w from the oracle: E1 is flat in w here
    @example(c=1.3591409142295225)  # the benchmark's probe, e*r*x/lam at x = 5
    @example(c=3.6916817733655525e-11)  # the two roots one ulp of s apart
    def test_root_against_brentq(self, c):
        # the oracle steps one double at a time across the doubles that share
        # one exp(s), about 1/|s| of them: keep s away from 0, where E1 = E1(1)
        assume(abs(c - 0.2193839343955205) > 1e-4)
        # the two E1s differ by a few ulps, so the roots may differ by what
        # 2e-15 relative in E1 moves w: dw = dE1 * w * exp(w)
        s = _log_w(c)
        w, w_ref = math.exp(s), math.exp(brentq_log_w(c))
        assert abs(w - w_ref) <= 2e-15 * c * w_ref * math.exp(w_ref) + 4 * math.ulp(w_ref)
        # the two E1s at one argument: an ulp of s between the roots alone
        # moves E1 by about c*w*ulp(s), 9e-15*c at s = 3.04
        assert abs(_e1_of_log(s) - scipy_e1_of_log(s)) <= 3e-15 * c

    @given(st.floats(min_value=1e-300, max_value=45.0),
           st.floats(min_value=1.0, max_value=4.0))
    @settings(max_examples=300, deadline=None)
    @example(c=0.2193839343955205, factor=1.0000000000000002)
    @example(c=40.0, factor=1.0000000000000002)  # across the asymptote shortcut
    def test_root_never_rises_with_c(self, c, factor):
        assert _log_w(c * factor) <= _log_w(c)
        assert _log_w(math.nextafter(c, math.inf)) <= _log_w(c)

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan])
    def test_no_root(self, c):
        with pytest.raises(ArithmeticError, match="has no root"):
            _log_w(c)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(lobliq.fluid, "_NEWTON_STEPS", 0)
        with pytest.raises(ArithmeticError, match="did not converge in 0 Newton steps"):
            _log_w(1.0)
        # the log asymptote takes no Newton step
        assert _log_w(41.0) == -lobliq.fluid._EULER_GAMMA - 41.0

    def test_trade_curve_takes_an_array_of_times(self):
        times = np.array([0.0, 0.5, 2.0, 1e4])
        curve = exp_trade_curve(times, 6.0, 1.0, 1.0, 0.1)
        assert curve.tolist() == [exp_trade_curve(t, 6.0, 1.0, 1.0, 0.1) for t in times]
        assert curve[0] == 6.0 and curve[-1] == 0.0
        assert exp_trade_curve(times, 0.0, 1.0, 1.0, 0.1).tolist() == [0.0] * 4
        with pytest.raises(ValueError, match="requires t >= 0"):
            exp_trade_curve(np.array([0.5, -1.0]), 6.0, 1.0, 1.0, 0.1)


class TestExpFluidInfinite:
    def test_empty(self):
        v, s = exp_fluid_infinite(0.0, 1.0, 1.0, 0.1)
        assert v == 0.0 and s == math.inf

    def test_li_equation_residual(self):
        v, _ = exp_fluid_infinite(1.0, 1.0, 1.0, 0.1)
        resid = log_integral(0.1 * math.e * v) + 0.1 * math.e
        assert abs(resid) < 1e-10
        assert 0.0 < v < 3.67879442

    def test_asymptote(self):
        v, _ = exp_fluid_infinite(100.0, 1.0, 1.0, 0.1)
        cap = 1.0 / (0.1 * math.e)
        assert abs(v - cap) < 0.01 * cap

    def test_ode_residual(self):
        # v'(x) = -(1/kappa)*(1 + log(kappa*r*v/lam)) via central differences
        lam, kappa, r = 1.0, 1.0, 0.1
        h = 1e-6
        for x in [0.3, 1.0, 4.0]:
            vp = (exp_fluid_infinite(x + h, lam, kappa, r)[0]
                  - exp_fluid_infinite(x - h, lam, kappa, r)[0]) / (2.0 * h)
            v = exp_fluid_infinite(x, lam, kappa, r)[0]
            resid = vp + (1.0 + math.log(kappa * r * v / lam)) / kappa
            assert abs(resid) < 1e-6

    def test_kappa_scaling(self):
        for x in [0.5, 2.0]:
            v1, s1 = exp_fluid_infinite(x, 1.0, 1.0, 0.1)
            v2, s2 = exp_fluid_infinite(x, 1.0, 2.0, 0.1)
            assert abs(v1 - 2.0 * v2) < 1e-10
            assert abs(s1 - 2.0 * s2) < 1e-10

    def test_concavity(self):
        xs = np.linspace(0.1, 8.0, 50)
        vals = np.array([exp_fluid_infinite(x, 1.0, 1.0, 0.1)[0] for x in xs])
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(np.diff(vals, 2) < 1e-10)

    def test_against_mpmath(self):
        # reference: li(exp(-w)) = -E1(w) turns the li equation into
        # E1(w) = e*r*x/lam, solved at 40 digits by Newton in s = log(w)
        mp = pytest.importorskip("mpmath")
        kappa = 1.0
        for x in [1e-6, 1e-3, 1.0, 100.0]:
            for r in [0.1, 1.0]:
                for lam in [1.0, math.e]:
                    with mp.workdps(40):
                        c = mp.e * r * mp.mpf(x) / lam
                        s = mp.findroot(lambda s: mp.e1(mp.exp(s)) - c, -c - 2,
                                        df=lambda s: -mp.exp(-mp.exp(s)),
                                        solver="newton")
                        w = mp.exp(s)
                        v_ref = float(lam / (mp.e * kappa * r) * mp.exp(-w))
                        s_ref = float((1 + w) / kappa)
                    v, spread = exp_fluid_infinite(x, lam, kappa, r)
                    assert abs(v - v_ref) <= 1e-13 * v_ref, (x, r, lam)
                    assert abs(spread - s_ref) <= 1e-13 * s_ref, (x, r, lam)

    @given(st.floats(min_value=1e-8, max_value=1e4),
           st.floats(min_value=1.0, max_value=100.0),
           st.floats(min_value=1e-3, max_value=10.0),
           st.sampled_from([1.0, math.e]),
           st.sampled_from([0.5, 1.0, 2.5]))
    @settings(max_examples=200, deadline=None)
    # the E1 root landed an ulp either side here, so v exceeded v(x*factor)
    @example(x=6.103515625e-05, factor=1.0000000000000002, r=5.174934109574375,
             lam=1.0, kappa=0.5)
    def test_domain_edges(self, x, factor, r, lam, kappa):
        v_cap = lam / (kappa * r * math.e)
        c = math.e * r * x / lam
        v, spread = exp_fluid_infinite(x, lam, kappa, r)
        assert 0.0 < v <= v_cap
        if c <= 30.0:
            # here w > 5e-14, so v = v_cap*exp(-w) stays below v_cap in double
            # precision too; beyond, exp(-w) rounds to 1 once w < 1.1e-16
            assert v < v_cap
        assert spread >= 1.0 / kappa
        v_more, _ = exp_fluid_infinite(x * factor, lam, kappa, r)
        assert v <= v_more
        if factor >= 2.0 and c * factor <= 30.0:
            assert v < v_more
        y = math.e * kappa * r * v / lam
        if y <= 1.0 - 1e-12:
            # log_integral's quadrature accuracy, plus a few ulps of y, which
            # li amplifies by 1/|log y| as y approaches 1
            tol = 1e-12 * c + 1e-13 + 8.0 * np.finfo(float).eps / -math.log(y)
            assert abs(log_integral(y) + c) <= tol


class TestFluidSolutionBundle:
    def test_power_finite(self):
        model = PowerLawIntensity(lam=1.0, alpha=2.0)
        fl = fluid_solution(model, MarketParams(r=0.1, horizon=1.0))
        v, s = power_fluid(3.0, 1.0, 1.0, 2.0, 0.1)
        assert fl.value(3.0) == v and fl.spread(3.0) == s
        assert abs(fl.trade_curve(0.5, 6.0)
                   - power_trade_curve(0.5, 6.0, 1.0, 2.0, 0.1)) < 1e-15

    def test_power_infinite_curve(self):
        model = PowerLawIntensity(lam=1.0, alpha=2.0)
        fl = fluid_solution(model, MarketParams(r=0.1))
        assert abs(fl.trade_curve(1.0, 4.0) - 4.0 * math.exp(-0.2)) < 1e-14

    def test_exp_infinite_curve_consistency(self):
        model = ExpDecayIntensity(lam=1.0, kappa=1.0)
        fl = fluid_solution(model, MarketParams(r=0.1))
        x0 = 3.0
        t = 1.0
        x_t = fl.trade_curve(t, x0)
        assert 0.0 < x_t < x0
        # derivative matches -kappa*r*v(x) to integrator accuracy
        h = 1e-3
        lhs = (fl.trade_curve(t + h, x0) - fl.trade_curve(t - h, x0)) / (2.0 * h)
        assert abs(lhs + 0.1 * fl.value(x_t)) < 1e-5

    @pytest.mark.parametrize("x0, r", [(6.0, 0.1), (200.0, 0.1), (13.0, 1.0)])
    def test_exp_infinite_curve_closed_form_against_rk4(self, x0, r):
        # oracle: RK4 on dX/dt = -kappa*r*v(X), with v from exp_fluid_infinite
        # at every stage.  Past e*r*x0/lam ~ 34 (the last two cases),
        # e*kappa*r*v(x0)/lam rounds to 1 in double precision.
        lam, kappa = 1.0, 1.0
        fl = fluid_solution(ExpDecayIntensity(lam=lam, kappa=kappa), MarketParams(r=r))

        def rhs(_t, y):
            return np.array([-kappa * r * exp_fluid_infinite(y[0], lam, kappa, r)[0]])

        ts, ys = integrate_ode(OdeProblem(1, rhs, (0.0, 2.0), [x0], step_count=400))
        for t in (0.5, 2.0):
            i = int(np.argmin(np.abs(ts - t)))
            assert ts[i] == t
            assert abs(fl.trade_curve(t, x0) - ys[i, 0]) <= 1e-10 * ys[i, 0]
        assert fl.trade_curve(0.0, x0) == x0
        assert fl.trade_curve(2.0, 0.0) == 0.0
        # E1 underflows long before t = 1000/r: the curve reads +0.0
        x_late = fl.trade_curve(1000.0 / r, x0)
        assert x_late == 0.0 and math.copysign(1.0, x_late) == 1.0

    @pytest.mark.parametrize("model, market", [
        (PowerLawIntensity(lam=1.0, alpha=2.0), MarketParams(r=0.1, horizon=1.0)),
        (PowerLawIntensity(lam=1.0, alpha=2.0), MarketParams(r=0.1)),
        (ExpDecayIntensity(lam=1.0, kappa=1.0), MarketParams(r=0.0, horizon=1.0)),
        (ExpDecayIntensity(lam=1.0, kappa=1.0), MarketParams(r=0.1)),
    ], ids=["power_T", "power_inf", "exp_r0", "exp_inf"])
    def test_trade_curve_on_an_array_is_pointwise(self, model, market):
        fl = fluid_solution(model, market)
        times = np.linspace(0.0, 0.9, 7)
        for x0 in (0.0, 6.0):
            curve = fl.trade_curve(times, x0)
            assert isinstance(curve, np.ndarray)
            assert curve.tolist() == [fl.trade_curve(t, x0) for t in times]

    def test_zero_rate_power(self):
        model = PowerLawIntensity(lam=1.0, alpha=2.0)
        fl = fluid_solution(model, MarketParams(r=0.0, horizon=2.0))
        assert abs(fl.value(3.0) - math.sqrt(2.0) * math.sqrt(3.0)) < 1e-12
        assert fl.trade_curve(1.0, 3.0) == 1.5
