import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import gammaln, pdtrc

from lobliq.numerics import (
    _STIRLERR_SMALL,
    NonFiniteStateError,
    _poisson_pmf,
    _poisson_stop,
    pure_death_mean,
)
from ode_oracles import (
    OdeProblem,
    integrate_ode,
    lambert_w0,
    lambert_w0_exparg,
    log_integral,
    pure_death_table,
)


def bisect_lambert(y, tol=1e-12):
    # independent oracle: plain bisection on w*e^w = y
    lo, hi = -1.0, max(1.0, y)
    while hi * math.exp(hi) < y:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < y:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


class TestLambertW:
    def test_trivial_points(self):
        assert lambert_w0(0.0) == 0.0
        assert abs(lambert_w0(math.e) - 1.0) < 1e-15

    def test_unit_argument_matches_bisection(self):
        assert abs(lambert_w0(1.0) - bisect_lambert(1.0)) < 1e-11
        assert abs(lambert_w0(1.0) - 0.5671432904097838) < 1e-13

    def test_branch_point(self):
        assert lambert_w0(-math.exp(-1.0)) == -1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.4)

    def test_round_trip_log_grid(self):
        for y in np.geomspace(1e-6, 1e6, 120):
            w = lambert_w0(y)
            assert abs(w * math.exp(w) - y) <= 1e-12 * max(1.0, y)

    @given(st.floats(min_value=-0.999, max_value=50.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_from_w(self, w):
        # w*e^w spans the principal branch; inverting must return w
        y = w * math.exp(w)
        if y < -math.exp(-1.0):
            y = -math.exp(-1.0)
        back = lambert_w0(y)
        assert abs(back * math.exp(back) - y) <= 1e-12 * max(1.0, abs(y))

    def test_exparg_agrees_with_direct(self):
        for z in [-20.0, -1.0, 0.0, 1.0, 5.0]:
            assert abs(lambert_w0_exparg(z) - lambert_w0(math.exp(z))) < 1e-13

    def test_exparg_huge_exponent(self):
        w = lambert_w0_exparg(5000.0)
        assert abs(w + math.log(w) - 5000.0) < 1e-9


class TestLogIntegral:
    def test_zero(self):
        assert log_integral(0.0) == 0.0

    def test_half_matches_quadrature_oracle(self):
        oracle, _ = quad(lambda t: 1.0 / math.log(t), 0.0, 0.5, epsabs=1e-13)
        assert abs(log_integral(0.5) - oracle) < 1e-10

    def test_monotone_decreasing(self):
        assert log_integral(0.3) > log_integral(0.6)

    def test_negative_values(self):
        for y in [0.1, 0.5, 0.9]:
            assert log_integral(y) < 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_integral(-0.1)
        with pytest.raises(ValueError):
            log_integral(1.0)

    def test_additivity_against_quadrature(self):
        pairs = [(0.1, 0.4), (0.3, 0.8), (0.5, 0.99), (0.01, 0.95)]
        for a, b in pairs:
            seg, _ = quad(lambda t: 1.0 / math.log(t), a, b,
                          epsabs=1e-13, limit=200)
            assert abs((log_integral(b) - log_integral(a)) - seg) < 1e-9

    def test_near_one_asymptote(self):
        # li -> -inf like log(1-y); the substitution keeps this accurate
        assert log_integral(1.0 - 1e-10) < log_integral(1.0 - 1e-6) < -10.0

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        for y in [0.2, 0.5, 0.85, 0.999]:
            assert abs(log_integral(y) - float(mp.li(y))) < 1e-11


class TestIntegrateOde:
    def test_exponential_decay(self):
        prob = OdeProblem(1, lambda t, y: -y, (0.0, 1.0), [1.0], 100)
        ts, ys = integrate_ode(prob)
        assert len(ts) == 101 and ys.shape == (101, 1)
        assert abs(ys[-1, 0] - math.exp(-1.0)) < 1e-8

    def test_constant_rhs(self):
        prob = OdeProblem(2, lambda t, y: np.zeros(2), (0.0, 3.0), [1.5, -2.0], 7)
        _, ys = integrate_ode(prob)
        assert np.all(ys == [1.5, -2.0])

    def test_fourth_order_convergence(self):
        def endpoint_error(steps):
            prob = OdeProblem(1, lambda t, y: -y, (0.0, 1.0), [1.0], steps)
            _, ys = integrate_ode(prob)
            return abs(ys[-1, 0] - math.exp(-1.0))

        e1, e2 = endpoint_error(50), endpoint_error(100)
        order = math.log2(e1 / e2)
        assert order >= 3.9

    def test_non_finite_detection(self):
        prob = OdeProblem(1, lambda t, y: y * y, (0.0, 2.0), [3.0], 50)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError):
            integrate_ode(prob)

    def test_invalid_problem(self):
        with pytest.raises(ValueError):
            OdeProblem(1, lambda t, y: y, (1.0, 0.0), [1.0], 10)
        with pytest.raises(ValueError):
            OdeProblem(2, lambda t, y: y, (0.0, 1.0), [1.0], 10)


class TestPureDeathMean:
    @pytest.mark.parametrize("rates", [
        [0.7],
        [2.0, 2.0, 2.0, 2.0],
        [1e-3, 5.0, 0.2, 1e3, 40.0, 3.0],
        list(np.linspace(0.5, 12.0, 12)),
    ], ids=["one", "equal", "stiff", "rising"])
    def test_against_expm(self, rates):
        # rows x - 1 and x of expm(tau Q) (0..n), from the chain of the first
        # x rates, for each start x
        b = np.array(rates)
        gen = np.diag(np.concatenate(([0.0], -b))) + np.diag(b, -1)
        taus = np.array([0.0, 1e-9, 0.3, 2.0, 25.0])
        exact = np.array([expm(tau * gen) @ np.arange(len(b) + 1.0) for tau in taus]).T
        for x in range(1, len(b) + 1):
            rows = pure_death_mean(b[:x], taus)
            assert rows.shape == (2, len(taus))
            assert np.array_equal(rows[:, 0], [x - 1.0, x])
            assert np.max(np.abs(rows - exact[x - 1:x + 1])) <= 1e-12

    @given(st.integers(min_value=1, max_value=2000), st.integers(0, 2**32 - 1),
           st.floats(min_value=0.0, max_value=12.0),
           st.floats(min_value=1e-6, max_value=2000.0),
           st.integers(min_value=1, max_value=8))
    @example(n=2000, seed=1, stiffness=12.0, span=2000.0, n_taus=8)
    @example(n=1500, seed=2, stiffness=3.0, span=300.0, n_taus=1)
    @settings(max_examples=40, deadline=None)
    def test_top_rows_of_backward_table(self, n, seed, stiffness, span, n_taus):
        # rates spread over up to 24 e-folds, largest rate 1: the fold of the
        # top two entries against the whole backward table, whose product
        # differs only in the BLAS kernel that sums each block of terms
        rng = np.random.default_rng(seed)
        rates = np.exp(rng.uniform(-2.0 * stiffness, 0.0, n))
        rates /= rates.max()
        taus = np.sort(rng.uniform(0.0, span, n_taus))
        rows = pure_death_mean(rates, taus)
        table = pure_death_table(rates, taus)
        np.testing.assert_allclose(rows, table[-2:], rtol=1e-13, atol=0.0)

    def test_drained_chain_stops_early(self):
        # 1e6 uniformized steps would be needed without the early stop
        rows = pure_death_mean([1.0, 1e3], [0.0, 1e3])
        assert np.array_equal(rows[:, 0], [1.0, 2.0])
        assert np.all(rows[:, 1] <= 2e-16)

    def test_poisson_pmf_matches_gammaln_form(self):
        # the exact Stirling error for m < 16 is tabulated with math.lgamma in
        # place of scipy.special.gammaln, which stays the oracle
        m = np.arange(1.0, 16.0)
        stirlerr = gammaln(m + 1.0) - (m + 0.5) * np.log(m) + m - 0.5 * math.log(2.0 * math.pi)
        assert np.all(np.abs(_STIRLERR_SMALL - stirlerr) <= 4.0 * np.spacing(gammaln(m + 1.0)))
        # and so is exp(m log mu - mu - gammaln(m+1)) where its exponent is small
        m = np.arange(25.0)
        mu = np.array([0.7, 5.0, 15.5, 30.0])
        ref = np.exp(m[:, None] * np.log(mu) - mu - gammaln(m + 1.0)[:, None])
        np.testing.assert_allclose(_poisson_pmf(m, mu), ref, rtol=1e-13, atol=0.0)

    def test_tail_stop_matches_pdtrc(self):
        # the running tail of the pmf in place of scipy.special.pdtrc: the
        # least m with P(N >= m) < 1e-16, so no dropped tail is larger
        for mu in np.concatenate(([0.0, 1e-30, 1e-16, 1e-8], np.geomspace(1e-3, 1e5, 400))):
            m = _poisson_stop(float(mu))
            assert pdtrc(m - 1, mu) < 1e-16
            assert m == 1 or pdtrc(m - 2, mu) >= 1e-16

    def test_rejects_bad_input(self):
        with pytest.raises(NonFiniteStateError, match="non-finite state"):
            pure_death_mean([1.0, math.nan], [0.5])
        with pytest.raises(NonFiniteStateError):
            pure_death_mean([1.0], [math.inf])
        with pytest.raises(ValueError):
            pure_death_mean([1.0, -1.0], [0.5])
        with pytest.raises(ValueError, match="at least one"):
            pure_death_mean([], [0.5])
