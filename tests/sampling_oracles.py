"""Numerical fill-time samplers, kept as independent oracles for the fill clocks.

``inversion`` integrates a policy's hazard with ``quad``, piece by piece
from the points already integrated, and finds where it reaches the path's
exponential draw with ``brentq``; ``thinning`` samples under a
piecewise-constant hazard bound from a generator of its own.
:class:`OraclePolicy` runs either one through ``simulate_policy`` in place of
the wrapped policy's clock, so the package's ensemble loop, draws and
statistics are unchanged and only the fill times come from the oracle.

:func:`reference_march` is the ensemble loop itself written the direct way,
gathering the live paths' times and draws at every level and scattering the
fills back, as the reference for the packed march in ``simulate``.
"""

import bisect
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from lobliq import simulate
from lobliq.cases import FillClock


def _hazard(model, policy, delta, horizon, level):
    """u -> the fill rate at ``level`` and time u of the spread ``policy`` posts."""
    def hazard(u):
        return model.rate(float(policy.spreads_at(level, np.array([horizon - u]))[0])) / delta

    return hazard


def inversion(model, policy, delta, horizon):
    """Exact inversion of a numerically integrated hazard.

    The integral from t0 is kept at every point one fill has integrated to,
    so each new point integrates only the piece from the nearest kept point
    below it and adds that piece's integral to the kept one.
    """
    def fill_time(level, t0, e):
        hazard = _hazard(model, policy, delta, horizon, level)
        knots, integrals = [t0], [0.0]  # sorted points and the integral to each

        def cumulative(t):
            if t <= t0:
                return 0.0
            i = bisect.bisect_right(knots, t) - 1
            if knots[i] == t:
                return integrals[i]
            # the hazard may be near-singular at maturity; quad complains but
            # still resolves the root to sampling accuracy
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IntegrationWarning)
                piece, _ = quad(hazard, knots[i], t, epsabs=1e-12, epsrel=1e-10, limit=200)
            knots.insert(i + 1, t)
            integrals.insert(i + 1, integrals[i] + piece)
            return integrals[i + 1]

        t_hi = horizon - max(1e-12 * horizon, 1e-15)
        if t_hi <= t0 or cumulative(t_hi) < e:
            return math.nan
        return brentq(lambda t: cumulative(t) - e, t0, t_hi,
                      xtol=1e-14 * horizon, rtol=8.882e-16, maxiter=200)

    return fill_time


def thinning(seed: int, cells: int = 64):
    """Rejection sampling under a piecewise-constant hazard bound.

    Usable only when the hazard stays bounded on [0, T); a divergence probe
    near maturity rejects policies (like the power-law optimum) whose fill
    rate blows up there, since no finite envelope covers the last cell.
    Envelope proposals restart at each cell boundary, which is exact by
    memorylessness.  The path's exponential draw is not used: proposals and
    acceptances come from one generator seeded with ``seed``.
    """
    rng = np.random.default_rng(seed)

    def sampler(model, policy, delta, horizon):
        def fill_time(level, t0, e):
            hazard = _hazard(model, policy, delta, horizon, level)
            span = horizon - t0
            if span <= 0.0:
                return math.nan
            near, nearer = hazard(horizon - 1e-2 * span), hazard(horizon - 1e-8 * span)
            if not math.isfinite(nearer) or nearer > 100.0 * max(near, 1e-300):
                raise ArithmeticError("hazard is unbounded near maturity; "
                                      "use inversion sampling instead")

            edges = np.linspace(t0, horizon, cells + 1)
            for i in range(cells):
                lo, hi = edges[i], edges[i + 1]
                probes = (hazard(lo), hazard(0.5 * (lo + hi)),
                          hazard(max(hi - 1e-12 * (hi - lo), lo)))
                bound = 1.5 * max(probes)
                t = lo
                while True:
                    t += rng.exponential() / bound
                    if t >= hi:
                        break  # redraw from the boundary with the next cell's bound
                    ratio = hazard(t) / bound
                    if ratio > 1.0 + 1e-9:
                        raise ArithmeticError(f"hazard bound violated at t = {t}")
                    if rng.uniform() <= ratio:
                        return t
            return math.nan

        return fill_time

    return sampler


@dataclass(frozen=True)
class OraclePolicy:
    """``inner``'s spreads, with fill times drawn by an oracle ``sampler``:
    (model, policy, delta, horizon) -> ((level, t0, draw) -> time)."""

    inner: object
    sampler: Callable

    def spreads_at(self, n_units, t_to_go):
        return self.inner.spreads_at(n_units, t_to_go)

    def clock(self, model, delta, horizon):
        fill_time = self.sampler(model, self.inner, delta, horizon)
        return FillClock(advance=lambda level, t0, draws: np.array(
            [fill_time(level, t, d) for t, d in zip(t0.tolist(), draws.tolist())],
            dtype=float))


def reference_march(model, market, n_units, delta, policy, n_paths, seed, ct, keep_paths):
    """``simulate._march`` as a per-level gather and scatter over the live
    paths: the march the packed one must match bit for bit."""
    horizon, r = market.horizon, market.r
    last = min(horizon, np.finfo(float).max)
    advance = policy.clock(model, delta, horizon).advance
    revenues = np.zeros(n_paths)
    fill_counts = np.zeros(n_paths, dtype=np.int64)
    done = None if ct is None else np.zeros((n_units, len(ct)), dtype=np.int64)
    # fill times, spreads and discounted cash
    kept = np.empty((3, n_paths, n_units)) if keep_paths else None
    for block in range(-(-n_paths // simulate._BLOCK_PATHS)):
        lo = block * simulate._BLOCK_PATHS
        m = min(n_paths - lo, simulate._BLOCK_PATHS)
        draws = simulate._stream(seed, block).standard_exponential((m, n_units))
        t = np.zeros(m)
        revenue, fills = revenues[lo:lo + m], fill_counts[lo:lo + m]
        if keep_paths:
            times, spreads, cashes = kept[:, lo:lo + m]
        live = np.arange(m)
        for j, level in enumerate(range(n_units, 0, -1)):
            if live.size == 0:
                break
            t0 = t[live]
            with np.errstate(divide="ignore"):
                t_next = advance(level, t0, draws[live, j])
            hit = t_next <= last
            live, t0 = live[hit], t0[hit]
            t_next = np.clip(t_next[hit], np.nextafter(t0, math.inf), horizon)
            s = policy.spreads_at(level, horizon - t_next)
            t[live] = t_next
            cash = np.exp(-r * t_next) * s * delta
            revenue[live] += cash
            fills[live] += 1
            if done is not None:
                done[j] += np.searchsorted(np.sort(t_next), ct, side="right")
            if keep_paths:
                times[live, j] = t_next
                spreads[live, j] = s
                cashes[live, j] = cash
    return revenues, fill_counts, done, kept
