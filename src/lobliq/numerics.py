"""Scalar special functions and numerical kernels.

Everything here is pure and reentrant; the rest of the package builds on
these primitives (the pure-death chain mean by uniformization, the 8-point
Gauss-Legendre rule) so that numerical behaviour is controlled in one place.
Nothing here needs SciPy.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "GAUSS_NODES",
    "GAUSS_WEIGHTS",
    "NonFiniteStateError",
    "pure_death_mean",
]

# the 8-point Gauss-Legendre rule on [-1, 1], numpy.polynomial.legendre.leggauss(8)
# written out: computing it initialises NumPy's LAPACK, about 0.75 MB of RSS
_GAUSS_HALF_NODES = (0.18343464249564978, 0.525532409916329,
                     0.7966664774136267, 0.9602898564975362)
_GAUSS_HALF_WEIGHTS = (0.36268378337836166, 0.3137066458778869,
                       0.22238103445337443, 0.10122853629037706)
GAUSS_NODES = tuple(-t for t in _GAUSS_HALF_NODES[::-1]) + _GAUSS_HALF_NODES
GAUSS_WEIGHTS = _GAUSS_HALF_WEIGHTS[::-1] + _GAUSS_HALF_WEIGHTS

# uniformization: Poisson tail dropped, terms folded per matrix product, and
# the floor below which terms and weights are flushed to zero (subnormal
# operands slow the product several times over)
_POISSON_TAIL = 1e-16
_TERM_BLOCK = 128
_FLUSH = 1e-300
# Stirling's error lgamma(m+1) - (m+1/2) log m + m - log(2 pi)/2: exact for
# m = 1..15, its asymptotic series above; and the Taylor series of
# ((1+d) log1p(d) - d) / d**2 (highest power first)
_STIRLERR_SMALL = np.array([math.lgamma(m + 1.0) - (m + 0.5) * math.log(m) + m
                            - 0.5 * math.log(2.0 * math.pi) for m in range(1, 16)])
_STIRLING = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)
_PHI_SERIES = [(-1.0) ** k / ((k + 1) * (k + 2)) for k in reversed(range(18))]


class NonFiniteStateError(ArithmeticError):
    """A computed state (a rate, a mean) became NaN or infinite."""


def _poisson_pmf(m: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Poisson(m; mu) on the grid of integers m (rows) x mu (columns), within
    about 1e-14 relative wherever it is not negligible.

    Loader's saddle-point form exp(-stirlerr(m) - bd0) / sqrt(2 pi m), with
    bd0 = m log(m/mu) + mu - m summed as a series in d = m/mu - 1 near the
    mode, avoids the cancellation in exp(m log mu - mu - lgamma(m+1)), which
    costs about eps * m * log(mu) and would dominate the uniformized sum once
    mu reaches the thousands.
    """
    m = np.asarray(m, dtype=float)[:, None]
    mu = np.asarray(mu, dtype=float)[None, :]
    ms = np.maximum(m, 1.0)
    inv2 = 1.0 / (ms * ms)
    c = _STIRLING
    stirlerr = np.where(
        ms < 16.0, _STIRLERR_SMALL[np.minimum(ms, 15.0).astype(np.intp) - 1],
        (c[0] - (c[1] - (c[2] - (c[3] - c[4] * inv2) * inv2) * inv2) * inv2) / ms)
    mup = np.where(mu > 0.0, mu, 1.0)
    with np.errstate(over="ignore"):  # m/mu overflows only where Poisson(m) is 0
        d = (ms - mup) / mup
        near = np.abs(d) < 0.1
        dn = np.where(near, d, 0.0)
        bd0 = np.where(near, mup * dn * dn * np.polyval(_PHI_SERIES, dn),
                       ms * np.log(ms / mup) + mup - ms)
    w = np.exp(-stirlerr - bd0) / np.sqrt(2.0 * math.pi * ms)
    w = np.where(m == 0.0, np.exp(-mu), w)
    return np.where(mu == 0.0, np.where(m == 0.0, 1.0, 0.0), w)


def _poisson_stop(mu: float) -> int:
    """The least m with P(N >= m) < _POISSON_TAIL for N ~ Poisson(mu).

    The tail is the pmf summed from the upper end, smallest terms first; 20
    standard deviations past the mean the rest is below 1e-80.
    """
    ks = np.arange(int(mu), int(mu + 20.0 * math.sqrt(mu)) + 64)
    above = np.cumsum(_poisson_pmf(ks[:0:-1], [mu])[:, 0])[::-1]  # P(N > ks[i])
    return int(ks[np.argmax(above < _POISSON_TAIL)]) + 1


def pure_death_mean(rates, taus) -> np.ndarray:
    """Mean level of a pure-death chain, by uniformization (Jensen 1953).

    The chain leaves level k for k - 1 at rate ``rates[k-1]`` (k = 1..n).
    Returns the (n+1, len(taus)) table whose entry (x, j) is E[X | X_0 = x]
    after time ``taus[j]``, i.e. ``expm(tau Q) @ (0, 1, ..., n)`` for the
    bidiagonal generator Q.  With L = max rate and K = I + Q/L, which is
    nonnegative, the table is sum_m Poisson(m; L tau) K^m x: every term is
    nonnegative, so nothing cancels.  K^m x falls in m and rises in x, so the
    sum stops once the Poisson tail of the largest L tau, or the top entry of
    K^m x, drops below 1e-16 * n: either way the dropped terms add up to no
    more than that, and the truncated sums keep E monotone in x and tau.
    Terms are formed one O(n) step at a time and folded in blocks, so memory
    stays O(n * len(taus)).  A column with tau = 0 is x exactly.
    """
    b = np.concatenate(([0.0], np.asarray(rates, dtype=float)))
    taus = np.asarray(taus, dtype=float)
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(taus))):
        raise NonFiniteStateError("non-finite state: death rates or times are not finite")
    if np.any(b < 0.0) or np.any(taus < 0.0):
        raise ValueError("death rates and times must be nonnegative")
    x = v = np.arange(len(b), dtype=float)
    lam = float(b.max())
    if lam == 0.0 or len(taus) == 0:
        return np.repeat(v[:, None], len(taus), axis=1)
    p = b / lam
    q = 1.0 - p
    mu = lam * taus
    mu_max = float(mu.max())
    m_end = _poisson_stop(mu_max)
    cut = _POISSON_TAIL * v[-1]
    out = np.zeros((len(b), len(taus)))
    terms = np.empty((_TERM_BLOCK, len(b)))
    for start in range(0, m_end, _TERM_BLOCK):
        m = np.arange(start, min(start + _TERM_BLOCK, m_end))
        for i in range(len(m)):
            terms[i] = v
            v = q * v
            v[1:] += p[1:] * terms[i, :-1]
        weights = _poisson_pmf(m, mu)
        weights[weights < _FLUSH] = 0.0
        terms[terms < _FLUSH] = 0.0
        out += terms[:len(m)].T @ weights
        if v[-1] <= cut:
            break
    # the weights sum to at most 1, but the products can round past x near tau = 0
    return np.minimum(out, x[:, None])
