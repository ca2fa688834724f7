"""Vector spelling of long report tables, byte for byte as the per-value
writers of :mod:`lobliq.reports` spell them: ``'%.17g' % v`` for a CSV float,
``repr(v)`` for a JSON float and ``'%d' % v`` for an int.

``reports`` imports this module on the first table of ``reports._VECTOR_ROWS``
rows or more, so importing the package compiles none of it.  A table is
spelled in equal chunks of at most ``_CHUNK_ROWS`` rows into NUL-padded uint8
cells, and one boolean mask drops the padding.  An int column is spelled once
for both the CSV and the JSON file, in as many four-digit groups as its
largest magnitude needs, and a float column is decomposed into its 17 digits
once, then rendered for each.

The 17 digits of |x| are the integer nearest |x|*10**k, found exactly from
Dekker's error-free product of x and the exact double 10**k (0 <= k <= 22)
and rounded half-even on the exact low part.  ``repr`` keeps the 15- or
16-digit rounding of those digits when it reads back to x through Clinger's
fast path (one correctly rounded multiply or divide).  Values outside those
lanes (zeros, non-finite and subnormal values, |x| outside [1e-6, 1e17))
keep the per-value spelling.
"""

from __future__ import annotations

import math
from json import dumps  # _cells has a parameter named json

import numpy as np

from .reports import _jsonable, format_number

# rows spelled at once, which bounds the temporaries
_CHUNK_ROWS = 4096
_VECTOR_FLOATS = (np.float16, np.float32, np.float64)  # exact as float64


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: a = hi + lo exactly, each with at most 26 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


# The digits of an integer come four at a time from a table of the strings
# "0000".."9999".  An int's cell is a sign and its four-digit groups, the
# leading zeros NUL: _KEEP[j] clears the first j bytes of a group.  A
# float's cell picks, by a row of indices chosen by its layout (sign, decimal
# exponent and count of significant digits), from a source of 36 characters:
# the 20 digits of its 17-digit significand followed by _CONSTANTS.
_N = np.arange(10_000)
_WORDS = (_N[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(
    np.uint8).view(np.uint32).ravel()
_TRAILING = sum((_N % 10**j == 0).astype(np.intp) for j in range(1, 5))  # 4 for 0
_KEEP = np.frombuffer(b"".join(bytes(j) + b"\xff" * (4 - j) for j in range(5)), np.uint32)
_CONSTANTS = b"\0.-+e0123456789\0"
_CONSTANT_WORDS = np.frombuffer(_CONSTANTS, np.uint32)
_WIDTH = 24  # the longest cell, "-2.2250738585072014e-308"
_EXPONENTS = range(-6, 18)  # decimal exponents in the float lanes
_POW10 = 10.0 ** np.arange(23)  # exact doubles
_POW10_HI, _POW10_LO = _split(_POW10)
_INT_POW10 = np.uint64(10) ** np.arange(1, 20, dtype=np.uint64)
# a template writes digit j of the source's 20 as the letter _LETTERS[j]
_LETTERS = "ABCDEFGHIJKLMNOPQRST"


def _float_template(exp10: int, nsig: int, neg: int, shortest: bool) -> str:
    """``'%.17g' % v``, or ``repr(v)`` when ``shortest``, for v of that sign,
    decimal exponent of its first digit and count of significant digits, with
    the 17 significant digits written as the letters D..T."""
    digits = _LETTERS[3:]
    sign = "-" * neg
    if not -4 <= exp10 < (16 if shortest else 17):
        point = "." + digits[1:nsig] if nsig > 1 else ""
        return sign + digits[0] + point + "e%+03d" % exp10
    if exp10 < 0:
        return sign + "0." + "0" * (-exp10 - 1) + digits[:nsig]
    ndig = max(nsig, exp10 + 1 + shortest)  # repr writes 1.0, '%.17g' 1
    point = "." if ndig > exp10 + 1 else ""
    return sign + digits[:exp10 + 1] + point + digits[exp10 + 1:ndig]


def _float_layouts(shortest: bool) -> np.ndarray:
    """Source indices of the float cells, row ((exp10 - _EXPONENTS.start) * 17
    + nsig - 1) * 2 + sign, padded with the NUL at 20."""
    slots = bytes.maketrans(_LETTERS.encode() + _CONSTANTS[1:15],
                            bytes(range(20)) + bytes(range(21, 35)))
    templates = (_float_template(e, nsig, neg, shortest) for e in _EXPONENTS
                 for nsig in range(1, 18) for neg in (0, 1))
    rows = b"".join(t.encode().translate(slots).ljust(_WIDTH, b"\x14") for t in templates)
    return np.frombuffer(rows, np.uint8).reshape(-1, _WIDTH)


_LAYOUTS = {shortest: _float_layouts(shortest) for shortest in (False, True)}
_LENGTHS = {shortest: (layouts != 20).sum(axis=1) for shortest, layouts in _LAYOUTS.items()}


def _groups(u: np.ndarray, count: int = 5) -> np.ndarray:
    """The ``count`` base-10**4 digits of each u < 10**(4 count), most
    significant first."""
    out = np.empty((len(u), count), np.intp)
    base = u.dtype.type(10_000)
    for j in range(count - 1, 0, -1):
        q = u // base
        out[:, j] = u - q * base
        u = q
    out[:, 0] = u
    return out


def _render(groups: np.ndarray, layout: np.ndarray, shortest: bool) -> np.ndarray:
    """Float cells as wide as the longest: row i picks the source indices of
    layout ``layout[i]`` from the digits of ``groups[i]`` followed by
    _CONSTANTS."""
    width = _LENGTHS[shortest].take(layout).max(initial=0)
    source = np.empty((len(groups), 9), np.uint32)
    source[:, :5] = _WORDS.take(groups)
    source[:, 5:] = _CONSTANT_WORDS
    index = _LAYOUTS[shortest].take(layout, axis=0)[:, :width]
    index = index + (np.arange(len(groups), dtype=np.int32) * 36)[:, None]
    return source.view(np.uint8).ravel().take(index)


def _per_value(strings: list) -> np.ndarray:
    """NUL-padded cells of ASCII strings."""
    return np.array(strings, dtype=np.bytes_).view(np.uint8).reshape(len(strings), -1)


def _int_cells(x: np.ndarray) -> np.ndarray:
    """Cells of ``'%d' % v``: a sign slot, then as many four-digit groups as
    the largest |v| needs, the leading zeros NUL."""
    neg = x < 0
    mag = x.astype(np.uint64)  # a negative x wraps to 2**64 + x ...
    mag = np.where(neg, -mag, mag)  # ... and its negation is |x|, 2**63 included
    ndig = np.searchsorted(_INT_POW10, mag, side="right") + 1
    count = (int(ndig.max()) + 3) // 4
    words = _WORDS.take(_groups(mag, count))
    lead = 4 * count - ndig  # leading zero digits
    for j in range(count):
        words[:, j] &= _KEEP.take(np.clip(lead - 4 * j, 0, 4))
    cells = np.empty((len(x), 1 + 4 * count), np.uint8)
    cells[:, 0] = neg * ord("-")
    cells[:, 1:] = words.view(np.uint8)
    return cells


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D, the integer nearest a*10**k (ties to even), and the exact remainder
    a*10**k - D, for a*10**k < 2**62.

    Dekker's product gives a*10**k = hi + lo exactly, with hi an even integer
    here (a*10**k >= 2**53) and |lo| <= ulp(hi)/2; the remainder
    lo - rint(lo) is exact by Sterbenz's lemma."""
    hi = a * _POW10.take(k)
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    r = np.rint(lo)
    return hi.astype(np.int64) + r.astype(np.int64), lo - r


def _round_off(d: np.ndarray, rem: np.ndarray, m: int) -> np.ndarray:
    """d/m rounded half-even on the exact value d + rem, where d is that value
    already rounded to an integer: a tie of d/m is a tie only if rem is 0."""
    q = d // m
    r = d - q * m
    q += r > m // 2
    tie = np.flatnonzero(r == m // 2)  # up if the exact value is above d, else to even
    q[tie] += (rem[tie] > 0) | ((rem[tie] == 0) & (q[tie] % 2 == 1))
    return q


def _reads_back(c: np.ndarray, e: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Whether c*10**e rounds to a, for |e| <= 22 and, to be exact, c <= 2**53:
    Clinger's fast path, one correctly rounded operation on exact doubles."""
    back = c / _POW10.take(np.maximum(-e, 0))
    up = np.flatnonzero(e > 0)
    back[up] = c[up] * _POW10.take(e[up])
    return back == a


def _digits(x: np.ndarray) -> tuple:
    """The rows of x in the vector lanes, and for each such row |x|, the
    power k and the 17 digits D = |x|*10**k rounded, with the exact
    remainder |x|*10**k - D."""
    a = np.abs(x)
    lane = (a >= 1e-6) & (a < 1e17)
    if lane.all():
        rows = np.arange(len(x))
    else:
        rows = np.flatnonzero(lane)
        a = a[rows]
    k = np.clip(16 - np.floor(np.log10(a)).astype(np.intp), 0, 22)
    d, rem = _scaled(a, k)
    # log10 may miss by one near a power of ten: the exact product must lie
    # in [10**16, 10**17 - 1/2), else rescale once and check again
    low = (d < 10**16) | ((d == 10**16) & (rem < 0))
    fix = np.flatnonzero(low | (d >= 10**17))
    if len(fix):
        k[fix] = np.clip(k[fix] + low[fix] * 2 - 1, 0, 22)
        d[fix], rem[fix] = _scaled(a[fix], k[fix])
        bad = fix[(d[fix] < 10**16) | ((d[fix] == 10**16) & (rem[fix] < 0))
                  | (d[fix] >= 10**17)]
        if len(bad):
            ok = np.ones(len(rows), bool)
            ok[bad] = False
            rows, a, k, d, rem = rows[ok], a[ok], k[ok], d[ok], rem[ok]
    return rows, a, k, d, rem


def _json_number(v: float) -> str:
    return repr(v) if math.isfinite(v) else '"' + format_number(v) + '"'


def _float_cells(x: np.ndarray, digits: tuple, shortest: bool) -> np.ndarray:
    """Cells of ``'%.17g' % v``, or of ``repr(v)`` with the non-finite values
    quoted when ``shortest``, from the digits of ``_digits(x)``."""
    rows, a, k, d, rem = digits
    exp10 = 16 - k  # the decimal exponent of the first digit
    if shortest:
        # A <= 15-digit string that reads back to x is the 15-digit rounding
        # of x with its zeros dropped, and repr takes the shortest, then the
        # nearest: the 15-digit, then the 16-digit rounding, else 17 digits.
        # A 16-digit candidate c > 2**53 reads back unchecked: then
        # x >= (2**53 + 1/2) 10**(exp10-15), so ulp(x) > 10**(exp10-15) and
        # c is within half an ulp of x.  Both steps take the rounding interval
        # of x to be symmetric, which a power of two's is not; the tests spell
        # every power of two, and repr agrees on each.
        c15 = _round_off(d, rem, 100)
        c16 = _round_off(d, rem, 10)
        d = np.where(_reads_back(c15, 2 - k, a), c15 * 100,
                     np.where((c16 > 2**53) | _reads_back(c16, 1 - k, a), c16 * 10, d))
        carry = d == 10**17  # 99...95 rounded up to 10**15 or 10**16
        d = np.where(carry, 10**16, d)
        exp10 = exp10 + carry
    groups = _groups(d)
    zeros = _TRAILING.take(groups[:, 4])  # trailing zero digits, dropped
    for j in (3, 2, 1):
        more = np.flatnonzero(zeros == 16 - 4 * j)  # groups j+1.. all zero
        zeros[more] += _TRAILING.take(groups[more, j])
    layout = ((exp10 - _EXPONENTS.start) * 17 + 16 - zeros) * 2 + np.signbit(x[rows])
    cells = _render(groups, layout, shortest)
    if len(rows) == len(x):
        return cells
    rest = np.ones(len(x), bool)  # these keep the per-value spelling
    rest[rows] = False
    spell = _json_number if shortest else "%.17g".__mod__
    strings = _per_value([spell(v) for v in x[rest].tolist()])
    out = np.zeros((len(x), max(cells.shape[1], strings.shape[1])), np.uint8)
    out[rows, :cells.shape[1]] = cells
    out[rest, :strings.shape[1]] = strings
    return out


def _cells(arr: np.ndarray, csv: bool, json: bool) -> tuple:
    """NUL-padded uint8 cells spelling a 1-d column as the per-value writers
    do: ``format_number`` for CSV (None unless ``csv``), and for JSON (None
    unless ``json``) ``repr``, with the non-finite values quoted.  An int
    column's cells serve both, and a float column is decomposed into its
    digits once for both."""
    if arr.dtype.kind in "iu":
        cells = _int_cells(arr)
        return cells, cells
    if arr.dtype.type not in _VECTOR_FLOATS:
        values = arr.tolist()
        return (_per_value([format_number(v) for v in values]) if csv else None,
                _per_value([dumps(_jsonable(v)) for v in values]) if json else None)
    x = arr.astype(np.float64, copy=False)
    digits = _digits(x)
    return (_float_cells(x, digits, False) if csv else None,
            _float_cells(x, digits, True) if json else None)


def _joined(cells: list, sep: bytes, end: bytes) -> bytes:
    """The rows of the cells side by side, joined by ``sep`` and each closed
    by ``end``, the NUL padding dropped."""
    n = len(cells[0])
    pieces = [cells[0]]
    for c in cells[1:]:
        pieces += [np.broadcast_to(np.frombuffer(sep, np.uint8), (n, len(sep))), c]
    pieces.append(np.broadcast_to(np.frombuffer(end, np.uint8), (n, len(end))))
    flat = np.concatenate(pieces, axis=1).ravel()
    return flat[flat != 0].tobytes()


def spell_table(arrays: list, csv: bool, json_end: bytes | None):
    """Per chunk of equal-length 1-d columns: the rows as CSV (None unless
    ``csv``), and each column's JSON items, each closed by ``json_end`` (None
    if that is None), as ASCII bytes."""
    json = json_end is not None
    n = len(arrays[0])
    size = math.ceil(n / math.ceil(n / _CHUNK_ROWS))  # equal chunks, none longer
    for start in range(0, n, size):
        cells = [_cells(arr[start:start + size], csv, json) for arr in arrays]
        yield (_joined([c for c, _ in cells], b",", b"\n") if csv else None,
               [_joined([c], b"", json_end) for _, c in cells] if json else None)
