"""Aggregate functions over numeric value arrays.

The paper's framework bounds SUM, COUNT, AVG, MIN and MAX queries; this
module provides their exact (ground-truth) evaluation on materialised data.
Aggregates over empty inputs follow SQL semantics: ``COUNT`` is 0, ``SUM``
is 0 (we use the convenient convention rather than SQL NULL), and
``AVG``/``MIN``/``MAX`` return ``None``.

``SUM`` is exact: :class:`ExactSum` keeps the sum of float64 values as one
integer times a power of two, so a sum is correctly rounded and the state of
concatenated inputs is the sum of their states, whatever the row order or
chunking.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from ..exceptions import UnsupportedAggregateError

__all__ = ["AggregateFunction", "ExactSum", "compute_aggregate"]

#: Values per chunk of :meth:`ExactSum.of`.
_CHUNK = 8192
#: Bits in the low half of a 53-bit integer mantissa (the high half has 26).
_LOW_BITS = 27
_LOW_MASK = (1 << _LOW_BITS) - 1
#: The widest exponent spread a chunk shifts into int64: a chunk's 2**13
#: halves, each below 2**27 before a shift of at most 23 bits, sum below
#: 2**63.  A wider chunk sums each exponent's halves apart.
_MAX_SHIFT = 63 - _LOW_BITS - 13


class AggregateFunction(enum.Enum):
    """The aggregate functions supported by the engine and by PC bounding."""

    COUNT = "COUNT"
    SUM = "SUM"
    AVG = "AVG"
    MIN = "MIN"
    MAX = "MAX"

    @classmethod
    def parse(cls, text: str) -> "AggregateFunction":
        """Parse an aggregate name, case-insensitively."""
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise UnsupportedAggregateError(
                f"unsupported aggregate {text!r}; expected one of "
                f"{[member.value for member in cls]}"
            ) from None

    @property
    def needs_attribute(self) -> bool:
        """COUNT(*) is attribute-free; the others aggregate a column."""
        return self is not AggregateFunction.COUNT

    @property
    def is_monotone_in_rows(self) -> bool:
        """Whether adding rows can only increase the aggregate.

        True for COUNT and (non-negative) SUM; used by sanity checks in the
        bounding engine.
        """
        return self in (AggregateFunction.COUNT, AggregateFunction.SUM)


@dataclass(frozen=True)
class ExactSum:
    """The exact sum of float64 values: ``mantissa * 2**exponent``.

    Every finite double is a 53-bit integer times a power of two, so the
    sum of any of them is one Python int times a power of two.  NaN and the
    infinities take no part in it; flags record which occurred, and
    :attr:`value` answers them as ``np.sum`` does (NaN for a NaN or for both
    infinities, else the infinity).  States are normalized (an odd
    mantissa, or 0 with exponent 0), so equal sums have equal states, and
    ``ExactSum.of(a ++ b) == ExactSum.of(a) + ExactSum.of(b)``: a state is a
    linear sketch that merges an appended delta exactly.
    """

    mantissa: int = 0
    exponent: int = 0
    nan: bool = False
    positive_infinity: bool = False
    negative_infinity: bool = False

    @classmethod
    def of(cls, values) -> "ExactSum":
        """The state of ``values`` (any float64 array-like).

        Zeros, NaN and the infinities are set aside first.  The rest is
        summed in 8,192-value chunks: each value's ``np.frexp`` mantissa
        becomes a 53-bit integer, split into a 26-bit high and a 27-bit
        low half, and the halves are shifted to the chunk's least exponent
        and summed in int64.  A chunk whose exponent spread would overflow
        sums each exponent's halves apart (exactly: those float sums stay
        below 2**53).
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        keep = np.isfinite(values) & (values != 0.0)
        flags = {}
        if not keep.all():
            dropped = values[~keep]
            flags = {"nan": bool(np.isnan(dropped).any()),
                     "positive_infinity": bool((dropped == np.inf).any()),
                     "negative_infinity": bool((dropped == -np.inf).any())}
            values = values[keep]
        mantissa, exponent = 0, 0
        for start in range(0, len(values), _CHUNK):
            fractions, exponents = np.frexp(values[start:start + _CHUNK])
            integers = (fractions * 9007199254740992.0).astype(np.int64)
            high = integers >> _LOW_BITS
            low = integers & _LOW_MASK
            least = int(exponents.min())
            shifts = exponents - least
            if int(shifts.max()) <= _MAX_SHIFT:
                chunk = ((int((high << shifts).sum()) << _LOW_BITS)
                         + int((low << shifts).sum()))
            else:
                highs = np.bincount(shifts, weights=high)
                lows = np.bincount(shifts, weights=low)
                chunk = 0
                present = (highs != 0) | (lows != 0)
                for shift in np.flatnonzero(present).tolist():
                    chunk += (((int(highs[shift]) << _LOW_BITS)
                               + int(lows[shift])) << shift)
            mantissa, exponent = _add(mantissa, exponent, chunk, least - 53)
        return cls._normalized(mantissa, exponent, **flags)

    @classmethod
    def _normalized(cls, mantissa: int, exponent: int,
                    **flags: bool) -> "ExactSum":
        if not mantissa:
            return cls(**flags)
        zeros = (mantissa & -mantissa).bit_length() - 1
        return cls(mantissa >> zeros, exponent + zeros, **flags)

    def __add__(self, other: "ExactSum") -> "ExactSum":
        if not isinstance(other, ExactSum):
            return NotImplemented
        mantissa, exponent = _add(self.mantissa, self.exponent,
                                  other.mantissa, other.exponent)
        return self._normalized(
            mantissa, exponent, nan=self.nan or other.nan,
            positive_infinity=(self.positive_infinity
                               or other.positive_infinity),
            negative_infinity=(self.negative_infinity
                               or other.negative_infinity))

    @property
    def _special(self) -> float | None:
        """The answer NaN or an infinity forces, or None."""
        if self.nan or (self.positive_infinity and self.negative_infinity):
            return math.nan
        if self.positive_infinity:
            return math.inf
        if self.negative_infinity:
            return -math.inf
        return None

    @property
    def value(self) -> float:
        """The correctly rounded sum (``int / 2**k`` rounds correctly);
        ±inf past the largest double, and 0.0 for no values or zeros."""
        special = self._special
        if special is not None:
            return special
        return _nearest(self.mantissa, self.exponent)

    def mean(self, count: int) -> float:
        """This sum over a positive ``count``, correctly rounded (a Python
        int quotient rounds correctly); NaN and the infinities answer as
        :attr:`value` does."""
        special = self._special
        if special is not None:
            return special
        if self.exponent >= 0:
            return (self.mantissa << self.exponent) / count
        return self.mantissa / (count << -self.exponent)

    def shifted(self, value: float, upward: bool) -> float:
        """``value`` plus this sum, added exactly and rounded up (``upward``)
        or down to a double: one exact comparison with the nearest double
        and at most one ``math.nextafter``.  An infinite ``value`` or a
        NaN or infinite sum adds as in IEEE arithmetic."""
        if self._special is not None or not math.isfinite(value):
            return value + self.value
        numerator, denominator = float(value).as_integer_ratio()
        mantissa, exponent = _add(self.mantissa, self.exponent, numerator,
                                  1 - denominator.bit_length())
        nearest = _nearest(mantissa, exponent)
        if math.isinf(nearest):  # the sum lies past the largest double
            return (nearest if (nearest > 0) == upward
                    else math.copysign(sys.float_info.max, nearest))
        numerator, denominator = nearest.as_integer_ratio()
        exact, rounded, _ = _aligned(mantissa, exponent, numerator,
                                     1 - denominator.bit_length())
        if exact != rounded and (exact > rounded) == upward:
            return math.nextafter(nearest, math.inf if upward else -math.inf)
        return nearest


def _nearest(mantissa: int, exponent: int) -> float:
    """``mantissa * 2**exponent`` rounded to the nearest double."""
    try:
        if exponent >= 0:
            return float(mantissa << exponent)
        return mantissa / (1 << -exponent)
    except OverflowError:
        return math.copysign(math.inf, mantissa)


def _aligned(first: int, first_exponent: int, second: int,
             second_exponent: int) -> tuple[int, int, int]:
    """Both mantissas over the lesser exponent, then that exponent."""
    if not first:
        first_exponent = second_exponent
    elif not second:
        second_exponent = first_exponent
    least = min(first_exponent, second_exponent)
    return (first << (first_exponent - least),
            second << (second_exponent - least), least)


def _add(first: int, first_exponent: int, second: int,
         second_exponent: int) -> tuple[int, int]:
    """``(mantissa, exponent)`` of the sum of two scaled integers."""
    first, second, least = _aligned(first, first_exponent, second,
                                    second_exponent)
    return first + second, least


def compute_aggregate(
    function: AggregateFunction, values: np.ndarray | list[float]
) -> float | None:
    """Evaluate ``function`` over ``values``.

    Parameters
    ----------
    function:
        The aggregate to compute.
    values:
        The attribute values of the qualifying rows.  For ``COUNT`` the
        values themselves are ignored; only their number matters.

    Returns
    -------
    The aggregate value, or ``None`` for AVG/MIN/MAX over an empty input.
    """
    array = np.asarray(values, dtype=np.float64)
    if function is AggregateFunction.COUNT:
        return float(array.size)
    if function is AggregateFunction.SUM:
        return ExactSum.of(array).value
    if array.size == 0:
        return None
    if function is AggregateFunction.AVG:
        return float(array.mean())
    if function is AggregateFunction.MIN:
        return float(array.min())
    if function is AggregateFunction.MAX:
        return float(array.max())
    raise UnsupportedAggregateError(f"unsupported aggregate {function!r}")
