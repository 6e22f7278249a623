"""The exact observed SUM: :class:`ExactSum` against ``math.fsum`` and
``np.sum``, its merge law, and SUM endpoints that bracket the exact total.

``math.fsum`` is the correctly rounded reference for finite inputs; for
NaN and the infinities the reference is ``np.sum``'s answer.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import BoundOptions
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.engine import ContingencyQuery, PCAnalyzer
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.relational import aggregates
from repro.relational.aggregates import ExactSum
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema


def _wide_vector(rng: np.random.Generator) -> np.ndarray:
    """Up to 20,000 values of either sign, magnitudes 1e-305 to 1e300."""
    size = int(rng.integers(0, 20_000))
    magnitudes = 10.0 ** rng.uniform(-305.0, 300.0, size)
    return rng.choice([-1.0, 1.0], size) * magnitudes * rng.uniform(1, 2, size)


def _takes_fallback(values: np.ndarray) -> bool:
    """Whether some 8,192-value chunk spreads its exponents too wide."""
    for start in range(0, len(values), aggregates._CHUNK):
        exponents = np.frexp(values[start:start + aggregates._CHUNK])[1]
        if len(exponents) and np.ptp(exponents) > aggregates._MAX_SHIFT:
            return True
    return False


class TestAgainstFsum:
    def test_wide_random_vectors(self):
        rng = np.random.default_rng(34)
        fallbacks = 0
        for _ in range(300):
            values = _wide_vector(rng)
            fallbacks += _takes_fallback(values)
            assert ExactSum.of(values).value == math.fsum(values)
        assert fallbacks >= 250

    def test_narrow_vectors_shift_in_int64(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            size = int(rng.integers(1, 30_000))
            values = np.round(rng.gamma(2.0, 20.0, size) + 0.99, 2)
            values[rng.random(size) < 0.3] *= -1.0
            assert not _takes_fallback(values)
            assert ExactSum.of(values).value == math.fsum(values)

    def test_the_fallback_equals_the_shift_path(self, monkeypatch):
        """Forcing every chunk onto per-exponent buckets changes no state."""
        rng = np.random.default_rng(3)
        vectors = [np.round(rng.normal(0.0, 50.0, size), 3)
                   for size in (1, 7, 8192, 8193, 20_000)]
        shifted = [ExactSum.of(values) for values in vectors]
        monkeypatch.setattr(aggregates, "_MAX_SHIFT", -1)
        assert [ExactSum.of(values) for values in vectors] == shifted

    def test_subnormals_and_overflow(self):
        tiny = np.array([5e-324, 5e-324, -1e-310, 2.5e-308])
        assert ExactSum.of(tiny).value == math.fsum(tiny)
        assert ExactSum.of([1e308, 1e308]).value == math.inf
        assert ExactSum.of([-1e308, -1e308]).value == -math.inf
        assert ExactSum.of([1e308, 1e308, -1e308]).value == 1e308


class TestSpecials:
    @pytest.mark.parametrize("values", [
        [1.0, math.nan, 2.0],
        [math.inf, 1.0, -3.5],
        [-math.inf, 1.0],
        [math.inf, 5.0, -math.inf],
        [math.nan, math.inf],
        [],
        [-0.0, -0.0, -0.0],
        [0.0, -0.0],
    ])
    def test_answers_as_np_sum(self, values):
        array = np.array(values, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            expected = float(np.sum(array))
        actual = ExactSum.of(array).value
        assert repr(actual) == repr(expected)

    def test_specials_merge(self):
        assert math.isnan((ExactSum.of([math.inf])
                           + ExactSum.of([-math.inf])).value)
        assert (ExactSum.of([math.inf]) + ExactSum.of([1.0])).value == math.inf
        assert (ExactSum.of([-math.inf]) + ExactSum()).value == -math.inf
        assert math.isnan((ExactSum.of([math.nan]) + ExactSum.of([2.0])).value)


_floats = st.floats(allow_nan=True, allow_infinity=True, width=64)


class TestMerge:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(_floats, max_size=40), cut=st.integers(0, 40))
    def test_state_of_a_concatenation_is_the_sum_of_states(self, values,
                                                           cut):
        first, second = values[:cut], values[cut:]
        assert ExactSum.of(values) == ExactSum.of(first) + ExactSum.of(second)

    def test_random_splits_of_a_large_vector(self):
        rng = np.random.default_rng(21)
        values = _wide_vector(rng)
        whole = ExactSum.of(values)
        for _ in range(20):
            cuts = np.sort(rng.integers(0, len(values) + 1, 5))
            total = ExactSum()
            for part in np.split(values, cuts):
                total = total + ExactSum.of(part)
            assert total == whole


class TestDirectedRounding:
    def test_shifted_ends_bracket_the_exact_total(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            values = np.round(rng.normal(0.0, 1e3, int(rng.integers(1, 50))),
                              int(rng.integers(0, 4)))
            shift = float(rng.choice([0.0, 0.1, -2.5e-7, 1e17]))
            exact = sum(map(Fraction, values.tolist())) + Fraction(shift)
            state = ExactSum.of(values)
            low, high = state.shifted(shift, False), state.shifted(shift, True)
            assert Fraction(low) <= exact <= Fraction(high)
            assert math.nextafter(low, math.inf) > exact
            assert math.nextafter(high, -math.inf) < exact
            assert (low == high) == (Fraction(low) == exact)

    def test_past_the_largest_double(self):
        state = ExactSum.of([1.7e308, 1.7e308])
        assert state.shifted(0.0, True) == math.inf
        assert state.shifted(0.0, False) == 1.7976931348623157e308
        assert state.shifted(-1.7e308, False) == 1.7e308

    def test_specials_add_as_ieee(self):
        assert ExactSum.of([1.0]).shifted(math.inf, False) == math.inf
        assert math.isnan(ExactSum.of([-math.inf]).shifted(math.inf, True))
        assert math.isnan(ExactSum.of([math.nan]).shifted(2.0, False))
        assert ExactSum.of([math.inf]).shifted(2.0, False) == math.inf


def _pcset() -> PredicateConstraintSet:
    return PredicateConstraintSet([
        PredicateConstraint(Predicate.range("t", 0.0, 2.5),
                            ValueConstraint({"v": (-3.1, 8.3)}),
                            FrequencyConstraint(1, 3), name="early"),
        PredicateConstraint(Predicate.range("t", 2.0, 4.0),
                            ValueConstraint({"v": (0.7, 5.9)}),
                            FrequencyConstraint(0, 2), name="late")])


_values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                    allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(0.0, 4.0), _values), max_size=30),
       region=st.one_of(st.none(), st.just(Predicate.range("t", 1.0, 3.0))))
def test_sum_endpoints_bracket_the_exact_total(rows, region):
    """Each closed-world SUM endpoint is the exact total (the observed rows'
    exact sum plus the missing endpoint) rounded outward to a double."""
    schema = Schema.from_pairs([("t", ColumnType.FLOAT),
                                ("v", ColumnType.FLOAT)])
    observed = Relation.from_rows(schema, rows)
    report = PCAnalyzer(_pcset(), observed=observed,
                        options=BoundOptions(check_closure=False)).analyze(
        ContingencyQuery.sum("v", region))
    assert report.result_range.closed
    matching = [value for t, value in rows
                if region is None or region.matches_row({"t": t})]
    observed_total = sum(map(Fraction, matching), Fraction(0))
    lower = Fraction(report.missing_range.lower) + observed_total
    upper = Fraction(report.missing_range.upper) + observed_total
    result = report.result_range
    assert Fraction(result.lower) <= lower
    assert math.nextafter(result.lower, math.inf) > lower
    assert Fraction(result.upper) >= upper
    assert math.nextafter(result.upper, -math.inf) < upper
    assert report.observed_value == float(observed_total)
