"""The percentile helper reports what the sample supports, and says so."""

import math

import pytest

from bench.stats import MIN_BEYOND, UnsupportedPercentile, percentile


def test_supported_percentile_is_nearest_rank_with_n():
    samples = list(range(1, 2001))          # 1..2000
    got = percentile(samples, 0.99)
    assert got == (1980, 0.99, 2000)
    assert percentile(samples, 0.5).value == 1000


def test_unsupported_percentile_steps_down_and_says_which():
    samples = list(range(1, 101))           # p99 of 100 has 1 sample beyond
    got = percentile(samples, 0.99)
    assert got.n == 100
    assert got.value == 100 - MIN_BEYOND    # the 90th value: ten lie beyond
    assert got.q == pytest.approx(0.90)


def test_strict_refuses_instead_of_stepping_down():
    with pytest.raises(UnsupportedPercentile, match="supports p90"):
        percentile(list(range(100)), 0.99, strict=True)
    assert percentile(list(range(1000)), 0.99, strict=True).n == 1000


def test_a_sample_that_supports_nothing_is_refused():
    with pytest.raises(UnsupportedPercentile, match="supports none"):
        percentile(list(range(MIN_BEYOND)), 0.5)


def test_failed_operations_rank_above_every_sample():
    samples = [1.0] * 980
    assert percentile(samples, 0.95, missing=20).value == 1.0
    landed = percentile(samples, 0.985, missing=20)     # rank 985 > 980
    assert math.isinf(landed.value) and landed.n == 1000


def test_q_must_be_a_share():
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 99)

