"""The percentile / tail-sample rule of the benchmark."""

import numpy as np
import pytest

import measure


def test_percentile_matches_numpy_linear():
    values = list(np.random.default_rng(3).exponential(2.0, 777))
    for q in (0, 1, 50, 90, 99, 100):
        assert measure.percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_p99_needs_a_thousand_samples():
    assert measure.samples_beyond(list(range(1000)), 99) == 10
    assert measure.tail_supported(list(range(1000)), 99)
    assert measure.samples_beyond(list(range(500)), 99) == 5
    assert not measure.tail_supported(list(range(500)), 99)


def test_p90_needs_a_hundred_samples():
    assert measure.tail_supported(list(range(100)), 90)
    assert not measure.tail_supported(list(range(91)), 90)


def test_ties_at_the_cut_do_not_count_as_beyond():
    assert measure.samples_beyond([1.0] * 2000, 99) == 0
