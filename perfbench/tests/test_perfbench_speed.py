"""Times at reference speed: the factors, their direction, and the loop pauses."""

import time

import pytest

import runner
import speed
import workloads


def test_factor_is_reference_over_median_kernel_time():
    slow = [2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S, 9.0]
    assert speed.factor(slow) == pytest.approx(0.5)
    assert speed.factor([speed.REFERENCE_S]) == pytest.approx(1.0)


def test_loop_factor_follows_the_kernel_by_the_loop_exponent():
    slow = [2 * speed.REFERENCE_S] * 3
    assert speed.loop_factor(slow) == pytest.approx(0.5 ** speed.LOOP_EXPONENT)
    assert 0 < speed.LOOP_EXPONENT <= 1


def test_reference_sample_is_kept_and_positive():
    reference = speed.Reference()
    best = reference.sample()
    assert best > 0
    assert reference.samples == [best]


def test_a_slow_host_is_scaled_back_to_reference_speed():
    tally = workloads.Tally()
    tally.latencies = [0.010] * 200
    tally.attempted = tally.answered = 200
    tally.wall = 2.0
    raw = runner.end_to_end(tally, [1.0], [1.0])
    scaled = runner.end_to_end(tally, [1.0], [1.0], loop_factor=0.5)
    assert scaled["query_p50_ms"] == pytest.approx(raw["query_p50_ms"] / 2)
    assert scaled["query_p99_ms"] == pytest.approx(raw["query_p99_ms"] / 2)
    assert scaled["throughput_qps"] == pytest.approx(raw["throughput_qps"] * 2)
    assert scaled["miss_rate"] == raw["miss_rate"]


def test_kernel_pauses_are_not_loop_time():
    tally = workloads.Tally(speed.Reference())
    tally.start = time.perf_counter()
    assert tally.speed_due()
    tally.sample_speed()
    tally.close_loop()
    assert len(tally.speed_samples) == 1
    assert tally.paused > 0
    assert not tally.speed_due()
    assert not workloads.Tally().speed_due()
