"""The parallel Monte Carlo fan-out: merge math and shard equivalence."""

import pytest

from repro.availability.montecarlo import (
    AvailabilityEstimate,
    simulate_dynamic_availability,
    simulate_static_availability,
)
from repro.availability.parallel import (
    merge_estimates,
    shard_seeds,
    simulate_availability_parallel,
)
from repro.coteries import GridCoterie, MajorityCoterie


def make(availability, horizon, n_events=0, n_epoch_changes=0, n_stuck=0):
    return AvailabilityEstimate(availability, 1.0 - availability, horizon,
                                n_events, n_epoch_changes, n_stuck)


class TestMergeEstimates:
    def test_weighted_by_horizon(self):
        merged = merge_estimates([make(1.0, 100.0), make(0.0, 300.0)])
        assert merged.availability == pytest.approx(0.25)
        assert merged.unavailability == pytest.approx(0.75)
        assert merged.horizon == 400.0

    def test_counters_are_summed(self):
        merged = merge_estimates([make(0.5, 10.0, 7, 3, 1),
                                  make(0.5, 10.0, 5, 2, 4)])
        assert merged.n_events == 12
        assert merged.n_epoch_changes == 5
        assert merged.n_stuck_periods == 5

    def test_single_estimate_is_identity(self):
        one = make(0.625, 50.0, 9, 4, 2)
        assert merge_estimates([one]) == one

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_estimates([])

    def test_shard_seeds_are_distinct_and_deterministic(self):
        assert shard_seeds(10, 4) == [10, 11, 12, 13]
        assert len(set(shard_seeds(0, 8))) == 8


class TestWorkersOne:
    """``workers=1`` runs inline and is bit-identical to serial."""

    def test_dynamic(self):
        parallel = simulate_availability_parallel(
            9, 1.0, 4.0, 800.0, seed=7, workers=1)
        serial = simulate_dynamic_availability(9, 1.0, 4.0, 800.0, seed=7)
        assert parallel == serial

    def test_static(self):
        parallel = simulate_availability_parallel(
            9, 1.0, 4.0, 800.0, seed=7, workers=1, protocol="static",
            kind="read")
        serial = simulate_static_availability(9, 1.0, 4.0, 800.0, seed=7,
                                              kind="read")
        assert parallel == serial

    def test_options_forwarded(self):
        parallel = simulate_availability_parallel(
            10, 1.0, 3.0, 500.0, seed=4, workers=1, check_interval=0.5)
        serial = simulate_dynamic_availability(
            10, 1.0, 3.0, 500.0, seed=4, check_interval=0.5)
        assert parallel == serial


class TestMultiWorker:
    def test_merged_equals_serial_shards(self):
        """The fan-out is exactly: run each shard at seed+i over
        horizon/workers, then merge."""
        workers, horizon = 3, 1200.0
        merged = simulate_availability_parallel(
            9, 1.0, 4.0, horizon, seed=5, workers=workers)
        shards = [simulate_dynamic_availability(
                      9, 1.0, 4.0, horizon / workers, seed=5 + i)
                  for i in range(workers)]
        assert merged == merge_estimates(shards)

    def test_static_merged_equals_serial_shards(self):
        workers, horizon = 2, 1000.0
        merged = simulate_availability_parallel(
            12, 1.0, 3.0, horizon, seed=8, workers=workers,
            protocol="static", rule=MajorityCoterie)
        shards = [simulate_static_availability(
                      12, 1.0, 3.0, horizon / workers, seed=8 + i,
                      rule=MajorityCoterie)
                  for i in range(workers)]
        assert merged == merge_estimates(shards)

    def test_lambda_rule_survives_fork(self):
        estimate = simulate_availability_parallel(
            9, 1.0, 4.0, 400.0, seed=1, workers=2,
            rule=lambda nodes: GridCoterie(nodes, column_cover="full"))
        assert 0 <= estimate.availability <= 1
        assert estimate.n_events > 0

    def test_estimate_close_to_serial_distributionally(self):
        merged = simulate_availability_parallel(
            9, 1.0, 4.0, 4000.0, seed=3, workers=4)
        serial = simulate_dynamic_availability(9, 1.0, 4.0, 4000.0, seed=3)
        assert merged.availability == pytest.approx(serial.availability,
                                                    abs=0.02)


class TestValidation:
    def test_bad_protocol(self):
        with pytest.raises(ValueError):
            simulate_availability_parallel(5, 1.0, 2.0, 10.0,
                                           protocol="quantum")

    def test_bad_workers(self):
        with pytest.raises(ValueError):
            simulate_availability_parallel(5, 1.0, 2.0, 10.0, workers=0)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            simulate_availability_parallel(5, 1.0, 2.0, 0.0)

    def test_static_rejects_dynamic_options(self):
        with pytest.raises(ValueError):
            simulate_availability_parallel(5, 1.0, 2.0, 10.0,
                                           protocol="static",
                                           idealized=True)
        with pytest.raises(ValueError):
            simulate_availability_parallel(5, 1.0, 2.0, 10.0,
                                           protocol="static",
                                           check_interval=1.0)
