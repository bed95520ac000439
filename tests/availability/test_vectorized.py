"""The vector static estimator: differential equivalence and statistics.

The strongest check feeds the *scalar* static estimator's exact event
stream (same RNG, same node choices, same times) through the vector
scoring pipeline: availability and event counts must match the scalar
loop for both kinds.  Trajectory generation is then validated
statistically: independently seeded vector and scalar runs must produce
confidence intervals that overlap.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

np = pytest.importorskip("numpy")

from repro.availability.montecarlo import (
    _site_model_events,
    simulate_dynamic_availability,
    simulate_static_availability,
)
from repro.availability.vectorized import (
    _run_static,
    _trajectory_chunks,
    simulate_static_availability_vector,
)
from repro.coteries import GridCoterie, MajorityCoterie, TreeCoterie
from repro.sim.seeding import derive_generator, derive_rng

RULES = [(GridCoterie, 9), (GridCoterie, 25), (MajorityCoterie, 9),
         (TreeCoterie, 15)]


def _nodes(n):
    return [f"n{i:03d}" for i in range(n)]


def _scalar_chunks(n, lam, mu, horizon, seed, chunk=97):
    """The scalar engines' exact event stream, re-batched into arrays."""
    rng = derive_rng(seed)
    times, nodes = [], []
    for now, index, _now_up in _site_model_events(n, lam, mu, horizon, rng):
        times.append(now)
        nodes.append(index)
        if len(times) == chunk:
            yield np.array(times), np.array(nodes, dtype=np.int64)
            times, nodes = [], []
    if times:
        yield np.array(times), np.array(nodes, dtype=np.int64)


class TestDifferentialOnScalarEvents:
    @pytest.mark.parametrize("rule,n", RULES)
    @pytest.mark.parametrize("kind", ["read", "write"])
    def test_static_scoring_matches(self, rule, n, kind):
        scalar = simulate_static_availability(
            n, 1.0, 4.0, 400.0, seed=3, rule=rule, kind=kind)
        vector = _run_static(_nodes(n), rule, kind, 400.0,
                             _scalar_chunks(n, 1.0, 4.0, 400.0, 3))
        assert vector.availability == pytest.approx(scalar.availability,
                                                    abs=1e-12)
        assert vector.n_events == scalar.n_events

    def test_chunk_boundaries_do_not_matter(self):
        runs = [_run_static(_nodes(9), GridCoterie, "write", 300.0,
                            _scalar_chunks(9, 1.0, 4.0, 300.0, 5,
                                           chunk=chunk))
                for chunk in (1, 7, 1000, 10 ** 6)]
        # availabilities may differ by summation order only (ulps)
        assert max(r.availability for r in runs) - \
            min(r.availability for r in runs) < 1e-12
        assert len({r.n_events for r in runs}) == 1


class TestTrajectoryGeneration:
    def test_chunks_are_sorted_and_complete(self):
        gen = derive_generator(4, "availability.vector")
        last = 0.0
        total = 0
        flips = np.zeros(5, dtype=int)
        for times, nodes in _trajectory_chunks(5, 1.0, 4.0, 200.0, gen,
                                               block=32):
            assert np.all(np.diff(times) >= 0)
            assert times[0] >= last
            assert times[-1] < 200.0
            assert nodes.min() >= 0 and nodes.max() < 5
            last = times[-1]
            total += times.shape[0]
            flips += np.bincount(nodes, minlength=5)
        # expected events per node over t=200 at lam=1, mu=4:
        # up fraction 0.8 -> flip rate 0.8*1 + 0.2*4 = 1.6 per unit time
        assert total == flips.sum()
        assert flips.min() > 200  # ~320 expected per node

    def test_same_seed_is_bit_identical(self):
        a = simulate_static_availability_vector(9, 1.0, 4.0, 1000.0, seed=8)
        b = simulate_static_availability_vector(9, 1.0, 4.0, 1000.0, seed=8)
        assert a == b

    def test_block_size_does_not_change_statistics_grossly(self):
        # different block sizes consume the Generator differently, so
        # runs differ pathwise but must agree statistically
        runs = [simulate_static_availability_vector(
            9, 1.0, 4.0, 3000.0, seed=s, block=b).availability
            for s, b in ((1, 64), (2, 256), (3, 1024))]
        assert max(runs) - min(runs) < 0.05


class TestConfidenceIntervalOverlap:
    @pytest.mark.parametrize("rule,n", [(GridCoterie, 9),
                                        (MajorityCoterie, 9)])
    def test_vector_and_scalar_cis_overlap(self, rule, n):
        def shard_mean_ci(estimator):
            vals = [estimator(n, 1.0, 4.0, 800.0, seed=seed,
                              rule=rule).availability for seed in range(8)]
            mean = float(np.mean(vals))
            sem = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
            return mean, 2.576 * sem

        scalar = shard_mean_ci(simulate_static_availability)
        vector = shard_mean_ci(simulate_static_availability_vector)
        gap = abs(scalar[0] - vector[0])
        assert gap <= scalar[1] + vector[1], (scalar, vector)


@pytest.mark.parametrize("estimator", [simulate_static_availability_vector,
                                       simulate_static_availability,
                                       simulate_dynamic_availability])
@pytest.mark.parametrize("rule", [GridCoterie, MajorityCoterie])
@pytest.mark.parametrize("n", [25, 49, 100])
def test_estimates_are_python_floats_in_the_unit_interval(estimator, rule, n):
    """At p = 0.95 these runs are almost never down; summing up-time
    used to let the vector estimator report 1.0000000000000002."""
    for seed in range(10):
        estimate = estimator(n, 1.0, 19.0, 100.0, seed=seed, rule=rule)
        for value in (estimate.availability, estimate.unavailability):
            assert type(value) is float
            assert 0.0 <= value <= 1.0


def test_a_run_that_is_never_up_stays_in_the_unit_interval():
    """Summed down-time can round a hair above the horizon."""
    class NeverUp:
        supports_packed = False

        def write_bits(self, bits):
            return np.zeros(bits.shape[0], dtype=bool)

    def rule(nodes):
        return SimpleNamespace(compile_batch=lambda universe: NeverUp())

    for seed in range(40):
        for horizon in (0.7, 3.3):
            gen = derive_generator(seed, "availability.vector")
            estimate = _run_static(_nodes(5), rule, "write", horizon,
                                   _trajectory_chunks(5, 1.0, 4.0, horizon,
                                                      gen, block=32))
            assert 0.0 <= estimate.availability < 1e-12
            assert estimate.unavailability <= 1.0


class TestWiring:
    def test_validation_errors(self):
        with pytest.raises(ValueError):
            simulate_static_availability_vector(9, 0.0, 4.0, 100.0)
        with pytest.raises(ValueError):
            simulate_static_availability_vector(9, 1.0, 4.0, 100.0,
                                                kind="nope")
