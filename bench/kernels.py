"""Per-layer readings of the ``availability`` and ``coteries`` kernels.

Each kernel is timed on its own, around one call into the layer, in the
traced pass of ``availability_mc``.  The alternatives the Monte Carlo
keeps behind switches (set engine, vector engine) are read here so that
a later change can tell which ones earn their place; a kernel that no
longer exists reads ``None`` instead of breaking the benchmark.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Callable, Optional

from bench.workloads import LAM, MU


def _static(seed: int, horizon: float, **options) -> float:
    from repro.availability import simulate_static_availability
    return simulate_static_availability(25, LAM, MU, horizon, seed=seed,
                                        **options).n_events


def _dynamic(seed: int, horizon: float, **options) -> float:
    from repro.availability import simulate_dynamic_availability
    return simulate_dynamic_availability(9, LAM, MU, horizon, seed=seed,
                                         **options).n_events


def _static_vector(seed: int, horizon: float) -> float:
    from repro.availability import simulate_static_availability_vector
    return simulate_static_availability_vector(25, LAM, MU, horizon,
                                               seed=seed).n_events


def _dynamic_vector(seed: int, horizon: float) -> float:
    from repro.availability import simulate_dynamic_availability_vector
    return simulate_dynamic_availability_vector(9, LAM, MU, horizon,
                                                seed=seed).n_events


def _exact_masks(seed: int, horizon: float) -> float:
    from repro.availability import quorum_hit_counts
    from repro.coteries.grid import GridCoterie
    quorum_hit_counts(GridCoterie, 20)
    return float(2 ** 20)


def _table1(seed: int, horizon: float) -> float:
    from repro.availability import dynamic_grid_unavailability
    for n in (9, 16, 25):
        dynamic_grid_unavailability(n, 1, 19)
    return 1.0


def _grid(n: int):
    from repro.coteries.grid import GridCoterie
    return GridCoterie([f"n{i:03d}" for i in range(n)])


def _engine_updates(seed: int, horizon: float) -> float:
    n_updates = 100_000
    evaluator = _grid(25).compile()
    evaluator.reset((1 << 25) - 1)
    rng = random.Random(seed)
    up = [True] * 25
    for _ in range(n_updates):
        index = rng.randrange(25)
        if up[index]:
            evaluator.node_down(index)
        else:
            evaluator.node_up(index)
        up[index] = not up[index]
        evaluator.is_write_quorum()
    return float(n_updates)


def _batch_rows(seed: int, horizon: float) -> float:
    import numpy
    n_rows = 200_000
    evaluator = _grid(25).compile_batch()
    masks = numpy.random.default_rng(seed).integers(
        0, 1 << 25, size=n_rows, dtype=numpy.int64)
    evaluator.is_write_quorum_batch(masks)
    return float(n_rows)


def _compile(seed: int, horizon: float) -> float:
    compiles = 200
    for _ in range(compiles):
        _grid(25).compile()
    return float(compiles)


def _optimizer(seed: int, horizon: float) -> float:
    from repro.coteries.optimizer import optimize_strategy
    optimize_strategy(_grid(9), 0.9)
    return 1.0


def _per_second(units: float, seconds: float) -> float:
    return units / seconds


def _seconds_each(units: float, seconds: float) -> float:
    return seconds / units


#: ``name -> (work, reading)``: *work(seed, horizon)* does the kernel's
#: job once and returns how many units it did; *reading(units, seconds)*
#: turns that into the metric.
KERNELS: dict[str, tuple[Callable, Callable]] = {
    "availability.montecarlo.static_events_per_s": (_static, _per_second),
    "availability.montecarlo.dynamic_events_per_s": (_dynamic, _per_second),
    "availability.montecarlo.dynamic_set_events_per_s": (
        lambda seed, horizon: _dynamic(seed, horizon / 4, engine="set"),
        _per_second),
    "availability.vectorized.static_events_per_s": (
        lambda seed, horizon: _static_vector(seed, horizon * 4), _per_second),
    "availability.vectorized.dynamic_events_per_s": (
        lambda seed, horizon: _dynamic_vector(seed, horizon / 4),
        _per_second),
    "availability.exact.masks_per_s": (_exact_masks, _per_second),
    "availability.markov.table1_solve_s": (_table1, _seconds_each),
    "coteries.engine.updates_per_s": (_engine_updates, _per_second),
    "coteries.batch.rows_per_s": (_batch_rows, _per_second),
    "coteries.engine.compile_us": (
        _compile, lambda units, seconds: 1e6 * seconds / units),
    "coteries.optimizer.solve_ms": (
        _optimizer, lambda units, seconds: 1e3 * seconds / units),
}


def read_kernels(seed: int, scale: float) -> dict:
    """Every kernel reading, by per-layer metric name; ``None`` for a
    kernel that is gone (its import or its entry point fails)."""
    readings: dict[str, Optional[float]] = {}
    for name, (work, reading) in KERNELS.items():
        try:
            start = perf_counter()
            units = work(seed, 1000.0 * scale)
            readings[name] = reading(units, perf_counter() - start)
        except (ImportError, AttributeError, TypeError):
            readings[name] = None
    return readings
