"""Parallel Monte Carlo fan-out for the availability estimators.

A single long-horizon run of :func:`simulate_static_availability` /
:func:`simulate_dynamic_availability` is inherently serial: the site
model is one continuous-time trajectory.  But availability is a
time-average of an ergodic process, so the horizon can be *sharded* --
``workers`` independent trajectories of length ``horizon / workers``,
one per process, each seeded ``seed + shard_index`` -- and the shard
estimates merged by horizon-weighted averaging.  The merged counters
(events, epoch changes, stuck periods) are plain sums.  Each shard runs
the serial estimator with its default engine; the ``set`` reference
engine and the vector static estimator are called directly.

Statistics
----------

The merged estimate has the same ~1/sqrt(total horizon) resolution as a
serial run of the full horizon.  It is *not* pathwise identical to the
serial run: shards consume independent RNG streams, and each shard
restarts from the all-up state (epoch = full replica set), which biases
the estimate by O(workers * mixing_time / horizon) -- negligible when
each shard is long relative to the repair time 1/mu.  ``workers=1``
runs inline in the calling process and is bit-identical to calling the
serial estimator directly.

Processes are forked (no pickling of coterie rules required, so lambda
rules work) where the platform supports it.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Optional, Sequence

from repro.availability.montecarlo import (
    AvailabilityEstimate,
    _check_model,
    simulate_dynamic_availability,
    simulate_static_availability,
)
from repro.coteries.base import CoterieRule
from repro.coteries.grid import GridCoterie


def merge_estimates(estimates: Sequence[AvailabilityEstimate]
                    ) -> AvailabilityEstimate:
    """Combine shard estimates: horizon-weighted mean, summed counters."""
    estimates = list(estimates)
    if not estimates:
        raise ValueError("need at least one estimate to merge")
    total_horizon = sum(e.horizon for e in estimates)
    if total_horizon <= 0:
        raise ValueError("merged horizon must be positive")
    available_time = sum(e.availability * e.horizon for e in estimates)
    availability = available_time / total_horizon
    return AvailabilityEstimate(
        availability=availability,
        unavailability=1.0 - availability,
        horizon=total_horizon,
        n_events=sum(e.n_events for e in estimates),
        n_epoch_changes=sum(e.n_epoch_changes for e in estimates),
        n_stuck_periods=sum(e.n_stuck_periods for e in estimates),
    )


def shard_seeds(seed: int, workers: int) -> list[int]:
    """The deterministic shard seeds: ``seed + i`` for shard i."""
    return [seed + i for i in range(workers)]


#: the coterie rule for in-flight shards.  Task arguments submitted to a
#: pool are pickled even under fork, which would reject lambda/closure
#: rules -- but memory at fork time is inherited, so the rule is stashed
#: here before the pool forks and the task carries a ``None`` sentinel.
_fork_rule: Optional[CoterieRule] = None


def _run_shard(params: tuple) -> AvailabilityEstimate:
    """One shard trajectory (module-level so worker processes can call it)."""
    protocol, n_nodes, lam, mu, horizon, seed, rule, kwargs = params
    if rule is None:
        rule = _fork_rule
    if protocol == "static":
        return simulate_static_availability(
            n_nodes, lam, mu, horizon, seed=seed, rule=rule, **kwargs)
    return simulate_dynamic_availability(
        n_nodes, lam, mu, horizon, seed=seed, rule=rule, **kwargs)


def _pool_context():
    """Prefer fork (closures and lambda rules survive); fall back to the
    platform default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def simulate_availability_parallel(
        n_nodes: int, lam: float, mu: float, horizon: float, seed: int = 0,
        workers: Optional[int] = None,
        protocol: str = "dynamic",
        rule: CoterieRule = GridCoterie,
        kind: str = "write",
        idealized: bool = False,
        check_interval: Optional[float] = None) -> AvailabilityEstimate:
    """Estimate availability by fanning shards out over processes.

    Parameters mirror the serial estimators, plus:

    protocol:
        ``"dynamic"`` (the epoch protocol) or ``"static"``.
    workers:
        Number of shard processes; ``None`` uses the CPU count.
        ``workers=1`` runs inline and equals the serial estimator
        bit for bit.

    ``idealized`` and ``check_interval`` apply to the dynamic protocol
    only.
    """
    if protocol not in ("static", "dynamic"):
        raise ValueError(f"protocol must be static or dynamic, "
                         f"got {protocol!r}")
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _check_model(n_nodes, lam, mu, horizon)
    kwargs = {"kind": kind}
    if protocol == "dynamic":
        kwargs["idealized"] = idealized
        kwargs["check_interval"] = check_interval
    elif idealized or check_interval is not None:
        raise ValueError("idealized/check_interval only apply to the "
                         "dynamic protocol")
    if workers == 1:
        return _run_shard((protocol, n_nodes, lam, mu, horizon, seed,
                           rule, kwargs))
    shard_horizon = horizon / workers
    ctx = _pool_context()
    forked = ctx.get_start_method() == "fork"
    # under fork, ship the rule via inherited memory (lambdas work);
    # under spawn it must travel with the task, so it must be picklable
    sent_rule = None if forked else rule
    params = [(protocol, n_nodes, lam, mu, shard_horizon, shard_seed,
               sent_rule, kwargs)
              for shard_seed in shard_seeds(seed, workers)]
    global _fork_rule
    if forked:
        _fork_rule = rule
    try:
        with ctx.Pool(processes=workers) as pool:
            estimates = pool.map(_run_shard, params)
    finally:
        if forked:
            _fork_rule = None
    return merge_estimates(estimates)
