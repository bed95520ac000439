"""Monte Carlo availability under the site model.

Three estimators:

* :func:`simulate_static_availability` -- a static protocol is available
  iff the up-set contains a quorum over the full replica set.

* :func:`simulate_dynamic_availability` -- the *exact* dynamic epoch
  semantics.  With ``check_interval=None`` (the default) an epoch check
  runs instantaneously after every failure/repair event -- the paper's
  site-model assumption (4).  A check succeeds iff the up nodes include a
  write quorum over the current epoch, in which case the epoch becomes
  exactly the up-set.  With a finite ``check_interval``, checks run
  periodically instead, quantifying how much assumption (4) is worth
  (experiment E13): between checks the epoch is frozen, so bursts of
  failures can take quorums away before the protocol adapts.

  ``kind`` selects write availability (default) or read availability
  (``up-set contains a read quorum over the current epoch``) -- the read
  analysis the paper omits as "completely analogous".

  ``idealized=True`` replaces the exact quorum condition with the
  Figure 3 assumptions (any epoch > 3 sheds one failure; a stuck epoch
  recovers when all of its members are up), so the estimator converges to
  the chain -- a validation aid.  Only supported with instantaneous
  checks.

* :func:`repro.availability.parallel.simulate_availability_parallel` --
  the multiprocessing fan-out over either estimator, for long horizons.

The static estimator has a trajectory-batched numpy twin,
:func:`repro.availability.vectorized.simulate_static_availability_vector`;
the dynamic one has none, since its predicate moves with nearly every
event.

Both estimators use Gillespie-style event sampling and are exact in
distribution for the site model.  Statistical resolution scales as
~1/sqrt(horizon); use them for moderate unavailabilities (p <= ~0.9) or
protocol comparisons, not for resolving Table 1's 1e-14 values.

Performance engines
-------------------

``engine`` selects how quorum membership is evaluated per event; both
engines run through the same one loop per estimator, which drives a
:class:`~repro.coteries.base.QuorumEvaluator` and nothing else, so the
two give bit-identical estimates and differ only in speed.  The CLI and
the parallel fan-out run the default:

* ``"bitmask"`` (default) -- each coterie is compiled once into an
  incremental evaluator (``coterie.compile()``): the up-set is an
  integer bitmask and a failure/repair event updates per-structure
  counters in O(1) instead of rescanning the structure.
* ``"set"`` -- the reference: a
  :class:`~repro.coteries.base.SetRecomputeEvaluator` keeps the up-set
  as a set of names and re-runs the coterie's set-of-names predicates on
  every query.

The dynamic estimator changes epoch one way for every coterie family.
It keeps the up-set as an int beside the epoch mask; its evaluator
holds only the epoch's members, node i at its *rank*
``(epoch_mask & ((1 << i) - 1)).bit_count()``, and a non-member's flip
is not forwarded.  Precondition: ``rule`` is the paper's coterie rule,
a function of the *ordered* epoch list, so ``rule(members)`` decides a
subset as ``rule(nodes[:k])`` decides its ranks (k members) -- true of
every shipped family, whose structure depends on positions and k
alone.  The bitmask engine therefore compiles one evaluator per member
count, on first use, and an epoch change is a list lookup plus
``reset_full()``.  The set engine builds ``rule(members)`` from the
members' real names at every epoch, so the engine-agreement tests check
the precondition independently.

Event sampling
--------------

The flipping node is "the rank-th eligible node in index order" for a
rank drawn by ``rng.randrange`` -- the selection rule of the original
O(N) linear scan, so RNG consumption, node choices and trajectories are
*bit for bit* those of the original implementation (a regression test
pins golden values, and a linear-scan oracle in the tests checks the
event stream).  The up and the down nodes are two sorted lists, so the
selection is ``up.pop(rank)`` and ``bisect.insort(down, index)``: C
speed, and O(N) only in the sense of a ``memmove`` of at most N
pointers.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from repro.coteries.base import (
    Coterie,
    CoterieRule,
    QuorumEvaluator,
    SetRecomputeEvaluator,
)
from repro.sim.seeding import derive_rng
from repro.coteries.grid import GridCoterie

#: one step of an estimator's timeline: (time, node index, now up)
Event = tuple[float, int, bool]


@dataclass
class AvailabilityEstimate:
    """Result of a Monte Carlo availability run."""

    availability: float
    unavailability: float
    horizon: float
    n_events: int
    n_epoch_changes: int
    n_stuck_periods: int

    def __str__(self) -> str:
        return (f"availability={self.availability:.6f} over "
                f"t={self.horizon:g} ({self.n_events} events, "
                f"{self.n_epoch_changes} epoch changes)")


def _site_model_events(n_nodes: int, lam: float, mu: float,
                       horizon: float, rng: random.Random
                       ) -> Iterator[Event]:
    """Yield (time, node_index, now_up) events of the site model.

    All nodes start up.  Gillespie sampling: exponential holding time at
    total rate ``n_up*lam + n_down*mu``, then a uniformly chosen eligible
    node flips -- three draws per event (expovariate, uniform, randrange
    over the eligible count), the drawn rank indexing the eligible nodes
    in increasing node order (see the module docs).
    """
    up = list(range(n_nodes))
    down: list[int] = []
    n_up = n_nodes
    now = 0.0
    expovariate, uniform, randrange = (rng.expovariate, rng.random,
                                       rng.randrange)
    while True:
        fail_rate = n_up * lam
        total_rate = fail_rate + (n_nodes - n_up) * mu
        if total_rate <= 0:
            return
        now += expovariate(total_rate)
        if now >= horizon:
            return
        if uniform() * total_rate < fail_rate:
            index = up.pop(randrange(n_up))
            insort(down, index)
            n_up -= 1
            yield now, index, False
        else:
            index = down.pop(randrange(n_nodes - n_up))
            insort(up, index)
            n_up += 1
            yield now, index, True


def simulate_static_availability(n_nodes: int, lam: float, mu: float,
                                 horizon: float, seed: int = 0,
                                 rule: CoterieRule = GridCoterie,
                                 kind: str = "write",
                                 engine: str = "bitmask"
                                 ) -> AvailabilityEstimate:
    """Fraction of time the up-set contains a static quorum."""
    _check_kind(kind)
    _check_model(n_nodes, lam, mu, horizon)
    nodes = [f"n{i:03d}" for i in range(n_nodes)]
    evaluator = _evaluator(engine, rule(nodes))
    evaluator.reset((1 << n_nodes) - 1)
    predicate = (evaluator.is_write_quorum if kind == "write"
                 else evaluator.is_read_quorum)
    node_up, node_down = evaluator.node_up, evaluator.node_down
    available_time = 0.0
    last_time = 0.0
    n_events = 0
    was_available = predicate()
    # derive_rng with no namespace is exactly Random(seed): the golden
    # regression values pin this stream bit-for-bit
    for now, index, now_up in _site_model_events(n_nodes, lam, mu, horizon,
                                                 derive_rng(seed)):
        n_events += 1
        if was_available:
            available_time += now - last_time
        if now_up:
            node_up(index)
        else:
            node_down(index)
        last_time, was_available = now, predicate()
    if was_available:
        available_time += horizon - last_time
    availability = available_time / horizon
    return AvailabilityEstimate(availability, 1.0 - availability, horizon,
                                n_events, 0, 0)


def _with_check_ticks(events: Iterable[Event], check_interval: float,
                      horizon: float) -> Iterator[Event]:
    """Merge the periodic epoch checks into *events* as ``index = -1``
    steps: a check due at or before an event runs before it, and checks
    keep running after the last event up to the horizon."""
    next_check = check_interval
    for event in events:
        while next_check <= event[0]:
            yield next_check, -1, False
            next_check += check_interval
        yield event
    while next_check < horizon:
        yield next_check, -1, False
        next_check += check_interval


def _idealized_check(epoch_mask: int, up_mask: int, min_epoch: int) -> bool:
    """Figure 3's check: an epoch above the minimum size sheds one
    failure at a time; at the minimum it needs every member up."""
    epoch_size = epoch_mask.bit_count()
    members_up = (epoch_mask & up_mask).bit_count()
    if epoch_size > min_epoch:
        return members_up >= epoch_size - 1 and members_up >= min_epoch
    return members_up == epoch_size


def simulate_dynamic_availability(
        n_nodes: int, lam: float, mu: float, horizon: float, seed: int = 0,
        rule: CoterieRule = GridCoterie,
        idealized: bool = False,
        check_interval: Optional[float] = None,
        kind: str = "write",
        engine: str = "bitmask") -> AvailabilityEstimate:
    """Fraction of time the dynamic epoch protocol is available.

    The epoch and the up-set are two masks over the replica universe;
    the evaluator holds the epoch's members by rank (see the module
    docs), so a flip reaches it only for a member, and an epoch change
    swaps in the evaluator of the new epoch, fully up.
    """
    _check_kind(kind)
    _check_model(n_nodes, lam, mu, horizon)
    if idealized and check_interval is not None:
        raise ValueError("idealized mode assumes instantaneous checks")
    if check_interval is not None and check_interval <= 0:
        raise ValueError("check_interval must be positive")
    evaluator_for = _epoch_evaluators(
        engine, rule, [f"n{i:03d}" for i in range(n_nodes)])
    epoch_mask = up_mask = (1 << n_nodes) - 1
    evaluator = evaluator_for(epoch_mask)
    evaluator.reset_full()
    min_epoch = min(n_nodes, 3)
    write = kind == "write"
    instant = check_interval is None
    # derive_rng with no namespace is exactly Random(seed): the golden
    # regression values pin this stream bit-for-bit
    timeline: Iterable[Event] = _site_model_events(
        n_nodes, lam, mu, horizon, derive_rng(seed))
    if check_interval is not None:
        timeline = _with_check_ticks(timeline, check_interval, horizon)
    available_time = 0.0
    last_time = 0.0
    was_available = True
    n_events = n_epoch_changes = n_stuck = 0
    for now, index, now_up in timeline:
        if index < 0:
            checking = True
        else:
            n_events += 1
            bit = 1 << index
            up_mask ^= bit
            if epoch_mask & bit:
                rank = (epoch_mask & (bit - 1)).bit_count()
                if now_up:
                    evaluator.node_up(rank)
                else:
                    evaluator.node_down(rank)
            checking = instant  # site-model assumption (4)
        if checking and (
                _idealized_check(epoch_mask, up_mask, min_epoch)
                if idealized else evaluator.is_write_quorum()):
            # a successful check makes the epoch exactly the up-set, and
            # a coterie's full member set holds every one of its quorums
            if up_mask != epoch_mask:
                epoch_mask = up_mask
                evaluator = evaluator_for(epoch_mask)
                evaluator.reset_full()
                n_epoch_changes += 1
            now_available = True
        elif not write:
            now_available = evaluator.is_read_quorum()
        elif idealized:
            # write availability coincides with epoch-check success (the
            # Figure 3 "upper row")
            now_available = _idealized_check(epoch_mask, up_mask, min_epoch)
        else:
            now_available = evaluator.is_write_quorum()
        if was_available:
            available_time += now - last_time
            if not now_available:
                n_stuck += 1
        last_time, was_available = now, now_available
    if was_available:
        available_time += horizon - last_time
    availability = available_time / horizon
    return AvailabilityEstimate(availability, 1.0 - availability, horizon,
                                n_events, n_epoch_changes, n_stuck)


def _evaluator(engine: str, coterie: Coterie) -> QuorumEvaluator:
    """*engine*'s evaluator of *coterie*; bit i is ``coterie.nodes[i]``."""
    if engine == "bitmask":
        return coterie.compile()
    if engine == "set":
        return SetRecomputeEvaluator(coterie)
    raise ValueError(f"engine must be bitmask or set, got {engine!r}")


def _epoch_evaluators(engine: str, rule: CoterieRule, nodes: list[str]
                      ) -> Callable[[int], QuorumEvaluator]:
    """The evaluator of an epoch mask over *nodes*; bit j is the epoch's
    j-th member."""
    if engine == "set":
        # the reference: a fresh coterie over the members' real names
        return lambda epoch_mask: _evaluator(engine, rule(
            [name for i, name in enumerate(nodes) if epoch_mask >> i & 1]))
    by_count: list[Optional[QuorumEvaluator]] = [None] * (len(nodes) + 1)

    def evaluator_for(epoch_mask: int) -> QuorumEvaluator:
        k = epoch_mask.bit_count()
        evaluator = by_count[k]
        if evaluator is None:
            evaluator = by_count[k] = _evaluator(engine, rule(nodes[:k]))
        return evaluator

    return evaluator_for


def _check_kind(kind: str) -> None:
    if kind not in ("read", "write"):
        raise ValueError(f"kind must be read or write, got {kind!r}")


def _check_model(n_nodes: int, lam: float, mu: float,
                 horizon: float) -> None:
    """The site model's parameters: ``lam = 0`` or ``mu = 0`` (nodes that
    never fail, or never repair) is a legal model; a negative rate is
    not."""
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    if lam < 0 or mu < 0:
        raise ValueError(f"rates must be >= 0, got lam={lam}, mu={mu}")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
