"""Trajectory-batched Monte Carlo availability (the ``vector`` engine).

The scalar estimators in :mod:`repro.availability.montecarlo` pay Python
interpreter cost per event: draw one holding time, flip one node, poke a
compiled evaluator.  This module replaces the whole per-event loop with
numpy array passes:

* **Trajectory generation** -- the site model is a superposition of
  independent per-node alternating renewal processes (up-times
  ``Exp(lam)``, down-times ``Exp(mu)``), so whole blocks of flip times
  are drawn per node with one ``standard_exponential`` call and merged
  in time order.  Only events below the *safe horizon* -- the earliest
  per-node frontier -- are emitted per round, so the merged stream is
  globally time-sorted.  This is exact in distribution: it is the same
  process Gillespie sampling draws one event at a time.
* **State construction** -- flips become up/down state matrices via a
  cumulative per-node flip parity (prefix XOR), one ``(events, nodes)``
  boolean matrix per chunk -- or, for families with packed kernels
  (grid, unit-weight voting), one ``(events, W)`` packed uint64 word
  matrix at 1/8th the memory traffic.
* **Scoring** -- quorum membership for the whole chunk is one
  :class:`~repro.coteries.batch.BatchEvaluator` kernel call.

The static estimator is a straight chunk pipeline.  The dynamic
estimator must respect epoch transitions (a successful check rebinds
the epoch to the up-set, changing the predicate for every later event),
so it scores with a doubling *window* scan: evaluate a window of events
under the current epoch, find the first successful check whose up-set
differs from the epoch (exactly the scalar estimator's transition
condition), keep the prefix, install the new epoch, and continue after
the transition.  Between transitions whole runs of events are scored in
one call; across a transition boundary the window shrinks, which is the
scalar-fallback granularity.  In transition-dense regimes (large N with
instantaneous checks, where nearly every event moves the epoch) the
window floor keeps the scan correct but the scalar bitmask engine may
be faster; the vector engine's headroom is in static scoring and
sparse-transition dynamic runs (finite ``check_interval``).

Estimates agree with the scalar engines in distribution (same site
model, different RNG streams), and bit-for-bit with themselves across
runs: all draws come from one ``numpy.random.Generator`` derived via
:func:`repro.sim.seeding.derive_generator` from the caller's seed.

``idealized=True`` is not supported here -- the Figure 3 idealisation
is a scalar validation aid; use ``engine="bitmask"``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.availability.montecarlo import (
    EPOCH_CACHE_SIZE,
    AvailabilityEstimate,
    _check_horizon,
    _check_kind,
)
from repro.coteries.base import CoterieRule
from repro.coteries.batch import pack_bits, pack_matrix
from repro.coteries.grid import GridCoterie
from repro.sim.seeding import derive_generator

__all__ = [
    "simulate_static_availability_vector",
    "simulate_dynamic_availability_vector",
]

#: flip times drawn per node per generation round
DEFAULT_BLOCK = 256

# dynamic window-scan bounds: start small after a transition, double on
# transition-free windows up to a cap that keeps chunk slices cache-sized
_MIN_WINDOW = 8
_MAX_WINDOW = 1 << 15


def _trajectory_chunks(n_nodes: int, lam: float, mu: float, horizon: float,
                       gen, block: int = DEFAULT_BLOCK):
    """Yield globally time-sorted ``(times, node_indices)`` flip chunks.

    Per round, *block* holding times are drawn for every node and turned
    into absolute flip times; events earlier than every node's frontier
    (the safe horizon) are complete -- no later draw can precede them --
    and are emitted sorted.  The remainder stays pending for the next
    round.  All nodes start up; a node's k-th flip toggles its state.
    """
    last = np.zeros(n_nodes)
    parity = np.zeros(n_nodes, dtype=np.int64)
    pend_t = np.empty(0)
    pend_v = np.empty(0, dtype=np.int64)
    scale_up = 1.0 / lam   # mean up-time before a failure flip
    scale_down = 1.0 / mu  # mean down-time before a repair flip
    cols = np.arange(block)
    node_col = np.repeat(np.arange(n_nodes), block)
    while True:
        draws = gen.standard_exponential((n_nodes, block))
        down = (cols[None, :] + parity[:, None]) % 2 == 1
        times = last[:, None] + np.cumsum(
            draws * np.where(down, scale_down, scale_up), axis=1)
        last = times[:, -1].copy()
        parity += block
        t = np.concatenate([pend_t, times.reshape(-1)])
        v = np.concatenate([pend_v, node_col])
        t_safe = last.min()
        final = t_safe >= horizon
        emit = t < (horizon if final else t_safe)
        if emit.any():
            order = np.argsort(t[emit], kind="stable")
            yield t[emit][order], v[emit][order]
        if final:
            return
        keep = ~emit
        pend_t, pend_v = t[keep], v[keep]


def _states_after(state: np.ndarray, node_idx: np.ndarray,
                  n_nodes: int) -> np.ndarray:
    """``(k, n)`` bool up-states after each flip, starting from *state*."""
    k = node_idx.shape[0]
    # transposed build: the prefix sum runs along the contiguous axis,
    # and uint8 wraparound (mod 256, even) preserves flip parity
    delta = np.zeros((n_nodes, k), dtype=np.uint8)
    delta[node_idx, np.arange(k)] = 1
    parity = np.cumsum(delta, axis=1, dtype=np.uint8)
    return state[None, :] ^ ((parity & 1) == 1).T


def _words_after(state_words: np.ndarray, node_idx: np.ndarray,
                 n_nodes: int) -> np.ndarray:
    """``(k, W)`` packed uint64 up-states after each flip.

    The packed twin of :func:`_states_after`: one-bit word deltas,
    prefix XOR along the contiguous axis, then XOR with the carried-in
    state words.  Feeds ``supports_packed`` evaluators directly.
    """
    k = node_idx.shape[0]
    n_w = state_words.shape[0]
    delta = np.zeros((n_w, k), dtype=np.uint64)
    delta[node_idx >> 6, np.arange(k)] = (
        np.uint64(1) << (node_idx.astype(np.uint64) & np.uint64(63)))
    parity = np.bitwise_xor.accumulate(delta, axis=1)
    return (parity ^ state_words[:, None]).T


class _Accounting:
    """The scalar estimators' interval accounting, over event batches.

    Mirrors ``account(now, now_available)`` exactly: the interval from
    the previous boundary gets the *previous* availability flag, and a
    stuck period starts whenever availability goes True -> False.
    """

    def __init__(self) -> None:
        self.available_time = 0.0
        self.last_time = 0.0
        self.was_available = True
        self.n_stuck = 0

    def events(self, times: np.ndarray, avail: np.ndarray) -> None:
        """Account a sorted batch of events with post-event flags."""
        if self.was_available:
            self.available_time += times[0] - self.last_time
        if times.shape[0] > 1:
            self.available_time += float(
                np.dot(avail[:-1].astype(float), np.diff(times)))
        seq = np.concatenate(([self.was_available], avail))
        self.n_stuck += int(np.count_nonzero(seq[:-1] & ~seq[1:]))
        self.last_time = float(times[-1])
        self.was_available = bool(avail[-1])

    def boundary(self, now: float, now_available: bool) -> None:
        """Account one scalar boundary (a periodic check)."""
        if self.was_available:
            self.available_time += now - self.last_time
            if not now_available:
                self.n_stuck += 1
        self.last_time, self.was_available = now, now_available

    def finish(self, horizon: float) -> float:
        if self.was_available:
            self.available_time += horizon - self.last_time
        return self.available_time / horizon


class _VectorEpochState:
    """Dynamic epoch state over batch evaluators.

    The epoch is a boolean member vector over the universe; its coterie
    is compiled to a :class:`BatchEvaluator` whose kernels ignore bits
    outside the epoch.  Epoch changes mirror the scalar estimator's:
    rebind in place for uniform families,
    otherwise an LRU cache of compiled epoch evaluators keyed by the
    member bitmask.
    """

    def __init__(self, nodes, rule: CoterieRule,
                 cache_size: int = EPOCH_CACHE_SIZE):
        self.nodes = tuple(nodes)
        self.rule = rule
        n = len(self.nodes)
        self.full_mask = (1 << n) - 1
        self.n_epoch_changes = 0
        self._cache: OrderedDict = OrderedDict()
        self._cache_size = cache_size
        self.epoch_bits = np.ones(n, dtype=bool)
        self.evaluator = self._evaluator_for(self.full_mask)
        self._rebind = self.evaluator.supports_rebind

    def _evaluator_for(self, epoch_mask: int):
        cache = self._cache
        evaluator = cache.get(epoch_mask)
        if evaluator is None:
            epoch = tuple(name for i, name in enumerate(self.nodes)
                          if epoch_mask >> i & 1)
            evaluator = self.rule(epoch).compile_batch(self.nodes)
            cache[epoch_mask] = evaluator
            if len(cache) > self._cache_size:
                cache.popitem(last=False)
        else:
            cache.move_to_end(epoch_mask)
        return evaluator

    def install(self, state_bits: np.ndarray) -> None:
        """Make the up-set *state_bits* the new epoch."""
        mask = pack_bits(state_bits[None, :])[0]
        if self._rebind:
            self.evaluator.rebind_epoch(mask)
        else:
            self.evaluator = self._evaluator_for(mask)
        self.epoch_bits = state_bits.copy()
        self.n_epoch_changes += 1

    def run_check(self, state_bits: np.ndarray) -> bool:
        """One epoch check against up-set *state_bits*; returns success."""
        if not bool(self.evaluator.write_bits(state_bits[None, :])[0]):
            return False
        if (state_bits != self.epoch_bits).any():
            self.install(state_bits)
        return True

    def available(self, state_bits: np.ndarray, kind: str) -> bool:
        kernel = (self.evaluator.write_bits if kind == "write"
                  else self.evaluator.read_bits)
        return bool(kernel(state_bits[None, :])[0])

    def span_avail(self, states: np.ndarray, kind: str) -> np.ndarray:
        """Post-event availability for events under a *frozen* epoch."""
        kernel = (self.evaluator.write_bits if kind == "write"
                  else self.evaluator.read_bits)
        return kernel(states)


def _score_instant(es: _VectorEpochState, states: np.ndarray,
                   kind: str) -> np.ndarray:
    """Post-event availability with an instantaneous check per event.

    Window scan: score a window under the current epoch, locate the
    first epoch *transition* (check success with up-set != epoch -- the
    only case where the predicate changes), keep the prefix, install
    the new epoch, resume after it.  With instantaneous checks, write
    availability coincides with check success; read availability is
    ``success OR read-quorum over the (pre-check) epoch``, and a
    transition always leaves the protocol available (the new epoch is
    exactly the up-set).
    """
    k = states.shape[0]
    avail = np.empty(k, dtype=bool)
    i = 0
    window = 64
    while i < k:
        j = min(i + window, k)
        sub = states[i:j]
        succ = es.evaluator.write_bits(sub)
        changed = (sub != es.epoch_bits).any(axis=1)
        hits = np.flatnonzero(succ & changed)
        if hits.size == 0:
            if kind == "write":
                avail[i:j] = succ
            else:
                avail[i:j] = succ | es.evaluator.read_bits(sub)
            i = j
            window = min(window * 2, _MAX_WINDOW)
        else:
            t = int(hits[0])
            if kind == "write":
                avail[i:i + t + 1] = succ[:t + 1]
            else:
                if t:
                    avail[i:i + t] = succ[:t] | es.evaluator.read_bits(sub[:t])
                avail[i + t] = True
            es.install(sub[t])
            i += t + 1
            # next run is probably about as long as the one just ended
            window = min(max(_MIN_WINDOW, 2 * (t + 1)), _MAX_WINDOW)
    return avail


def _run_static(nodes, rule: CoterieRule, kind: str, horizon: float,
                chunks) -> AvailabilityEstimate:
    n = len(nodes)
    evaluator = rule(nodes).compile_batch(nodes)
    if evaluator.supports_packed:
        # grid / unit-weight voting: packed-word states feed the
        # popcount-free kernels at 1/8th the bit-matrix traffic
        kernel = (evaluator.write_packed if kind == "write"
                  else evaluator.read_packed)
        state = pack_matrix(np.ones((1, n), dtype=bool))[0]
        states_after = _words_after
    else:
        kernel = (evaluator.write_bits if kind == "write"
                  else evaluator.read_bits)
        state = np.ones(n, dtype=bool)
        states_after = _states_after
    acct = _Accounting()
    acct.was_available = bool(kernel(state[None, :])[0])
    n_events = 0
    for times, node_idx in chunks:
        n_events += times.shape[0]
        states = states_after(state, node_idx, n)
        acct.events(times, kernel(states))
        state = states[-1].copy()
    availability = acct.finish(horizon)
    return AvailabilityEstimate(availability, 1.0 - availability, horizon,
                                n_events, 0, 0)


def _run_dynamic(nodes, rule: CoterieRule, kind: str, horizon: float,
                 check_interval: Optional[float],
                 chunks) -> AvailabilityEstimate:
    n = len(nodes)
    es = _VectorEpochState(nodes, rule)
    acct = _Accounting()
    state = np.ones(n, dtype=bool)
    n_events = 0
    next_check = check_interval
    for times, node_idx in chunks:
        k = times.shape[0]
        n_events += k
        states = _states_after(state, node_idx, n)
        if check_interval is None:
            acct.events(times, _score_instant(es, states, kind))
        else:
            # periodic checks freeze the epoch between boundaries, so
            # each inter-check span scores as one kernel call
            lo = 0
            while next_check <= times[-1]:
                hi = int(np.searchsorted(times, next_check, side="left"))
                if hi > lo:
                    acct.events(times[lo:hi],
                                es.span_avail(states[lo:hi], kind))
                    lo = hi
                at_check = states[hi - 1] if hi > 0 else state
                es.run_check(at_check)
                acct.boundary(next_check, es.available(at_check, kind))
                next_check += check_interval
            if lo < k:
                acct.events(times[lo:], es.span_avail(states[lo:], kind))
        state = states[-1].copy()
    if check_interval is not None:
        while next_check < horizon:
            es.run_check(state)
            acct.boundary(next_check, es.available(state, kind))
            next_check += check_interval
    availability = acct.finish(horizon)
    return AvailabilityEstimate(availability, 1.0 - availability, horizon,
                                n_events, es.n_epoch_changes, acct.n_stuck)


def _check_rates(lam: float, mu: float) -> None:
    if lam <= 0 or mu <= 0:
        raise ValueError("the vector engine needs lam > 0 and mu > 0 "
                         "(per-node alternating exponential clocks)")


def simulate_static_availability_vector(
        n_nodes: int, lam: float, mu: float, horizon: float, seed: int = 0,
        rule: CoterieRule = GridCoterie, kind: str = "write",
        block: int = DEFAULT_BLOCK) -> AvailabilityEstimate:
    """Vectorized :func:`~repro.availability.montecarlo.simulate_static_availability`."""
    _check_kind(kind)
    _check_horizon(horizon)
    _check_rates(lam, mu)
    gen = derive_generator(seed, "availability.vector")
    nodes = [f"n{i:03d}" for i in range(n_nodes)]
    chunks = _trajectory_chunks(n_nodes, lam, mu, horizon, gen, block)
    return _run_static(nodes, rule, kind, horizon, chunks)


def simulate_dynamic_availability_vector(
        n_nodes: int, lam: float, mu: float, horizon: float, seed: int = 0,
        rule: CoterieRule = GridCoterie, idealized: bool = False,
        check_interval: Optional[float] = None, kind: str = "write",
        block: int = DEFAULT_BLOCK) -> AvailabilityEstimate:
    """Vectorized :func:`~repro.availability.montecarlo.simulate_dynamic_availability`."""
    _check_kind(kind)
    _check_horizon(horizon)
    _check_rates(lam, mu)
    if idealized:
        raise ValueError("idealized mode is only supported by the scalar "
                         "engines (engine='bitmask' or 'set')")
    if check_interval is not None and check_interval <= 0:
        raise ValueError("check_interval must be positive")
    gen = derive_generator(seed, "availability.vector")
    nodes = [f"n{i:03d}" for i in range(n_nodes)]
    chunks = _trajectory_chunks(n_nodes, lam, mu, horizon, gen, block)
    return _run_dynamic(nodes, rule, kind, horizon, check_interval, chunks)
