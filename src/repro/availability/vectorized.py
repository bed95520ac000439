"""Trajectory-batched Monte Carlo for the *static* protocols.

The scalar estimators in :mod:`repro.availability.montecarlo` pay Python
interpreter cost per event: draw one holding time, flip one node, poke a
compiled evaluator.  For a static protocol the quorum predicate never
changes, so this module replaces the whole per-event loop with numpy
array passes:

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

The dynamic protocol has no counterpart here: an epoch check moves the
predicate after nearly every event, so batching cannot amortise it and
:func:`~repro.availability.montecarlo.simulate_dynamic_availability`
is the one dynamic estimator.

Estimates agree with the scalar estimator in distribution (same site
model, different RNG streams), and bit-for-bit with themselves across
runs: all draws come from one ``numpy.random.Generator`` derived via
:func:`repro.sim.seeding.derive_generator` from the caller's seed.
"""

from __future__ import annotations

import numpy as np

from repro.availability.montecarlo import (
    AvailabilityEstimate,
    _check_kind,
    _check_model,
)
from repro.coteries.base import CoterieRule
from repro.coteries.batch import pack_matrix
from repro.coteries.grid import GridCoterie
from repro.sim.seeding import derive_generator

__all__ = ["simulate_static_availability_vector"]

#: flip times drawn per node per generation round
DEFAULT_BLOCK = 256


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
    # the scalar estimator's interval accounting, a batch at a time: the
    # interval up to an event gets the flag from before it.  Summing the
    # *down* time keeps a run that is never down at exactly 1.0; the
    # clamp keeps one that is never up from rounding below 0.0.
    down_time = last_time = 0.0
    was_available = bool(kernel(state[None, :])[0])
    n_events = 0
    for times, node_idx in chunks:
        n_events += times.shape[0]
        states = states_after(state, node_idx, n)
        avail = kernel(states)
        if not was_available:
            down_time += float(times[0]) - last_time
        down_time += float(np.dot(~avail[:-1], np.diff(times)))
        last_time, was_available = float(times[-1]), bool(avail[-1])
        state = states[-1].copy()
    if not was_available:
        down_time += horizon - last_time
    unavailability = min(down_time / horizon, 1.0)
    return AvailabilityEstimate(1.0 - unavailability, unavailability,
                                horizon, n_events, 0, 0)


def _check_rates(lam: float, mu: float) -> None:
    if lam <= 0 or mu <= 0:
        raise ValueError("the vector estimator needs lam > 0 and mu > 0 "
                         "(per-node alternating exponential clocks)")


def simulate_static_availability_vector(
        n_nodes: int, lam: float, mu: float, horizon: float, seed: int = 0,
        rule: CoterieRule = GridCoterie, kind: str = "write",
        block: int = DEFAULT_BLOCK) -> AvailabilityEstimate:
    """Vectorized :func:`~repro.availability.montecarlo.simulate_static_availability`."""
    _check_kind(kind)
    _check_model(n_nodes, lam, mu, horizon)
    _check_rates(lam, mu)
    gen = derive_generator(seed, "availability.vector")
    nodes = [f"n{i:03d}" for i in range(n_nodes)]
    chunks = _trajectory_chunks(n_nodes, lam, mu, horizon, gen, block)
    return _run_static(nodes, rule, kind, horizon, chunks)
