"""The five workloads, each as one *sub-run* on a fresh cluster.

A sub-run builds its system, warms it up untimed, runs the timed region,
then checks that what the system produced is correct.  It returns a
:class:`SubRun` of raw measurements; ``bench/report.py`` turns three of
them into metrics.  Only public entry points of ``repro`` are used.

Sizes are stated for ``--seconds 10`` (``scale == 1.0``): the three
sub-runs' timed regions then add up to about ten host seconds on the
2-core box the sizes were measured on.  Work is fixed by the size, not
by a stopwatch, so that every count repeats exactly for a seed.
"""

from __future__ import annotations

import gc
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.availability import (
    exact_dynamic_unavailability,
    grid_write_availability,
    simulate_dynamic_availability,
    simulate_static_availability,
)
from repro.core.config import ProtocolConfig
from repro.core.history import adopt_durable_outcomes, check_replica_invariants
from repro.core.store import ReplicatedStore
from repro.shard.store import ShardedStore
from repro.workloads.generators import (
    ClientWorkload,
    KeyedWorkload,
    ZipfKeyChooser,
    run_keyed_workload,
    run_workload,
)

#: Uniform one-way message delay the stores inject (their default), in
#: simulated seconds.  Simulated latencies reflect this, not a network.
INJECTED_LATENCY = (0.001, 0.01)

WORKLOADS = ("single_item_seq", "sharded_read_heavy",
             "sharded_write_contended", "faulty_epochs", "availability_mc")
STORE_WORKLOADS = WORKLOADS[:4]

#: Site-model rates of the Monte Carlo cells: p = mu / (lam + mu) = 0.95.
LAM, MU = 1.0, 19.0
MC_REL_ERR_LIMIT = 0.10
#: Shortest horizon of the cell the accuracy check rests on, however
#: small the run: below it the estimate's own error nears the limit.
ACCURACY_HORIZON = 3000.0

#: A client that meets a lock conflict or an outage backs off and tries
#: again, doubling its wait.  With the default four retries a few
#: operations in ten thousand give up, and the benchmark's workloads are
#: chosen so that none fails; twelve retries turn every conflict and
#: every outage into latency (the longest seen took 110 simulated
#: seconds, which eight retries would barely have covered).
PATIENT = dict(op_retries=12)

#: Windows per sub-run over which the longest write gap is taken.
GAP_WINDOWS = 8


class GateFailure(AssertionError):
    """A sub-run's outputs were wrong; its workload reports no metrics."""


@dataclass
class SubRun:
    """Raw measurements of one sub-run.

    Times ending in ``_s`` are host seconds; ``*_sim`` lists are
    simulated seconds; ``counts`` are integers that repeat exactly for
    a seed (the traced run must reproduce them).
    """

    setup_s: float = 0.0
    timed_s: float = 0.0
    verify_s: float = 0.0
    attempted: int = 0          # whole sub-run: timed region and probe
    failed: int = 0
    timed_ops: int = 0          # attempted in the timed region alone
    timed_failed: int = 0
    read_sim: list = field(default_factory=list)
    write_sim: list = field(default_factory=list)
    read_wall: list = field(default_factory=list)
    write_wall: list = field(default_factory=list)
    heal_lag_sim: list = field(default_factory=list)
    write_gaps_sim: list = field(default_factory=list)
    mc_events: int = 0
    mc_rel_errs: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)   # host-side layer readings


# -- observing operations from outside ----------------------------------------

class Tap:
    """A store seen through its workload-facing interface, recording
    each operation's result as it completes.

    ``run_workload`` / ``run_keyed_workload`` keep results to
    themselves; the tap appends a callback to each operation's process
    (an :class:`~repro.sim.engine.Event`), which schedules nothing and
    so leaves the simulation exactly as it was.
    """

    def __init__(self, store):
        self._store = store
        self.env = store.env
        self.nodes = store.nodes
        self.polls = {"read": 0, "write": 0}
        self.attempts = {"read": 0, "write": 0}
        self.heavy = 0
        self.ops = 0
        self.commit_times: list[float] = []
        self.inflight: dict[str, int] = {}

    @property
    def node_names(self):
        return self._store.node_names

    def _watch(self, process, kind: str, via: str):
        self.inflight[via] = self.inflight.get(via, 0) + 1

        def finished(event) -> None:
            self.inflight[via] -= 1
            self.saw(kind, event.value)
        process.callbacks.append(finished)
        return process

    def saw(self, kind: str, result) -> None:
        """Account one finished operation."""
        if result is None:      # coordinator crashed under the operation
            return
        self.ops += 1
        self.polls[kind] += result.polls
        self.attempts[kind] += result.attempts
        self.heavy += result.case == "heavy"
        if kind == "write" and result.ok:
            self.commit_times.append(self.env.now)

    def start_read(self, *args, via: str):
        return self._watch(self._store.start_read(*args, via=via),
                           "read", via)

    def start_write(self, *args, via: str):
        return self._watch(self._store.start_write(*args, via=via),
                           "write", via)

    def coordinating(self, name: str) -> bool:
        """True while an operation started through *name* is in flight."""
        return self.inflight.get(name, 0) > 0

    def write_gaps(self, start: float, end: float) -> list:
        """For each of ``GAP_WINDOWS`` equal windows of [start, end], the
        longest interval without a committed write that overlaps it."""
        edges = [start, *(t for t in self.commit_times if t < end), end]
        gaps = list(zip(edges, edges[1:]))
        width = (end - start) / GAP_WINDOWS
        longest = []
        for k in range(GAP_WINDOWS):
            lo, hi = start + k * width, start + (k + 1) * width
            longest.append(max(b - a for a, b in gaps if a < hi and b > lo))
        return longest

    def counts(self) -> dict:
        return {"tap_ops": self.ops, "heavy_ops": self.heavy,
                "read_polls": self.polls["read"],
                "write_polls": self.polls["write"],
                "read_attempts": self.attempts["read"],
                "write_attempts": self.attempts["write"]}


def _sequential(store, tap: Tap, ops, vias, run: SubRun) -> None:
    """Issue *ops* one at a time through the store's synchronous calls,
    timing each call on the host and on the simulated clock."""
    env = store.env
    clock = time.perf_counter
    for i, (kind, args) in enumerate(ops):
        via = vias[i % len(vias)]
        sim0 = env.now
        host0 = clock()
        if kind == "write":
            result = store.write(*args, via=via)
        else:
            result = store.read(*args, via=via)
        host = clock() - host0
        tap.saw(kind, result)
        run.attempted += 1
        if not result.ok:
            run.failed += 1
        elif kind == "write":
            run.write_wall.append(host)
            run.write_sim.append(env.now - sim0)
        else:
            run.read_wall.append(host)
            run.read_sim.append(env.now - sim0)


def _counter_totals(snapshot: dict) -> dict:
    """Metric counters summed over node/link labels, keeping the labels
    that say *what* happened (kind, outcome, reason)."""
    from repro.obs.metrics import split_key
    totals: dict[str, int] = {}
    for key, value in snapshot["counters"].items():
        name, labels = split_key(key)
        if name == "shard_ops":
            continue    # one counter per (shard, kind): the op counts cover it
        for label in ("kind", "outcome", "reason"):
            if label in labels:
                name = f"{name}.{labels[label]}"
        totals[name] = totals.get(name, 0) + value
    return totals


class _Meter:
    """Deltas of the store's public cost counters over the timed region."""

    def __init__(self, store):
        self.store = store
        self.base = self._read()

    def _read(self) -> dict:
        store = self.store
        totals = _counter_totals(store.metrics_snapshot())
        totals["events"] = store.env.events_processed
        totals["messages"] = store.network.messages_sent
        totals["bytes"] = store.network.bytes_sent
        return totals

    def delta(self) -> dict:
        now = self._read()
        return {name: value - self.base.get(name, 0)
                for name, value in sorted(now.items())}


def _heal_lags(store) -> list:
    hist = store.metrics_snapshot()["histograms"].get("stale_heal_lag")
    return hist["samples"] if hist else []


def _retained_samples(store) -> int:
    return sum(h["count"] for h in
               store.metrics_snapshot()["histograms"].values())


def _gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


# -- single_item_seq ------------------------------------------------------------

def _mixed_ops(rng: random.Random, n_ops: int, n_keys: int,
               read_fraction: float, keyed: bool) -> list:
    """A seeded read/write sequence with Zipf(1.0) key choice.  Keyed
    stores address a key per operation; the single-item store's reads
    return the whole object and its writes are partial updates."""
    keys = ZipfKeyChooser(n_keys, 1.0)
    ops = []
    for i in range(n_ops):
        key = keys.pick(rng)
        if rng.random() < read_fraction:
            ops.append(("read", (key,) if keyed else ()))
        else:
            ops.append(("write", (key, {"v": i}) if keyed else ({key: i},)))
    return ops


def single_item_seq(seed: int, scale: float, index: int = 0,
                    metrics: bool = True,
                    region: Callable = nullcontext) -> SubRun:
    """The paper's protocol with nothing in the way: one client, one op
    at a time over four coordinators, healthy 9-node dynamic grid."""
    del index
    host0 = time.perf_counter()
    run = SubRun()
    n_ops = max(200, round(2600 * scale))
    warm = n_ops // 20
    store = ReplicatedStore.create(9, seed=seed, metrics=metrics)
    vias = store.node_names[:4]
    ops = _mixed_ops(random.Random(seed), warm + n_ops, 64, 0.5, keyed=False)
    _sequential(store, Tap(store), ops[:warm], vias, SubRun())
    tap = Tap(store)
    gc.collect()
    meter = _Meter(store)
    lags_before = len(_heal_lags(store))
    sim0 = store.env.now
    host1 = time.perf_counter()
    with region():
        _sequential(store, tap, ops[warm:], vias, run)
    host2 = time.perf_counter()
    run.counts = {**meter.delta(), **tap.counts()}
    run.heal_lag_sim = _heal_lags(store)[lags_before:]
    run.timed_ops, run.timed_failed = run.attempted, run.failed
    run.extra["sim_seconds"] = store.env.now - sim0
    run.write_gaps_sim = tap.write_gaps(sim0, store.env.now)
    store.verify()
    host3 = time.perf_counter()
    run.counts["history_records"] = len(store.history)
    run.extra["samples_retained"] = _retained_samples(store)
    run.setup_s, run.timed_s, run.verify_s = (
        host1 - host0, host2 - host1, host3 - host2)
    return run


# -- sharded workloads -----------------------------------------------------------

PROBE_OPS = 400


def _sharded(seed: int, metrics: bool, region: Callable, *, n_ops: int,
             n_keys: int, skew: float, n_clients: int, read_fraction: float,
             track_history: bool) -> SubRun:
    host0 = time.perf_counter()
    run = SubRun()
    store = ShardedStore.create(6, n_shards=1024, replication=3, seed=seed,
                                metrics=metrics, track_history=track_history,
                                config=ProtocolConfig(**PATIENT))
    load = dict(n_keys=n_keys, n_clients=n_clients, key_skew=skew,
                read_fraction=read_fraction)
    run_keyed_workload(store, KeyedWorkload(n_ops=n_ops // 20, **load),
                       seed=seed + 7919)
    tap = Tap(store)
    gc.collect()
    meter = _Meter(store)
    sim0 = store.env.now
    host1 = time.perf_counter()
    with region():
        stats = run_keyed_workload(tap, KeyedWorkload(n_ops=n_ops, **load),
                                   seed=seed)
    host2 = time.perf_counter()
    run.counts = {**meter.delta(), **tap.counts()}
    run.extra["sim_seconds"] = store.env.now - sim0
    run.write_gaps_sim = tap.write_gaps(sim0, store.env.now)
    run.attempted = run.timed_ops = stats.operations
    run.failed = run.timed_failed = stats.reads_failed + stats.writes_failed
    run.read_sim, run.write_sim = stats.read_latencies, stats.write_latencies

    # one synchronous call at a time on the loaded store: host cost per call
    probe = _mixed_ops(random.Random(seed + 1), PROBE_OPS, n_keys, 0.5,
                       keyed=True)
    probed = SubRun()
    _sequential(store, Tap(store), probe, store.node_names[:4], probed)
    run.read_wall, run.write_wall = probed.read_wall, probed.write_wall
    run.attempted += probed.attempted
    run.failed += probed.failed

    # let propagation and lock leases drain, then one batched epoch sweep
    # on a quiet cluster: its cost must stay one request per node
    store.advance(2 * store.config.lock_lease)
    quiet = _Meter(store)
    host3 = time.perf_counter()
    sweep = store.sweep()
    host4 = time.perf_counter()
    run.extra["sweep_wall_s"] = host4 - host3
    run.counts["sweep_rpc_requests"] = quiet.delta()["rpc_attempts"] \
        if metrics else 0
    store.advance(2 * store.config.lock_lease)
    host4 = time.perf_counter()
    live_locks = store.live_locks()
    longest_log = store.max_update_log()
    checked = store.verify()
    # with history off this is the only check of values: every key the
    # probe wrote must read back as the probe last wrote it
    last_written = {args[0]: args[1] for kind, args in probe
                    if kind == "write"}
    misread = [key for key, value in last_written.items()
               if store.read(key).value != value]
    host5 = time.perf_counter()
    capacity = store.config.update_log_capacity
    _gate(sweep.ok, f"sweep failed: {sweep.reason}")
    _gate(live_locks == 0, f"{live_locks} locks still resident")
    _gate(longest_log <= capacity,
          f"update log of {longest_log} exceeds capacity {capacity}")
    _gate(not misread, f"keys read back wrong: {misread[:5]}")
    run.counts.update(live_locks_after=live_locks, max_update_log=longest_log,
                      resident_items=store.resident_items(),
                      history_records=sum(checked.values()))
    run.extra["samples_retained"] = _retained_samples(store)
    run.setup_s, run.timed_s = host1 - host0, host2 - host1
    run.verify_s = host5 - host4
    return run


def sharded_read_heavy(seed: int, scale: float, index: int = 0,
                       metrics: bool = True,
                       region: Callable = nullcontext) -> SubRun:
    """The store that scales: 10^5 keys, nine reads to a write, history
    off.  Eight clients keep the hot keys' lock queues short, so the
    tail is the read path's own and not a convoy behind one lock."""
    del index
    return _sharded(seed, metrics, region,
                    n_ops=max(320, round(10000 * scale)), n_keys=100_000,
                    skew=1.0, n_clients=8, read_fraction=0.9,
                    track_history=False)


def sharded_write_contended(seed: int, scale: float, index: int = 0,
                            metrics: bool = True,
                            region: Callable = nullcontext) -> SubRun:
    """The same stack with writers beside readers on few, hot keys: a
    fifth of all operations go to one key, half of them writes."""
    del index
    return _sharded(seed, metrics, region,
                    n_ops=max(320, round(5000 * scale)), n_keys=2000,
                    skew=1.1, n_clients=12, read_fraction=0.5,
                    track_history=True)


# -- faulty_epochs ---------------------------------------------------------------

#: Mean simulated seconds between fault episodes, and how long one lasts.
EPISODE_EVERY = 22.0
EPISODE_DOWN = (15.0, 45.0)
MAX_DOWN = 3
#: The fault script is part of the workload, like the cluster size: one
#: fixed script per sub-run index, whatever ``--seed`` says.  The seed
#: drives the clients, the keys and the network.
SCRIPT_SEED = 1992


def _arm_faults(store, tap: Tap, rng: random.Random, start: float,
                duration: float) -> int:
    """Script crash/recover episodes, every fifth one a two-node
    partition, over ``[start, start + duration)``; returns how many.

    Times come from *rng* alone.  The victim is drawn when the episode
    fires, among nodes that are up and not coordinating a client
    operation at that instant: a client whose coordinator dies under it
    sees a failed operation, and the benchmark's workloads are chosen
    so that none fails.
    """
    schedule = store.schedule()
    down: set[str] = set()
    episode = 0
    at = start + rng.uniform(0.25, 0.75) * EPISODE_EVERY
    while at < start + duration - EPISODE_DOWN[1]:
        length = rng.uniform(*EPISODE_DOWN)
        pick = rng.random()
        split = episode % 5 == 4

        def begin(length=length, pick=pick, split=split) -> None:
            able = [name for name in store.node_names
                    if name not in down and not tap.coordinating(name)]
            want = 2 if split else 1
            if len(able) < want or len(down) + want > MAX_DOWN:
                return
            first = int(pick * len(able))
            victims = [able[(first + k) % len(able)] for k in range(want)]
            down.update(victims)
            if split:
                store.partition(victims)
            else:
                store.crash(*victims)

            def end() -> None:
                if split:
                    store.heal()
                else:
                    store.recover(*victims)
                down.difference_update(victims)
            store.env.schedule(end, delay=length)

        schedule.at(at, begin, label=f"episode {episode}")
        episode += 1
        at += rng.uniform(0.5, 1.5) * EPISODE_EVERY
    schedule.start()
    return episode


def faulty_epochs(seed: int, scale: float, index: int = 0,
                  metrics: bool = True,
                  region: Callable = nullcontext) -> SubRun:
    """The paper's contribution: epoch checking, election, stale marking
    and propagation under accumulating crashes and partitions."""
    host0 = time.perf_counter()
    run = SubRun()
    duration = max(150.0, 1000.0 * scale)
    config = ProtocolConfig(epoch_check_interval=4.0,
                            epoch_check_staleness=10.0,
                            update_log_capacity=4096, **PATIENT)
    store = ReplicatedStore.create(9, seed=seed, config=config,
                                   auto_epoch_check=True, metrics=metrics)
    load = dict(n_clients=2, read_fraction=0.7, think_time=0.5, n_keys=64,
                rehome=True)
    run_workload(store, ClientWorkload(duration=duration / 20, **load),
                 seed=seed + 7919)
    tap = Tap(store)
    episodes = _arm_faults(store, tap, random.Random(SCRIPT_SEED + index),
                           store.env.now, duration)
    gc.collect()
    meter = _Meter(store)
    lags_before = len(_heal_lags(store))
    sim0 = store.env.now
    host1 = time.perf_counter()
    with region():
        stats = run_workload(tap, ClientWorkload(duration=duration, **load),
                             seed=seed)
    host2 = time.perf_counter()
    run.counts = {**meter.delta(), **tap.counts(), "episodes": episodes,
                  "rehomes": stats.rehomes}
    run.extra["sim_seconds"] = store.env.now - sim0
    run.write_gaps_sim = tap.write_gaps(sim0, sim0 + duration)
    run.heal_lag_sim = _heal_lags(store)[lags_before:]
    run.attempted = run.timed_ops = stats.operations
    run.failed = run.timed_failed = stats.reads_failed + stats.writes_failed
    run.read_sim, run.write_sim = stats.read_latencies, stats.write_latencies

    # every fault has ended by now (episodes end before the load does)
    store.heal()
    store.recover(*store.node_names)
    checked = store.check_epoch()
    store.settle()
    unhealed = store.stale_replicas()
    probe = _mixed_ops(random.Random(seed + 1), PROBE_OPS, 64, 0.5,
                       keyed=False)
    probed = SubRun()
    _sequential(store, Tap(store), probe, store.node_names[:4], probed)
    run.read_wall, run.write_wall = probed.read_wall, probed.write_wall
    run.attempted += probed.attempted
    run.failed += probed.failed
    store.settle()

    host3 = time.perf_counter()
    adopted = adopt_durable_outcomes(store.history, store.servers.values())
    store.verify()
    check_replica_invariants(store.servers.values(), store.history,
                             store.initial_value)
    host4 = time.perf_counter()
    _gate(checked.ok, f"final epoch check failed: {checked.reason}")
    run.counts.update(adopted_writes=len(adopted),
                      stale_after_settle=len(unhealed),
                      history_records=len(store.history))
    run.extra["samples_retained"] = _retained_samples(store)
    run.setup_s, run.timed_s, run.verify_s = (
        host1 - host0, host2 - host1, host4 - host3)
    return run


# -- availability_mc -------------------------------------------------------------

def _mc_cells(scale: float, seed: int, pinned: int) -> list:
    """Section 6 through the default entry points and default engine.

    The two cells that carry the accuracy check take a pinned seed: a
    relative error is a random magnitude whose seed-to-seed spread is
    of the order of the error itself, so a seeded one could be held to
    no bound.  The other three follow ``--seed``.
    """
    def static(n, horizon, s):
        return lambda h=horizon * scale: simulate_static_availability(
            n, LAM, MU, h, seed=s)

    def dynamic(n, horizon, s, **options):
        return lambda h=horizon * scale: simulate_dynamic_availability(
            n, LAM, MU, h, seed=s, **options)

    return [("static_grid25", static(25, 5e3, pinned)),
            ("dynamic_grid9", dynamic(9, 5e3, seed)),
            ("dynamic_grid25", dynamic(25, 1.25e3, seed)),
            ("dynamic_grid9_interval", dynamic(9, 5e3, seed,
                                               check_interval=0.05)),
            ("dynamic_grid6", dynamic(6, max(1e4, ACCURACY_HORIZON / scale),
                                      pinned))]


def mc_references() -> tuple[float, float]:
    """What the two accuracy cells are held against: the closed-form
    static grid-25 write availability and the exact dynamic grid-6
    unavailability."""
    return (grid_write_availability(5, 5, MU / (LAM + MU)),
            exact_dynamic_unavailability(6, LAM, MU))


def availability_mc(seed: int, scale: float, index: int = 0,
                    metrics: bool = True, region: Callable = nullcontext,
                    references: Optional[tuple] = None) -> SubRun:
    """Section 6's availability analysis; no ``sim``/``core``/``shard``.

    *references* spares a caller that runs this as a companion the
    cost of solving the exact chain once per sub-run."""
    del metrics     # no metrics registry on this path
    host0 = time.perf_counter()
    run = SubRun()
    cells = _mc_cells(scale, seed, pinned=index + 1)
    for _name, cell in cells:
        cell(h=20.0)                # compile caches, lazy imports
    gc.collect()
    host1 = time.perf_counter()
    estimates = {}
    with region():
        for name, cell in cells:
            estimates[name] = cell()
    host2 = time.perf_counter()
    run.mc_events = sum(e.n_events for e in estimates.values())
    run.attempted = len(cells)
    run.counts = {f"{name}_events": e.n_events
                  for name, e in estimates.items()}
    run.counts["epoch_changes"] = sum(
        e.n_epoch_changes for e in estimates.values())

    static, dynamic = references or mc_references()
    run.mc_rel_errs = [
        abs(estimates["static_grid25"].availability - static) / static,
        abs(estimates["dynamic_grid6"].unavailability - dynamic) / dynamic]
    host3 = time.perf_counter()
    _gate(max(run.mc_rel_errs) <= MC_REL_ERR_LIMIT,
          f"Monte Carlo off its reference by {max(run.mc_rel_errs):.3f}")
    run.setup_s, run.timed_s, run.verify_s = (
        host1 - host0, host2 - host1, host3 - host2)
    return run


SUBRUNS = {"single_item_seq": single_item_seq,
           "sharded_read_heavy": sharded_read_heavy,
           "sharded_write_contended": sharded_write_contended,
           "faulty_epochs": faulty_epochs,
           "availability_mc": availability_mc}
