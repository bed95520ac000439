"""From three sub-runs to the declared metrics.

``END_TO_END`` and ``PER_LAYER`` are the benchmark's declarations;
``BENCHMARK.json`` repeats them (a test holds the two together).

Two kinds of number are kept apart.  **sim** metrics describe what the
modelled protocol costs a client: they repeat to the last digit for a
seed, and are *pooled* over the three sub-runs.  **host** metrics time
the simulator on this machine and are noisy in one direction: the
boxes this runs on slow down by 20-60 % for seconds at a time, a third
of the time, and never speed up.  Each host metric is therefore the
*fastest* of the three sub-runs, which repeats two to three times
better than their median; set-up time alone is their median.
"""

from __future__ import annotations

import math
import resource
from statistics import median
from typing import NamedTuple, Optional, Sequence

from bench.stats import percentile
from bench.workloads import SubRun


class Metric(NamedTuple):
    name: str
    unit: str
    better: str                  # "lower" | "higher"
    bound: Optional[float]       # share of the parent's median; end-to-end only
    kind: str                    # "host" | "sim"
    what: str
    moves: str = ""              # per-layer only: the end-to-end metric it should move


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, "host",
           "imports, cluster build, workload generation and warm-up, up "
           "to the start of the timed region"),
    Metric("ops_per_s", "1/s", "higher", 0.25, "host",
           "client operations completed per host second of the timed region"),
    Metric("read_wall_us_p50", "us", "lower", 0.25, "host",
           "host time of one synchronous store.read() call"),
    Metric("write_wall_us_p50", "us", "lower", 0.25, "host",
           "host time of one synchronous store.write() call"),
    Metric("verify_s", "s", "lower", 0.25, "host",
           "adoption, one-copy-serializability checker and invariants"),
    Metric("peak_rss_mb", "MB", "lower", 0.10, "host",
           "ru_maxrss of the workload's process"),
    Metric("failed_share", "share", "lower", 0.25, "sim",
           "(failed + 0.5) / (attempted + 1) operations"),
    Metric("sim_read_ms_p50", "ms", "lower", 0.05, "sim",
           "simulated client latency of a read"),
    Metric("sim_write_ms_p50", "ms", "lower", 0.05, "sim",
           "simulated client latency of a write"),
    Metric("sim_read_ms_p99", "ms", "lower", 0.25, "sim",
           "simulated client latency of a read"),
    Metric("sim_write_ms_p99", "ms", "lower", 0.25, "sim",
           "simulated client latency of a write"),
    Metric("msgs_per_op", "count", "lower", 0.10, "sim",
           "network messages sent per completed operation, epoch and "
           "propagation traffic included"),
    Metric("bytes_per_op", "count", "lower", 0.10, "sim",
           "payload bytes sent per completed operation"),
    Metric("sim_write_outage_s_max", "s", "lower", 0.25, "sim",
           "longest simulated gap between committed writes, per window"),
    Metric("mc_events_per_s", "1/s", "higher", 0.25, "host",
           "site-model events over the five cells per host second"),
    Metric("mc_rel_err", "share", "lower", 0.25, "sim",
           "largest |Monte Carlo - reference| / reference"),
)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _p(samples: Sequence[float], q: float, missing: int, scale: float) -> dict:
    got = percentile(samples, q, missing=missing, strict=True)
    return {"value": got.value * scale, "n": got.n}


def end_to_end(store: Sequence[SubRun], mc: Sequence[SubRun],
               import_s: float, setup: Sequence[SubRun]) -> dict:
    """The sixteen end-to-end metrics as ``{name: {"value", "n"}}``.

    *store* are the three sub-runs that drove a store and *mc* the
    three that ran the Monte Carlo cells (one of the two is the
    workload's own, the other its companion); *setup* is the
    workload's own.
    """
    attempted = sum(r.attempted for r in store)
    failed = sum(r.failed for r in store)
    timed_failed = sum(r.timed_failed for r in store)
    done = sum(r.timed_ops for r in store) - timed_failed
    reads = [x for r in store for x in r.read_sim]
    writes = [x for r in store for x in r.write_sim]
    gaps = [x for r in store for x in r.write_gaps_sim]
    # failures are not split by kind from outside; charging all of them
    # to each kind keeps a failed operation from ever shortening a tail
    out = {
        "setup_s": {"value": import_s + median([r.setup_s for r in setup]),
                    "n": len(setup)},
        "ops_per_s": {"value": max(
            (r.timed_ops - r.timed_failed) / r.timed_s for r in store),
            "n": len(store)},
        "read_wall_us_p50": {"value": min(
            median(r.read_wall) for r in store) * 1e6,
            "n": min(len(r.read_wall) for r in store)},
        "write_wall_us_p50": {"value": min(
            median(r.write_wall) for r in store) * 1e6,
            "n": min(len(r.write_wall) for r in store)},
        "verify_s": {"value": min(r.verify_s for r in setup),
                     "n": len(setup)},
        "peak_rss_mb": {"value": peak_rss_mb(), "n": 1},
        "failed_share": {"value": (failed + 0.5) / (attempted + 1),
                         "n": attempted},
        "sim_read_ms_p50": _p(reads, 0.50, timed_failed, 1e3),
        "sim_write_ms_p50": _p(writes, 0.50, timed_failed, 1e3),
        "sim_read_ms_p99": _p(reads, 0.99, timed_failed, 1e3),
        "sim_write_ms_p99": _p(writes, 0.99, timed_failed, 1e3),
        "msgs_per_op": {"value": sum(r.counts["messages"] for r in store)
                        / done, "n": done},
        "bytes_per_op": {"value": sum(r.counts["bytes"] for r in store)
                         / done, "n": done},
        "sim_write_outage_s_max": {"value": median(gaps), "n": len(gaps)},
        "mc_events_per_s": {"value": max(
            r.mc_events / r.timed_s for r in mc), "n": len(mc)},
        "mc_rel_err": {"value": max(e for r in mc for e in r.mc_rel_errs),
                       "n": sum(len(r.mc_rel_errs) for r in mc)},
    }
    for name, body in out.items():
        if not math.isfinite(body["value"]):
            raise ValueError(f"{name} is not finite: too many operations "
                             "failed for the percentile to exist")
    return out


# -- per-layer metrics -----------------------------------------------------------

def _layer(name, unit, better, kind, moves, what=""):
    return Metric(name, unit, better, None, kind, what, moves)


#: ``<package>.<module>.<metric>``.  *count* readings come from public
#: attributes and the metrics snapshot of the untraced sub-run and repeat
#: exactly for a seed; *host* readings (``self_us_*``, ``*_share``) come
#: from the traced sub-run.  ``moves`` names the end-to-end metric the
#: reading should move, and where.
PER_LAYER = (
    _layer("sim.engine.events_per_op", "count", "lower", "count",
           "ops_per_s everywhere, most on sharded_read_heavy"),
    _layer("sim.engine.self_us_per_event", "us", "lower", "host",
           "ops_per_s everywhere, most on sharded_read_heavy"),
    _layer("sim.engine.self_share", "share", "lower", "host", "ops_per_s"),
    _layer("sim.engine.lock_acquires_per_op", "count", "lower", "count",
           "ops_per_s"),
    _layer("sim.network.msgs_per_op", "count", "lower", "count",
           "msgs_per_op; ops_per_s"),
    _layer("sim.network.bytes_per_op", "count", "lower", "count",
           "bytes_per_op"),
    _layer("sim.network.self_us_per_msg", "us", "lower", "host", "ops_per_s"),
    _layer("sim.rpc.attempts_per_op", "count", "lower", "count",
           "msgs_per_op"),
    _layer("sim.rpc.timeouts_per_op", "count", "lower", "count",
           "sim_*_ms_p99 and sim_write_outage_s_max on faulty_epochs"),
    _layer("sim.rpc.waves_per_op", "count", "lower", "count",
           "sim_*_ms_p50; ops_per_s"),
    _layer("sim.rpc.late_responses", "count", "lower", "count",
           "sim_*_ms_p99 on faulty_epochs"),
    _layer("sim.rpc.self_us_per_call", "us", "lower", "host", "ops_per_s"),
    _layer("core.coordinator.polls_per_write", "count", "lower", "count",
           "sim_write_ms_p50, write_wall_us_p50 on single_item_seq"),
    _layer("core.coordinator.polls_per_read", "count", "lower", "count",
           "sim_read_ms_p50, read_wall_us_p50 on single_item_seq"),
    _layer("core.coordinator.attempts_per_op", "count", "lower", "count",
           "sim_*_ms_p99 on faulty_epochs"),
    _layer("core.coordinator.heavy_share", "share", "lower", "count",
           "sim_*_ms_p99 on faulty_epochs"),
    _layer("core.coordinator.retries_per_op", "count", "lower", "count",
           "sim_*_ms_p99 on faulty_epochs and sharded_write_contended"),
    _layer("core.coordinator.self_us_per_op", "us", "lower", "host",
           "write_wall_us_p50, read_wall_us_p50 on single_item_seq"),
    _layer("core.replica.stale_marks_per_write", "count", "lower", "count",
           "msgs_per_op on faulty_epochs"),
    _layer("core.replica.heal_lag_sim_ms_p50", "ms", "lower", "count",
           "sim_read_ms_p99 on faulty_epochs"),
    _layer("core.replica.heal_lag_sim_ms_p99", "ms", "lower", "count",
           "sim_read_ms_p99 on faulty_epochs"),
    _layer("core.replica.shed_per_op", "count", "lower", "count",
           "failed_share"),
    _layer("core.replica.handler_self_us_per_op", "us", "lower", "host",
           "ops_per_s on single_item_seq and faulty_epochs"),
    _layer("core.twophase.commits_per_write", "count", "lower", "count",
           "sim_write_ms_p50"),
    _layer("core.twophase.aborts_per_op.validation-failed", "count", "lower",
           "count", "failed_share, sim_write_ms_p99 on sharded_write_contended"),
    _layer("core.twophase.aborts_per_op.participant-unreachable", "count",
           "lower", "count", "sim_write_ms_p99 on faulty_epochs"),
    _layer("core.twophase.self_us_per_txn", "us", "lower", "host",
           "write_wall_us_p50"),
    _layer("core.epoch.checks_per_ksim_s.changed", "count", "lower", "count",
           "msgs_per_op, ops_per_s on faulty_epochs; nothing elsewhere"),
    _layer("core.epoch.checks_per_ksim_s.unchanged", "count", "lower",
           "count", "msgs_per_op, ops_per_s on faulty_epochs"),
    _layer("core.epoch.checks_per_ksim_s.no-quorum", "count", "lower",
           "count", "sim_write_outage_s_max on faulty_epochs"),
    _layer("core.epoch.checks_per_ksim_s.install-aborted", "count", "lower",
           "count", "sim_write_outage_s_max on faulty_epochs"),
    _layer("core.epoch.installs", "count", "lower", "count",
           "sim_write_outage_s_max, msgs_per_op on faulty_epochs"),
    _layer("core.epoch.install_aborts", "count", "lower", "count",
           "sim_write_outage_s_max on faulty_epochs"),
    _layer("core.epoch.elections", "count", "lower", "count",
           "msgs_per_op, ops_per_s on faulty_epochs"),
    _layer("core.epoch.self_share", "share", "lower", "host",
           "ops_per_s on faulty_epochs; nothing elsewhere"),
    _layer("core.propagation.gave_up", "count", "lower", "count",
           "core.replica.heal_lag_*, msgs_per_op on faulty_epochs"),
    _layer("core.propagation.reseeded", "count", "lower", "count",
           "core.replica.heal_lag_*, msgs_per_op on faulty_epochs"),
    _layer("core.history.records", "count", "lower", "count", "verify_s"),
    _layer("core.history.verify_us_per_op", "us", "lower", "host",
           "verify_s"),
    _layer("coteries.planner.detours_per_op", "count", "lower", "count",
           "sim.rpc.timeouts_per_op, so sim_*_ms_p99 on faulty_epochs"),
    _layer("coteries.planner.self_us_per_plan", "us", "lower", "host",
           "ops_per_s; setup_s"),
    _layer("coteries.engine.cache_hit_share", "share", "higher", "count",
           "ops_per_s on the sharded workloads; setup_s"),
    _layer("shard.router.self_us_per_op", "us", "lower", "host",
           "ops_per_s on both sharded workloads"),
    _layer("shard.host.handler_self_us_per_op", "us", "lower", "host",
           "ops_per_s on both sharded workloads"),
    _layer("shard.map.route_us", "us", "lower", "host",
           "ops_per_s on both sharded workloads"),
    _layer("shard.host.live_locks_after", "count", "lower", "count",
           "peak_rss_mb (must be 0)"),
    _layer("shard.host.resident_items_per_write", "count", "lower", "count",
           "peak_rss_mb on both sharded workloads"),
    _layer("shard.host.max_update_log", "count", "lower", "count",
           "peak_rss_mb on both sharded workloads"),
    _layer("shard.sweep.rpc_requests_per_sweep", "count", "lower", "count",
           "none of the op metrics (amortisation: one request per node)"),
    _layer("shard.sweep.sweep_wall_ms", "ms", "lower", "host",
           "none of the op metrics"),
    _layer("obs.metrics.overhead_ratio", "ratio", "lower", "host",
           "ops_per_s"),
    _layer("obs.metrics.samples_retained", "count", "lower", "count",
           "peak_rss_mb"),
    _layer("workloads.generators.pick_us", "us", "lower", "host",
           "ops_per_s on the sharded workloads"),
    _layer("workloads.generators.client_self_share", "share", "lower",
           "host", "ops_per_s on the sharded workloads"),
    _layer("availability.montecarlo.static_events_per_s", "1/s", "higher",
           "host", "mc_events_per_s"),
    _layer("availability.montecarlo.dynamic_events_per_s", "1/s", "higher",
           "host", "mc_events_per_s"),
    _layer("availability.montecarlo.dynamic_set_events_per_s", "1/s",
           "higher", "host", "mc_events_per_s (if it became the default)"),
    _layer("availability.vectorized.static_events_per_s", "1/s", "higher",
           "host", "mc_events_per_s (if it became the default)"),
    _layer("availability.vectorized.dynamic_events_per_s", "1/s", "higher",
           "host", "mc_events_per_s (if it became the default)"),
    _layer("availability.exact.masks_per_s", "1/s", "higher", "host",
           "verify_s on availability_mc"),
    _layer("availability.markov.table1_solve_s", "s", "lower", "host",
           "verify_s on availability_mc"),
    _layer("coteries.engine.updates_per_s", "1/s", "higher", "host",
           "mc_events_per_s"),
    _layer("coteries.batch.rows_per_s", "1/s", "higher", "host",
           "availability.vectorized.*, availability.exact.masks_per_s"),
    _layer("coteries.engine.compile_us", "us", "lower", "host",
           "setup_s; mc_events_per_s on dynamic cells"),
    _layer("coteries.optimizer.solve_ms", "ms", "lower", "host", "setup_s"),
    _layer("bench.trace_overhead_ratio", "ratio", "lower", "host", "-"),
    _layer("bench.hash_seed_invariant", "count", "higher", "count", "-"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(plain: SubRun, traced: SubRun, tracer, *, kernels: dict,
              metrics_off_ops_per_s: Optional[float],
              hash_seed_invariant: bool) -> dict:
    """Every per-layer metric as ``{name: value}``; ``None`` marks a
    reading that does not exist (a pruned engine).  A layer the
    workload never enters reads 0.

    *plain* is the untraced sub-run the counts and host baselines come
    from, *traced* the same sub-run under *tracer*.
    """
    def get(name: str) -> int:
        return plain.counts.get(name, 0)

    ops = plain.timed_ops - plain.timed_failed
    writes = len(plain.write_sim)
    reads = len(plain.read_sim)
    region = tracer.region_s
    self_s = tracer.layer_self_s
    sim_ks = plain.extra.get("sim_seconds", 0.0) / 1000.0
    txns = (get("twophase_commits") + get("twophase_aborts.validation-failed")
            + get("twophase_aborts.participant-unreachable"))
    lags = plain.heal_lag_sim

    def lag(q: float) -> float:
        try:
            return percentile(lags, q).value * 1e3
        except ValueError:
            return 0.0

    plans, plan_s = tracer.spans("coteries.planner", "plan_quorum")
    picks, pick_s = tracer.spans("workloads.generators", "pick_index")
    return {
        "sim.engine.events_per_op": _ratio(get("events"), ops),
        "sim.engine.self_us_per_event": _ratio(
            tracer.spans("sim.engine", "step")[1] * 1e6,
            traced.counts.get("events", 0)),
        "sim.engine.self_share": _ratio(self_s("sim.engine"), region),
        "sim.engine.lock_acquires_per_op": _ratio(
            tracer.spans("sim.engine", "lock.acquire")[0], ops),
        "sim.network.msgs_per_op": _ratio(get("messages"), ops),
        "sim.network.bytes_per_op": _ratio(get("bytes"), ops),
        "sim.network.self_us_per_msg": _ratio(
            self_s("sim.network") * 1e6, get("messages")),
        "sim.rpc.attempts_per_op": _ratio(get("rpc_attempts"), ops),
        "sim.rpc.timeouts_per_op": _ratio(get("rpc_timeouts"), ops),
        "sim.rpc.waves_per_op": _ratio(
            tracer.spans("sim.rpc", "call_wave")[0], ops),
        "sim.rpc.late_responses": get("rpc_late_responses"),
        "sim.rpc.self_us_per_call": _ratio(
            self_s("sim.rpc") * 1e6, get("rpc_attempts")),
        "core.coordinator.polls_per_write": _ratio(get("write_polls"),
                                                   writes),
        "core.coordinator.polls_per_read": _ratio(get("read_polls"), reads),
        "core.coordinator.attempts_per_op": _ratio(
            get("read_attempts") + get("write_attempts"), ops),
        "core.coordinator.heavy_share": _ratio(get("heavy_ops"), ops),
        "core.coordinator.retries_per_op": _ratio(
            get("op_retries.read") + get("op_retries.write"), ops),
        "core.coordinator.self_us_per_op": _ratio(
            self_s("core.coordinator") * 1e6, ops),
        "core.replica.stale_marks_per_write": _ratio(get("stale_marks"),
                                                     writes),
        "core.replica.heal_lag_sim_ms_p50": lag(0.50),
        "core.replica.heal_lag_sim_ms_p99": lag(0.99),
        "core.replica.shed_per_op": _ratio(get("load_shed"), ops),
        "core.replica.handler_self_us_per_op": _ratio(
            self_s("core.replica") * 1e6, ops),
        "core.twophase.commits_per_write": _ratio(get("twophase_commits"),
                                                  writes),
        "core.twophase.aborts_per_op.validation-failed": _ratio(
            get("twophase_aborts.validation-failed"), ops),
        "core.twophase.aborts_per_op.participant-unreachable": _ratio(
            get("twophase_aborts.participant-unreachable"), ops),
        "core.twophase.self_us_per_txn": _ratio(
            (self_s("core.twophase") + self_s("core.participant")) * 1e6,
            txns),
        **{f"core.epoch.checks_per_ksim_s.{outcome}": _ratio(
            get(f"epoch_checks.{outcome}"), sim_ks)
           for outcome in ("changed", "unchanged", "no-quorum",
                           "install-aborted")},
        "core.epoch.installs": (get("epoch_installs")
                                + get("shard_epoch_installs")),
        "core.epoch.install_aborts": get("epoch_checks.install-aborted"),
        "core.epoch.elections": get("epoch_elections"),
        "core.epoch.self_share": _ratio(self_s("core.epoch"), region),
        "core.propagation.gave_up": get("propagation_gave_up"),
        "core.propagation.reseeded": get("propagation_reseeded"),
        "core.history.records": get("history_records"),
        "core.history.verify_us_per_op": _ratio(plain.verify_s * 1e6,
                                                get("history_records")),
        "coteries.planner.detours_per_op": _ratio(
            get("planner_detours.read") + get("planner_detours.write"), ops),
        "coteries.planner.self_us_per_plan": _ratio(plan_s * 1e6, plans),
        "coteries.engine.cache_hit_share": _ratio(
            get("coterie_cache.hit"),
            get("coterie_cache.hit") + get("coterie_cache.miss")),
        "shard.router.self_us_per_op": _ratio(
            self_s("shard.router") * 1e6, ops),
        "shard.host.handler_self_us_per_op": _ratio(
            self_s("shard.host") * 1e6, ops),
        "shard.map.route_us": _ratio(self_s("shard.map") * 1e6, ops),
        "shard.host.live_locks_after": get("live_locks_after"),
        "shard.host.resident_items_per_write": _ratio(get("resident_items"),
                                                      writes),
        "shard.host.max_update_log": get("max_update_log"),
        "shard.sweep.rpc_requests_per_sweep": get("sweep_rpc_requests"),
        "shard.sweep.sweep_wall_ms": plain.extra.get("sweep_wall_s", 0.0)
        * 1e3,
        "obs.metrics.overhead_ratio": _ratio(
            metrics_off_ops_per_s or 0.0, _ratio(ops, plain.timed_s)),
        "obs.metrics.samples_retained": plain.extra.get("samples_retained",
                                                        0),
        "workloads.generators.pick_us": _ratio(pick_s * 1e6, picks),
        "workloads.generators.client_self_share": _ratio(
            self_s("workloads.generators") + self_s("bench.harness"),
            region if ops else 0.0),
        **kernels,
        "bench.trace_overhead_ratio": _ratio(traced.timed_s, plain.timed_s),
        "bench.hash_seed_invariant": int(hash_seed_invariant),
    }
