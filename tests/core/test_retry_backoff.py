"""Tests for the coordinator retry/backoff path (``_with_retries``) and
the liveness-aware re-pick on retry."""

import pytest

from repro.baselines.dynamic_voting import DynamicVotingStore
from repro.baselines.static_protocol import StaticQuorumStore
from repro.baselines.witnesses import WitnessVotingStore
from repro.core.config import ProtocolConfig
from repro.core.messages import WriteResult
from repro.core.store import ReplicatedStore
from repro.shard.store import ShardedStore


def rpc_call_dsts(store, start):
    """Destinations of every rpc-call traced since *start*."""
    return [rec.detail["dst"] for rec in store.trace.records[start:]
            if rec.kind == "rpc-call"]


class TestAttemptCounts:
    def test_successful_write_is_one_attempt(self):
        store = ReplicatedStore.create(9, seed=0)
        result = store.write({"x": 1})
        assert result.ok
        assert result.attempts == 1
        assert result.polls == 1  # fast path: one poll wave

    def test_heavy_write_counts_two_polls_one_attempt(self):
        store = ReplicatedStore.create(9, seed=0, config=ProtocolConfig(
            quorum_planner=False))
        store.crash("n00", "n04")
        result = store.write({"x": 1}, via="n05")
        assert result.ok
        assert result.attempts == 1
        assert result.polls in (1, 2)  # heavy rescue adds a poll wave

    def test_no_quorum_exhausts_all_retries(self):
        config = ProtocolConfig(op_retries=3)
        store = ReplicatedStore.create(9, seed=1, config=config)
        store.crash("n02", "n05", "n08")  # a full grid column: no quorum
        result = store.write({"x": 1})
        assert not result.ok and result.case == "no-quorum"
        assert result.attempts == config.op_retries + 1
        # every attempt burned its fast poll and its heavy rescue
        assert result.polls == 2 * result.attempts

    def test_zero_retries_is_a_single_attempt(self):
        store = ReplicatedStore.create(9, seed=2,
                                       config=ProtocolConfig(op_retries=0))
        store.crash("n02", "n05", "n08")
        result = store.write({"x": 1})
        assert not result.ok and result.attempts == 1


class TestBackoffGrowth:
    def test_backoff_is_exponential_with_bounded_jitter(self):
        config = ProtocolConfig(op_retries=3, retry_backoff=0.5)
        store = ReplicatedStore.create(9, seed=3, config=config)
        store.crash("n02", "n05", "n08")
        t0 = store.env.now
        result = store.write({"x": 1})
        elapsed = store.env.now - t0
        assert not result.ok
        # jitter multiplies each pause by [0.5, 1.5); with three retries
        # the pauses alone span backoff * (1+2+4) * jitter
        min_backoff = config.retry_backoff * 7 * 0.5
        # per-attempt work: fast + heavy poll, each bounded by
        # lock_wait + rpc_timeout, plus release rounds and slack
        per_attempt_ceiling = 3 * (config.lock_wait + config.rpc_timeout)
        max_total = (config.retry_backoff * 7 * 1.5
                     + 4 * per_attempt_ceiling)
        assert min_backoff < elapsed < max_total

    def test_longer_backoff_config_waits_longer(self):
        def elapsed_with(backoff):
            config = ProtocolConfig(op_retries=2, retry_backoff=backoff)
            store = ReplicatedStore.create(9, seed=4, config=config)
            store.crash("n02", "n05", "n08")
            t0 = store.env.now
            store.write({"x": 1})
            return store.env.now - t0

        assert elapsed_with(2.0) > elapsed_with(0.25) + 2.0


def single_item_stack(make):
    """A store over n00..n02 built by *make*, and n00's coordinator."""
    def stack(config):
        store = make(["n00", "n01", "n02"], seed=0, config=config)
        return store, store.coordinators["n00"]
    return stack


def router_stack(config):
    store = ShardedStore.create(3, n_shards=4, seed=0, config=config)
    return store, store.routers["n00"]


every_stack = pytest.mark.parametrize(
    "stack",
    [single_item_stack(ReplicatedStore), router_stack,
     single_item_stack(StaticQuorumStore),
     single_item_stack(DynamicVotingStore),
     single_item_stack(lambda names, **kw: WitnessVotingStore(
         names, names[-1:], **kw))],
    ids=["Coordinator", "ShardRouter", "StaticCoordinator",
         "DynamicVotingCoordinator", "WitnessVotingCoordinator"])


class TestRetryAfterClamp:
    """The ``Busy(retry_after)`` backoff stretch must respect *both*
    clamp bounds.  The stretch previously applied only the
    ``retry_after_max`` ceiling, so a tiny hint silently no-opted below
    the ``retry_after_min`` floor the replica's ``_shed()`` promises.
    The keyed router and the three baselines run the same loop (each
    used to ignore the hint)."""

    def gaps_with_hint(self, stack, hint, **overrides):
        config = ProtocolConfig(op_retries=1, retry_backoff=1e-4,
                                **overrides)
        store, coordinator = stack(config)
        times = []

        def attempt():
            times.append(store.env.now)
            if False:
                yield  # pragma: no cover - makes this a generator
            return WriteResult(False, case="no-quorum", op_id="t",
                               polls=1, retry_after=hint)

        process = store.nodes["n00"].spawn(
            coordinator._with_retries(attempt), name="t")
        store.join(process)
        return [b - a for a, b in zip(times, times[1:])], config

    @every_stack
    def test_tiny_hint_is_raised_to_the_floor(self, stack):
        gaps, config = self.gaps_with_hint(stack, 1e-9)
        assert gaps and gaps[0] >= config.retry_after_min

    @every_stack
    def test_huge_hint_is_capped_at_the_ceiling(self, stack):
        gaps, config = self.gaps_with_hint(stack, 100.0)
        # the stretched delay is the clamped hint (the exponential base
        # is negligible here); allow jitter slack on the base term
        assert gaps and gaps[0] <= config.retry_after_max * 1.01

    @every_stack
    def test_no_hint_keeps_the_plain_backoff(self, stack):
        gaps, config = self.gaps_with_hint(stack, 0.0)
        # no stretch: the gap is just backoff * jitter, far below the
        # retry_after_min floor
        assert gaps and gaps[0] < config.retry_after_min

    def test_shed_replica_hint_respects_both_bounds(self):
        # end to end: a shedding replica's own hint goes through the
        # same clamp (config.clamp_retry_after is the single definition)
        config = ProtocolConfig(busy_queue_limit=1)
        assert config.clamp_retry_after(0.0) == config.retry_after_min
        assert config.clamp_retry_after(1e9) == config.retry_after_max
        assert config.clamp_retry_after(0.5) == 0.5


class TestRetryRoutesAroundFailures:
    def test_repicked_quorum_excludes_the_node_that_just_failed(self):
        store = ReplicatedStore.create(25, seed=5, trace_enabled=True)
        # first write via n10: discover the current fast-path quorum
        assert store.write({"x": 1}, via="n10").ok
        server = store.servers["n10"]
        coterie = server.coterie_for(server.state.epoch_list)
        victim = sorted(coterie.write_quorum(salt="n10", attempt=2))[0]
        store.crash(victim)
        # this op observes the CALL_FAILED (fast poll hits the victim,
        # heavy rescues) and feeds the liveness view
        assert store.write({"x": 2}, via="n10").ok
        assert victim in server.liveness.suspects()
        # the next op's first-attempt quorum routes around the victim:
        # no rpc at all is sent to it, and the op stays on the fast path
        mark = len(store.trace.records)
        result = store.write({"x": 3}, via="n10")
        assert result.ok
        assert result.case == "fast" and result.polls == 1
        assert victim not in rpc_call_dsts(store, mark)

    def test_blind_picker_keeps_polling_the_dead_node(self):
        store = ReplicatedStore.create(
            25, seed=5, trace_enabled=True,
            config=ProtocolConfig(quorum_planner=False))
        assert store.write({"x": 1}, via="n10").ok
        server = store.servers["n10"]
        coterie = server.coterie_for(server.state.epoch_list)
        victim = sorted(coterie.write_quorum(salt="n10", attempt=2))[0]
        store.crash(victim)
        store.write({"x": 2}, via="n10")
        mark = len(store.trace.records)
        # the blind heavy fallback polls everyone, dead nodes included
        results = [store.write({"x": 3 + i}, via="n10") for i in range(3)]
        assert all(r.ok for r in results)
        assert victim in rpc_call_dsts(store, mark)
