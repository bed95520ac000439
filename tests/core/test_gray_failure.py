"""Gray-failure tolerance at the protocol layer: graded latency scores,
score-aware quorum planning, overload shedding, and degraded reads."""

import pytest

from repro.chaos.faults import LinkFaults
from repro.core.config import ProtocolConfig
from repro.core.coordinator import _busy_hint
from repro.core.liveness import LATENCY_ALPHA, LivenessView
from repro.core.messages import BUSY, Busy, StateResponse
from repro.core.store import ReplicatedStore
from repro.coteries import GridCoterie
from repro.coteries.planner import plan_quorum
from repro.sim.engine import Environment

NODES9 = [f"n{i:02d}" for i in range(9)]


def make_view(ttl=10.0):
    env = Environment()
    return env, LivenessView(env, ttl)


class TestLatencyScores:
    def test_unknown_peer_scores_zero(self):
        _env, view = make_view()
        assert view.latency_score("n1") == 0.0
        assert view.latency_scores() == {}

    def test_first_sample_is_the_score(self):
        _env, view = make_view()
        view.observe_latency("n1", 0.4)
        assert view.latency_score("n1") == 0.4

    def test_ewma_update(self):
        _env, view = make_view()
        view.observe_latency("n1", 0.4)
        view.observe_latency("n1", 0.8)
        expected = 0.4 + LATENCY_ALPHA * (0.8 - 0.4)
        assert abs(view.latency_score("n1") - expected) < 1e-12

    def test_score_decays_after_ttl(self):
        env, view = make_view(ttl=10.0)
        view.observe_latency("n1", 0.4)
        env.run(until=9.0)
        assert view.latency_score("n1") == 0.4
        env.run(until=10.5)
        assert view.latency_score("n1") == 0.0
        assert view.latency_scores() == {}

    def test_stale_entry_resets_instead_of_averaging(self):
        env, view = make_view(ttl=10.0)
        view.observe_latency("n1", 5.0)
        env.run(until=20.0)
        # the old regime decayed: the new sample starts a clean slate
        view.observe_latency("n1", 0.1)
        assert view.latency_score("n1") == 0.1

    def test_rank_fastest_first_with_stable_ties(self):
        _env, view = make_view()
        view.observe_latency("n2", 0.5)
        view.observe_latency("n3", 0.1)
        # n1 unknown -> 0.0 -> ranks first; ties break by name
        assert view.rank(["n3", "n2", "n1", "n0"]) == \
            ["n0", "n1", "n3", "n2"]

    def test_clear_wipes_scores(self):
        _env, view = make_view()
        view.observe_latency("n1", 0.4)
        view.clear()
        assert view.latency_scores() == {}


class TestScoredPlanning:
    def test_no_scores_is_exactly_the_blind_draw(self):
        coterie = GridCoterie(NODES9)
        blind = coterie.read_quorum(salt="c", attempt=3)
        assert plan_quorum(coterie, "read", salt="c", attempt=3,
                           scores={}) == blind
        assert plan_quorum(coterie, "read", salt="c", attempt=3,
                           scores=None) == blind

    @pytest.mark.parametrize("kind", ["read", "write"])
    def test_slow_node_demoted_but_result_is_a_quorum(self, kind):
        coterie = GridCoterie(NODES9)
        slow = "n04"  # middle of the grid: every column has alternatives
        scores = {slow: 10.0}
        for salt in ("a", "b", "c"):
            for attempt in range(4):
                quorum = plan_quorum(coterie, kind, salt=salt,
                                     attempt=attempt, scores=scores)
                is_quorum = (coterie.is_write_quorum if kind == "write"
                             else coterie.is_read_quorum)
                assert is_quorum(set(quorum))
                assert slow not in quorum

    def test_write_prefers_column_without_the_slow_node(self):
        coterie = GridCoterie(NODES9)
        slow = "n00"
        slow_column = next(col for col in coterie.columns if slow in col)
        quorum = plan_quorum(coterie, "write", salt="c", scores={slow: 10.0})
        # the fully-polled column must not be the one with the gray node
        assert not set(slow_column) <= set(quorum)

    def test_all_equal_scores_keep_the_blind_spread(self):
        coterie = GridCoterie(NODES9)
        scores = {name: 0.0 for name in NODES9}
        for attempt in range(3):
            assert plan_quorum(coterie, "read", salt="c", attempt=attempt,
                               scores=scores) == \
                coterie.read_quorum(salt="c", attempt=attempt)


class TestOverloadShedding:
    def test_shed_answers_busy_over_the_limit(self):
        config = ProtocolConfig(busy_queue_limit=2)
        store = ReplicatedStore.create(3, config=config)
        server = store.servers["n00"]
        assert server._shed() is None
        server.node.volatile["inflight_polls"] = 2
        shed = server._shed()
        assert isinstance(shed, Busy)
        assert config.retry_after_min <= shed.retry_after \
            <= config.retry_after_max

    def test_retry_after_grows_with_depth_and_clamps(self):
        config = ProtocolConfig(busy_queue_limit=2)
        store = ReplicatedStore.create(3, config=config)
        server = store.servers["n00"]
        server.node.volatile["inflight_polls"] = 2
        mild = server._shed().retry_after
        server.node.volatile["inflight_polls"] = 1000
        assert server._shed().retry_after == config.retry_after_max
        assert mild < config.retry_after_max

    def test_zero_limit_never_sheds(self):
        store = ReplicatedStore.create(3)  # busy_queue_limit=0 default
        server = store.servers["n00"]
        server.node.volatile["inflight_polls"] = 10_000
        assert server._shed() is None

    def test_only_a_poll_that_queues_counts_toward_the_depth(self):
        # a heavy-procedure re-poll and a duplicate of a queued poll are
        # answered without a lock wait: neither may move the in-flight
        # counter (and the queue-depth gauge) the shed limit reads
        store = ReplicatedStore.create(3, seed=1)
        server = store.servers["n00"]
        counted = []
        started = server._poll_started
        server._poll_started = lambda: (counted.append(1), started())

        def poll(op_id, answers):
            def client():
                answers.append((yield store.servers["n01"].rpc.call(
                    "n00", "write-request", op_id,
                    timeout=store.config.rpc_timeout)))
            return store.nodes["n01"].spawn(client())

        first, again, queued, duplicate = [], [], [], []
        store.join(poll("op-a", first))
        store.join(poll("op-a", again))           # re-poll by the holder
        assert isinstance(again[0], StateResponse) and len(counted) == 1
        waiting = poll("op-b", queued)            # queues behind op-a
        store.advance(0.05)
        store.join(poll("op-b", duplicate))
        assert duplicate == [BUSY] and not queued and len(counted) == 2
        server._on_op_release("n01", "op-a")
        store.join(waiting)
        assert server.node.volatile["inflight_polls"] == 0

    def test_busy_hint_picks_the_largest(self):
        responses = {"n1": Busy(retry_after=0.3),
                     "n2": Busy(retry_after=0.7),
                     "n3": StateResponse(node="n3", elist=("n3",),
                                         enumber=0, version=0, dversion=0,
                                         stale=False)}
        assert _busy_hint(responses) == 0.7
        assert _busy_hint({}) == 0.0

    def test_spike_sheds_yet_stays_consistent(self):
        config = ProtocolConfig(adaptive_timeouts=True, hedge_requests=True,
                                busy_queue_limit=1)
        store = ReplicatedStore.create(9, seed=3, config=config)
        for round_no in range(3):
            procs = [store.start_write({f"k{w}": round_no * 8 + w},
                                       via=store.node_names[w % 4])
                     for w in range(8)]
            store.join(*procs)
        from repro.obs import build_summary
        summary = build_summary(store.metrics_snapshot())
        assert summary["overload"]["shed"] > 0
        store.verify()  # degradation must never cost consistency


class TestDegradedReads:
    def make_store(self, deadline=0.5):
        config = ProtocolConfig(adaptive_timeouts=True, degraded_reads=True,
                                op_deadline=deadline)
        return ReplicatedStore.create(9, seed=5, config=config)

    def test_fast_cluster_never_degrades(self):
        store = self.make_store()
        store.write({"x": 1})
        result = store.read(via="n00")
        assert result.ok and result.case != "degraded"
        assert store.verify()["degraded"] == 0

    def test_predicted_slow_quorum_takes_the_degraded_tier(self):
        store = self.make_store(deadline=0.5)
        store.write({"x": 1}, via="n00")
        server = store.servers["n00"]
        # every peer's learned score says a quorum would blow the deadline
        for peer in store.node_names:
            if peer != "n00":
                server.liveness.observe_latency(peer, 5.0)
        result = store.read(via="n00")
        assert result.ok and result.case == "degraded"
        # bounded staleness: the value is some committed prefix -- here
        # either the pre-write state or the write itself, depending on
        # whether the answering replica was in the write quorum
        assert result.version in (0, 1)
        assert result.value == ({} if result.version == 0 else {"x": 1})
        # recorded under the bounded-staleness rules, and checkable
        stats = store.verify()
        assert stats["degraded"] == 1
        from repro.obs import build_summary
        summary = build_summary(store.metrics_snapshot())
        assert summary["overload"]["degraded_reads"] == 1

    def test_degraded_read_asks_the_fastest_peer(self):
        store = self.make_store(deadline=0.5)
        store.write({"x": 1}, via="n00")
        server = store.servers["n00"]
        for peer in store.node_names:
            if peer != "n00":
                server.liveness.observe_latency(peer, 5.0)
        server.liveness.observe_latency("n03", 4.0)  # still over deadline
        store.read(via="n00")
        polled = [rec for rec in store.history.operations
                  if rec.kind == "read-degraded"]
        assert len(polled) == 1
        # n00 itself has no score (0.0) so it is its own fastest replica;
        # a degraded read never leaves the box in that case
        assert polled[0].ok

    def test_degraded_tier_falls_through_when_target_is_stale(self):
        store = self.make_store(deadline=0.5)
        store.write({"x": 1}, via="n00")
        server = store.servers["n00"]
        for peer in store.node_names:
            if peer != "n00":
                server.liveness.observe_latency(peer, 5.0)
        # the would-be target (n00 itself: score 0.0 ranks first) is
        # stale: the cheap tier refuses it and the quorum path answers
        state = store.servers["n00"].state
        store.servers["n00"].state = state.marked_stale(1)
        result = store.read(via="n00")
        assert result.ok and result.case != "degraded"
        assert result.version == 1 and result.value == {"x": 1}


class TestHedgedOperationHygiene:
    def gray_store(self, **overrides):
        config = ProtocolConfig(adaptive_timeouts=True, hedge_requests=True,
                                **overrides)
        store = ReplicatedStore.create(9, seed=7, config=config)
        faults = LinkFaults()
        store.network.faults = faults
        victim = store.node_names[-1]
        faults.slow_node(victim, 10.0, list(store.node_names))
        return store, victim

    def test_gray_run_commits_and_verifies(self):
        store, victim = self.gray_store()
        for i in range(12):
            assert store.write({"k": i}, via="n00").ok
            assert store.read(via="n01").ok
        store.verify()

    def test_no_stranded_locks_after_early_completed_waves(self):
        # Early-completed waves leave stragglers unanswered; the
        # coordinator's fire-and-forget op-release must clean their
        # granted locks up well before the lock lease would.
        store, victim = self.gray_store()
        for i in range(6):
            store.write({"k": i}, via="n00")
        store.advance(store.config.lock_lease / 2)
        for name, server in store.servers.items():
            assert not server._op_locks, (name, server._op_locks)

    def test_same_seed_gray_runs_are_identical(self):
        outcomes = []
        for _ in range(2):
            store, _victim = self.gray_store()
            records = []
            for i in range(10):
                result = (store.write({"k": i}, via="n00") if i % 2
                          else store.read(via="n01"))
                records.append((result.ok, result.version, result.case,
                                round(store.env.now, 9)))
            outcomes.append((records, store.versions()))
        assert outcomes[0] == outcomes[1]
