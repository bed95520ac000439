"""Tests for the gray-failure RPC extensions: adaptive per-link
deadlines, managed waves (per-destination expiry, hedged backup
requests, early completion), and late-response harvesting."""

import random

from repro.sim.engine import Environment
from repro.sim.network import LatencyModel, Network
from repro.sim.node import Node
from repro.sim.rpc import (
    CALL_FAILED,
    AdaptiveTimeouts,
    HedgePolicy,
    RpcLayer,
    _LinkRtt,
)
from repro.sim.trace import TraceLog


def make_cluster(n=4, timeout=0.5, delay=0.01, seed=0, adaptive=None):
    env = Environment()
    trace = TraceLog()
    net = Network(env, LatencyModel(delay, delay, rng=random.Random(seed)),
                  trace=trace)
    nodes = [Node(env, net, f"n{i}") for i in range(n)]
    rpcs = [RpcLayer(node, default_timeout=timeout, adaptive=adaptive)
            for node in nodes]
    return env, nodes, rpcs, trace


def slow_handler(env, delay, value="slow"):
    def handler(src, args):
        yield env.timeout(delay)
        return value
    return handler


class TestLinkRttEstimator:
    def test_first_sample_initialises_rfc6298(self):
        est = _LinkRtt()
        est.observe(0.1, alpha=0.125, beta=0.25)
        assert est.srtt == 0.1
        assert est.rttvar == 0.05

    def test_ewma_recurrences(self):
        est = _LinkRtt()
        est.observe(0.1, alpha=0.125, beta=0.25)
        est.observe(0.2, alpha=0.125, beta=0.25)
        # rttvar before srtt, against the *old* srtt (RFC 6298 order)
        assert abs(est.rttvar - (0.75 * 0.05 + 0.25 * 0.1)) < 1e-12
        assert abs(est.srtt - (0.875 * 0.1 + 0.125 * 0.2)) < 1e-12

    def test_steady_link_converges(self):
        est = _LinkRtt()
        for _ in range(200):
            est.observe(0.02, alpha=0.125, beta=0.25)
        assert abs(est.srtt - 0.02) < 1e-6
        assert est.rttvar < 1e-3


class TestAdaptiveDeadlines:
    def test_default_until_first_sample(self):
        env, nodes, rpcs, _ = make_cluster(adaptive=AdaptiveTimeouts())
        assert rpcs[0].deadline_for("n1") == 0.5
        assert rpcs[0].hedge_delay_for("n1") == 0.5

    def test_deadline_tracks_responses_and_clamps(self):
        adaptive = AdaptiveTimeouts(floor=0.05, ceil=2.0)
        env, nodes, rpcs, _ = make_cluster(adaptive=adaptive)
        rpcs[1].serve("echo", lambda src, args: args)

        def client(env):
            for _ in range(20):
                yield rpcs[0].call("n1", "echo", 1)

        nodes[0].spawn(client(env))
        env.run(until=10.0)
        # rtt = 0.02 steady; srtt + 4*rttvar is tiny -> clamped to floor
        assert rpcs[0].deadline_for("n1") == 0.05
        est = rpcs[0]._rtt["n1"]
        assert abs(est.srtt - 0.02) < 1e-3

    def test_timeouts_never_update_estimate(self):
        env, nodes, rpcs, _ = make_cluster(adaptive=AdaptiveTimeouts())
        nodes[1].crash()

        def client(env):
            yield rpcs[0].call("n1", "echo", 1, timeout=0.2)

        nodes[0].spawn(client(env))
        env.run(until=2.0)
        assert "n1" not in rpcs[0]._rtt  # Karn's rule

    def test_crash_clears_estimates(self):
        env, nodes, rpcs, _ = make_cluster(adaptive=AdaptiveTimeouts())
        rpcs[1].serve("echo", lambda src, args: args)

        def client(env):
            yield rpcs[0].call("n1", "echo", 1)

        nodes[0].spawn(client(env))
        env.run(until=1.0)
        assert "n1" in rpcs[0]._rtt
        nodes[0].crash()
        assert rpcs[0]._rtt == {}


class TestManagedWaveDeadlines:
    def test_per_destination_expiry(self):
        env, nodes, rpcs, trace = make_cluster(timeout=5.0)
        rpcs[1].serve("echo", lambda src, args: args)
        rpcs[2].serve("echo", slow_handler(env, 3.0))
        results = []

        def client(env):
            response = yield rpcs[0].call_wave(
                {"n1": ("echo", 1), "n2": ("echo", 2)},
                deadlines={"n1": 1.0, "n2": 0.3})
            results.append((env.now, response))

        nodes[0].spawn(client(env))
        env.run(until=10.0)
        (when, response), = results
        # n1 answers at 0.02; n2 expires individually at its 0.3 deadline
        assert response == {"n1": 1, "n2": CALL_FAILED}
        assert abs(when - 0.3) < 1e-9

    def test_missing_deadline_falls_back_to_timeout(self):
        env, nodes, rpcs, _ = make_cluster(timeout=0.4)
        results = []

        def client(env):
            response = yield rpcs[0].call_wave(
                {"n1": ("echo", 1), "n2": ("echo", 2)},
                deadlines={"n1": 0.1})
            results.append((env.now, response))

        nodes[0].spawn(client(env))
        env.run(until=2.0)
        (when, response), = results
        assert response == {"n1": CALL_FAILED, "n2": CALL_FAILED}
        assert abs(when - 0.4) < 1e-9


class TestLateResponses:
    def test_late_reply_feeds_observers(self):
        env, nodes, rpcs, trace = make_cluster(timeout=5.0,
                                               adaptive=AdaptiveTimeouts())
        rpcs[1].serve("slow", slow_handler(env, 1.0))
        seen, rtts = [], []
        rpcs[0].liveness_observer = lambda dst, ok: seen.append((dst, ok))
        rpcs[0].latency_observer = lambda dst, rtt: rtts.append((dst, rtt))

        def client(env):
            yield rpcs[0].call_wave({"n1": ("slow", None)},
                                    deadlines={"n1": 0.3})
            yield env.timeout(5.0)  # let the late reply arrive

        nodes[0].spawn(client(env))
        env.run(until=10.0)
        # first the timeout, then the harvested late reply
        assert seen == [("n1", False), ("n1", True)]
        assert len(rtts) == 1 and abs(rtts[0][1] - 1.02) < 1e-9
        # the late reply updated the RTT estimate after the timeout
        assert "n1" in rpcs[0]._rtt
        kinds = [rec.kind for rec in trace.records
                 if rec.kind == "rpc-late-response"]
        assert kinds == ["rpc-late-response"]

    def test_single_call_late_reply_harvested_too(self):
        env, nodes, rpcs, _ = make_cluster(timeout=0.3,
                                           adaptive=AdaptiveTimeouts())
        rpcs[1].serve("slow", slow_handler(env, 1.0))
        seen = []
        rpcs[0].liveness_observer = lambda dst, ok: seen.append((dst, ok))

        def client(env):
            result = yield rpcs[0].call("n1", "slow", None)
            assert result is CALL_FAILED
            yield env.timeout(5.0)

        nodes[0].spawn(client(env))
        env.run(until=10.0)
        assert seen == [("n1", False), ("n1", True)]


class TestHedging:
    def _wave(self, rpcs, env, nodes, hedge, results,
              targets=("n1", "n2")):
        def client(env):
            response = yield rpcs[0].call_wave(
                {dst: ("echo", dst) for dst in targets},
                deadlines={dst: 2.0 for dst in targets}, hedge=hedge)
            results.append((env.now, response))
        nodes[0].spawn(client(env))

    def test_hedge_fires_and_wins(self):
        env, nodes, rpcs, trace = make_cluster(n=4, timeout=5.0)
        rpcs[1].serve("echo", lambda src, args: args)
        rpcs[2].serve("echo", slow_handler(env, 10.0))   # never answers
        rpcs[3].serve("echo", lambda src, args: "spare")
        results = []
        hedge = HedgePolicy(spares=("n3",), request=("echo", "backup"),
                            delays={"n2": 0.2}, deadlines={"n3": 1.0})
        self._wave(rpcs, env, nodes, hedge, results)
        env.run(until=5.0)
        (when, response), = results
        # hedge fired at 0.2; spare answered at ~0.24; straggler expired
        # at its own 2.0 deadline, which is when the wave completes
        assert response["n1"] == "n1"
        assert response["n3"] == "spare"
        assert response["n2"] is CALL_FAILED
        hedge_recs = [r for r in trace.records if r.kind == "rpc-hedge"]
        assert len(hedge_recs) == 1
        assert hedge_recs[0].detail["dst"] == "n3"
        assert hedge_recs[0].detail["straggler"] == "n2"

    def test_hedge_wasted_when_straggler_answers(self):
        env, nodes, rpcs, trace = make_cluster(n=4, timeout=5.0)
        rpcs[1].serve("echo", lambda src, args: args)
        rpcs[2].serve("echo", slow_handler(env, 0.5, value="eventually"))
        rpcs[3].serve("echo", slow_handler(env, 3.0, value="spare"))
        results = []
        hedge = HedgePolicy(spares=("n3",), request=("echo", "backup"),
                            delays={"n2": 0.2}, deadlines={"n3": 5.0})
        self._wave(rpcs, env, nodes, hedge, results)
        env.run(until=10.0)
        (when, response), = results
        # the straggler answered after the hedge fired but before the
        # spare; both responses land without double-counting
        assert response["n2"] == "eventually"
        assert response["n1"] == "n1"

    def test_hedge_respects_limit_and_one_backup_per_straggler(self):
        env, nodes, rpcs, trace = make_cluster(n=6, timeout=5.0)
        for i in (1, 2):
            rpcs[i].serve("echo", slow_handler(env, 10.0))
        for i in (3, 4, 5):
            rpcs[i].serve("echo", lambda src, args: "spare")
        results = []
        hedge = HedgePolicy(spares=("n3", "n4", "n5"),
                            request=("echo", "backup"),
                            delays={"n1": 0.2, "n2": 0.2},
                            deadlines={}, limit=1)
        self._wave(rpcs, env, nodes, hedge, results,
                   targets=("n1", "n2"))
        env.run(until=10.0)
        hedge_recs = [r for r in trace.records if r.kind == "rpc-hedge"]
        assert len(hedge_recs) == 1  # limit=1 caps the whole wave

    def test_no_hedge_to_already_contacted_node(self):
        env, nodes, rpcs, trace = make_cluster(n=3, timeout=5.0)
        rpcs[1].serve("echo", lambda src, args: args)
        rpcs[2].serve("echo", slow_handler(env, 10.0))
        results = []
        # the only spare is already a wave target: nothing to hedge to
        hedge = HedgePolicy(spares=("n1",), request=("echo", "backup"),
                            delays={"n2": 0.2}, deadlines={})
        self._wave(rpcs, env, nodes, hedge, results)
        env.run(until=10.0)
        assert not [r for r in trace.records if r.kind == "rpc-hedge"]

    def test_hedge_counters(self):
        from repro.obs.metrics import MetricsRegistry, split_key

        env = Environment()
        trace = TraceLog()
        net = Network(env, LatencyModel(0.01, 0.01,
                                        rng=random.Random(0)), trace=trace)
        nodes = [Node(env, net, f"n{i}") for i in range(4)]
        reg = MetricsRegistry(clock=lambda: env.now)
        rpcs = [RpcLayer(node, default_timeout=5.0, metrics=reg)
                for node in nodes]
        rpcs[1].serve("echo", lambda src, args: args)
        rpcs[2].serve("echo", slow_handler(env, 10.0))
        rpcs[3].serve("echo", lambda src, args: "spare")
        hedge = HedgePolicy(spares=("n3",), request=("echo", "backup"),
                            delays={"n2": 0.2}, deadlines={"n3": 1.0})
        results = []

        def client(env):
            response = yield rpcs[0].call_wave(
                {"n1": ("echo", 1), "n2": ("echo", 2)},
                deadlines={"n1": 2.0, "n2": 2.0}, hedge=hedge)
            results.append(response)

        nodes[0].spawn(client(env))
        env.run(until=5.0)
        counters = {split_key(k)[1]["outcome"]: v
                    for k, v in reg.snapshot()["counters"].items()
                    if split_key(k)[0] == "rpc_hedges"
                    and split_key(k)[1]["src"] == "n0"}
        assert counters == {"fired": 1, "won": 1, "wasted": 0}


class TestEarlyCompletion:
    def test_enough_completes_before_stragglers(self):
        env, nodes, rpcs, _ = make_cluster(n=4, timeout=5.0)
        rpcs[1].serve("echo", lambda src, args: args)
        rpcs[2].serve("echo", lambda src, args: args)
        rpcs[3].serve("echo", slow_handler(env, 3.0))
        results = []

        def client(env):
            response = yield rpcs[0].call_wave(
                {dst: ("echo", dst) for dst in ("n1", "n2", "n3")},
                deadlines={dst: 4.0 for dst in ("n1", "n2", "n3")},
                enough=lambda res: len([v for v in res.values()
                                        if v is not CALL_FAILED]) >= 2)
            results.append((env.now, response))

        nodes[0].spawn(client(env))
        env.run(until=10.0)
        (when, response), = results
        assert when < 0.1  # the two fast answers decide the wave
        assert response["n1"] == "n1" and response["n2"] == "n2"
        assert response["n3"] is CALL_FAILED

    def test_straggler_answer_after_early_completion_feeds_observers(self):
        env, nodes, rpcs, _ = make_cluster(n=4, timeout=5.0)
        rpcs[1].serve("echo", lambda src, args: args)
        rpcs[2].serve("echo", lambda src, args: args)
        rpcs[3].serve("echo", slow_handler(env, 1.0))
        seen = []
        rpcs[0].liveness_observer = lambda dst, ok: seen.append((dst, ok))
        results = []

        def client(env):
            response = yield rpcs[0].call_wave(
                {dst: ("echo", dst) for dst in ("n1", "n2", "n3")},
                deadlines={dst: 4.0 for dst in ("n1", "n2", "n3")},
                enough=lambda res: len(res) >= 2)
            results.append(dict(response))
            yield env.timeout(5.0)

        nodes[0].spawn(client(env))
        env.run(until=10.0)
        assert results[0]["n3"] is CALL_FAILED
        # the straggler's eventual answer still lands as a live signal
        assert ("n3", True) in seen
        assert ("n3", False) not in seen


class TestLegacyWaveUnchanged:
    def test_plain_wave_still_single_timer(self):
        env, nodes, rpcs, _ = make_cluster(timeout=0.5)
        rpcs[1].serve("echo", lambda src, args: args)
        nodes[2].crash()
        results = []

        def client(env):
            response = yield rpcs[0].call_wave(
                {"n1": ("echo", 1), "n2": ("echo", 2)})
            results.append((env.now, response))

        nodes[0].spawn(client(env))
        env.run(until=2.0)
        (when, response), = results
        assert response == {"n1": 1, "n2": CALL_FAILED}
        assert abs(when - 0.5) < 1e-9


class TestManagedWaveTickIsWithdrawn:
    """Rule R4 for the fifth deadline: a managed wave's walking tick is
    a timer, withdrawn once nothing is outstanding."""

    def _answered_wave(self, **wave_options):
        env, nodes, rpcs, _ = make_cluster(n=3, timeout=5.0)
        for rpc in rpcs[1:]:
            rpc.serve("echo", lambda src, args: args)
        results = []

        def client(env):
            results.append((yield rpcs[0].call_wave(
                {"n1": ("echo", 1), "n2": ("echo", 2)}, **wave_options)))

        nodes[0].spawn(client(env))
        return env, nodes, rpcs, results

    def test_a_settled_wave_leaves_no_tick_behind(self):
        env, _nodes, rpcs, results = self._answered_wave(
            deadlines={"n1": 2.0, "n2": 3.0})
        stopped = env.run()
        assert results == [{"n1": 1, "n2": 2}]
        # the queue drained at the last answer: no tick fired unheard at
        # the 2.0 deadline and dragged the clock there
        assert stopped < 0.1 and env.queue_size == 0
        assert rpcs[0].pending_calls() == ()

    def test_an_early_completed_wave_keeps_its_tick_for_the_stragglers(self):
        env, nodes, rpcs, _ = make_cluster(n=3, timeout=5.0)
        rpcs[1].serve("echo", lambda src, args: args)
        rpcs[2].serve("echo", slow_handler(env, 10.0))   # never answers
        seen, results = [], []
        rpcs[0].liveness_observer = lambda dst, ok: seen.append((dst, ok))

        def client(env):
            results.append((env.now, (yield rpcs[0].call_wave(
                {"n1": ("echo", 1), "n2": ("echo", 2)},
                deadlines={"n1": 1.0, "n2": 1.0},
                enough=lambda partial: "n1" in partial))))

        nodes[0].spawn(client(env))
        env.run(until=0.5)
        assert results and results[0][0] < 0.1      # completed early
        assert rpcs[0].pending_calls() != ()        # n2 still outstanding
        env.run(until=1.5)
        assert ("n2", False) in seen                # expired by the tick
        assert rpcs[0].pending_calls() == ()

    def test_a_caller_crash_withdraws_the_tick_and_books_the_hedges(self):
        from repro.obs.metrics import MetricsRegistry, split_key

        env = Environment()
        net = Network(env, LatencyModel(0.01, 0.01, rng=random.Random(0)),
                      trace=TraceLog())
        nodes = [Node(env, net, f"n{i}") for i in range(4)]
        reg = MetricsRegistry(clock=lambda: env.now)
        rpcs = [RpcLayer(node, default_timeout=5.0, metrics=reg)
                for node in nodes]
        rpcs[1].serve("echo", lambda src, args: args)
        rpcs[2].serve("echo", slow_handler(env, 10.0))
        rpcs[3].serve("echo", slow_handler(env, 10.0))
        hedge = HedgePolicy(spares=("n3",), request=("echo", "backup"),
                            delays={"n2": 0.2}, deadlines={"n3": 4.0})

        def client(env):
            yield rpcs[0].call_wave(
                {"n1": ("echo", 1), "n2": ("echo", 2)},
                deadlines={"n1": 4.0, "n2": 4.0}, hedge=hedge)

        nodes[0].spawn(client(env))
        env.run(until=1.0)                  # the hedge has fired
        nodes[0].crash()
        counters = {split_key(k)[1]["outcome"]: v
                    for k, v in reg.snapshot()["counters"].items()
                    if split_key(k)[0] == "rpc_hedges"
                    and split_key(k)[1]["src"] == "n0"}
        assert counters == {"fired": 1, "won": 0, "wasted": 1}
        # nothing of the wave is left to run on the crashed caller: what
        # remains are the two handlers still sleeping on n2 and n3
        assert rpcs[0].pending_calls() == ()
        env.run(until=4.5)
        assert env.queue_size == 2
