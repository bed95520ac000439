"""Asynchronous update propagation: log shipping, snapshots, races."""

from repro.core.config import ProtocolConfig
from repro.core.messages import PropagationData, PropagationOffer
from repro.core.store import ReplicatedStore


class TestHealing:
    def test_stale_replica_healed_by_log_shipping(self):
        store = ReplicatedStore.create(9, seed=1, trace_enabled=True)
        store.write({"x": 1}, via="n00")
        second = store.write({"y": 2}, via="n05")
        assert second.stale
        store.settle()
        shipped = store.trace.select(kind="propagation-shipped")
        assert shipped
        assert any(rec.detail["payload"] == "log" for rec in shipped)
        for name in second.stale:
            assert store.replica_state(name).version == second.version

    def test_snapshot_fallback_when_log_truncated(self):
        config = ProtocolConfig(update_log_capacity=2)
        store = ReplicatedStore.create(9, seed=2, config=config,
                                       trace_enabled=True)
        store.write({"k0": 0}, via="n00")
        # make n08 fall far behind: crash it, shrink the epoch, write a
        # lot, then let it rejoin -- it comes back >2 versions behind the
        # truncated log
        store.crash("n08")
        assert store.check_epoch().changed
        for i in range(1, 6):
            store.write({f"k{i}": i}, via="n00")
        store.recover("n08")
        result = store.check_epoch()
        assert result.changed and "n08" in result.stale
        store.settle()
        state = store.replica_state("n08")
        assert not state.stale
        assert state.value == {f"k{i}": i for i in range(6)}
        shipped = store.trace.select(kind="propagation-shipped",
                                     predicate=lambda r: r.detail["target"] == "n08")
        assert any(rec.detail["payload"] == "snapshot" for rec in shipped)

    def test_propagation_does_not_regress_newer_target(self):
        # A stale target must reject propagation from a source older than
        # its desired version (dversion check in PropagateResponse).
        store = ReplicatedStore.create(9, seed=3)
        server = store.servers["n00"]
        # hand-craft: n00 stale wanting v5; offer from a v3 source
        server.state = server.state.marked_stale(5)
        offers = []

        def client():
            response = yield store.servers["n01"].rpc.call(
                "n00", "propagation-offer",
                PropagationOffer(source="n01", version=3))
            offers.append(response)

        store.join(store.nodes["n01"].spawn(client()))
        assert offers == ["i-am-current"]  # refuses the stale source

    def test_offer_to_current_replica_answered_i_am_current(self):
        store = ReplicatedStore.create(4, seed=4)
        store.write({"x": 1})
        responses = []

        def client():
            response = yield store.servers["n01"].rpc.call(
                "n00", "propagation-offer",
                PropagationOffer(source="n01", version=1))
            responses.append(response)

        store.join(store.nodes["n01"].spawn(client()))
        assert responses == ["i-am-current"]

    def test_concurrent_offers_one_wins(self):
        # Two sources offer simultaneously; the second must see
        # already-recovering (the locked-for-propagation bit).
        store = ReplicatedStore.create(9, seed=5)
        target = store.servers["n02"]
        target.state = target.state.marked_stale(1)
        # make sources current at v1
        for source in ("n00", "n01"):
            server = store.servers[source]
            server.state = server.state.applied({"x": 1}, 1, 8)
        answers = {}

        def offer_from(source):
            response = yield store.servers[source].rpc.call(
                "n02", "propagation-offer",
                PropagationOffer(source=source, version=1))
            answers[source] = response

        p1 = store.nodes["n00"].spawn(offer_from("n00"))
        p2 = store.nodes["n01"].spawn(offer_from("n01"))
        store.join(p1, p2)
        granted = [s for s, a in answers.items()
                   if isinstance(a, tuple) and a[0] == "propagation-permitted"]
        deferred = [s for s, a in answers.items()
                    if a == "already-recovering"]
        assert len(granted) == 1 and len(deferred) == 1

    def test_same_tick_offers_do_not_crash(self):
        # regression: two offers delivered in the SAME tick both pass the
        # recovering check; with a shared lock-owner name the second
        # acquire was a duplicate-owner error that killed the simulation.
        store = ReplicatedStore.create(9, seed=5, latency=(0.01, 0.01))
        target = store.servers["n02"]
        target.state = target.state.marked_stale(1)
        for source in ("n00", "n01"):
            server = store.servers[source]
            server.state = server.state.applied({"x": 1}, 1, 8)
        answers = {}

        def offer_from(source):
            response = yield store.servers[source].rpc.call(
                "n02", "propagation-offer",
                PropagationOffer(source=source, version=1))
            answers[source] = response

        p1 = store.nodes["n00"].spawn(offer_from("n00"))
        p2 = store.nodes["n01"].spawn(offer_from("n01"))
        store.join(p1, p2)
        granted = [a for a in answers.values()
                   if isinstance(a, tuple) and a[0] == "propagation-permitted"]
        # constant latency: both arrive together; exactly one may hold the
        # permit, the other either defers or learns the truth under lock
        assert len(granted) <= 1
        assert len(answers) == 2

    def test_permit_lease_expires_without_data(self):
        store = ReplicatedStore.create(4, seed=6)
        target = store.servers["n01"]
        target.state = target.state.marked_stale(1)
        source = store.servers["n00"]
        source.state = source.state.applied({"x": 1}, 1, 8)
        answers = []

        def offer_only():
            response = yield source.rpc.call(
                "n01", "propagation-offer",
                PropagationOffer(source="n00", version=1))
            answers.append(response)

        store.join(store.nodes["n00"].spawn(offer_only()))
        assert answers[0][0] == "propagation-permitted"
        assert target.lock.locked
        store.advance(store.config.propagation_lease + 1)
        assert not target.lock.locked   # lease reclaimed the lock
        assert not target.node.volatile.get("recovering")   # no permit

    def test_data_without_permit_rejected(self):
        store = ReplicatedStore.create(4, seed=7)
        results = []

        def send_data():
            response = yield store.servers["n00"].rpc.call(
                "n01", "propagation-data",
                PropagationData(source_version=3, snapshot={"x": 3}))
            results.append(response)

        store.join(store.nodes["n00"].spawn(send_data()))
        assert results == ["no-permit"]
        assert store.replica_state("n01").version == 0

    def test_propagation_gives_up_on_dead_target(self):
        store = ReplicatedStore.create(9, seed=8, trace_enabled=True)
        store.write({"x": 1}, via="n00")
        second = store.write({"y": 2}, via="n05")
        victims = list(second.stale)
        store.crash(*victims)
        store.advance(60)
        gave_up = store.trace.select(kind="propagation-gave-up")
        assert {rec.detail["target"] for rec in gave_up} == set(victims)
        counters = store.metrics_snapshot()["counters"]
        assert counters.get("propagation_gave_up", 0) == len(gave_up)

    def test_epoch_check_reseeds_propagation_after_give_up(self):
        # A stale replica behind a partition outlives every courier: the
        # sources hit MAX_FAILED_ROUNDS and drop it.  After the heal the
        # next epoch check -- membership unchanged -- must notice the
        # still-stale member and re-seed propagation, or it stays stale
        # forever.
        store = ReplicatedStore.create(9, seed=13, trace_enabled=True)
        store.write({"a": 1}, via="n00")
        store.crash("n08")
        assert store.check_epoch().changed          # epoch sheds n08
        store.write({"b": 2}, via="n00")
        store.recover("n08")
        result = store.check_epoch()                # n08 rejoins, stale
        assert result.changed and "n08" in result.stale

        store.partition(["n08"])                    # couriers can't reach it
        store.advance(40)                           # every source gives up
        gave_up = store.trace.select(
            kind="propagation-gave-up",
            predicate=lambda r: r.detail["target"] == "n08")
        assert gave_up
        assert store.metrics_snapshot()["counters"][
            "propagation_gave_up"] >= 1

        store.heal()
        store.advance(10)
        # nobody is serving n08 any more; without the re-seed hook it
        # would stay stale indefinitely
        assert store.replica_state("n08").stale
        check = store.check_epoch(via="n00")
        assert check.ok and not check.changed
        store.settle()
        state = store.replica_state("n08")
        assert not state.stale
        assert state.value == {"a": 1, "b": 2}
        counters = store.metrics_snapshot()["counters"]
        assert counters.get("propagation_reseeded", 0) >= 1
        reseeded = store.trace.select(kind="propagation-reseeded")
        assert any("n08" in rec.detail["targets"] for rec in reseeded)
        store.verify()


class TestPartitionHealing:
    """Stale replicas created by a partition episode heal after the heal,
    with the desired-version bookkeeping of paper Section 4."""

    def test_stale_after_partition_heal_is_propagated(self):
        store = ReplicatedStore.create(9, seed=11, trace_enabled=True)
        store.write({"a": 1}, via="n00")
        store.partition(["n07", "n08"])
        assert store.check_epoch().changed  # majority sheds the minority
        for i in range(3):
            store.write({f"b{i}": i}, via="n00")
        store.heal()
        result = store.check_epoch()        # minority rejoins, marked stale
        assert result.changed
        assert {"n07", "n08"} <= set(result.stale)
        max_version = max(store.replica_state(n).version
                          for n in store.node_names)
        for name in ("n07", "n08"):
            state = store.replica_state(name)
            # Section 4: a stale replica records the version it must
            # reach (dversion), strictly above what it holds
            assert state.stale
            assert state.version < state.dversion
            assert state.dversion == max_version
        store.settle()
        expected = {"a": 1, "b0": 0, "b1": 1, "b2": 2}
        for name in ("n07", "n08"):
            state = store.replica_state(name)
            assert not state.stale
            assert state.version == max_version
            assert state.value == expected
        # the catch-up crossed the healed boundary as log shipping
        shipped = store.trace.select(
            kind="propagation-shipped",
            predicate=lambda r: r.detail["target"] in ("n07", "n08"))
        assert shipped

    def test_dversion_advances_with_each_missed_write(self):
        # A replica that stays stale across several writes must track the
        # moving target: every write it misses re-marks it with a higher
        # dversion (Section 4's desired-version bookkeeping).
        from repro.core.state import initial_state
        from repro.coteries.grid import GridCoterie

        store = ReplicatedStore.create(9, seed=12)
        store.write({"x": 1}, via="n00")
        # pick the victim from the quorum the next write via n00 will
        # poll (the blind salted draw, nothing suspected)
        names = tuple(store.node_names)
        quorum = GridCoterie(names).write_quorum(salt="n00", attempt=2)
        victim = sorted(n for n in quorum if n != "n00")[0]
        # pretend the victim missed write 1 and was marked for it
        store.servers[victim].state = initial_state(
            names, store.initial_value).marked_stale(1)
        assert store.replica_state(victim).dversion == 1
        second = store.write({"x": 2}, via="n00")
        assert victim in second.stale
        state = store.replica_state(victim)
        assert state.stale
        assert state.version < state.dversion == second.version == 2
        store.settle()
        healed = store.replica_state(victim)
        assert not healed.stale and healed.version == 2
        assert healed.value["x"] == 2


class TestPartialWritePayoff:
    def test_log_shipping_moves_only_deltas(self):
        # The partial-write design goal: catch-up transfers carry the
        # missing updates, not whole objects.
        store = ReplicatedStore.create(9, seed=9, trace_enabled=True)
        big_value = {f"field{i}": "x" * 50 for i in range(40)}
        store.write(big_value, via="n00")
        store.settle()
        store.trace.clear()
        small = store.write({"field0": "tiny"}, via="n05")
        store.settle()
        shipped = store.trace.select(kind="propagation-shipped")
        assert shipped and all(rec.detail["payload"] == "log"
                               for rec in shipped)
        for name in small.stale:
            assert store.replica_state(name).value["field0"] == "tiny"
            assert store.replica_state(name).value["field39"] == "x" * 50
