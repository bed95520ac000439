"""The static quorum protocol baseline: correct, but fragile exactly the
way the paper says it is."""

import pytest

from repro.baselines.static_protocol import StaticQuorumStore
from repro.core.store import ReplicatedStore, StoreError
from repro.coteries.majority import MajorityCoterie
from repro.coteries.rowa import ReadOneWriteAllCoterie


class TestStaticGrid:
    def test_write_and_read(self):
        store = StaticQuorumStore.create(9, seed=1)
        result = store.write({"x": 1})
        assert result.ok and result.version == 1 and result.case == "fast"
        read = store.read()
        assert read.ok and read.value == {"x": 1}
        store.verify()

    def test_total_writes_replace_on_every_quorum_member(self):
        store = StaticQuorumStore.create(9, seed=2)
        first = store.write({"x": 1}, via="n00")
        second = store.write({"y": 2}, via="n05")
        # total writes: members of the second quorum hold ONLY {'y': 2}
        for name in second.good:
            assert store.replica_state(name).value == {"y": 2}
            assert store.replica_state(name).version == 2
        # read returns the latest total value, not a merge
        assert store.read().value == {"y": 2}

    def test_laggards_caught_up_by_overwriting(self):
        store = StaticQuorumStore.create(9, seed=3)
        store.write({"v": 1}, via="n00")
        second = store.write({"v": 2}, via="n05")
        # a member of the second quorum that missed the first write is
        # simply overwritten -- no staleness machinery needed
        for name in second.good:
            assert store.replica_state(name).version == 2

    def test_single_failure_beyond_quorum_kills_availability(self):
        # the paper's Section 1 criticism: the static protocol cannot adapt
        store = StaticQuorumStore.create(9, seed=4)
        store.write({"x": 1})
        store.crash("n02", "n05", "n08")  # one full grid column
        assert not store.write({"x": 2}).ok
        assert not store.read().ok
        # ...and there is no epoch checking to save it
        with pytest.raises(StoreError):
            store.start_epoch_check()

    def test_dynamic_protocol_survives_where_static_dies(self):
        # same fault sequence, both protocols, side by side
        faults = ["n08", "n07", "n06", "n05"]
        static = StaticQuorumStore.create(9, seed=5)
        dynamic = ReplicatedStore.create(9, seed=5)
        static.write({"x": 0})
        dynamic.write({"x": 0})
        static_ok = dynamic_ok = 0
        for i, victim in enumerate(faults):
            static.crash(victim)
            dynamic.crash(victim)
            dynamic.check_epoch()
            static_ok += bool(static.write({"x": i + 1}).ok)
            dynamic_ok += bool(dynamic.write({"x": i + 1}).ok)
        assert dynamic_ok == len(faults)     # absorbed every failure
        assert static_ok < len(faults)       # static lost availability
        dynamic.verify()

    def test_concurrent_static_writes_serialize(self):
        store = StaticQuorumStore.create(9, seed=6)
        procs = [store.start_write({"x": i}, via=f"n{i:02d}")
                 for i in range(3)]
        results = store.join(*procs, timeout=300)
        versions = [r.version for r in results if r.ok]
        assert len(versions) == len(set(versions)) and versions
        store.verify()


class TestStaticOtherCoteries:
    def test_majority_voting(self):
        store = StaticQuorumStore.create(5, seed=7,
                                         coterie_rule=MajorityCoterie)
        assert store.write({"x": 1}).ok
        store.crash("n00", "n01")       # 3 of 5 left: still a majority
        assert store.write({"x": 2}).ok
        store.crash("n02")              # 2 of 5: no majority
        assert not store.write({"x": 3}).ok
        store.verify()

    def test_rowa_write_all(self):
        store = StaticQuorumStore.create(4, seed=8,
                                         coterie_rule=ReadOneWriteAllCoterie)
        assert store.write({"x": 1}).ok
        assert all(v == 1 for v in store.versions().values())
        store.crash("n03")
        assert not store.write({"x": 2}).ok   # write-all can't miss anyone
        read = store.read()
        assert read.ok and read.value == {"x": 1}  # reads stay cheap
        store.verify()
