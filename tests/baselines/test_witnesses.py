"""Voting with witnesses (Paris 1986)."""

import pytest

from repro.baselines.witnesses import WitnessVotingStore
from repro.core.store import StoreError


def make_store(n_data=2, n_witness=1, seed=1, **kwargs):
    data = [f"d{i}" for i in range(n_data)]
    witnesses = [f"w{i}" for i in range(n_witness)]
    return WitnessVotingStore(data + witnesses, witnesses, seed=seed,
                              **kwargs)


class TestBasics:
    def test_write_and_read(self):
        store = make_store()
        result = store.write({"x": 1})
        assert result.ok and result.version == 1
        read = store.read()
        assert read.ok and read.value == {"x": 1}
        store.verify()

    def test_witnesses_store_no_data(self):
        store = make_store()
        store.crash("d1")  # force the witness into the write quorum
        store.write({"x": "payload" * 10})
        assert store.replica_state("w0").value == {}
        assert store.replica_state("w0").version == 1
        assert store.replica_state("d0").value == {"x": "payload" * 10}

    def test_storage_savings(self):
        store = make_store(n_data=2, n_witness=1)
        store.write({f"k{i}": "v" * 50 for i in range(10)})
        usage = store.storage_bytes()
        assert usage["w0"] < usage["d0"] / 10

    def test_write_result_reports_data_nodes_only(self):
        store = make_store()
        result = store.write({"x": 1})
        assert set(result.good) <= {"d0", "d1"}

    def test_configuration_validation(self):
        with pytest.raises(StoreError):
            WitnessVotingStore(["a", "b"], ["a", "b"])  # no data node
        with pytest.raises(StoreError):
            WitnessVotingStore(["a", "b"], ["zz"])      # unknown witness
        with pytest.raises(StoreError):
            make_store().start_epoch_check()


class TestAvailability:
    def test_witness_buys_a_tolerable_failure(self):
        # 2 data + 1 witness: majority is 2; one data node down, the
        # witness + the survivor still form quorums for reads and writes.
        store = make_store()
        store.write({"x": 1})
        store.crash("d1")
        result = store.write({"x": 2})
        assert result.ok
        read = store.read()
        assert read.ok and read.value == {"x": 2}
        store.verify()

    def test_witness_alone_with_one_data_node_down_both_data(self):
        # both data nodes down: a quorum may exist (witness + nothing =
        # 1 < 2), so everything fails cleanly
        store = make_store()
        store.write({"x": 1})
        store.crash("d0", "d1")
        assert not store.write({"x": 2}).ok
        assert not store.read().ok
        store.verify()

    def test_fresh_version_only_at_witness_blocks_read(self):
        # after d1 was down for a write, the quorum {d1, w0} has its max
        # version only at the witness -> the read must go wide and find d0
        store = make_store(seed=3)
        store.write({"x": 1})
        store.crash("d1")
        store.write({"x": 2})     # lands on d0 + w0
        store.recover("d1")
        for via in ("d0", "d1", "w0"):
            read = store.read(via=via)
            assert read.ok and read.value == {"x": 2}, via
        store.verify()

    def test_data_death_with_witness_majority_fails_safe(self):
        # 1 data + 2 witnesses: a majority of votes can exist without ANY
        # data node.  Reads must fail rather than return nothing, and
        # writes must refuse to "commit" a value that would be stored
        # nowhere (Paris: every write reaches at least one data copy).
        store = make_store(n_data=1, n_witness=2, seed=4)
        store.write({"x": 1})
        store.crash("d0")
        read = store.read()
        assert not read.ok and read.case == "no-quorum"
        result = store.write({"x": 2})
        assert not result.ok
        store.recover("d0")
        assert store.read().value == {"x": 1}  # nothing was lost
        store.verify()

    def test_same_availability_as_three_data_nodes_for_writes(self):
        # the witness pitch: 2 data + 1 witness votes like 3 data nodes
        from repro.baselines.static_protocol import StaticQuorumStore
        from repro.coteries.majority import MajorityCoterie
        witness_store = make_store(seed=5)
        full_store = StaticQuorumStore.create(
            3, seed=5, coterie_rule=MajorityCoterie)
        witness_store.write({"x": 1})
        full_store.write({"x": 1})
        # one failure each: both keep working
        witness_store.crash("d1")
        full_store.crash("n01")
        assert witness_store.write({"x": 2}).ok
        assert full_store.write({"x": 2}).ok
        # two failures each: both stop
        witness_store.crash("w0")
        full_store.crash("n02")
        assert not witness_store.write({"x": 3}).ok
        assert not full_store.write({"x": 3}).ok
