"""Unit tests for ReplicaState, ItemState and protocol messages."""

import pytest

from repro.core.messages import (
    BUSY,
    PropagationData,
    ReadResult,
    StateResponse,
    WriteResult,
)
from repro.core.state import ItemState, ReplicaState, initial_state


@pytest.fixture(params=[
    lambda value=None: initial_state(("a", "b"), value),
    lambda value=None: ItemState(value=dict(value or {})),
], ids=["ReplicaState", "ItemState"])
def fresh(request):
    """``fresh(value=None)``: a version-0 state of either class -- the
    update-log methods are written once and both must behave alike."""
    return request.param


class TestInitialState:
    def test_paper_initial_conditions(self):
        # Paper Section 4: version, epoch number, stale flags all zero;
        # epoch lists include all nodes.
        state = initial_state(("a", "b", "c"))
        assert state.version == 0
        assert state.epoch_number == 0
        assert not state.stale
        assert state.epoch_list == ("a", "b", "c")
        assert state.value == {}

    def test_initial_value_copied(self):
        seed_value = {"k": 1}
        state = initial_state(("a",), seed_value)
        seed_value["k"] = 2
        assert state.value == {"k": 1}


class TestApplied:
    def test_partial_update_merges(self, fresh):
        state = fresh({"x": 0, "y": 0})
        state = state.applied({"x": 1}, 1, log_capacity=8)
        assert state.value == {"x": 1, "y": 0}
        assert state.version == 1
        assert not state.stale

    def test_version_must_be_contiguous(self, fresh):
        state = fresh()
        with pytest.raises(ValueError):
            state.applied({"x": 1}, 2, log_capacity=8)

    def test_update_log_grows_and_truncates(self, fresh):
        state = fresh()
        for v in range(1, 6):
            state = state.applied({"k": v}, v, log_capacity=3)
        assert [entry[0] for entry in state.update_log] == [3, 4, 5]

    def test_zero_capacity_keeps_everything(self, fresh):
        state = fresh()
        for v in range(1, 6):
            state = state.applied({"k": v}, v, log_capacity=0)
        assert len(state.update_log) == 5

    def test_apply_clears_stale(self, fresh):
        # propagation brings it current first in the real protocol; applied()
        # itself resets staleness for GOOD replicas that lagged in marking
        state = fresh().marked_stale(0)
        state = state.applied({"x": 1}, 1, 4)
        assert not state.stale

    def test_result_keeps_its_class_and_other_fields(self, fresh):
        state = fresh().marked_stale(3)
        assert type(state.applied({"x": 1}, 1, 4)) is type(state)
        assert state.applied({"x": 1}, 1, 4).dversion == 3
        replica = initial_state(("a", "b")).with_epoch(("a",), 2)
        after = replica.applied({"x": 1}, 1, 4).marked_stale(2)
        assert (after.epoch_list, after.epoch_number) == (("a",), 2)


class TestMarkedStale:
    def test_sets_flag_and_dversion(self, fresh):
        state = fresh().marked_stale(5)
        assert state.stale
        assert state.dversion == 5

    def test_dversion_never_decreases(self, fresh):
        state = fresh().marked_stale(5).marked_stale(3)
        assert state.dversion == 5

    def test_value_and_version_untouched(self, fresh):
        state = fresh({"x": 1}).applied({"x": 2}, 1, 4)
        stale = state.marked_stale(2)
        assert stale.value == {"x": 2}
        assert stale.version == 1


class TestWithEpoch:
    def test_installs_new_epoch(self):
        state = initial_state(("a", "b", "c")).with_epoch(("a", "b"), 1)
        assert state.epoch_list == ("a", "b")
        assert state.epoch_number == 1

    def test_epoch_numbers_must_grow(self):
        state = initial_state(("a", "b")).with_epoch(("a",), 3)
        with pytest.raises(ValueError):
            state.with_epoch(("a", "b"), 3)
        with pytest.raises(ValueError):
            state.with_epoch(("a", "b"), 2)


class TestCaughtUp:
    def test_clears_stale_and_jumps_version(self, fresh):
        state = fresh().marked_stale(3)
        healed = state.caught_up({"x": 9}, 3, ())
        assert not healed.stale
        assert healed.version == 3
        assert healed.value == {"x": 9}

    def test_rejects_catchup_below_desired_version(self, fresh):
        state = fresh().marked_stale(5)
        with pytest.raises(ValueError):
            state.caught_up({"x": 1}, 4, ())


class TestPropagated:
    """The propagation target's merge, shared by both replica servers."""

    def test_replays_a_shipped_log_and_caps_it(self, fresh):
        source = fresh()
        for v in range(1, 5):
            source = source.applied({"k": v, f"k{v}": v}, v, 0)
        target = fresh().applied({"k": 1, "k1": 1}, 1, 0).marked_stale(4)
        data = PropagationData(source_version=4, log=source.log_slice(1))
        healed = target.propagated(data, log_capacity=2)
        assert not healed.stale and healed.version == 4
        assert healed.value == source.value
        assert [v for v, _u in healed.update_log] == [3, 4]
        assert type(healed) is type(target)

    def test_adopts_a_snapshot_and_resets_the_log(self, fresh):
        target = fresh().applied({"k": 1}, 1, 0).marked_stale(7)
        snapshot = {"k": 7}
        healed = target.propagated(
            PropagationData(source_version=7, snapshot=snapshot), 4)
        assert (healed.version, healed.value, healed.update_log) == \
            (7, {"k": 7}, ())
        snapshot["k"] = 99
        assert healed.value == {"k": 7}

    @pytest.mark.parametrize("data, refusal", [
        (PropagationData(source_version=3, log=((3, {"k": 3}),)), "gap"),
        (PropagationData(source_version=3), "empty"),
        (PropagationData(source_version=1, snapshot={"k": 1}), "rejected"),
    ])
    def test_refusals_name_the_reply(self, fresh, data, refusal):
        target = fresh().applied({"k": 1}, 1, 0).marked_stale(2)
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            target.propagated(data, 4)


class TestLogSlice:
    @pytest.fixture
    def make_state(self, fresh):
        def make(versions, capacity=0):
            state = fresh()
            for v in versions:
                state = state.applied({"k": v}, v, capacity)
            return state
        return make

    def test_full_slice(self, make_state):
        state = make_state([1, 2, 3])
        entries = state.log_slice(0)
        assert [v for v, _u in entries] == [1, 2, 3]

    def test_partial_slice(self, make_state):
        state = make_state([1, 2, 3, 4])
        entries = state.log_slice(2)
        assert [v for v, _u in entries] == [3, 4]

    def test_empty_slice_when_current(self, make_state):
        state = make_state([1, 2])
        assert state.log_slice(2) == ()

    def test_none_when_truncated(self, make_state):
        state = make_state([1, 2, 3, 4, 5], capacity=2)
        assert state.log_slice(1) is None
        assert [v for v, _u in state.log_slice(3)] == [4, 5]


class TestResponses:
    def test_response_tuple_matches_paper_fields(self):
        state = initial_state(("a", "b")).applied({"x": 1}, 1, 4)
        response = state.response("a")
        assert (response.node, response.version, response.dversion,
                response.stale, response.elist, response.enumber) == \
            ("a", 1, 0, False, ("a", "b"), 0)
        assert response.value is None

    def test_response_value_is_a_copy(self):
        state = initial_state(("a",), {"x": 1})
        response = state.response("a", include_value=True)
        response.value["x"] = 99
        assert state.value == {"x": 1}

    def test_snapshot_comparable(self):
        state = initial_state(("a",))
        assert state.response("a").snapshot() == (0, 0, False, 0)


class TestResultObjects:
    def test_truthiness(self):
        assert WriteResult(True, version=1)
        assert not WriteResult(False)
        assert ReadResult(True, value={})
        assert not ReadResult(False)

    def test_busy_singleton_falsy(self):
        assert not BUSY
        assert repr(BUSY) == "BUSY"

    def test_item_state_is_frozen_and_replica_state_is_not(self):
        with pytest.raises(AttributeError):
            ItemState().version = 5
        state = initial_state(("a",))
        state.version = 5
        assert repr(ItemState()) == ("ItemState(value={}, version=0, "
                                     "dversion=0, stale=False, update_log=())")
        assert repr(state).startswith("ReplicaState(epoch_list=('a',), value=")

    def test_state_response_immutable(self):
        response = StateResponse("a", 0, 0, False, ("a",), 0)
        with pytest.raises(AttributeError):
            response.version = 5
