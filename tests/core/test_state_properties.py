"""Property-based tests of the replica state machine, over both state
classes (the update-log methods are one implementation)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.state import ItemState, initial_state

both_states = pytest.mark.parametrize(
    "fresh", [lambda: initial_state(("a",)), ItemState],
    ids=["ReplicaState", "ItemState"])


@st.composite
def update_dicts(draw):
    keys = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3,
                         unique=True))
    return {key: draw(st.integers(min_value=0, max_value=99))
            for key in keys}


@both_states
class TestAppliedProperties:
    @given(st.lists(update_dicts(), min_size=1, max_size=12),
           st.integers(min_value=0, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_value_equals_replay_of_updates(self, fresh, updates, capacity):
        state = fresh()
        expected = {}
        for version, update in enumerate(updates, start=1):
            state = state.applied(update, version, capacity)
            expected.update(update)
        assert state.value == expected
        assert state.version == len(updates)

    @given(st.lists(update_dicts(), min_size=1, max_size=12),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_log_capacity_respected_and_contiguous(self, fresh, updates,
                                                   capacity):
        state = fresh()
        for version, update in enumerate(updates, start=1):
            state = state.applied(update, version, capacity)
        assert len(state.update_log) <= capacity
        versions = [v for v, _u in state.update_log]
        assert versions == list(range(state.version - len(versions) + 1,
                                      state.version + 1))

    @given(st.lists(update_dicts(), min_size=1, max_size=10),
           st.integers(min_value=0, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_log_slice_replays_to_current_value(self, fresh, updates, start):
        state = fresh()
        snapshots = [dict(state.value)]
        for version, update in enumerate(updates, start=1):
            state = state.applied(update, version, 0)  # unbounded log
            snapshots.append(dict(state.value))
        start = min(start, state.version)
        entries = state.log_slice(start)
        replayed = dict(snapshots[start])
        for _version, update in entries:
            replayed.update(update)
        assert replayed == state.value


class ItemStateMachine(RuleBasedStateMachine):
    """Random operation sequences keep the invariants."""

    fresh = ItemState

    def __init__(self):
        super().__init__()
        self.state = self.fresh()
        self.model_value = {}

    @rule(update=update_dicts())
    def apply_write(self, update):
        if self.state.stale:
            return  # only current replicas take writes
        self.state = self.state.applied(update, self.state.version + 1, 5)
        self.model_value.update(update)

    @rule(ahead=st.integers(min_value=0, max_value=3))
    def mark_stale(self, ahead):
        self.state = self.state.marked_stale(self.state.version + ahead)

    @rule()
    def heal(self):
        if not self.state.stale:
            return
        # propagation from a hypothetical source at desired version
        target_version = max(self.state.dversion, self.state.version)
        self.model_value["healed"] = target_version
        self.state = self.state.caught_up(dict(self.model_value),
                                          target_version, ())

    @invariant()
    def version_fields_sane(self):
        assert self.state.version >= 0
        assert self.state.dversion >= 0
        if not self.state.stale:
            # a non-stale replica's value matches the model exactly
            assert self.state.value == self.model_value

    @invariant()
    def stale_implies_desired_at_least_version(self):
        # dversion only matters while stale; it never sits below what the
        # replica already has (marked_stale takes the max)
        if self.state.stale and self.state.dversion < self.state.version:
            raise AssertionError(
                f"stale with dversion {self.state.dversion} < "
                f"version {self.state.version}")


class ReplicaStateMachine(ItemStateMachine):
    """The same, with epoch installs interleaved."""

    fresh = staticmethod(lambda: initial_state(("a", "b")))

    @rule(bump=st.integers(min_value=1, max_value=2))
    def new_epoch(self, bump):
        self.state = self.state.with_epoch(
            ("a", "b"), self.state.epoch_number + bump)


for machine in (ItemStateMachine, ReplicaStateMachine):
    machine.TestCase.settings = settings(
        max_examples=40, stateful_step_count=20, deadline=None)
TestItemStateMachine = ItemStateMachine.TestCase
TestReplicaStateMachine = ReplicaStateMachine.TestCase
