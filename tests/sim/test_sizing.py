"""Message size estimation and network byte accounting."""

import collections
import dataclasses
import enum
import inspect
from typing import Any, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.messages
import repro.shard.messages
import repro.shard.sweep
import repro.sim.rpc
from repro.core.messages import BUSY
from repro.sim.engine import Environment
from repro.sim.network import LatencyModel, Network
from repro.sim.node import Node
from repro.sim.rpc import CALL_FAILED
from repro.sim.sizing import ENVELOPE_BYTES, estimate_size, message_size
from repro.sim.trace import TraceLog


class TestEstimateSize:
    def test_scalars(self):
        assert estimate_size(None) == 8
        assert estimate_size(42) == 8
        assert estimate_size(3.14) == 8
        assert estimate_size(True) == 8

    def test_strings_scale_with_length(self):
        assert estimate_size("abc") == 5
        assert estimate_size("x" * 100) == 102

    def test_containers_sum_elements(self):
        assert estimate_size([1, 2, 3]) == 8 + 24
        assert estimate_size({"k": 1}) == 8 + 3 + 8

    def test_nested_structures(self):
        payload = {"log": [(1, {"a": 1}), (2, {"b": 2})]}
        flat = estimate_size(payload)
        assert flat > estimate_size({"log": []})

    def test_dataclasses_counted_by_fields(self):
        from repro.core.messages import PropagationData
        small = PropagationData(source_version=1, log=((1, {"k": 1}),))
        big = PropagationData(source_version=1,
                              snapshot={f"k{i}": "v" * 50
                                        for i in range(20)})
        assert estimate_size(big) > estimate_size(small) * 5

    def test_message_size_adds_envelope(self):
        assert message_size(1) == ENVELOPE_BYTES + 8


class TestNetworkByteAccounting:
    def test_counters_accumulate(self):
        env = Environment()
        net = Network(env, LatencyModel(0.01, 0.01), trace=TraceLog())
        a = Node(env, net, "a")
        Node(env, net, "b")
        a.send("b", "ping", "payload")
        a.send("b", "ping", {"big": "x" * 100})
        env.run()
        assert net.messages_sent == 2
        assert net.bytes_sent > 2 * ENVELOPE_BYTES + 100

    def test_trace_records_bytes(self):
        env = Environment()
        trace = TraceLog()
        net = Network(env, LatencyModel(0.01, 0.01), trace=trace)
        a = Node(env, net, "a")
        Node(env, net, "b")
        a.send("b", "ping", "12345")
        env.run()
        sends = trace.select(kind="send")
        assert sends[0].detail["bytes"] == ENVELOPE_BYTES + 7


class TestDeltaVsSnapshotBytes:
    def test_log_shipping_is_smaller_than_snapshots(self):
        # the partial-write payoff in bytes: heal a replica that missed
        # one small update to a large object
        from repro.core.store import ReplicatedStore
        store = ReplicatedStore.create(9, seed=1, trace_enabled=True)
        big_value = {f"field{i}": "x" * 80 for i in range(30)}
        store.write(big_value, via="n00")
        store.settle()
        before = store.network.bytes_sent
        second = store.write({"field0": "tiny"}, via="n05")
        store.settle()
        delta_bytes = store.network.bytes_sent - before
        # the whole object is ~30*90 bytes per copy; healing N replicas by
        # snapshot would dwarf the quorum write + delta propagation
        object_size = 30 * 90
        assert second.stale  # someone was healed
        assert delta_bytes < object_size * len(store.node_names)


# -- the dispatch table against the recursive definition ------------------------

def reference_size(payload: Any) -> int:
    """The model as first written: one recursive walk, one ``isinstance``
    chain per value.  ``estimate_size`` must agree with it everywhere."""
    if payload is None or isinstance(payload, (bool, int, float)):
        return 8
    if isinstance(payload, (str, bytes)):
        return len(payload) + 2
    if isinstance(payload, dict):
        return 8 + sum(reference_size(k) + reference_size(v)
                       for k, v in payload.items())
    if isinstance(payload, (list, tuple, set, frozenset)):
        return 8 + sum(reference_size(item) for item in payload)
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        return 8 + sum(
            reference_size(getattr(payload, field.name))
            for field in dataclasses.fields(payload))
    return 32


class Colour(enum.IntEnum):
    RED = 1


class Label(str):
    pass


class Flag(int):
    pass


class Pair(NamedTuple):
    left: Any
    right: Any


@dataclasses.dataclass
class Empty:
    pass


@dataclasses.dataclass
class One:
    only: Any


@dataclasses.dataclass(frozen=True)
class Base:
    a: Any
    b: Any = 0


@dataclasses.dataclass(frozen=True)
class Derived(Base):
    c: Any = None
    kind: Any = dataclasses.field(default="derived", init=False)


@dataclasses.dataclass
class DictLike(dict):
    """A dataclass that is also a dict is sized as the dict it is."""
    extra: Any = 0


def dict_like(items: dict) -> DictLike:
    filled = DictLike()
    filled.update(items)
    return filled


class Opaque:
    pass


# core/state.py is not scanned: ReplicaState and ItemState are stable
# storage, and every handler unpacks them into a StateResponse, a plain
# tuple or a PropagationData before answering -- neither ever travels.
MESSAGE_CLASSES = sorted(
    {cls for module in (repro.core.messages, repro.shard.messages,
                        repro.shard.sweep, repro.sim.rpc)
     for _name, cls in inspect.getmembers(module, inspect.isclass)
     if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__},
    key=lambda cls: (cls.__module__, cls.__name__))

leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=12), st.binary(max_size=12),
    st.sampled_from([Colour.RED, Label("tag"), Flag(7), BUSY, CALL_FAILED,
                     Opaque(), Empty(), Opaque, Base]))
hashable_leaves = st.one_of(st.none(), st.booleans(), st.integers(),
                            st.text(max_size=8), st.sampled_from(
                                [Colour.RED, Label("tag"), Flag(7)]))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.sets(hashable_leaves, max_size=4),
        st.frozensets(hashable_leaves, max_size=4),
        st.dictionaries(hashable_leaves, children, max_size=4),
        st.dictionaries(hashable_leaves, children, max_size=3).map(
            collections.OrderedDict),
        st.dictionaries(hashable_leaves, children, max_size=3).map(
            dict_like),
        st.tuples(children, children).map(lambda pair: Pair(*pair)),
        children.map(One),
        st.tuples(children, children).map(lambda pair: Base(*pair)),
        st.tuples(children, children, children).map(
            lambda three: Derived(*three)),
        message_instances(children))


def message_instances(children):
    """One instance of a protocol message class, its fields filled with
    arbitrary payloads (sizing never looks at declared types)."""
    def build(cls):
        names = [f.name for f in dataclasses.fields(cls) if f.init]
        return st.tuples(*[children] * len(names)).map(
            lambda values: cls(**dict(zip(names, values))))
    return st.sampled_from(MESSAGE_CLASSES).flatmap(build)


payloads = st.recursive(leaves, containers, max_leaves=20)


class TestDispatchTableMatchesReference:
    def test_the_modules_do_define_messages(self):
        names = {cls.__name__ for cls in MESSAGE_CLASSES}
        assert {"StateResponse", "Prepare", "PropagationData",
                "ShApplyWrite", "_Request", "_Response"} <= names

    @given(payloads)
    @settings(max_examples=400, deadline=None)
    def test_same_size_as_the_recursive_walk(self, payload):
        assert estimate_size(payload) == reference_size(payload)

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_every_message_class(self, data):
        for cls in MESSAGE_CLASSES:
            names = [f.name for f in dataclasses.fields(cls) if f.init]
            message = cls(**{name: data.draw(payloads) for name in names})
            assert estimate_size(message) == reference_size(message)
            assert message_size(message) == (ENVELOPE_BYTES
                                             + reference_size(message))

    def test_subclasses_follow_their_first_matching_base(self):
        assert estimate_size(Colour.RED) == 8
        assert estimate_size(Flag(3)) == 8
        assert estimate_size(Label("abc")) == 5
        assert estimate_size(Pair(1, "ab")) == 8 + 8 + 4
        assert estimate_size(dict_like({"k": 1})) == 8 + 3 + 8
        assert estimate_size(Empty()) == 8
        assert estimate_size(One("ab")) == 8 + 4
        assert estimate_size(Derived(1, 2, 3)) == 8 + 4 * 8 + 1
        assert estimate_size(Opaque()) == 32
        assert estimate_size(Base) == 32      # the class, not an instance
