"""Span arithmetic, generator proxies, and leaving no trace behind."""

import itertools

import pytest

from bench import spans


@pytest.fixture
def clock(monkeypatch):
    """A clock that advances only when the test says so."""
    now = [0.0]
    monkeypatch.setattr(spans, "perf_counter", lambda: now[0])

    def advance(seconds):
        now[0] += seconds
    return advance


def test_self_time_is_span_time_minus_children(clock):
    tracer = spans.Tracer()
    a = tracer.enter("layer.a", "a")
    clock(2)
    b = tracer.enter("layer.b", "b")
    clock(1)
    c = tracer.enter("layer.c", "c")
    clock(1)
    tracer.exit(c)
    clock(1)
    tracer.exit(b)
    clock(5)
    assert tracer.exit(a) == 10
    assert tracer.layer_self_s("layer.a") == 7
    assert tracer.layer_self_s("layer.b") == 2
    assert tracer.layer_self_s("layer.c") == 1
    assert sum(tracer.self_s.values()) == 10


def test_reentrant_spans_do_not_count_time_twice(clock):
    tracer = spans.Tracer()

    def recurse(depth):
        clock(1)
        if depth:
            traced(depth - 1)
        clock(1)
    traced = tracer.function_span(recurse, "layer.r", "recurse")
    with tracer.region():
        traced(3)
    assert tracer.spans("layer.r", "recurse") == (4, 8.0)
    assert tracer.region_s == 8
    assert sum(tracer.self_s.values()) == 8


def test_spans_must_close_in_order(clock):
    tracer = spans.Tracer()
    outer = tracer.enter("x", "outer")
    tracer.enter("x", "inner")
    with pytest.raises(RuntimeError, match="out of order"):
        tracer.exit(outer)


def test_generator_proxy_attributes_each_resumption_across_yield_from(clock):
    tracer = spans.Tracer()

    def inner():
        clock(3)
        got = yield "inner-1"
        clock(4)
        return got * 2

    def outer():
        clock(1)
        doubled = yield from traced_inner()
        clock(2)
        yield doubled

    traced_inner = tracer.generator_span(inner, "layer.inner", "inner")
    traced_outer = tracer.generator_span(outer, "layer.outer", "outer",
                                         starts="write")
    with tracer.region():
        generator = traced_outer()
        assert generator.send(None) == "inner-1"
        assert generator.send(21) == 42
    # the inner generator's steps are its own layer's, the rest the outer's
    assert tracer.layer_self_s("layer.inner") == 7
    assert tracer.layer_self_s("layer.outer") == 3
    assert tracer.spans("layer.outer", "outer")[0] == 2      # two resumptions
    assert tracer.spans("layer.inner", "inner")[0] == 2
    # and it worked for the operation that the outer entry point started
    assert tracer.self_s["layer.inner", "write"] == 7
    assert tracer.ops_started == {"write": 1}


def test_proxy_passes_return_values_exceptions_and_close(clock):
    tracer = spans.Tracer()
    closed = []

    def body():
        try:
            yield 1
        except KeyError:
            yield "caught"
        finally:
            closed.append(True)
        return "done"

    proxy = tracer.generator_span(body, "x", "body")()
    assert next(proxy) == 1
    assert proxy.throw(KeyError("k")) == "caught"
    with pytest.raises(StopIteration) as stop:
        proxy.send(None)
    assert stop.value.value == "done"
    other = tracer.generator_span(body, "x", "body")()
    next(other)
    other.close()
    assert closed == [True, True]


def test_a_span_learns_its_operation_from_a_child_but_the_region_never(clock):
    tracer = spans.Tracer()
    with tracer.region():
        step = tracer.enter("sim.engine", "step")
        clock(1)
        child = tracer.enter("core.coordinator", "write",
                             tracer.new_op("write"))
        clock(2)
        tracer.exit(child)
        tracer.exit(step)
        later = tracer.enter("sim.engine", "step")     # a timer, say
        clock(4)
        tracer.exit(later)
    assert tracer.self_s["sim.engine", "write"] == 1
    assert tracer.self_s["sim.engine", spans.OTHER] == 4


def test_sampled_operations_keep_their_span_tree(clock):
    tracer = spans.Tracer(sample_every=2)
    tracer.active = True
    for _ in range(4):
        frame = tracer.enter("x", "op", tracer.new_op("read"))
        clock(1)
        tracer.exit(frame)
    kept = tracer.trees_json()
    assert [tree["op"]["id"] for tree in kept] == [2, 4]
    assert kept[0]["spans"][0]["layer"] == "x"


def _patched_namespaces():
    import repro.core.coordinator
    import repro.core.epoch
    import repro.core.store
    import repro.shard.router
    import repro.shard.store
    import repro.shard.sweep
    from repro.core.coordinator import Coordinator
    from repro.core.history import History
    from repro.core.replica import ReplicaServer
    from repro.coteries.grid import GridCoterie
    from repro.coteries.majority import MajorityCoterie
    from repro.shard.host import ShardHost
    from repro.shard.map import ShardMap
    from repro.shard.router import ShardRouter
    from repro.sim.engine import Environment, Lock
    from repro.sim.network import Network
    from repro.sim.node import Node
    from repro.sim.rpc import RpcLayer
    from repro.workloads.generators import ZipfKeyChooser
    return (Environment, Lock, Network, Node, RpcLayer, Coordinator,
            ShardRouter, ShardHost, ReplicaServer, ShardMap, History,
            GridCoterie, MajorityCoterie, ZipfKeyChooser,
            repro.core.coordinator, repro.core.epoch, repro.core.store,
            repro.shard.router, repro.shard.store, repro.shard.sweep)


def test_wrappers_are_fully_removed_after_a_traced_run():
    from bench import workloads
    before = [dict(vars(owner)) for owner in _patched_namespaces()]
    tracer = spans.Tracer()
    with tracer.installed():
        during = [dict(vars(owner)) for owner in _patched_namespaces()]
        workloads.single_item_seq(1, 0.01, region=tracer.region)
    after = [dict(vars(owner)) for owner in _patched_namespaces()]
    assert any(a != b for a, b in zip(before, during))
    for owner, a, b in zip(_patched_namespaces(), before, after):
        assert a.keys() == b.keys(), owner
        changed = [name for name in a if a[name] is not b[name]]
        assert not changed, (owner, changed)


def test_wrappers_are_removed_when_the_traced_run_raises():
    from repro.sim.engine import Environment
    original = vars(Environment)["step"]
    with pytest.raises(ZeroDivisionError):
        with spans.Tracer().installed():
            assert vars(Environment)["step"] is not original
            1 / 0
    assert vars(Environment)["step"] is original


def test_layer_of_strips_the_package():
    from repro.core.replica import ReplicaServer
    assert spans.layer_of(ReplicaServer._on_prepare) == "core.replica"
    assert spans.layer_of(itertools.count) == "itertools"
