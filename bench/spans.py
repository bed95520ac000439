"""Timing spans installed from outside, for a traced run only.

Nothing under ``src/`` knows about this file.  :meth:`Tracer.installed`
replaces a fixed list of class attributes and module functions with
timing wrappers and puts every original back in a ``finally``; between
the two, :meth:`Tracer.region` says which stretch of the run to record.

The simulator is single-threaded, so spans nest on one stack:

* ``Environment.step`` is the root span of every event;
* plain functions (``Network.send``, ``RpcLayer.call_wave``,
  ``Lock.acquire`` ...) are function spans;
* generator entry points (``Coordinator.write``, ``run_transaction``,
  ``check_epoch`` ...) return a :class:`Resumptions` proxy, so that each
  ``send()`` into the generator is one span -- a protocol step between
  two waits -- however deep the ``yield from`` chain it sits in;
* handlers are wrapped where they are registered
  (``RpcLayer.serve``, ``Node.register_handler``) and belong to the
  layer of the module that defines them.

A layer's **self time** is its spans' time minus what their child
spans cover, so the self times of all layers add up to the recorded
region exactly.  Each span carries the client operation it works for:
an entry point starts a new operation, a child inherits its parent's,
a message carries its sender's to the handler that receives it, and a
span that learns its operation only from a child (the ``step`` that
delivers a message) adopts it.  Aggregates are kept for every span;
whole span trees are kept for every ``sample_every``-th operation.
"""

from __future__ import annotations

import itertools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, Optional

#: frame layout: one list per open span (lists beat objects on this path)
_LAYER, _NAME, _OP, _CHILD, _START, _ID = range(6)

OTHER = "other"         # work no client operation asked for (timers, leases)


def layer_of(function: Callable) -> str:
    """``repro.core.replica`` -> ``core.replica``."""
    module = getattr(function, "__module__", None) or "unknown"
    return module[len("repro."):] if module.startswith("repro.") else module


class Resumptions:
    """A generator seen from outside: every resumption is a span."""

    __slots__ = ("_tracer", "_layer", "_name", "_generator", "_op")

    def __init__(self, tracer: "Tracer", layer: str, name: str, generator,
                 op: Optional[tuple]):
        self._tracer = tracer
        self._layer = layer
        self._name = name
        self._generator = generator
        self._op = op

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tracer = self._tracer
        if not tracer.active:
            return self._generator.send(value)
        frame = tracer.enter(self._layer, self._name, self._op)
        try:
            return self._generator.send(value)
        finally:
            tracer.exit(frame)

    def throw(self, *exc_info):
        tracer = self._tracer
        if not tracer.active:
            return self._generator.throw(*exc_info)
        frame = tracer.enter(self._layer, self._name, self._op)
        try:
            return self._generator.throw(*exc_info)
        finally:
            tracer.exit(frame)

    def close(self):
        return self._generator.close()


class Tracer:
    """Span stack, per-layer aggregates and sampled span trees."""

    def __init__(self, sample_every: int = 100):
        self.active = False
        self.sample_every = sample_every
        self.stack: list[list] = []
        #: (layer, operation kind) -> self seconds
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        #: (layer, span name) -> [spans, self seconds]
        self.by_name: dict[tuple[str, str], list] = defaultdict(
            lambda: [0, 0.0])
        self.region_s = 0.0
        self.ops_started: dict[str, int] = defaultdict(int)
        #: operation -> its spans, for every sample_every-th operation
        self.trees: dict[tuple, list] = {}
        self._region_frame: Optional[list] = None
        self._op_of_msg: dict[int, tuple] = {}
        self._op_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._undo: list[tuple] = []

    # -- the span stack ----------------------------------------------------------
    def enter(self, layer: str, name: str, op: Optional[tuple] = None) -> list:
        """Open a span; a span without an operation inherits its parent's
        (the region's own span has none to give)."""
        stack = self.stack
        if op is None and stack:
            op = stack[-1][_OP]
        frame = [layer, name, op, 0.0, 0.0, next(self._span_ids)]
        stack.append(frame)
        frame[_START] = perf_counter()
        return frame

    def exit(self, frame: list) -> float:
        """Close the innermost span, which must be *frame*; returns how
        long it was open."""
        end = perf_counter()
        stack = self.stack
        if stack.pop() is not frame:
            raise RuntimeError("span closed out of order")
        elapsed = end - frame[_START]
        own = elapsed - frame[_CHILD]
        op = frame[_OP]
        parent_id = 0
        if stack:
            parent = stack[-1]
            parent[_CHILD] += elapsed
            parent_id = parent[_ID]
            if parent[_OP] is None and parent is not self._region_frame:
                parent[_OP] = op
        self.self_s[frame[_LAYER], op[0] if op else OTHER] += own
        entry = self.by_name[frame[_LAYER], frame[_NAME]]
        entry[0] += 1
        entry[1] += own
        if op is not None and op[1] % self.sample_every == 0:
            self.trees.setdefault(op, []).append(
                (frame[_ID], parent_id, frame[_LAYER], frame[_NAME],
                 frame[_START], end))
        return elapsed

    def new_op(self, kind: str) -> tuple:
        """A fresh client (or background) operation of the given kind;
        counted when it starts inside the recorded region."""
        if self.active:
            self.ops_started[kind] += 1
        return (kind, next(self._op_ids))

    def current_op(self) -> Optional[tuple]:
        """The operation the innermost open span works for."""
        return self.stack[-1][_OP] if self.stack else None

    @contextmanager
    def region(self) -> Iterator[None]:
        """Record spans for the duration of the ``with`` block.  The
        block itself is the outermost span (layer ``bench.harness``), so
        time spent outside every other span is accounted for too."""
        if self.active:
            raise RuntimeError("regions do not nest")
        self.active = True
        frame = self._region_frame = self.enter("bench.harness", "region")
        try:
            yield
        finally:
            self.region_s += self.exit(frame)
            self._region_frame = None
            self.active = False

    # -- wrappers ------------------------------------------------------------------
    def function_span(self, function: Callable, layer: str,
                      name: str) -> Callable:
        """*function* with each call recorded as a span."""
        def span(*args, **kwargs):
            if not self.active:
                return function(*args, **kwargs)
            frame = self.enter(layer, name)
            try:
                return function(*args, **kwargs)
            finally:
                self.exit(frame)
        span.__wrapped__ = function
        return span

    def generator_span(self, function: Callable, layer: str, name: str,
                       starts: Optional[str] = None) -> Callable:
        """A generator function whose generators are :class:`Resumptions`.
        *starts* names the kind of operation each call begins; without
        it the generator works for whoever called it."""
        def begin(*args, **kwargs):
            generator = function(*args, **kwargs)
            op = self.new_op(starts) if starts else self.current_op()
            return Resumptions(self, layer, name, generator, op)
        begin.__wrapped__ = function
        return begin

    def handler_span(self, handler: Callable, name: str) -> Callable:
        """An RPC method handler: a span in its defining module's layer,
        and, when it answers with a generator, that generator's
        resumptions too."""
        layer = layer_of(handler)

        def handle(src, args):
            if not self.active:
                return handler(src, args)
            frame = self.enter(layer, name)
            try:
                result = handler(src, args)
            finally:
                self.exit(frame)
            if result is not None and hasattr(result, "send"):
                return Resumptions(self, layer, name, result, frame[_OP])
            return result
        handle.__wrapped__ = handler
        return handle

    def delivery_span(self, handler: Callable, kind: str) -> Callable:
        """A node's message handler: the span works for the operation
        that sent the message."""
        layer = layer_of(handler)

        def deliver(msg):
            if not self.active:
                return handler(msg)
            frame = self.enter(layer, f"on-{kind}",
                               self._op_of_msg.pop(msg.msg_id, None))
            try:
                return handler(msg)
            finally:
                self.exit(frame)
        deliver.__wrapped__ = handler
        return deliver

    # -- installation --------------------------------------------------------------
    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _patch_method(self, cls, name: str, wrap: Callable, *args) -> None:
        self._set(cls, name, wrap(vars(cls)[name], *args))

    def _patch_function(self, function: Callable, wrap: Callable,
                        *args) -> None:
        """Rebind every ``repro`` module global that is *function*
        (``from x import f`` copies the binding into the importer)."""
        wrapped = wrap(function, *args)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is function:
                    self._set(module, name, wrapped)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install every wrapper; remove them all on the way out."""
        from repro.core import coordinator, epoch, propagation, twophase
        from repro.core.history import History
        from repro.coteries import planner
        from repro.coteries.base import Coterie
        from repro.core.replica import ReplicaServer
        from repro.shard import sweep
        from repro.shard.host import ShardHost
        from repro.shard.map import ShardMap
        from repro.shard.router import ShardRouter
        from repro.sim.engine import Environment, Lock
        from repro.sim.network import Network
        from repro.sim.node import Node
        from repro.sim.rpc import RpcLayer
        from repro.workloads.generators import ZipfKeyChooser

        tracer = self
        function, generator = self.function_span, self.generator_span

        def send(original):
            def traced_send(network, src, dst, kind, payload):
                if not tracer.active:
                    return original(network, src, dst, kind, payload)
                frame = tracer.enter("sim.network", "send")
                try:
                    msg_id = original(network, src, dst, kind, payload)
                finally:
                    tracer.exit(frame)
                if frame[_OP] is not None:
                    tracer._op_of_msg[msg_id] = frame[_OP]
                return msg_id
            return traced_send

        def serve(original):
            def traced_serve(rpc, method, handler):
                return original(rpc, method,
                                tracer.handler_span(handler, method))
            return traced_serve

        def register_handler(original):
            def traced_register(node, kind, handler):
                return original(node, kind,
                                tracer.delivery_span(handler, kind))
            return traced_register

        def process(original):
            def traced_process(env, generator, name=""):
                if name.startswith(("client", "kclient")):
                    generator = Resumptions(tracer, "workloads.generators",
                                            "client", generator, None)
                return original(env, generator, name=name)
            return traced_process

        try:
            self._patch_method(Environment, "step", function,
                               "sim.engine", "step")
            self._patch_method(Environment, "process", process)
            for name in ("acquire", "release"):
                self._patch_method(Lock, name, function,
                                   "sim.engine", f"lock.{name}")
            self._patch_method(Network, "send", send)
            self._patch_method(Node, "register_handler", register_handler)
            self._patch_method(RpcLayer, "serve", serve)
            for name in ("call", "call_wave", "multicast"):
                self._patch_method(RpcLayer, name, function, "sim.rpc", name)
            for cls, layer in ((coordinator.Coordinator, "core.coordinator"),
                               (ShardRouter, "shard.router")):
                for kind in ("read", "write"):
                    self._patch_method(cls, kind, generator, layer, kind,
                                       kind)
            self._patch_method(ShardHost, "_propagate", generator,
                               "shard.host", "propagate", "propagation")
            self._patch_function(propagation.propagate, generator,
                                 "core.propagation", "propagate",
                                 "propagation")
            self._patch_function(twophase.run_transaction, generator,
                                 "core.twophase", "run_transaction")
            self._patch_function(epoch.check_epoch, generator,
                                 "core.epoch", "check_epoch", "epoch")
            for entry in (sweep.sweep_epochs, sweep.check_shard_epoch):
                self._patch_function(entry, generator, "shard.sweep",
                                     entry.__name__, "epoch")
            self._patch_function(planner.plan_quorum, function,
                                 "coteries.planner", "plan_quorum")
            for cls in (ReplicaServer, ShardHost):
                self._patch_method(cls, "coterie_for", function,
                                   "coteries.planner", "coterie_for")
            self._patch_method(Coterie, "compile", function,
                               "coteries.engine", "compile")
            for name in ("shard_of", "replicas"):
                self._patch_method(ShardMap, name, function,
                                   "shard.map", name)
            self._patch_method(ZipfKeyChooser, "pick_index", function,
                               "workloads.generators", "pick_index")
            for name in ("start", "finish"):
                self._patch_method(History, name, function,
                                   "core.history", name)
            yield self
        finally:
            while self._undo:
                owner, name, original = self._undo.pop()
                setattr(owner, name, original)

    # -- reading the result --------------------------------------------------------
    def layer_self_s(self, layer: str) -> float:
        """Self seconds of one layer over every operation kind."""
        return sum(value for (name, _kind), value in self.self_s.items()
                   if name == layer)

    def spans(self, layer: str, name: str) -> tuple[int, float]:
        """``(how many, self seconds)`` of one named span."""
        count, own = self.by_name.get((layer, name), (0, 0.0))
        return count, own

    def breakdown(self) -> dict:
        """``{layer: {operation kind: self seconds}}`` plus the region."""
        table: dict[str, dict[str, float]] = {}
        for (layer, kind), value in sorted(self.self_s.items()):
            table.setdefault(layer, {})[kind] = value
        return {"region_s": self.region_s, "self_s": table,
                "ops_started": dict(self.ops_started)}

    def trees_json(self) -> list:
        """Sampled span trees, JSON-able."""
        return [{"op": {"kind": op[0], "id": op[1]},
                 "spans": [dict(zip(("id", "parent", "layer", "name",
                                     "start", "end"), span))
                           for span in sorted(spans)]}
                for op, spans in sorted(self.trees.items(),
                                        key=lambda item: item[0][1])]
