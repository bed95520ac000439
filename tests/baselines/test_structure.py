"""A baseline is the coordinator's hooks, not another coordinator.

The static, dynamic-voting and witness coordinators each used to carry
a private copy of the operation loop -- history record, retry, plan,
poll, release, per-op metrics -- without what the shared one had learnt
(``Busy`` back-off, real ``polls`` / ``attempts``, the release of every
polled node, per-op metrics at all for witnesses).  These assertions
failed on those classes; they keep the copies from growing back.
"""

import ast
import inspect
import pathlib
import re

import pytest

import repro.baselines
from repro.baselines.dynamic_voting import DynamicVotingStore
from repro.baselines.static_protocol import StaticQuorumStore
from repro.baselines.witnesses import WitnessVotingStore
from repro.core.config import ProtocolConfig
from repro.core.coordinator import Coordinator
from repro.core.store import ReplicatedStore
from repro.coteries.rowa import ReadOneWriteAllCoterie

LOOP = {"_operate", "_with_retries", "_retry", "_observe_op", "_plan",
        "_poll", "_release", "_start", "_finish", "_write_once",
        "_read_once"}
LOOP_HELPERS = {"gather", "run_transaction", "plan_quorum", "_stable_hash",
                "_state_responses"}

MODULES = sorted(pathlib.Path(repro.baselines.__file__).parent.glob("*.py"))


def witness_store(**kwargs):
    return WitnessVotingStore(["d0", "d1", "d2", "w0", "w1"], ["w0", "w1"],
                              **kwargs)


BASELINE_STORES = {
    "static": lambda **kw: StaticQuorumStore.create(5, **kw),
    "voting": lambda **kw: DynamicVotingStore.create(5, **kw),
    "witness": witness_store,
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_baseline_module_carries_the_loop(path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            defined = {item.name for item in node.body
                       if isinstance(item, ast.FunctionDef)}
            assert not defined & LOOP, (node.name, defined & LOOP)
        elif isinstance(node, ast.ImportFrom):
            imported = {alias.name for alias in node.names}
            assert not imported & LOOP_HELPERS, imported & LOOP_HELPERS


def test_every_baseline_store_runs_the_one_loop_from_the_one_map():
    for make in BASELINE_STORES.values():
        store = make(seed=0)
        for name in ("start_write", "start_read", "verify"):
            assert name not in vars(type(store)), name
        for coordinator in store.coordinators.values():
            assert type(coordinator) is type(store).coordinator_class
            assert type(coordinator)._operate is Coordinator._operate


def test_the_coordinator_names_no_protocol():
    source = inspect.getsource(Coordinator)
    assert "isinstance(self" not in source
    assert "isinstance(server" not in source
    identifiers = set(re.findall(r"[A-Za-z_]\w*", source))
    named = {word for word in identifiers
             if re.search("static|voting|witness", word, re.IGNORECASE)}
    assert not named, named


class ReadOneWriteAll(Coordinator):
    """The "a new baseline is a coterie plus a hook" check: read-one /
    write-all as a decision of its own, planned over the ROWA coterie."""

    def _decide(self, states, kind):
        if not states or (kind == "write"
                          and set(states) != set(self.server.all_nodes)):
            return None
        newest = max(r.version for r in states.values())
        return newest, {n for n, r in states.items()
                        if r.version == newest}, set()


class ReadOneWriteAllStore(ReplicatedStore):
    coordinator_class = ReadOneWriteAll


def test_a_new_baseline_is_a_coterie_plus_a_hook():
    store = ReadOneWriteAllStore.create(
        4, seed=3, coterie_rule=ReadOneWriteAllCoterie)
    assert type(store.coordinators["n00"]) is ReadOneWriteAll
    for i in range(20):
        via = store.node_names[i % 4]
        if i % 2:
            read = store.read(via=via)
            assert read.ok and read.polls == 1 and read.value == {"x": i - 1}
        else:
            assert store.write({"x": i}, via=via).good == store.node_names
    store.crash("n03")
    assert not store.write({"x": -1}).ok and store.read().ok
    store.verify()


def test_a_lost_poll_reply_does_not_strand_the_lock():
    # n01 grants its lock to the write poll but the answer is lost, and
    # the answers that do arrive (n00 of SC = 5) fail the majority
    # condition: the abort must release every node it polled, not only
    # the ones it heard from -- the private loop left n01 locked until
    # the lease watchdog (lock_lease, 8 s) reclaimed it.
    config = ProtocolConfig(op_retries=0)
    store = DynamicVotingStore.create(5, seed=0, config=config)
    assert store.write({"x": 1}).ok
    store.crash("n02", "n03", "n04")
    store.network.cut_link("n01", "n00")
    assert not store.write({"x": 2}, via="n00").ok
    store.advance(config.lock_lease / 2)
    assert not store.servers["n01"]._op_locks


@pytest.mark.parametrize("make", BASELINE_STORES.values(),
                         ids=BASELINE_STORES.keys())
def test_baselines_record_the_per_op_series(make):
    store = make(seed=2)
    assert store.write({"x": 1}).ok and store.read().ok
    snapshot = store.metrics_snapshot()
    for kind in ("write", "read"):
        assert snapshot["histograms"][f"op_latency{{kind={kind}}}"]["count"] == 1
        assert snapshot["counters"][f"op_polls{{kind={kind}}}"] == 1
        assert snapshot["counters"][f"ops{{kind={kind},outcome=ok}}"] == 1
