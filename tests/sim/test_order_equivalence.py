"""Same seed, same program => the same run, entry for entry.

The simulation kernel orders queue entries strictly by ``(time,
sequence number)``; everything a run produces follows from that order.
A kernel change may make entries cheaper or drop entries nobody hears,
but must not move one that does something.  The two digests below were
taken at the commit *before* the lean-transport change (PR 12) and hash
the ordered ``(time, kind, node)`` trace plus every replica's final
durable state; a kernel change that alters either has reordered a run.

Since the sharded host takes its whole 2PC participant from
``TwoPhaseParticipant`` (PR 14) its runs also carry the participant's
``txn-prepared`` / ``txn-commit`` / ``txn-abort`` records, which the
host's private copy never wrote.  The sharded pin was taken over the
trace *without* those three kinds, so it still said that nothing the
parent run did had moved.  Since the sharded host takes every
propagation role from the one ``core.propagation`` too, its runs carry
the courier's and the target's ``propagation-shipped`` / ``caught-up``
records as well, and the pin was re-taken with them (over the trace
without them it is still the PR 14 pin: the fold moved nothing else).

The replicated pin moved once since, on purpose: a propagation offer's
deadline became ``lock_wait + rpc_timeout`` (the handler may wait
``lock_wait`` for the target's lock).  Offers to the crashed ``n05`` now
wait 2.0 s instead of 0.5 s, so the run sends 109 offers instead of 115,
times out 14 calls instead of 26, and its couriers outlast the crash
instead of giving up on ``n05`` twice -- 1127 entries instead of 1174.

The three baseline pins were taken when the baselines became hooks of
the one ``Coordinator`` (PR 16, which moved the static and witness runs
once -- a quorum draw's attempt number now advances by one per attempt,
not two -- and left the voting run where it was); the next coordinator
refactor can tell from them whether it moved a baseline.

Beside the two store digests stands what the run *cost* in queue entries
(``env.events_processed``).  A digest says that nothing that happens
moved; the count says that no housekeeping entry came back -- the
replicated run cost 1537 entries and the sharded one 755 while the lock
leases, decision waits and propagation permits were sleeping processes
(before PR 23), 1174 and 577 as node timers (1127 replicated with the
longer offer deadline above).  Lowering a count is a
change to make on purpose and re-pin; a rise is a regression.
"""

import hashlib
import random

import pytest

from repro.baselines.dynamic_voting import DynamicVotingStore
from repro.baselines.static_protocol import StaticQuorumStore
from repro.baselines.witnesses import WitnessVotingStore
from repro.core.store import ReplicatedStore
from repro.shard.store import ShardedStore

REPLICATED_DIGEST = (
    "c43dbf034abbf58f4db282a16e8ec4cc81baf6b57eb11bdda5d3270abe38b758")
SHARDED_DIGEST = (
    "3407fa98e45f710edc1a822158af5975dbc601e7608f848dfdfe0d7ef05fc992")
REPLICATED_ENTRIES = 1127
SHARDED_ENTRIES = 577
STATIC_DIGEST = (
    "b62b8dcf6b515d1c44aeec5dbd712ee51541bcc4ad7e0c2e6b9d626ca37b751c")
VOTING_DIGEST = (
    "4a5ce028f51a475bc15913e31a0be90d83f4f81b154bc7bf67fd0b24b2f9ec78")
WITNESS_DIGEST = (
    "25c015d6b5217e8268665f7d95bff3587ba3b00f4be341d585648cd19418a138")


PARTICIPANT_KINDS = {"txn-prepared", "txn-commit", "txn-abort"}


def _digest(trace, states, without=frozenset()) -> str:
    ordered = [(rec.time, rec.kind, rec.node) for rec in trace
               if rec.kind not in without]
    return hashlib.sha256(repr((ordered, states)).encode()).hexdigest()


def witness_store(n_replicas: int, **kwargs) -> WitnessVotingStore:
    names = [f"n{i:02d}" for i in range(n_replicas)]
    return WitnessVotingStore(names, names[-2:], **kwargs)


def replicated_run(create=ReplicatedStore.create,
                   baseline=False) -> tuple[str, int]:
    """Forty sequential operations on a 9-node grid through ``join()``,
    with one node crashing a third of the way in and recovering at two
    thirds, then an epoch check and some quiet time for propagation.
    A *baseline* store gets total writes and no epoch check.  Returns
    the digest and the queue entries the run cost."""
    store = create(9, seed=23, trace_enabled=True)
    rng = random.Random(23)
    vias = store.node_names[:4]
    for i in range(40):
        if i == 13:
            store.crash("n05")
        if i == 27:
            store.recover("n05")
        via = vias[i % len(vias)]
        if rng.random() < 0.5:
            store.read(via=via)
        else:
            key = rng.randrange(6)
            store.write({f"k{k}": i for k in range(6)} if baseline
                        else {f"k{key}": i}, via=via)
    if not baseline:
        store.check_epoch()
    store.advance(5.0)
    store.verify()
    states = [(name, state.version, state.dversion, state.stale,
               state.epoch_number, state.epoch_list,
               sorted(state.value.items()), state.update_log)
              for name, state in ((name, store.replica_state(name))
                                  for name in store.node_names)]
    return _digest(store.trace, states), store.env.events_processed


def sharded_run() -> tuple[str, set, int]:
    """Sixty keyed operations on a small sharded store, each driven to
    completion by ``join()``, two of them pipelined.  Returns the digest
    without the participant's records, which of them the run had, and
    the queue entries the run cost."""
    store = ShardedStore.create(5, n_shards=8, replication=3, seed=31,
                                trace_enabled=True, track_history=True)
    rng = random.Random(31)
    names = store.node_names
    for i in range(60):
        key = f"k{rng.randrange(12)}"
        via = names[i % len(names)]
        if rng.random() < 0.4:
            store.write(key, {"v": i}, via=via)
        elif i % 10 == 9:
            store.join(store.start_read(key, via=via),
                       store.start_write(f"k{rng.randrange(12)}",
                                         {"v": -i}, via=names[0]))
        else:
            store.read(key, via=via)
    store.advance(5.0)
    store.verify()
    states = []
    for name in names:
        stable = store.nodes[name].stable
        for shard in sorted(stable["sh_items"]):
            for key, item in sorted(stable["sh_items"][shard].items()):
                states.append((name, shard, key, item.version, item.dversion,
                               item.stale, sorted(item.value.items())))
        states.append((name, sorted(
            (shard, tuple(elist), enumber)
            for shard, (elist, enumber) in stable["sh_epochs"].items())))
    seen = {rec.kind for rec in store.trace} & PARTICIPANT_KINDS
    return (_digest(store.trace, states, without=PARTICIPANT_KINDS), seen,
            store.env.events_processed)


def test_replicated_store_run_is_unchanged():
    digest, entries = replicated_run()
    assert digest == REPLICATED_DIGEST
    assert entries == REPLICATED_ENTRIES


@pytest.mark.parametrize("create, pinned", [
    (StaticQuorumStore.create, STATIC_DIGEST),
    (DynamicVotingStore.create, VOTING_DIGEST),
    (witness_store, WITNESS_DIGEST),
], ids=["static", "voting", "witness"])
def test_baseline_store_run_is_unchanged(create, pinned):
    digest, _entries = replicated_run(create, baseline=True)
    assert digest == pinned


def test_sharded_store_run_is_unchanged():
    digest, participant_kinds, entries = sharded_run()
    assert digest == SHARDED_DIGEST
    assert entries == SHARDED_ENTRIES
    # the run prepares and commits (no transaction of it aborts), and
    # the one participant says so on every stack
    assert participant_kinds == {"txn-prepared", "txn-commit"}
