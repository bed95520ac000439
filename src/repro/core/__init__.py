"""The paper's contribution: the general dynamic structured-coterie
protocol with partial writes (Section 4) and its dynamic grid instance
(Section 5).

Modules
-------
``config``
    Tunable timeouts and knobs (:class:`ProtocolConfig`).
``messages``
    Typed protocol messages: the state tuple replicas answer with, 2PC
    commands, propagation payloads.
``state``
    The per-replica stable state: value, version number, desired version
    number, stale flag, epoch list/number, update log -- and the per-item
    part of it alone, for the keyed store of :mod:`repro.shard`.
``participant``
    The one presumed-abort 2PC participant (lock custody, prepare, vote,
    decision, termination, recovery) that every replica stack mixes in.
``replica``
    The replica server: RPC handlers for write/read/epoch-check requests
    and the 2PC command semantics.
``twophase``
    Presumed-abort two-phase commit (coordinator side + rebroadcast).
``coordinator``
    The write and read coordinators (the appendix's ``Write`` /
    ``HeavyProcedure`` and the analogous read).
``propagation``
    Asynchronous update propagation (the appendix's ``Propagate`` /
    ``PropagateResponse``): courier, permit target and re-seed, mixed
    into both replica stacks.
``epoch``
    Epoch checking (the appendix's ``CheckEpoch``) plus the bully election
    of the checking initiator.
``history``
    Operation history recording and the one-copy serializability checker
    used by the tests (Lemmas 1-3 as executable assertions).
``store``
    The public facade: build a replicated object on a simulated cluster
    and run clients, faults, and epoch checking against it.
"""

from repro.core.config import ProtocolConfig
from repro.core.history import History, check_one_copy_serializability
from repro.core.messages import ReadResult, WriteResult
from repro.core.store import ReplicatedStore

__all__ = [
    "History",
    "ProtocolConfig",
    "ReadResult",
    "ReplicatedStore",
    "WriteResult",
    "check_one_copy_serializability",
]
