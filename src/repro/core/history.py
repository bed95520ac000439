"""Operation histories and the one-copy serializability checker.

The paper's correctness criterion (Section 3): the concurrent execution of
operations on replicated data must be equivalent to a serial execution on
non-replicated data, which for partial writes means (a) no two writes (or
a read and a write) execute concurrently, and (b) writes apply to, and
reads return, the most recent version.

The checker turns that into executable assertions over a recorded history:

1. **Unique versions** -- committed writes carry distinct version numbers
   (Lemma 2: writes serialize, each bumps the version by one).
2. **Real-time order** -- if write A finished before write B started, A's
   version is smaller (the serialization respects real time).
3. **Read values** -- every successful read returns exactly the state
   produced by replaying committed writes in version order up to the
   read's version, and that version is bounded below by every write that
   completed before the read started, and above by the writes that started
   before the read finished (linearizability at operation granularity).
4. **Epoch uniqueness** (Lemma 1) -- checked separately from replica
   states: two replicas with the same epoch number must have identical
   epoch lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional


class ConsistencyError(AssertionError):
    """Raised when a history violates one-copy serializability."""


@dataclass
class OpRecord:
    """One client-visible operation."""

    kind: str                 # "read" | "write" | "read-degraded"
    op_id: str
    coordinator: str
    start: float
    end: Optional[float] = None
    ok: Optional[bool] = None
    version: Optional[int] = None
    updates: Optional[dict] = None   # writes
    value: Any = None                # reads
    case: str = ""

    @property
    def completed(self) -> bool:
        """True once the operation has finished (ok or not)."""
        return self.end is not None


class History:
    """Append-only record of operations and epoch checks."""

    def __init__(self):
        self.operations: list[OpRecord] = []
        self.epoch_checks: list[tuple[float, str, Any]] = []

    def start(self, kind: str, op_id: str, coordinator: str,
              time: float, updates: Optional[dict] = None) -> OpRecord:
        """Begin recording an operation; returns its record."""
        record = OpRecord(kind=kind, op_id=op_id, coordinator=coordinator,
                          start=time, updates=updates)
        self.operations.append(record)
        return record

    def finish(self, record: OpRecord, time: float, result) -> None:
        """Complete an operation record with its outcome."""
        record.end = time
        record.ok = bool(result.ok)
        record.case = result.case
        record.version = result.version
        if record.kind in ("read", "read-degraded"):
            record.value = result.value

    def record_epoch_check(self, time: float, initiator: str,
                           result) -> None:
        """Record the outcome of one epoch-checking operation."""
        self.epoch_checks.append((time, initiator, result))

    # -- views ----------------------------------------------------------------
    def committed_writes(self) -> list[OpRecord]:
        """Committed writes, sorted by version."""
        return sorted((op for op in self.operations
                       if op.kind == "write" and op.ok),
                      key=lambda op: op.version)

    def successful_reads(self) -> list[OpRecord]:
        """Strict (non-degraded) reads that completed successfully."""
        return [op for op in self.operations if op.kind == "read" and op.ok]

    def degraded_reads(self) -> list[OpRecord]:
        """Degraded (bounded-staleness) reads that completed successfully."""
        return [op for op in self.operations
                if op.kind == "read-degraded" and op.ok]

    def failed_operations(self) -> list[OpRecord]:
        """Operations that completed unsuccessfully."""
        return [op for op in self.operations
                if op.completed and not op.ok]

    def __len__(self) -> int:
        return len(self.operations)


def replay(writes: Iterable[OpRecord], up_to_version: int,
           initial_value: Optional[dict] = None) -> dict:
    """The one-copy state after the writes with version <= up_to_version."""
    state = dict(initial_value or {})
    for write in writes:
        if write.version <= up_to_version:
            state.update(write.updates)
    return state


def check_one_copy_serializability(history: History,
                                   initial_value: Optional[dict] = None,
                                   ) -> dict:
    """Assert the history is one-copy serializable; returns statistics.

    Raises :class:`ConsistencyError` with a concrete witness otherwise.
    """
    writes = history.committed_writes()

    # 1. unique, positive versions
    versions = [w.version for w in writes]
    if len(set(versions)) != len(versions):
        dupes = sorted(v for v in set(versions) if versions.count(v) > 1)
        raise ConsistencyError(f"duplicate write versions: {dupes}")
    if any(v is None or v < 1 for v in versions):
        raise ConsistencyError(f"bad write versions: {versions}")

    # 2. the version order must extend the real-time order
    by_version = writes  # already sorted by version
    for earlier, later in zip(by_version, by_version[1:]):
        if later.end is not None and earlier.start is not None:
            if later.end < earlier.start:
                raise ConsistencyError(
                    f"write {later.op_id} (v{later.version}) finished at "
                    f"{later.end} before write {earlier.op_id} "
                    f"(v{earlier.version}) started at {earlier.start}")

    # 3. every read returns a legal, fresh-enough prefix state
    for read in history.successful_reads():
        version = read.version
        if version is None or version < 0:
            raise ConsistencyError(f"read {read.op_id} has no version")
        expected = replay(writes, version, initial_value)
        if read.value != expected:
            raise ConsistencyError(
                f"read {read.op_id} at v{version} returned {read.value!r}, "
                f"replay gives {expected!r}")
        must_include = max((w.version for w in writes
                            if w.end is not None and w.end <= read.start),
                           default=0)
        if version < must_include:
            raise ConsistencyError(
                f"stale read {read.op_id}: returned v{version} but "
                f"v{must_include} committed before it started")
        may_include = max((w.version for w in writes
                           if w.start <= (read.end or float("inf"))),
                          default=0)
        if version > may_include:
            raise ConsistencyError(
                f"read {read.op_id} returned v{version} from the future "
                f"(latest overlapping write is v{may_include})")

    # 4. degraded reads return a legal prefix state (bounded staleness:
    #    replay must match their own version, and the version must not
    #    come from the future -- but there is no freshness floor, that
    #    is exactly the contract a degraded read trades away)
    for read in history.degraded_reads():
        version = read.version
        if version is None or version < 0:
            raise ConsistencyError(f"degraded read {read.op_id} has no version")
        expected = replay(writes, version, initial_value)
        if read.value != expected:
            raise ConsistencyError(
                f"degraded read {read.op_id} at v{version} returned "
                f"{read.value!r}, replay gives {expected!r}")
        may_include = max((w.version for w in writes
                           if w.start <= (read.end or float("inf"))),
                          default=0)
        if version > may_include:
            raise ConsistencyError(
                f"degraded read {read.op_id} returned v{version} from the "
                f"future (latest overlapping write is v{may_include})")

    return {
        "writes": len(writes),
        "reads": len(history.successful_reads()),
        "degraded": len(history.degraded_reads()),
        "failed": len(history.failed_operations()),
        "max_version": versions[-1] if versions else 0,
    }


def check_epoch_lineage(servers, coterie_rule, initial_epoch) -> None:
    """Lemma 1's inductive step, audited from durable epoch history.

    Every installed epoch must (a) be unique per number across all
    replicas and (b) contain a write quorum of its predecessor epoch --
    the condition the epoch-checking operation enforces online.  Raises
    :class:`ConsistencyError` with a witness otherwise.
    """
    lineage: dict[int, tuple] = {0: tuple(initial_epoch)}
    for server in servers:
        for number, members in server.node.stable.get("epoch_history",
                                                      {}).items():
            members = tuple(members)
            if number in lineage and lineage[number] != members:
                raise ConsistencyError(
                    f"epoch {number} installed with two member lists: "
                    f"{lineage[number]} vs {members}")
            lineage[number] = members
    for number in sorted(lineage):
        if number == 0:
            continue
        if number - 1 not in lineage:
            continue  # predecessor never observed (node-local gaps are
            # possible when a replica missed intermediate epochs)
        previous = lineage[number - 1]
        coterie = coterie_rule(tuple(sorted(previous)))
        if not coterie.is_write_quorum(set(lineage[number])):
            raise ConsistencyError(
                f"epoch {number} = {lineage[number]} does not contain a "
                f"write quorum of epoch {number - 1} = {previous}")


def adopt_durable_outcomes(history: History, servers) -> list[OpRecord]:
    """Resolve indeterminate writes from durable replica state.

    A coordinator that crashes between its commit decision and reporting
    back leaves its operation record open (``end is None``): the write
    may or may not have taken effect, and the client was never told.
    Treating such a write as "never happened" makes the 1SR checker
    reject *correct* executions -- a later read legitimately sees the
    committed-but-unreported update and mismatches the replay.

    This pass recovers the ground truth the same way an auditor would:
    scan every replica's durable update log for versions no reported
    write accounts for, and match each against the indeterminate writes
    by their (unique) update payload.  A match proves the write committed
    at that version, so the record is completed in place (``ok=True``,
    ``version=v``; ``end`` stays ``None`` -- the client still never heard,
    so the real-time bounds keep treating it as unacknowledged).  Writes
    with no durable trace stay indeterminate, which the checker already
    treats as invisible.

    Matching assumes distinct writes carry distinct update payloads (true
    for the chaos workloads, which tag every write with a fresh counter).
    Ambiguous matches are left unresolved rather than guessed at.
    Returns the records that were adopted.
    """
    claimed = {op.version for op in history.committed_writes()}
    durable: dict[int, dict] = {}
    for server in servers:
        entries = tuple(getattr(server.state, "update_log", ()))
        # total-write protocols journal (version, value) separately,
        # because a ReplaceValue resets the update log (see
        # ReplicaServer._apply)
        entries += tuple(server.node.stable.get("replace_journal", ()))
        for version, updates in entries:
            if version not in claimed:
                durable.setdefault(version, dict(updates))
    pending = [op for op in history.operations
               if op.kind == "write" and op.ok is None]
    adopted = []
    for version in sorted(durable):
        matches = [op for op in pending
                   if dict(op.updates or {}) == durable[version]]
        if len(matches) != 1:
            continue
        record = matches[0]
        record.ok = True
        record.version = version
        record.case = record.case or "adopted-from-log"
        pending.remove(record)
        adopted.append(record)
    return adopted


def check_replica_invariants(servers, history: History,
                             initial_value: Optional[dict] = None) -> None:
    """Replica-state invariants behind the stale-marking scheme (Section 4).

    Checked over the *durable* states, so the chaos harness can validate a
    run even when some operations never reported back to a client:

    1. **Desired versions** -- a stale replica's desired version strictly
       exceeds the version it holds (it was marked because it missed at
       least one write; propagation targets exactly that gap).
    2. **Update-log agreement** -- any two replicas whose update logs
       contain the same version agree on that version's updates, and both
       agree with the committed write the history recorded at that
       version.  (Lemma 2 made durable: writes serialize, so a version
       number names one update everywhere.)
    3. **Value replay** -- a replica at version ``v`` holds exactly the
       one-copy state at ``v``, replayed from the union of reported
       writes and durable update logs.  Replicas whose prefix ``1..v``
       is not fully known (log truncation) are skipped rather than
       guessed at.

    A write that committed internally but whose coordinator died before
    reporting it is visible here through the participants' update logs,
    so it strengthens rather than breaks the replay check.
    """
    by_version: dict[int, dict] = {}
    origin: dict[int, str] = {}
    for write in history.committed_writes():
        by_version[write.version] = dict(write.updates or {})
        origin[write.version] = f"history op {write.op_id}"
    for server in servers:
        state = server.state
        if state.stale and state.dversion <= state.version:
            raise ConsistencyError(
                f"{server.name} is stale but desires v{state.dversion} "
                f"<= held v{state.version}")
        for version, updates in state.update_log:
            if version in by_version:
                if by_version[version] != dict(updates):
                    raise ConsistencyError(
                        f"two updates recorded for v{version}: "
                        f"{by_version[version]!r} ({origin[version]}) vs "
                        f"{dict(updates)!r} (log of {server.name})")
            else:
                by_version[version] = dict(updates)
                origin[version] = f"log of {server.name}"
    for server in servers:
        state = server.state
        if state.version == 0 or any(v not in by_version
                                     for v in range(1, state.version + 1)):
            continue  # prefix not fully known (log truncation): skip
        expected = dict(initial_value or {})
        for v in range(1, state.version + 1):
            expected.update(by_version[v])
        if state.value != expected:
            raise ConsistencyError(
                f"{server.name} at v{state.version} holds "
                f"{state.value!r}, replay gives {expected!r}")


def check_epoch_uniqueness(servers) -> None:
    """Lemma 1's invariant over live replica states: equal epoch numbers
    imply equal epoch lists (and membership)."""
    seen: dict[int, tuple] = {}
    for server in servers:
        state = server.state
        elist = tuple(state.epoch_list)
        if state.epoch_number in seen:
            if seen[state.epoch_number] != elist:
                raise ConsistencyError(
                    f"epoch {state.epoch_number} has two lists: "
                    f"{seen[state.epoch_number]} vs {elist}")
        else:
            seen[state.epoch_number] = elist
        if server.name not in elist:
            raise ConsistencyError(
                f"{server.name} stores epoch {state.epoch_number} "
                f"but is not a member of {elist}")
