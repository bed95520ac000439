"""Per-replica stable state.

Each replica maintains (paper Section 4): a version number, an epoch
number, a stale-data flag, a desired version number (meaningful while
stale), and the epoch list.  We add the replicated *value* itself (a dict,
updated partially by writes) and a bounded *update log* that lets
propagation ship only missing updates instead of the whole value.

Everything here lives in the node's stable storage and survives crashes.

:class:`ReplicaState` is the single-item replica's state, epoch
included.  :class:`ItemState` is the per-item part alone, for the keyed
store (:mod:`repro.shard`), where the epoch lives once per shard -- the
paper's Section 2 group of items under one epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.messages import PropagationData, StateResponse


class _UpdateLog:
    """The versioned value and its bounded update log -- what
    :class:`ReplicaState` and :class:`ItemState` (dataclasses with
    ``value``, ``version``, ``dversion``, ``stale`` and ``update_log``
    fields) have in common.

    Every mutation returns a new state: stable storage is replaced
    atomically, which is how a crash between field updates is avoided.
    """

    def applied(self, updates: dict, new_version: int, log_capacity: int):
        """State after applying a partial write at ``new_version``."""
        if new_version != self.version + 1:
            raise ValueError(
                f"non-contiguous write: at v{self.version}, got v{new_version}")
        value = dict(self.value)
        value.update(updates)
        log = _capped(self.update_log + ((new_version, dict(updates)),),
                      log_capacity)
        return replace(self, value=value, version=new_version, stale=False,
                       update_log=log)

    def marked_stale(self, dversion: int):
        """State after a ``mark-stale`` with the given desired version."""
        return replace(self, stale=True,
                       dversion=max(dversion, self.dversion))

    def caught_up(self, value: dict, version: int,
                  update_log: tuple[tuple[int, dict], ...]):
        """State after propagation brought this replica up to date."""
        if version < self.dversion:
            raise ValueError(
                f"catch-up to v{version} below desired v{self.dversion}")
        return replace(self, value=dict(value), version=version,
                       stale=False, update_log=update_log)

    def propagated(self, data: PropagationData, log_capacity: int):
        """The propagation target's merge: the state caught up by replaying
        the shipped log (which must continue this replica's version) or
        by adopting the shipped snapshot.  Raises ``ValueError`` whose
        message is the refusal the target answers with: ``gap``,
        ``empty`` or ``rejected`` (see :meth:`caught_up`)."""
        if data.log is not None:
            value = dict(self.value)
            version = self.version
            for entry_version, updates in data.log:
                if entry_version != version + 1:
                    raise ValueError("gap")
                value.update(updates)
                version = entry_version
            log = _capped(self.update_log + tuple(
                (v, dict(u)) for v, u in data.log), log_capacity)
        elif data.snapshot is not None:
            value, version, log = data.snapshot, data.source_version, ()
        else:
            raise ValueError("empty")
        try:
            return self.caught_up(value, version, log)
        except ValueError:
            raise ValueError("rejected") from None

    def log_slice(self, after_version: int) -> Optional[tuple]:
        """Log entries covering ``(after_version, self.version]``.

        Returns None when the log has been truncated past ``after_version``
        (the caller must fall back to a snapshot).
        """
        needed = [entry for entry in self.update_log
                  if entry[0] > after_version]
        if len(needed) != self.version - after_version:
            return None
        if [v for v, _u in needed] != list(range(after_version + 1,
                                                 self.version + 1)):
            return None
        return tuple(needed)


def _capped(log: tuple, capacity: int) -> tuple:
    """The newest *capacity* entries of an update log (0: unbounded)."""
    if capacity and len(log) > capacity:
        return log[len(log) - capacity:]
    return log


@dataclass
class ReplicaState(_UpdateLog):
    """The durable protocol state of one replica."""

    epoch_list: tuple[str, ...]
    value: dict = field(default_factory=dict)
    version: int = 0
    dversion: int = 0
    stale: bool = False
    epoch_number: int = 0
    update_log: tuple[tuple[int, dict], ...] = ()

    def response(self, node: str, include_value: bool = False) -> StateResponse:
        """The state tuple this replica answers polls with."""
        return StateResponse(
            node=node,
            version=self.version,
            dversion=self.dversion,
            stale=self.stale,
            elist=self.epoch_list,
            enumber=self.epoch_number,
            value=dict(self.value) if include_value else None,
        )

    def with_epoch(self, epoch_list: tuple[str, ...],
                   epoch_number: int) -> "ReplicaState":
        """State after installing a new epoch."""
        if epoch_number <= self.epoch_number:
            raise ValueError(
                f"epoch numbers must grow: {self.epoch_number} -> {epoch_number}")
        return replace(self, epoch_list=tuple(epoch_list),
                       epoch_number=epoch_number)

    def replaced(self, value: dict, version: int) -> "ReplicaState":
        """State after a *total* write (baseline protocols): the value is
        replaced wholesale, so the version may jump and the update log is
        reset (there is nothing partial to propagate)."""
        if version <= self.version:
            raise ValueError(
                f"total write must advance the version: "
                f"{self.version} -> {version}")
        return replace(self, value=dict(value), version=version,
                       stale=False, update_log=())


@dataclass(frozen=True)
class ItemState(_UpdateLog):
    """Durable per-item state (the per-item part of Section 4's replica
    state; the epoch part lives once per group of items)."""

    value: dict = field(default_factory=dict)
    version: int = 0
    dversion: int = 0
    stale: bool = False
    update_log: tuple[tuple[int, dict], ...] = ()


def initial_state(all_nodes: tuple[str, ...],
                  initial_value: Optional[dict] = None) -> ReplicaState:
    """The state every replica starts with: epoch 0 containing everyone."""
    return ReplicaState(epoch_list=tuple(all_nodes),
                        value=dict(initial_value or {}))
