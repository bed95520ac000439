"""2PC commands of the sharded keyspace.

The keyed counterparts of :mod:`repro.core.messages`' single-item
commands: every command names its *shard* (epoch state is per shard --
a shard is a group of keys under one epoch) and its key, and the
install's marking table is keyed by the shard's *keys* (the union of
keys any poll responder reported -- see
:func:`repro.shard.sweep.check_shard_epoch` for why the union is the
safe set).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping


@dataclass(frozen=True, slots=True)
class ShApplyWrite:
    """Commit action: apply a partial write to one key of one shard."""

    shard: int
    key: str
    updates: dict
    new_version: int
    stale_nodes: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class ShMarkStale:
    """Commit action: mark one key stale with a desired version."""

    shard: int
    key: str
    dversion: int


@dataclass(frozen=True, slots=True)
class ShInstallEpoch:
    """Install one shard's epoch and its per-key stale markings atomically.

    ``keys`` maps key -> (good nodes, stale members, max_version) and
    lists only keys that need marking or healing (keys on which every
    new member is already current carry no entry).
    """

    shard: int
    epoch_list: tuple[str, ...]
    epoch_number: int
    keys: Mapping[str, tuple[tuple[str, ...], tuple[str, ...], int]]
