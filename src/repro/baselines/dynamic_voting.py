"""Dynamic-linear voting (Jajodia & Mutchler 1990).

The dynamic baseline the paper generalises.  Each replica durably stores,
besides the value:

* ``VN``  -- version number (reused from the core replica state);
* ``SC``  -- update-sites cardinality: how many sites participated in the
  last update this replica saw;
* ``DS``  -- the distinguished site of that update (the highest-ordered
  participant), used to break ties when exactly half of the last update's
  participants are reachable.

A coordinator polls **all** replicas (this protocol has no small quorums
-- one of the costs the paper's Section 2 calls out).  Let M be the
maximum VN among responders, I the responders holding M, and (SC, DS) the
metadata stored with M.  The operation may proceed iff

    |I| > SC/2,   or   |I| = SC/2 and DS in I

i.e. the responders include a majority (or the tie-breaking half) of the
*last update's* participants.  A write then installs the new value at
VN = M+1 on every responder, with SC = number of responders and DS = the
highest-ordered responder; laggard responders are caught up for free
because writes are total.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.static_protocol import StaticCoordinator
from repro.core.messages import ReplaceValue
from repro.core.store import ReplicatedStore, StoreError


def _may_proceed(holders: set[str], cardinality: int,
                 distinguished: Optional[str]) -> bool:
    """The dynamic-linear voting majority condition."""
    if 2 * len(holders) > cardinality:
        return True
    return (2 * len(holders) == cardinality
            and distinguished is not None and distinguished in holders)


class DynamicVotingCoordinator(StaticCoordinator):
    """The total-write loop under the majority-of-last-update rule."""

    def _plan_quorum(self, coterie, kind, salt, seq, strategy=None) -> list:
        return list(self.server.all_nodes)    # no small quorums

    def _decide(self, states, kind: str):
        if not states:
            return None
        newest = max(r.version for r in states.values())
        holders = {n for n, r in states.items() if r.version == newest}
        if not _may_proceed(holders, *states[min(holders)].meta):
            return None
        return newest, (set(states) if kind == "write" else holders), set()

    def _write_command(self, item, node, current, updates, version,
                       stale_nodes, known_good):
        return ReplaceValue(dict(updates), version,
                            meta=(len(known_good), max(known_good)))


class DynamicVotingStore(ReplicatedStore):
    """A replicated object under dynamic-linear voting."""

    coordinator_class = DynamicVotingCoordinator

    def __init__(self, node_names, **kwargs):
        super().__init__(node_names, **kwargs)
        # every replica starts with SC = N, DS = highest-ordered node
        initial_meta = (len(self.node_names), max(self.node_names))
        for server in self.servers.values():
            server.node.stable["proto_meta"] = initial_meta

    def start_epoch_check(self, via=None):
        """Spawn an epoch-checking operation (where supported)."""
        raise StoreError("dynamic voting adjusts quorums inside writes; "
                         "it has no separate epoch checking")

    def partition_metadata(self) -> dict[str, tuple]:
        """Current (SC, DS) per replica, for inspection in tests."""
        return {name: server.node.stable.get("proto_meta")
                for name, server in self.servers.items()}
