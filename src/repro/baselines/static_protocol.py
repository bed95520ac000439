"""The static quorum protocol with total writes.

This is the baseline the paper compares against in Table 1 (for the grid
coterie).  There is no epoch machinery: quorums are always drawn from the
full replica set, so once a read/write quorum's worth of replicas is down
the protocol is unavailable no matter how gradually the failures arrived.

Because writes are *total*, currency does not matter: the coordinator
writes the new value (at ``max responder version + 1``) to every quorum
member, whatever version they held.  Intersection of write quorums keeps
versions strictly increasing; intersection of read and write quorums makes
the max-version read correct.

The operation itself -- plan, poll, decide, commit, release, retry -- is
:class:`~repro.core.coordinator.Coordinator`'s; the class below changes
four of its answers.
"""

from __future__ import annotations

from repro.core.coordinator import Coordinator
from repro.core.messages import ReplaceValue
from repro.core.store import ReplicatedStore, StoreError


class StaticCoordinator(Coordinator):
    """The operation loop under a fixed coterie with total writes."""

    def _epoch_list(self, item) -> tuple:
        return self.server.all_nodes    # the static structure, forever

    def _heavy_targets(self, coterie, kind: str, item) -> tuple:
        return ()    # the drawn quorum answers or the attempt fails

    def _decide(self, states, kind: str):
        """The paper's decision, at epoch 0 forever -- except that a total
        write overwrites the laggards it would have marked stale."""
        decision = super()._decide(states, kind)
        if decision is None or kind == "read":
            return decision
        newest, current, laggards = decision
        return newest, current | laggards, set()

    def _write_command(self, item, node, current, updates, version,
                       stale_nodes, known_good):
        return ReplaceValue(dict(updates), version)


class StaticQuorumStore(ReplicatedStore):
    """A replicated object under the static protocol (no epochs).

    The facade is :class:`~repro.core.store.ReplicatedStore`'s, but
    ``write`` takes the *whole* new value (``verify`` replays by merge,
    which equals replay by replace while clients write the full key
    set) and epoch checking is refused.
    """

    coordinator_class = StaticCoordinator

    def start_epoch_check(self, via=None):
        """Spawn an epoch-checking operation (where supported)."""
        raise StoreError("the static protocol has no epochs")
