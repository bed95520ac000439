"""Voting with witnesses (Paris 1986 -- the paper's reference [13]).

A *witness* is a replica that stores only the version number, no data.
Witnesses vote in quorums like everyone else, so they buy availability at
almost no storage cost -- but a read must find a *data* replica holding
the maximum version among the responders, and a write's new value lands
only on data replicas (witnesses just bump their version).

Implemented on the static voting machinery: writes are total, the coterie
is a (possibly weighted) majority over data nodes and witnesses together.
The subtle failure mode this introduces -- a quorum whose freshest member
is a witness cannot serve the data -- is handled exactly like the paper's
stale replicas: fall back to polling everyone, then fail rather than
return doubtful data.
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines.static_protocol import StaticCoordinator
from repro.core.messages import ReplaceValue
from repro.core.store import ReplicatedStore, StoreError
from repro.coteries.majority import MajorityCoterie


class WitnessVotingCoordinator(StaticCoordinator):
    """The total-write loop aware of which voters are witnesses."""

    #: The voters that store no data; the store sets it on its coordinators.
    witnesses: frozenset = frozenset()

    def _heavy_targets(self, coterie, kind: str, item) -> tuple:
        # a quorum whose freshest member is a witness goes wide for the
        # data -- suspects included: the witnesses left over may well be
        # a quorum, and still none of them has the value
        return self.server.all_nodes

    def _decide(self, states, kind: str):
        """The static decision, if the value is (read) or will be (write)
        on a data node: a quorum of witnesses alone could vote, but
        Paris requires a data copy in every write, and a read whose
        newest responders are all witnesses has no value to return."""
        decision = super()._decide(states, kind)
        if decision is None:
            return None
        newest, voters, _ = decision
        data = voters - self.witnesses
        return (newest, data, voters - data) if data else None

    def _write_command(self, item, node, current, updates, version,
                       stale_nodes, known_good):
        return ReplaceValue({} if node in self.witnesses else dict(updates),
                            version)


class WitnessVotingStore(ReplicatedStore):
    """A replicated object under voting with witnesses.

    Parameters
    ----------
    node_names:
        All voters, data nodes and witnesses alike.
    witnesses:
        The subset of ``node_names`` that store no data.  Must leave at
        least one data node.
    """

    coordinator_class = WitnessVotingCoordinator

    def __init__(self, node_names: Sequence[str],
                 witnesses: Sequence[str], **kwargs):
        kwargs.setdefault("coterie_rule", MajorityCoterie)
        super().__init__(node_names, **kwargs)
        self.witnesses = frozenset(witnesses)
        unknown = self.witnesses - set(self.node_names)
        if unknown:
            raise StoreError(f"unknown witnesses: {sorted(unknown)}")
        if not set(self.node_names) - self.witnesses:
            raise StoreError("at least one data node required")
        for coordinator in self.coordinators.values():
            coordinator.witnesses = self.witnesses

    @property
    def data_nodes(self) -> tuple[str, ...]:
        """The voters that store data (everyone but the witnesses)."""
        return tuple(sorted(set(self.node_names) - self.witnesses))

    def start_epoch_check(self, via=None):
        """Spawn an epoch-checking operation (where supported)."""
        raise StoreError("witness voting is a static protocol")

    def storage_bytes(self) -> dict[str, int]:
        """Estimated stored bytes per node (the witness saving)."""
        from repro.sim.sizing import estimate_size
        return {name: estimate_size(self.replica_state(name).value)
                for name in self.node_names}
