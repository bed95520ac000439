"""Baseline replica-control protocols.

* :mod:`repro.baselines.static_protocol` -- the *static* quorum protocol
  the paper improves on: a fixed coterie over all N replicas, total writes
  (read a quorum, write the new value to a write quorum), no epochs.  With
  a :class:`~repro.coteries.grid.GridCoterie` this is the grid protocol of
  Cheung, Ammar & Ahamad (1990); with
  :class:`~repro.coteries.majority.MajorityCoterie` it is Gifford voting;
  with :class:`~repro.coteries.rowa.ReadOneWriteAllCoterie` it is
  read-one/write-all.

* :mod:`repro.baselines.dynamic_voting` -- dynamic-linear voting (Jajodia
  & Mutchler 1990), the protocol whose availability the paper's epoch
  mechanism matches for structured coteries.

* :mod:`repro.baselines.witnesses` -- voting with witnesses (Paris 1986,
  the paper's reference [13]): some voters store a version number only.

All three run the core package's one operation loop
(:class:`~repro.core.coordinator.Coordinator`: plan, poll, decide,
commit, release, retry, per-op metrics) and override only which nodes an
operation asks, whether it may proceed on their answers and what a
participant is told -- so comparisons (availability, message traffic,
load) are apples to apples.
"""

from repro.baselines.static_protocol import StaticQuorumStore
from repro.baselines.dynamic_voting import DynamicVotingStore
from repro.baselines.witnesses import WitnessVotingStore

__all__ = ["DynamicVotingStore", "StaticQuorumStore", "WitnessVotingStore"]
