"""repro -- Dynamic structured coterie protocols for replicated objects.

A full reproduction of:

    Michael Rabinovich and Edward D. Lazowska,
    "Improving Fault Tolerance and Supporting Partial Writes in Structured
    Coterie Protocols for Replicated Objects", ACM SIGMOD 1992.

Package map
-----------
``repro.sim``
    Discrete-event simulation substrate: engine, network, RPC with
    ``CALL_FAILED``, fail-stop nodes, failure injection, tracing.
``repro.coteries``
    Coterie structures and rules: the grid (with the paper's ``DefineGrid``
    / ``IsReadQuorum`` / ``IsWriteQuorum``), majority and weighted voting,
    tree quorums, hierarchical quorum consensus, ROWA, plus verifiers for
    the coterie axioms.
``repro.core``
    The paper's contribution: the general dynamic protocol with epochs,
    partial writes with stale marking and desired version numbers,
    asynchronous update propagation, epoch checking with election, and the
    replicated-object store facade.
``repro.baselines``
    Static quorum protocols (grid / voting / ROWA without epochs),
    dynamic-linear voting and voting with witnesses, each as the hooks
    of ``repro.core``'s one operation coordinator.
``repro.availability``
    Analytic machinery: a CTMC global-balance solver, the paper's Figure 3
    chain (Table 1), closed-form static availability, exact enumeration,
    and Monte Carlo estimation.
``repro.workloads`` / ``repro.analysis``
    Operation generators and load/traffic analysis.
"""

from repro.availability.chains.dynamic_grid import dynamic_grid_unavailability
from repro.availability.formulas import (
    grid_read_availability,
    grid_write_availability,
)
from repro.baselines.dynamic_voting import DynamicVotingStore
from repro.baselines.static_protocol import StaticQuorumStore
from repro.baselines.witnesses import WitnessVotingStore
from repro.core.config import ProtocolConfig
from repro.core.store import ReplicatedStore
from repro.coteries.grid import GridCoterie, GridShape, define_grid
from repro.coteries.hierarchical import HierarchicalCoterie
from repro.coteries.majority import MajorityCoterie, WeightedVotingCoterie
from repro.coteries.rowa import ReadOneWriteAllCoterie
from repro.coteries.tree import TreeCoterie

__version__ = "1.0.0"

__all__ = [
    "DynamicVotingStore",
    "GridCoterie",
    "GridShape",
    "HierarchicalCoterie",
    "MajorityCoterie",
    "ProtocolConfig",
    "ReadOneWriteAllCoterie",
    "ReplicatedStore",
    "StaticQuorumStore",
    "TreeCoterie",
    "WeightedVotingCoterie",
    "WitnessVotingStore",
    "define_grid",
    "dynamic_grid_unavailability",
    "grid_read_availability",
    "grid_write_availability",
    "__version__",
]
