"""Coterie structures and quorum rules.

A *coterie* over a set of nodes V (Garcia-Molina & Barbara 1985, as used in
the paper's Section 3) is a pair of set families (W, R) -- write quorums and
read quorums -- such that

* any two write quorums intersect,
* any read quorum intersects any write quorum,
* no quorum contains another quorum of the same family (antichain).

This package provides the *coterie rule* abstraction of the paper's
Section 4 -- a deterministic function from an ordered node list to a coterie
-- plus concrete rules:

* :mod:`repro.coteries.grid` -- the grid protocol of Cheung, Ammar & Ahamad
  (1990) with the paper's ``DefineGrid`` / ``IsReadQuorum`` /
  ``IsWriteQuorum``;
* :mod:`repro.coteries.majority` -- (weighted) voting, Gifford 1979;
* :mod:`repro.coteries.tree` -- the tree protocol of Agrawal & El Abbadi
  (PODC 1989), the paper's reference [1];
* :mod:`repro.coteries.hierarchical` -- hierarchical quorum consensus,
  Kumar (1990), the paper's reference [10];
* :mod:`repro.coteries.rowa` -- read-one / write-all;
* :mod:`repro.coteries.properties` -- enumeration-based verification of the
  coterie axioms, used heavily by the property-based tests.
"""

from repro.coteries.base import (
    Coterie,
    CoterieError,
    CoterieRule,
    QuorumEvaluator,
    SetRecomputeEvaluator,
)
from repro.coteries.composite import (
    CompositeCoterie,
    composite_rule,
    partition_groups,
)
from repro.coteries.grid import GridCoterie, GridShape, define_grid
from repro.coteries.hierarchical import HierarchicalCoterie
from repro.coteries.majority import MajorityCoterie, WeightedVotingCoterie
from repro.coteries.optimizer import (
    Strategy,
    StrategyCache,
    optimize_strategy,
)
from repro.coteries.properties import (
    minimal_quorums,
    verify_coterie,
    verify_monotonicity,
)
from repro.coteries.rowa import ReadOneWriteAllCoterie
from repro.coteries.tree import TreeCoterie
from repro.coteries.wall import WallCoterie, triangle_widths, wall_rule

__all__ = [
    "CompositeCoterie",
    "Coterie",
    "CoterieError",
    "CoterieRule",
    "QuorumEvaluator",
    "SetRecomputeEvaluator",
    "composite_rule",
    "partition_groups",
    "GridCoterie",
    "GridShape",
    "HierarchicalCoterie",
    "MajorityCoterie",
    "ReadOneWriteAllCoterie",
    "Strategy",
    "StrategyCache",
    "TreeCoterie",
    "WallCoterie",
    "WeightedVotingCoterie",
    "triangle_widths",
    "wall_rule",
    "define_grid",
    "minimal_quorums",
    "optimize_strategy",
    "verify_coterie",
    "verify_monotonicity",
]
