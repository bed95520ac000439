"""Hierarchical quorum consensus (Kumar 1990) -- reference [10].

The node list is organised into a balanced multilevel hierarchy: level 0 is
the root group; each group at level i splits into ``arity[i]`` subgroups;
the bottom level's groups are individual physical nodes.  A read (write)
quorum is assembled recursively: a group is *read-satisfied* when at least
``r_i`` of its subgroups are read-satisfied, and *write-satisfied* when at
least ``w_i`` of its subgroups are write-satisfied, with per-level
thresholds obeying ``r_i + w_i > arity[i]`` and ``2 * w_i > arity[i]``.

With three levels of three and ``w_i = 2`` everywhere, a write quorum over
N=27 has size 8 -- well below the majority size of 14 -- which is Kumar's
motivating example.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from repro.coteries.base import Coterie, CoterieError


def default_arities(n_nodes: int) -> tuple[int, ...]:
    """A reasonable hierarchy: repeated factors of 3 (then small factors).

    Falls back to a single level of size N (plain majority) when N is prime
    or too small to split.
    """
    if n_nodes < 3:
        return (n_nodes,)
    arities = []
    remaining = n_nodes
    for factor in (3, 5, 7, 2):
        while remaining % factor == 0 and remaining > 1:
            arities.append(factor)
            remaining //= factor
    if remaining != 1 or not arities:
        return (n_nodes,)
    return tuple(arities)


class HierarchicalCoterie(Coterie):
    """Kumar's hierarchical quorum consensus over a balanced hierarchy.

    Parameters
    ----------
    nodes:
        Ordered universe V; ``len(V)`` must equal ``prod(arities)``.
    arities:
        Subgroup counts per level, root first.  Defaults to
        :func:`default_arities`.
    write_thresholds / read_thresholds:
        Per-level ``w_i`` / ``r_i``.  Defaults: ``w_i = floor(d_i/2) + 1``
        and ``r_i = d_i + 1 - w_i``.
    """

    def __init__(self, nodes: Sequence[str],
                 arities: Optional[Sequence[int]] = None,
                 write_thresholds: Optional[Sequence[int]] = None,
                 read_thresholds: Optional[Sequence[int]] = None):
        super().__init__(nodes)
        if arities is None:
            arities = default_arities(len(self.nodes))
        arities = tuple(int(d) for d in arities)
        if any(d < 1 for d in arities):
            raise CoterieError(f"arities must be positive: {arities}")
        if math.prod(arities) != len(self.nodes):
            raise CoterieError(
                f"prod(arities)={math.prod(arities)} != N={len(self.nodes)}")
        self.arities = arities
        if write_thresholds is None:
            write_thresholds = [d // 2 + 1 for d in arities]
        if read_thresholds is None:
            read_thresholds = [d + 1 - w
                               for d, w in zip(arities, write_thresholds)]
        write_thresholds = tuple(int(w) for w in write_thresholds)
        read_thresholds = tuple(int(r) for r in read_thresholds)
        if not (len(write_thresholds) == len(read_thresholds) == len(arities)):
            raise CoterieError("one threshold per level required")
        for d, r, w in zip(arities, read_thresholds, write_thresholds):
            if not (1 <= r <= d and 1 <= w <= d):
                raise CoterieError(f"thresholds outside 1..{d}: r={r} w={w}")
            if r + w <= d:
                raise CoterieError(f"need r+w > d at each level: {r}+{w}<={d}")
            if 2 * w <= d:
                raise CoterieError(f"need 2w > d at each level: 2*{w}<={d}")
        self.write_thresholds = write_thresholds
        self.read_thresholds = read_thresholds

    # -- hierarchy geometry ---------------------------------------------------
    def group_size(self, level: int) -> int:
        """Number of physical nodes in one group at the given level."""
        return math.prod(self.arities[level:]) if level < len(self.arities) else 1

    # -- compiled predicates -----------------------------------------------------
    def compile(self, universe: Optional[Sequence[str]] = None):
        """An incremental per-group-counter evaluator (see engine docs)."""
        from repro.coteries.engine import HierarchicalEvaluator
        return HierarchicalEvaluator(self, universe)

    # -- membership --------------------------------------------------------------
    def _satisfied(self, live: frozenset, level: int, offset: int,
                   thresholds: Sequence[int]) -> bool:
        if level == len(self.arities):
            return self.nodes[offset] in live
        need = thresholds[level]
        arity = self.arities[level]
        have = 0
        for s in range(arity):
            if self._satisfied(live, level + 1, offset * arity + s, thresholds):
                have += 1
                if have >= need:
                    return True
        return False

    def is_read_quorum(self, subset: Iterable[str]) -> bool:
        """True iff *subset* includes a read quorum over V."""
        return self._satisfied(self.restrict(subset), 0, 0,
                               self.read_thresholds)

    def is_write_quorum(self, subset: Iterable[str]) -> bool:
        """True iff *subset* includes a write quorum over V."""
        return self._satisfied(self.restrict(subset), 0, 0,
                               self.write_thresholds)

    # -- quorum function --------------------------------------------------------
    def _assemble(self, level: int, offset: int, thresholds: Sequence[int],
                  salt: str, attempt: int) -> list[str]:
        if level == len(self.arities):
            return [self.nodes[offset]]
        need = thresholds[level]
        arity = self.arities[level]
        start = self._pick(range(arity), salt, attempt,
                           extra=f"hqc{level}.{offset}")
        picks: list[str] = []
        for step in range(need):
            s = (start + step) % arity
            picks.extend(self._assemble(level + 1, offset * arity + s,
                                        thresholds, salt, attempt))
        return picks

    def read_quorum(self, salt: str = "", attempt: int = 0) -> list[str]:
        """A concrete read quorum, spread deterministically by *salt*."""
        return self._assemble(0, 0, self.read_thresholds, salt, attempt)

    def write_quorum(self, salt: str = "", attempt: int = 0) -> list[str]:
        """A concrete write quorum, spread deterministically by *salt*."""
        return self._assemble(0, 0, self.write_thresholds, salt, attempt)

    # -- availability-aware selection ------------------------------------------
    def _find(self, live: frozenset, level: int, offset: int,
              thresholds: Sequence[int]) -> Optional[frozenset]:
        if level == len(self.arities):
            name = self.nodes[offset]
            return frozenset([name]) if name in live else None
        need = thresholds[level]
        arity = self.arities[level]
        parts = []
        for s in range(arity):
            sub = self._find(live, level + 1, offset * arity + s, thresholds)
            if sub is not None:
                parts.append(sub)
                if len(parts) == need:
                    return frozenset().union(*parts)
        return None

    def find_read_quorum(self, available: Iterable[str]) -> Optional[frozenset]:
        """Some read quorum fully inside *available*, or None."""
        return self._find(self.restrict(available), 0, 0,
                          self.read_thresholds)

    def find_write_quorum(self, available: Iterable[str]) -> Optional[frozenset]:
        """Some write quorum fully inside *available*, or None."""
        return self._find(self.restrict(available), 0, 0,
                          self.write_thresholds)

    def min_write_quorum_size(self) -> int:
        """Size of the smallest write quorum."""
        return math.prod(self.write_thresholds)

    def min_read_quorum_size(self) -> int:
        """Size of the smallest read quorum."""
        return math.prod(self.read_thresholds)

    def __repr__(self) -> str:
        return (f"<HierarchicalCoterie {self.n_nodes} nodes "
                f"arities={self.arities} w={self.write_thresholds}>")
