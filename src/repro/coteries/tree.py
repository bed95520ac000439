"""The tree protocol of Agrawal & El Abbadi (PODC 1989) -- reference [1].

Nodes are arranged in a logical d-ary tree (heap layout over the ordered
node list).  A quorum is obtained by walking root to leaf; a node on the
path that is unavailable is replaced by root-to-leaf paths through *all* of
its children.  Formally, a set S contains a quorum of the subtree rooted at
v iff

* v is a leaf and v is in S, or
* v is in S and S contains a quorum of at least one child subtree, or
* S contains a quorum of *every* child subtree (v substituted).

Any two such quorums intersect (induction over the tree), so using the same
family for reads and writes yields a valid coterie.  In the failure-free
case the quorum is a single root-to-leaf path of ``ceil(log_d N)+1`` nodes
-- even smaller than the grid's sqrt(N) -- at the cost of high load on the
root.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.coteries.base import Coterie, CoterieError


class TreeCoterie(Coterie):
    """Quorums over a logical d-ary tree (read and write families equal)."""

    def __init__(self, nodes: Sequence[str], branching: int = 2):
        super().__init__(nodes)
        if branching < 2:
            raise CoterieError(f"branching must be >= 2, got {branching}")
        self.branching = branching

    # -- tree geometry (heap layout over node indices 0..N-1) ----------------
    def children(self, index: int) -> list[int]:
        """Heap-layout child indices of the given tree node."""
        first = index * self.branching + 1
        return [c for c in range(first, first + self.branching)
                if c < self.n_nodes]

    def depth(self) -> int:
        """Number of levels in the tree."""
        levels, count = 0, 0
        width = 1
        while count < self.n_nodes:
            count += width
            width *= self.branching
            levels += 1
        return levels

    # -- compiled predicates ---------------------------------------------------
    def compile(self, universe: Optional[Sequence[str]] = None):
        """An incremental subtree-satisfaction evaluator (see engine docs)."""
        from repro.coteries.engine import TreeEvaluator
        return TreeEvaluator(self, universe)

    # -- membership ------------------------------------------------------------
    def _contains_quorum(self, live: frozenset, index: int) -> bool:
        name = self.nodes[index]
        kids = self.children(index)
        if not kids:
            return name in live
        if name in live and any(self._contains_quorum(live, c) for c in kids):
            return True
        return all(self._contains_quorum(live, c) for c in kids)

    def is_read_quorum(self, subset: Iterable[str]) -> bool:
        """True iff *subset* includes a read quorum over V."""
        return self._contains_quorum(self.restrict(subset), 0)

    def is_write_quorum(self, subset: Iterable[str]) -> bool:
        """True iff *subset* includes a write quorum over V."""
        return self._contains_quorum(self.restrict(subset), 0)

    # -- quorum function -----------------------------------------------------------
    def _path(self, index: int, salt: str, attempt: int) -> list[str]:
        picks = [self.nodes[index]]
        kids = self.children(index)
        while kids:
            index = kids[self._pick(kids, salt, attempt,
                                    extra=f"tree{index}")]
            picks.append(self.nodes[index])
            kids = self.children(index)
        return picks

    def read_quorum(self, salt: str = "", attempt: int = 0) -> list[str]:
        """A root-to-leaf path (the failure-free quorum)."""
        return self._path(0, salt, attempt)

    def write_quorum(self, salt: str = "", attempt: int = 0) -> list[str]:
        """A concrete write quorum, spread deterministically by *salt*."""
        return self._path(0, salt, attempt)

    # -- availability-aware selection ---------------------------------------------
    def _find(self, live: frozenset, index: int) -> Optional[frozenset]:
        name = self.nodes[index]
        kids = self.children(index)
        if not kids:
            return frozenset([name]) if name in live else None
        if name in live:
            for c in kids:
                sub = self._find(live, c)
                if sub is not None:
                    return sub | {name}
        parts = []
        for c in kids:
            sub = self._find(live, c)
            if sub is None:
                return None
            parts.append(sub)
        return frozenset().union(*parts)

    def find_read_quorum(self, available: Iterable[str]) -> Optional[frozenset]:
        """Some read quorum fully inside *available*, or None."""
        return self._find(self.restrict(available), 0)

    def find_write_quorum(self, available: Iterable[str]) -> Optional[frozenset]:
        """Some write quorum fully inside *available*, or None."""
        return self._find(self.restrict(available), 0)

    def __repr__(self) -> str:
        return (f"<TreeCoterie {self.n_nodes} nodes "
                f"d={self.branching} depth={self.depth()}>")
