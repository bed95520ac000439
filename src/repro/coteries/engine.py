"""Incremental bitmask quorum evaluators for every coterie family.

Each class here compiles one coterie structure into per-node tally
tables so that quorum membership can be re-evaluated after a single
failure/repair event without rescanning the structure:

========================  =========================================  =========
structure                 incremental state                          per event
========================  =========================================  =========
grid                      per-column hit counters + two summaries    O(1)
(weighted) voting         live vote sum                              O(1)
read-one/write-all        live member count                          O(1)
crumbling wall            per-row hit counters (+ O(rows) write)     O(1)*
tree                      per-subtree satisfaction + child counts    O(depth)
hierarchical              per-group satisfied-child counts (r & w)   O(levels)
composite                 inner evaluators + outer evaluators        O(inner)
========================  =========================================  =========

(*) the wall's write query walks rows bottom-up with early exit --
O(#rows) = O(sqrt N) worst case, still structure-free per event.

An evaluator scores one fixed coterie; none knows about epochs.  The
dynamic Monte Carlo estimator changes epoch by swapping evaluators: a
coterie rule is a function of the ordered epoch list, so the epoch of k
members is ``rule(nodes[:k]).compile()`` with each member at its rank,
one evaluator per member count for every family
(:mod:`repro.availability.montecarlo`).

All evaluators share the :class:`~repro.coteries.base.QuorumEvaluator`
contract: bit i of a mask refers to ``universe[i]``; bits for nodes
outside the coterie's V are ignored; answers agree exactly with the
coterie's set-based predicates (the reference implementation), which the
property tests assert subset-for-subset.

The classes are not constructed directly in normal use -- call
``coterie.compile(universe)``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.coteries.base import Coterie, QuorumEvaluator


class GridEvaluator(QuorumEvaluator):
    """Per-column hit counters for :class:`~repro.coteries.grid.GridCoterie`.

    Maintains ``hits[j]`` (live members of column j), the number of
    columns with at least one hit, and the number of *coverable* columns
    whose every physical member is live.  Read quorum: every column hit.
    Write quorum: read quorum plus some coverable column full.  Both are
    O(1); each node flip touches exactly one column's counter.
    """

    def __init__(self, coterie: Coterie,
                 universe: Optional[Sequence[str]] = None):
        super().__init__(coterie, universe)
        self._n_cols = coterie.shape.n
        self._col_need = [len(column) for column in coterie.columns]
        self._col_full_ok = [coterie._column_may_count_as_full(j)
                             for j in range(1, self._n_cols + 1)]
        # column index per universe bit (-1: not a member of this grid)
        self._col_of = [-1] * self.n_bits
        for j, column in enumerate(coterie.columns):
            for name in column:
                self._col_of[self.bit[name]] = j
        self._n_full_ok = sum(self._col_full_ok)
        self._hits = [0] * self._n_cols
        self._cols_hit = 0
        self._cols_full = 0

    def reset(self, mask: int) -> None:
        self.mask = mask
        hits = [0] * self._n_cols
        for i, j in enumerate(self._col_of):
            if j >= 0 and mask >> i & 1:
                hits[j] += 1
        self._hits = hits
        self._cols_hit = sum(1 for h in hits if h > 0)
        self._cols_full = sum(
            1 for j, h in enumerate(hits)
            if h == self._col_need[j] and self._col_full_ok[j])

    def reset_full(self) -> None:
        self.mask = self.v_mask
        self._hits = self._col_need.copy()
        self._cols_hit = self._n_cols
        self._cols_full = self._n_full_ok

    def node_up(self, i: int) -> None:
        self.mask |= 1 << i
        j = self._col_of[i]
        if j < 0:
            return
        hits = self._hits
        h = hits[j] + 1
        hits[j] = h
        if h == 1:
            self._cols_hit += 1
        if h == self._col_need[j] and self._col_full_ok[j]:
            self._cols_full += 1

    def node_down(self, i: int) -> None:
        self.mask &= ~(1 << i)
        j = self._col_of[i]
        if j < 0:
            return
        hits = self._hits
        h = hits[j] - 1
        hits[j] = h
        if h == 0:
            self._cols_hit -= 1
        if h == self._col_need[j] - 1 and self._col_full_ok[j]:
            self._cols_full -= 1

    def is_read_quorum(self, mask: Optional[int] = None) -> bool:
        if mask is not None:
            self.reset(mask)
        return self._cols_hit == self._n_cols

    def is_write_quorum(self, mask: Optional[int] = None) -> bool:
        if mask is not None:
            self.reset(mask)
        return self._cols_full > 0 and self._cols_hit == self._n_cols


class VotingEvaluator(QuorumEvaluator):
    """A live vote sum for weighted/unweighted voting coteries.

    ``weight_of[i]`` is the vote count of ``universe[i]`` (0 for
    non-members), so both predicates are threshold comparisons against a
    single maintained integer -- the popcount-style O(1) case.
    """

    def __init__(self, coterie: Coterie,
                 universe: Optional[Sequence[str]] = None):
        super().__init__(coterie, universe)
        self._weight_of = [0] * self.n_bits
        for name in coterie.nodes:
            self._weight_of[self.bit[name]] = coterie.weights[name]
        self._read_votes = coterie.read_votes
        self._write_votes = coterie.write_votes
        self._total_votes = coterie.total_votes
        self._votes = 0

    def reset(self, mask: int) -> None:
        self.mask = mask
        self._votes = sum(w for i, w in enumerate(self._weight_of)
                          if w and mask >> i & 1)

    def reset_full(self) -> None:
        self.mask = self.v_mask
        self._votes = self._total_votes

    def node_up(self, i: int) -> None:
        self.mask |= 1 << i
        self._votes += self._weight_of[i]

    def node_down(self, i: int) -> None:
        self.mask &= ~(1 << i)
        self._votes -= self._weight_of[i]

    def is_read_quorum(self, mask: Optional[int] = None) -> bool:
        if mask is not None:
            self.reset(mask)
        return self._votes >= self._read_votes

    def is_write_quorum(self, mask: Optional[int] = None) -> bool:
        if mask is not None:
            self.reset(mask)
        return self._votes >= self._write_votes


class RowaEvaluator(QuorumEvaluator):
    """A live member count for read-one/write-all: reads need > 0, writes
    need all N members up."""

    def __init__(self, coterie: Coterie,
                 universe: Optional[Sequence[str]] = None):
        super().__init__(coterie, universe)
        self._member = [False] * self.n_bits
        for name in coterie.nodes:
            self._member[self.bit[name]] = True
        self._n_members = coterie.n_nodes
        self._live = 0

    def reset(self, mask: int) -> None:
        self.mask = mask
        self._live = sum(1 for i, m in enumerate(self._member)
                         if m and mask >> i & 1)

    def reset_full(self) -> None:
        self.mask = self.v_mask
        self._live = self._n_members

    def node_up(self, i: int) -> None:
        self.mask |= 1 << i
        if self._member[i]:
            self._live += 1

    def node_down(self, i: int) -> None:
        self.mask &= ~(1 << i)
        if self._member[i]:
            self._live -= 1

    def is_read_quorum(self, mask: Optional[int] = None) -> bool:
        if mask is not None:
            self.reset(mask)
        return self._live > 0

    def is_write_quorum(self, mask: Optional[int] = None) -> bool:
        if mask is not None:
            self.reset(mask)
        return self._live == self._n_members


class WallEvaluator(QuorumEvaluator):
    """Per-row hit counters for crumbling walls.

    Reads are O(1) (count of hit rows).  The write query walks rows
    bottom-up -- the first row with zero hits refutes every higher full
    row, the first fully-hit row at or below it confirms -- so it is
    O(#rows) with early exit, never O(N).
    """

    def __init__(self, coterie: Coterie,
                 universe: Optional[Sequence[str]] = None):
        super().__init__(coterie, universe)
        self._n_rows = len(coterie.rows)
        self._row_of = [-1] * self.n_bits
        self._row_need = [len(row) for row in coterie.rows]
        for r, row in enumerate(coterie.rows):
            for name in row:
                self._row_of[self.bit[name]] = r
        self._hits = [0] * self._n_rows
        self._rows_hit = 0

    def reset(self, mask: int) -> None:
        self.mask = mask
        hits = [0] * self._n_rows
        for i, r in enumerate(self._row_of):
            if r >= 0 and mask >> i & 1:
                hits[r] += 1
        self._hits = hits
        self._rows_hit = sum(1 for h in hits if h > 0)

    def reset_full(self) -> None:
        self.mask = self.v_mask
        self._hits = self._row_need.copy()
        self._rows_hit = self._n_rows

    def node_up(self, i: int) -> None:
        self.mask |= 1 << i
        r = self._row_of[i]
        if r < 0:
            return
        h = self._hits[r] + 1
        self._hits[r] = h
        if h == 1:
            self._rows_hit += 1

    def node_down(self, i: int) -> None:
        self.mask &= ~(1 << i)
        r = self._row_of[i]
        if r < 0:
            return
        h = self._hits[r] - 1
        self._hits[r] = h
        if h == 0:
            self._rows_hit -= 1

    def is_read_quorum(self, mask: Optional[int] = None) -> bool:
        if mask is not None:
            self.reset(mask)
        return self._rows_hit == self._n_rows

    def is_write_quorum(self, mask: Optional[int] = None) -> bool:
        if mask is not None:
            self.reset(mask)
        hits = self._hits
        need = self._row_need
        for r in range(self._n_rows - 1, -1, -1):
            if hits[r] == need[r]:
                return True
            if hits[r] == 0:
                return False
        return False


class TreeEvaluator(QuorumEvaluator):
    """Per-subtree satisfaction for the Agrawal & El Abbadi tree protocol.

    For every tree position v, ``sat[v]`` caches whether the live set
    contains a quorum of v's subtree, along with a count of satisfied
    children.  A node flip recomputes sat along the root path only,
    stopping as soon as a subtree's satisfaction is unchanged --
    O(depth * branching) worst case, O(1) typical.  Read and write
    families coincide for the tree protocol.
    """

    def __init__(self, coterie: Coterie,
                 universe: Optional[Sequence[str]] = None):
        super().__init__(coterie, universe)
        n = coterie.n_nodes
        self._n = n
        self._branching = coterie.branching
        self._pos_of = [-1] * self.n_bits  # universe bit -> tree position
        for v, name in enumerate(coterie.nodes):
            self._pos_of[self.bit[name]] = v
        self._n_kids = [len(coterie.children(v)) for v in range(n)]
        self._up = [False] * n
        self._sat = [False] * n
        self._sat_kids = [0] * n

    def _sat_now(self, v: int) -> bool:
        kids = self._n_kids[v]
        if not kids:
            return self._up[v]
        sat_kids = self._sat_kids[v]
        return ((self._up[v] and sat_kids > 0) or sat_kids == kids)

    def reset(self, mask: int) -> None:
        self.mask = mask
        up = [False] * self._n
        for i, v in enumerate(self._pos_of):
            if v >= 0 and mask >> i & 1:
                up[v] = True
        sat = [False] * self._n
        sat_kids = [0] * self._n
        # children always have larger heap indices: one reverse sweep
        for v in range(self._n - 1, -1, -1):
            kids = self._n_kids[v]
            if not kids:
                sat[v] = up[v]
            else:
                sat[v] = (up[v] and sat_kids[v] > 0) or sat_kids[v] == kids
            if v and sat[v]:
                sat_kids[(v - 1) // self._branching] += 1
        self._up = up
        self._sat = sat
        self._sat_kids = sat_kids

    def reset_full(self) -> None:
        self.mask = self.v_mask
        self._up = [True] * self._n
        self._sat = [True] * self._n
        self._sat_kids = self._n_kids.copy()

    def _flip(self, i: int, now_up: bool) -> None:
        v = self._pos_of[i]
        if v < 0:
            return
        self._up[v] = now_up
        sat = self._sat
        branching = self._branching
        new_sat = self._sat_now(v)
        while new_sat != sat[v]:
            sat[v] = new_sat
            if v == 0:
                return
            v = (v - 1) // branching
            self._sat_kids[v] += 1 if new_sat else -1
            new_sat = self._sat_now(v)

    def node_up(self, i: int) -> None:
        self.mask |= 1 << i
        self._flip(i, True)

    def node_down(self, i: int) -> None:
        self.mask &= ~(1 << i)
        self._flip(i, False)

    def is_read_quorum(self, mask: Optional[int] = None) -> bool:
        if mask is not None:
            self.reset(mask)
        return self._sat[0]

    def is_write_quorum(self, mask: Optional[int] = None) -> bool:
        if mask is not None:
            self.reset(mask)
        return self._sat[0]


class HierarchicalEvaluator(QuorumEvaluator):
    """Per-group satisfied-subgroup counts for Kumar's HQC.

    The balanced hierarchy is flattened into one array of groups per
    level; each internal group keeps two counters (read- and
    write-satisfied children).  A node flip propagates each chain up
    until satisfaction stops changing -- O(levels) per event.
    """

    def __init__(self, coterie: Coterie,
                 universe: Optional[Sequence[str]] = None):
        super().__init__(coterie, universe)
        arities = coterie.arities
        self._levels = len(arities)
        self._arities = arities
        # group ids: level l occupies [base[l], base[l+1]); leaves last
        base = [0]
        count = 1
        for d in arities:
            base.append(base[-1] + count)
            count *= d
        self._base = base
        n_groups = base[-1] + count  # internal groups + leaves
        self._n_internal = base[-1]
        self._leaf_of = [-1] * self.n_bits  # universe bit -> leaf offset
        for offset, name in enumerate(coterie.nodes):
            self._leaf_of[self.bit[name]] = offset
        self._r_need = coterie.read_thresholds
        self._w_need = coterie.write_thresholds
        self._r_count = [0] * self._n_internal
        self._w_count = [0] * self._n_internal
        self._n_groups = n_groups
        # child count per internal group when every node is up
        self._full_counts = [arities[level]
                             for level in range(self._levels)
                             for _ in range(base[level + 1] - base[level])]

    def reset(self, mask: int) -> None:
        self.mask = mask
        levels = self._levels
        arities = self._arities
        base = self._base
        # satisfaction per group, computed bottom-up, one level at a time
        leaf_up = [False] * (self._n_groups - self._n_internal)
        for i, offset in enumerate(self._leaf_of):
            if offset >= 0 and mask >> i & 1:
                leaf_up[offset] = True
        r_sat = list(leaf_up)
        w_sat = list(leaf_up)
        r_count = [0] * self._n_internal
        w_count = [0] * self._n_internal
        for level in range(levels - 1, -1, -1):
            d = arities[level]
            n_here = base[level + 1] - base[level]
            next_r, next_w = [], []
            for offset in range(n_here):
                rc = sum(1 for s in range(d) if r_sat[offset * d + s])
                wc = sum(1 for s in range(d) if w_sat[offset * d + s])
                r_count[base[level] + offset] = rc
                w_count[base[level] + offset] = wc
                next_r.append(rc >= self._r_need[level])
                next_w.append(wc >= self._w_need[level])
            r_sat, w_sat = next_r, next_w
        self._r_count = r_count
        self._w_count = w_count

    def reset_full(self) -> None:
        self.mask = self.v_mask
        self._r_count = self._full_counts.copy()
        self._w_count = self._full_counts.copy()

    def _flip(self, i: int, now_up: bool) -> None:
        offset = self._leaf_of[i]
        if offset < 0:
            return
        delta = 1 if now_up else -1
        base = self._base
        arities = self._arities
        r_changed = w_changed = True
        for level in range(self._levels - 1, -1, -1):
            offset //= arities[level]
            gid = base[level] + offset
            if not (r_changed or w_changed):
                return
            if r_changed:
                before = self._r_count[gid] >= self._r_need[level]
                self._r_count[gid] += delta
                r_changed = (self._r_count[gid]
                             >= self._r_need[level]) != before
            if w_changed:
                before = self._w_count[gid] >= self._w_need[level]
                self._w_count[gid] += delta
                w_changed = (self._w_count[gid]
                             >= self._w_need[level]) != before

    def node_up(self, i: int) -> None:
        self.mask |= 1 << i
        self._flip(i, True)

    def node_down(self, i: int) -> None:
        self.mask &= ~(1 << i)
        self._flip(i, False)

    def is_read_quorum(self, mask: Optional[int] = None) -> bool:
        if mask is not None:
            self.reset(mask)
        return self._r_count[0] >= self._r_need[0]

    def is_write_quorum(self, mask: Optional[int] = None) -> bool:
        if mask is not None:
            self.reset(mask)
        return self._w_count[0] >= self._w_need[0]


class CompositeEvaluator(QuorumEvaluator):
    """Inner evaluators per group feeding two outer evaluators.

    Each group's inner coterie is compiled over the group's own members;
    the outer coterie is compiled twice, once tracking which groups are
    read-satisfied and once write-satisfied (the two differ).  A node
    flip updates one inner evaluator and forwards at most one outer bit
    per kind -- O(inner structure) per event.
    """

    def __init__(self, coterie: Coterie,
                 universe: Optional[Sequence[str]] = None):
        super().__init__(coterie, universe)
        self._inners = []          # one evaluator per group
        self._group_of = [-1] * self.n_bits
        self._inner_bit = [0] * self.n_bits
        for g, label in enumerate(coterie.group_labels):
            inner = coterie.inners[label].compile()
            self._inners.append(inner)
            for name in inner.coterie.nodes:
                i = self.bit[name]
                self._group_of[i] = g
                self._inner_bit[i] = inner.bit[name]
        self._outer_r = coterie.outer.compile()
        self._outer_w = coterie.outer.compile()
        self._r_sat = [False] * len(self._inners)
        self._w_sat = [False] * len(self._inners)

    @staticmethod
    def _group_sat(inner: QuorumEvaluator, kind: str) -> bool:
        # mirror CompositeCoterie._satisfied_groups: a group with no live
        # member never counts, whatever its inner predicate says
        if not inner.mask:
            return False
        return (inner.is_write_quorum() if kind == "write"
                else inner.is_read_quorum())

    def reset(self, mask: int) -> None:
        self.mask = mask
        r_mask = w_mask = 0
        for g, inner in enumerate(self._inners):
            inner.reset(inner.mask_of(
                name for name in inner.universe
                if mask >> self.bit[name] & 1))
            self._r_sat[g] = self._group_sat(inner, "read")
            self._w_sat[g] = self._group_sat(inner, "write")
            if self._r_sat[g]:
                r_mask |= 1 << g
            if self._w_sat[g]:
                w_mask |= 1 << g
        self._outer_r.reset(r_mask)
        self._outer_w.reset(w_mask)

    def reset_full(self) -> None:
        # every group's full member set contains both quorums, so all
        # groups are satisfied and both outer universes are fully up
        self.mask = self.v_mask
        for g, inner in enumerate(self._inners):
            inner.reset_full()
            self._r_sat[g] = self._w_sat[g] = True
        self._outer_r.reset_full()
        self._outer_w.reset_full()

    def _flip(self, i: int, now_up: bool) -> None:
        g = self._group_of[i]
        if g < 0:
            return
        inner = self._inners[g]
        if now_up:
            inner.node_up(self._inner_bit[i])
        else:
            inner.node_down(self._inner_bit[i])
        r_now = self._group_sat(inner, "read")
        if r_now != self._r_sat[g]:
            self._r_sat[g] = r_now
            (self._outer_r.node_up if r_now
             else self._outer_r.node_down)(g)
        w_now = self._group_sat(inner, "write")
        if w_now != self._w_sat[g]:
            self._w_sat[g] = w_now
            (self._outer_w.node_up if w_now
             else self._outer_w.node_down)(g)

    def node_up(self, i: int) -> None:
        self.mask |= 1 << i
        self._flip(i, True)

    def node_down(self, i: int) -> None:
        self.mask &= ~(1 << i)
        self._flip(i, False)

    def is_read_quorum(self, mask: Optional[int] = None) -> bool:
        if mask is not None:
            self.reset(mask)
        return self._outer_r.is_read_quorum()

    def is_write_quorum(self, mask: Optional[int] = None) -> bool:
        if mask is not None:
            self.reset(mask)
        return self._outer_w.is_write_quorum()
