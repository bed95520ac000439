"""Vectorized batch evaluation of quorum predicates over mask arrays.

The scalar :class:`~repro.coteries.base.QuorumEvaluator` answers one
membership query per call -- ideal for incremental per-event replay, but
a Python-interpreter tax when thousands of *independent* masks need
scoring at once (Monte Carlo trajectory chunks, exhaustive 2^N sweeps,
strategy-optimizer candidate scoring).  A :class:`BatchEvaluator`
compiles the same coterie structure into numpy arrays instead of
per-node counters and evaluates ``is_read_quorum`` / ``is_write_quorum``
over an ``(M,)`` array of masks in one shot:

========================  ==============================================
structure                 batch kernel
========================  ==============================================
grid                      column membership matmul -> per-column tallies
(weighted) voting         vote-weight dot product vs thresholds
read-one/write-all        live-member row sums
crumbling wall            row tallies + suffix all-hit accumulate
tree                      reverse heap sweep, vectorized across masks
hierarchical              level-wise reshape reductions
composite                 inner batch kernels feeding the outer kernel
anything else             scalar-evaluator fallback, row by row
========================  ==============================================

All kernels operate on a *bit matrix*: ``bits[r, i]`` is True iff
``universe[i]`` is up in mask r.  :func:`unpack_masks` converts integer
masks (numpy ``uint64`` arrays for N <= 64, Python ints of any width)
into bit matrices; Monte Carlo callers build bit matrices directly via
cumulative flip parity and skip the conversion entirely.

Grid and unit-weight voting additionally answer over *packed words* --
``(M, W)`` little-endian ``uint64`` rows, one bit per node -- via
:meth:`~BatchEvaluator.read_packed` / :meth:`~BatchEvaluator.write_packed`
(``supports_packed``).  The grid kernel is pure masked-word and/equal
tests (a column is full iff ``words & col_mask == col_mask``); voting
popcounts member words with ``np.bitwise_count`` (numpy >= 2).  Packed
rows carry 1/8th the memory traffic of a bit matrix, which is what lets
the vector static estimator clear the bitmask engine by >= 10x on
event-stream replay; other families transparently unpack packed input
and dispatch to their bit-matrix kernels.

Unlike scalar evaluators, batch evaluators are *stateless*: the same
instance can be shared across threads and kinds (no tracked up-set).
They score a fixed coterie, as scalar evaluators do; a caller that
needs another member set compiles ``rule(members)``.

Answers agree bit-for-bit with the coterie's set-based predicates on
every mask -- the golden equivalence tests sweep all 2^N masks per
family, and ``repro lint --coteries`` re-verifies the agreement
mechanically.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.coteries.base import Coterie, CoterieError
from repro.coteries.composite import CompositeCoterie
from repro.coteries.grid import GridCoterie
from repro.coteries.hierarchical import HierarchicalCoterie
from repro.coteries.majority import WeightedVotingCoterie
from repro.coteries.rowa import ReadOneWriteAllCoterie
from repro.coteries.tree import TreeCoterie
from repro.coteries.wall import WallCoterie

__all__ = [
    "BatchEvaluator",
    "batch_evaluator_for",
    "pack_bits",
    "pack_matrix",
    "unpack_masks",
    "unpack_words",
    "word_count",
]

#: numpy >= 2.0 popcounts packed words natively; without it the packed
#: kernels are unavailable and ``*_packed`` falls back to bit matrices
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def unpack_masks(masks, n_bits: int) -> np.ndarray:
    """Convert integer masks into an ``(M, n_bits)`` boolean bit matrix.

    Accepts a numpy integer array (``n_bits <= 64``), any iterable of
    Python ints (arbitrary width), or an already-unpacked 2-D boolean
    matrix (returned as-is after a width check).
    """
    if isinstance(masks, np.ndarray) and masks.dtype == np.bool_:
        if masks.ndim != 2 or masks.shape[1] != n_bits:
            raise CoterieError(
                f"bit matrix must be (M, {n_bits}), got {masks.shape}")
        return masks
    if isinstance(masks, np.ndarray) and masks.dtype.kind in "iu":
        if n_bits > 64:
            raise CoterieError(
                "numpy integer masks support at most 64 bits; pass "
                "Python ints or a bit matrix for wider universes")
        arr = masks.astype(np.uint64, copy=False).reshape(-1)
        shifts = np.arange(n_bits, dtype=np.uint64)
        return ((arr[:, None] >> shifts) & np.uint64(1)).astype(bool)
    # Python ints of any width: one little-endian byte row per mask.
    mask_list = [int(m) for m in masks]
    n_bytes = max(1, (n_bits + 7) // 8)
    buf = b"".join(m.to_bytes(n_bytes, "little") for m in mask_list)
    rows = np.frombuffer(buf, dtype=np.uint8).reshape(len(mask_list),
                                                      n_bytes)
    bits = np.unpackbits(rows, axis=1, bitorder="little")
    return bits[:, :n_bits].astype(bool)


def pack_bits(bits: np.ndarray) -> list[int]:
    """The inverse of :func:`unpack_masks`: bit matrix to Python ints."""
    packed = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def word_count(n_bits: int) -> int:
    """How many 64-bit words an *n_bits*-wide packed mask row needs."""
    return max(1, (n_bits + 63) // 64)


def pack_matrix(bits: np.ndarray) -> np.ndarray:
    """Bit matrix ``(M, n_bits)`` to packed words ``(M, W)``, little-endian.

    Word ``w`` of a row holds bits ``64w .. 64w+63`` of the mask, so the
    representation matches the integer masks bit for bit.
    """
    rows = np.packbits(np.asarray(bits, dtype=np.uint8), axis=1,
                       bitorder="little")
    n_w = word_count(bits.shape[1])
    buf = np.zeros((bits.shape[0], n_w * 8), dtype=np.uint8)
    buf[:, :rows.shape[1]] = rows
    return buf.view("<u8")


def unpack_words(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Packed words ``(M, W)`` back to an ``(M, n_bits)`` bit matrix."""
    rows = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(rows, axis=1, bitorder="little")
    return bits[:, :n_bits].astype(bool)


def _int_words(mask: int, n_w: int) -> np.ndarray:
    """A Python-int mask as a ``(W,)`` little-endian uint64 word vector."""
    return np.frombuffer(mask.to_bytes(n_w * 8, "little"), dtype="<u8")


class BatchEvaluator:
    """Vectorized quorum predicates for one coterie over a fixed universe.

    Shares the scalar evaluator's bit convention: bit/column i refers to
    ``universe[i]``; bits for nodes outside the coterie's V never affect
    the answers.  Subclasses implement the two kernels
    :meth:`read_bits` / :meth:`write_bits` on boolean bit matrices; the
    ``*_batch`` wrappers accept integer mask arrays and unpack first.
    """

    #: True when :meth:`read_packed` / :meth:`write_packed` run native
    #: popcount kernels on packed words (instead of unpack-and-dispatch).
    supports_packed = False

    def __init__(self, coterie: Coterie,
                 universe: Optional[Sequence[str]] = None):
        if universe is None:
            universe = coterie.nodes
        universe = tuple(universe)
        if len(set(universe)) != len(universe):
            raise CoterieError("duplicate node names in evaluator universe")
        bit = {name: i for i, name in enumerate(universe)}
        missing = [name for name in coterie.nodes if name not in bit]
        if missing:
            raise CoterieError(
                f"coterie members outside the universe: {missing}")
        self.coterie = coterie
        self.universe = universe
        self.bit = bit
        self.n_bits = len(universe)
        v_mask = 0
        for name in coterie.nodes:
            v_mask |= 1 << bit[name]
        self.v_mask = v_mask

    # -- mask conversion -----------------------------------------------------
    def unpack(self, masks) -> np.ndarray:
        """Masks (integers or bit matrix) as an ``(M, n_bits)`` bool array."""
        return unpack_masks(masks, self.n_bits)

    # -- batch membership ----------------------------------------------------
    def is_read_quorum_batch(self, masks) -> np.ndarray:
        """``(M,)`` bool: does each mask include a read quorum?"""
        return self.read_bits(self.unpack(masks))

    def is_write_quorum_batch(self, masks) -> np.ndarray:
        """``(M,)`` bool: does each mask include a write quorum?"""
        return self.write_bits(self.unpack(masks))

    # -- kernels (subclass hooks) --------------------------------------------
    def read_bits(self, bits: np.ndarray) -> np.ndarray:
        """Read-quorum predicate over an ``(M, n_bits)`` bit matrix."""
        raise NotImplementedError

    def write_bits(self, bits: np.ndarray) -> np.ndarray:
        """Write-quorum predicate over an ``(M, n_bits)`` bit matrix."""
        raise NotImplementedError

    # -- packed-word kernels -------------------------------------------------
    # Packed input is an (M, W) uint64 matrix (W = word_count(n_bits),
    # little-endian words): 1 byte per 8 nodes instead of 1 byte per
    # node, and tallies become hardware popcounts.  The base class
    # unpacks and defers to the bit-matrix kernels; families with
    # popcount structure (grid columns, unit-weight voting) override
    # with native word kernels and set ``supports_packed``.

    def read_packed(self, words: np.ndarray) -> np.ndarray:
        """Read-quorum predicate over an ``(M, W)`` packed word matrix."""
        return self.read_bits(unpack_words(words, self.n_bits))

    def write_packed(self, words: np.ndarray) -> np.ndarray:
        """Write-quorum predicate over an ``(M, W)`` packed word matrix."""
        return self.write_bits(unpack_words(words, self.n_bits))

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} for {self.coterie!r} "
                f"over {self.n_bits} bits>")


class BatchGridEvaluator(BatchEvaluator):
    """Column-tally kernel for :class:`~repro.coteries.grid.GridCoterie`.

    ``hits = bits @ column_membership`` gives per-column live counts for
    every mask at once; read = all columns hit, write = read plus some
    eligible column fully covered.
    """

    supports_packed = True

    def __init__(self, coterie: GridCoterie,
                 universe: Optional[Sequence[str]] = None):
        super().__init__(coterie, universe)
        n_cols = coterie.shape.n
        membership = np.zeros((self.n_bits, n_cols))
        col_masks = [0] * n_cols
        for j, column in enumerate(coterie.columns):
            for name in column:
                membership[self.bit[name], j] = 1.0
                col_masks[j] |= 1 << self.bit[name]
        self._membership = membership
        self._col_need = np.asarray(
            [len(column) for column in coterie.columns], dtype=np.float64)
        self._col_full_ok = np.asarray(
            [coterie._column_may_count_as_full(j)
             for j in range(1, n_cols + 1)], dtype=bool)
        # packed structure: per column, the nonzero (word index, word)
        # pairs of its membership mask -- columns rarely span many words.
        # col_need is the column's member count, so "full" reduces to
        # masked-word equality and needs no popcount.
        n_w = word_count(self.n_bits)
        self._col_word_ix = [
            [(w, wd) for w, wd in enumerate(_int_words(m, n_w)) if wd]
            for m in col_masks]

    def read_packed(self, words: np.ndarray) -> np.ndarray:
        words = np.asarray(words, dtype=np.uint64)
        scratch = np.empty(words.shape[0], dtype=np.uint64)
        covered = None
        for pairs in self._col_word_ix:
            if not pairs:  # a memberless column is never hit
                return np.zeros(words.shape[0], dtype=bool)
            w0, m0 = pairs[0]
            np.bitwise_and(words[:, w0], m0, out=scratch)
            hit = scratch != 0
            for w, mw in pairs[1:]:
                np.bitwise_and(words[:, w], mw, out=scratch)
                hit |= scratch != 0
            if covered is None:
                covered = hit
            else:
                np.logical_and(covered, hit, out=covered)
        return covered

    def write_packed(self, words: np.ndarray) -> np.ndarray:
        # write = covered & full-column: resolve the full-column side
        # first (masked-word equality only), then test coverage just on
        # the rows that still qualify -- whichever side is sparse gates
        # the traffic of the other
        words = np.asarray(words, dtype=np.uint64)
        k = words.shape[0]
        scratch = np.empty(k, dtype=np.uint64)
        full = np.zeros(k, dtype=bool)
        for j, pairs in enumerate(self._col_word_ix):
            if not pairs:  # a memberless column kills coverage
                return np.zeros(k, dtype=bool)
            if not self._col_full_ok[j]:
                continue
            w0, m0 = pairs[0]
            np.bitwise_and(words[:, w0], m0, out=scratch)
            col_full = scratch == m0
            for w, mw in pairs[1:]:
                np.bitwise_and(words[:, w], mw, out=scratch)
                col_full &= scratch == mw
            np.logical_or(full, col_full, out=full)
        idx = np.flatnonzero(full)
        if idx.size == 0:
            return full
        if idx.size * 2 >= k:  # dense: gathering would cost more
            return full & self.read_packed(words)
        out = np.zeros(k, dtype=bool)
        out[idx] = self.read_packed(words[idx])
        return out

    def _hits(self, bits: np.ndarray) -> np.ndarray:
        return bits.astype(np.float64) @ self._membership

    def read_bits(self, bits: np.ndarray) -> np.ndarray:
        return (self._hits(bits) > 0).all(axis=1)

    def write_bits(self, bits: np.ndarray) -> np.ndarray:
        hits = self._hits(bits)
        covered = (hits > 0).all(axis=1)
        full = ((hits == self._col_need) & self._col_full_ok).any(axis=1)
        return covered & full


class BatchVotingEvaluator(BatchEvaluator):
    """Vote-sum kernel for (weighted) voting: one dot product per kind."""

    def __init__(self, coterie: WeightedVotingCoterie,
                 universe: Optional[Sequence[str]] = None):
        super().__init__(coterie, universe)
        weights = np.zeros(self.n_bits)
        for name in coterie.nodes:
            weights[self.bit[name]] = coterie.weights[name]
        self._weights = weights
        self._read_votes = coterie.read_votes
        self._write_votes = coterie.write_votes
        # unit weights turn vote sums into popcounts of the member mask
        self.supports_packed = _HAS_BITWISE_COUNT and all(
            w == 1 for w in coterie.weights.values())
        self._member_word_ix = [
            (w, wd) for w, wd in enumerate(
                _int_words(self.v_mask, word_count(self.n_bits))) if wd]

    def _votes(self, bits: np.ndarray) -> np.ndarray:
        return bits.astype(np.float64) @ self._weights

    def read_bits(self, bits: np.ndarray) -> np.ndarray:
        return self._votes(bits) >= self._read_votes

    def write_bits(self, bits: np.ndarray) -> np.ndarray:
        return self._votes(bits) >= self._write_votes

    def _votes_packed(self, words: np.ndarray) -> np.ndarray:
        pairs = self._member_word_ix
        if not pairs:
            return np.zeros(words.shape[0], dtype=np.uint8)
        w0, wd0 = pairs[0]
        votes = np.bitwise_count(words[:, w0] & wd0)
        if len(pairs) > 1:
            votes = votes.astype(np.int16)
            for w, wd in pairs[1:]:
                votes += np.bitwise_count(words[:, w] & wd)
        return votes

    def read_packed(self, words: np.ndarray) -> np.ndarray:
        if not self.supports_packed:
            return super().read_packed(words)
        return self._votes_packed(words) >= self._read_votes

    def write_packed(self, words: np.ndarray) -> np.ndarray:
        if not self.supports_packed:
            return super().write_packed(words)
        return self._votes_packed(words) >= self._write_votes


class BatchRowaEvaluator(BatchEvaluator):
    """Live-member counts for read-one/write-all."""

    def __init__(self, coterie: ReadOneWriteAllCoterie,
                 universe: Optional[Sequence[str]] = None):
        super().__init__(coterie, universe)
        member = np.zeros(self.n_bits)
        for name in coterie.nodes:
            member[self.bit[name]] = 1.0
        self._member = member
        self._n_members = coterie.n_nodes

    def read_bits(self, bits: np.ndarray) -> np.ndarray:
        return bits.astype(np.float64) @ self._member > 0

    def write_bits(self, bits: np.ndarray) -> np.ndarray:
        return bits.astype(np.float64) @ self._member == self._n_members


class BatchWallEvaluator(BatchEvaluator):
    """Row tallies for crumbling walls.

    Write = some fully-covered row with every *lower* row hit; the
    lower-rows condition is a reversed ``logical_and.accumulate``.
    """

    def __init__(self, coterie: WallCoterie,
                 universe: Optional[Sequence[str]] = None):
        super().__init__(coterie, universe)
        n_rows = len(coterie.rows)
        membership = np.zeros((self.n_bits, n_rows))
        for r, row in enumerate(coterie.rows):
            for name in row:
                membership[self.bit[name], r] = 1.0
        self._membership = membership
        self._row_need = np.asarray([len(row) for row in coterie.rows],
                                    dtype=np.float64)

    def _hits(self, bits: np.ndarray) -> np.ndarray:
        return bits.astype(np.float64) @ self._membership

    def read_bits(self, bits: np.ndarray) -> np.ndarray:
        return (self._hits(bits) > 0).all(axis=1)

    def write_bits(self, bits: np.ndarray) -> np.ndarray:
        hits = self._hits(bits)
        hit = hits > 0
        full = hits == self._row_need
        # below_ok[:, r] = every row after r has a live member
        below_ok = np.ones_like(hit)
        if hit.shape[1] > 1:
            below_ok[:, :-1] = np.logical_and.accumulate(
                hit[:, ::-1], axis=1)[:, -2::-1]
        return (full & below_ok).any(axis=1)


class BatchTreeEvaluator(BatchEvaluator):
    """Reverse heap sweep for the tree protocol, vectorized across masks.

    One pass over tree positions (children before parents), each step a
    boolean reduction over the whole mask batch: O(N) numpy ops total,
    O(M) work each.
    """

    def __init__(self, coterie: TreeCoterie,
                 universe: Optional[Sequence[str]] = None):
        super().__init__(coterie, universe)
        n = coterie.n_nodes
        self._n = n
        self._order = np.asarray([self.bit[name] for name in coterie.nodes])
        self._kids = [coterie.children(v) for v in range(n)]

    def _sat(self, bits: np.ndarray) -> np.ndarray:
        up = bits[:, self._order]
        sat = np.empty_like(up)
        for v in range(self._n - 1, -1, -1):
            kids = self._kids[v]
            if not kids:
                sat[:, v] = up[:, v]
                continue
            kid_sat = sat[:, kids]
            all_kids = kid_sat.all(axis=1)
            some_kid = kid_sat.any(axis=1)
            sat[:, v] = (up[:, v] & some_kid) | all_kids
        return sat[:, 0]

    def read_bits(self, bits: np.ndarray) -> np.ndarray:
        return self._sat(bits)

    def write_bits(self, bits: np.ndarray) -> np.ndarray:
        return self._sat(bits)


class BatchHierarchicalEvaluator(BatchEvaluator):
    """Level-wise reshape reductions for Kumar's HQC.

    The balanced hierarchy's children are contiguous in position order,
    so each level is one ``reshape -> sum -> threshold`` step.
    """

    def __init__(self, coterie: HierarchicalCoterie,
                 universe: Optional[Sequence[str]] = None):
        super().__init__(coterie, universe)
        self._arities = coterie.arities
        self._r_need = coterie.read_thresholds
        self._w_need = coterie.write_thresholds
        self._order = np.asarray([self.bit[name] for name in coterie.nodes])

    def _reduce(self, bits: np.ndarray, needs) -> np.ndarray:
        sat = bits[:, self._order]
        for level in range(len(self._arities) - 1, -1, -1):
            d = self._arities[level]
            counts = sat.reshape(sat.shape[0], -1, d).sum(axis=2)
            sat = counts >= needs[level]
        return sat[:, 0]

    def read_bits(self, bits: np.ndarray) -> np.ndarray:
        return self._reduce(bits, self._r_need)

    def write_bits(self, bits: np.ndarray) -> np.ndarray:
        return self._reduce(bits, self._w_need)


class BatchCompositeEvaluator(BatchEvaluator):
    """Inner batch kernels per group feeding the outer kernel.

    Batch evaluators are stateless, so one outer evaluator serves both
    kinds (the scalar engine needs two because each tracks an up-set).
    A group with no live member never counts as satisfied, mirroring
    ``CompositeCoterie._satisfied_groups``.
    """

    def __init__(self, coterie: CompositeCoterie,
                 universe: Optional[Sequence[str]] = None):
        super().__init__(coterie, universe)
        self._inners = []
        self._group_cols = []
        for label in coterie.group_labels:
            inner = coterie.inners[label]
            self._inners.append(batch_evaluator_for(inner))
            self._group_cols.append(
                np.asarray([self.bit[name] for name in inner.nodes]))
        self._outer = batch_evaluator_for(coterie.outer)

    def _group_sat(self, bits: np.ndarray, kind: str) -> np.ndarray:
        sat = np.empty((bits.shape[0], len(self._inners)), dtype=bool)
        for g, (inner, cols) in enumerate(zip(self._inners,
                                              self._group_cols)):
            sub = bits[:, cols]
            inner_sat = (inner.write_bits(sub) if kind == "write"
                         else inner.read_bits(sub))
            sat[:, g] = inner_sat & sub.any(axis=1)
        return sat

    def read_bits(self, bits: np.ndarray) -> np.ndarray:
        return self._outer.read_bits(self._group_sat(bits, "read"))

    def write_bits(self, bits: np.ndarray) -> np.ndarray:
        return self._outer.write_bits(self._group_sat(bits, "write"))


class ScalarFallbackBatchEvaluator(BatchEvaluator):
    """The universal fallback: the scalar evaluator, row by row.

    Correct for any coterie (it *is* the scalar engine), with no batch
    speedup -- the analogue of
    :class:`~repro.coteries.base.SetRecomputeEvaluator` on the scalar
    side.
    """

    def __init__(self, coterie: Coterie,
                 universe: Optional[Sequence[str]] = None):
        super().__init__(coterie, universe)
        self._scalar = coterie.compile(universe)

    def _map(self, bits: np.ndarray, predicate) -> np.ndarray:
        masks = pack_bits(bits)
        return np.fromiter((predicate(mask) for mask in masks),
                           dtype=bool, count=len(masks))

    def read_bits(self, bits: np.ndarray) -> np.ndarray:
        return self._map(bits, self._scalar.is_read_quorum)

    def write_bits(self, bits: np.ndarray) -> np.ndarray:
        return self._map(bits, self._scalar.is_write_quorum)


#: structure-aware kernels, checked in order (subclasses inherit their
#: base family's kernel, mirroring how ``Coterie.compile`` dispatches)
_BATCH_CLASSES: tuple[tuple[type, type], ...] = (
    (CompositeCoterie, BatchCompositeEvaluator),
    (GridCoterie, BatchGridEvaluator),
    (WeightedVotingCoterie, BatchVotingEvaluator),
    (ReadOneWriteAllCoterie, BatchRowaEvaluator),
    (WallCoterie, BatchWallEvaluator),
    (TreeCoterie, BatchTreeEvaluator),
    (HierarchicalCoterie, BatchHierarchicalEvaluator),
)


def batch_evaluator_for(coterie: Coterie,
                        universe: Optional[Sequence[str]] = None
                        ) -> BatchEvaluator:
    """The structure-aware :class:`BatchEvaluator` for *coterie*.

    Unknown coterie types get the correct (but unaccelerated)
    :class:`ScalarFallbackBatchEvaluator`.  Normal entry point:
    ``coterie.compile_batch(universe)``.
    """
    for coterie_cls, batch_cls in _BATCH_CLASSES:
        if isinstance(coterie, coterie_cls):
            return batch_cls(coterie, universe)
    return ScalarFallbackBatchEvaluator(coterie, universe)
