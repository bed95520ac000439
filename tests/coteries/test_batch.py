"""Golden equivalence: batch kernels vs the scalar quorum engine.

The :mod:`repro.coteries.batch` kernels must agree with the compiled
scalar :class:`~repro.coteries.base.QuorumEvaluator` bit for bit:

* on every one of the ``2^N`` masks for every registered family at
  every registered size (the lint registry's ``COTERIE_FAMILIES``);
* for an epoch's coterie compiled over the full universe, its members
  scattered through it (grid and default majority at N = 25 and 49 on
  random probes, every family on every mask);
* through both mask representations (integer arrays and pre-unpacked
  bit matrices) and for universes wider than 64 bits.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from repro.coteries import CoterieError, GridCoterie, MajorityCoterie
from repro.coteries.batch import (
    BatchGridEvaluator,
    BatchVotingEvaluator,
    ScalarFallbackBatchEvaluator,
    batch_evaluator_for,
    pack_bits,
    pack_matrix,
    unpack_masks,
    unpack_words,
    word_count,
)
from repro.lint.coterie_check import COTERIE_FAMILIES

FAMILY_CASES = [(family, rule, n)
                for family, (rule, sizes) in COTERIE_FAMILIES.items()
                for n in sizes]


def _nodes(n):
    return [f"n{i:03d}" for i in range(n)]


def _scalar_tables(coterie, nodes):
    evaluator = coterie.compile(nodes)
    full = (1 << len(nodes)) - 1
    reads = np.empty(full + 1, dtype=bool)
    writes = np.empty(full + 1, dtype=bool)
    for mask in range(full + 1):
        reads[mask] = evaluator.is_read_quorum(mask)
        writes[mask] = evaluator.is_write_quorum(mask)
    return reads, writes


class TestExhaustiveEquivalence:
    @pytest.mark.parametrize("family,rule,n", FAMILY_CASES,
                             ids=[f"{f}-{n}" for f, _, n in FAMILY_CASES])
    def test_all_masks_match_scalar_engine(self, family, rule, n):
        nodes = _nodes(n)
        coterie = rule(nodes)
        reads, writes = _scalar_tables(coterie, nodes)
        batch = coterie.compile_batch(nodes)
        masks = np.arange(1 << n, dtype=np.uint64)
        assert (batch.is_read_quorum_batch(masks) == reads).all()
        assert (batch.is_write_quorum_batch(masks) == writes).all()

    @pytest.mark.parametrize("family,rule,n", FAMILY_CASES,
                             ids=[f"{f}-{n}" for f, _, n in FAMILY_CASES])
    def test_scalar_fallback_matches_specialized(self, family, rule, n):
        coterie = rule(_nodes(n))
        fallback = ScalarFallbackBatchEvaluator(coterie)
        batch = batch_evaluator_for(coterie)
        assert not isinstance(batch, ScalarFallbackBatchEvaluator)
        masks = np.arange(1 << n, dtype=np.uint64)
        assert (fallback.is_read_quorum_batch(masks)
                == batch.is_read_quorum_batch(masks)).all()
        assert (fallback.is_write_quorum_batch(masks)
                == batch.is_write_quorum_batch(masks)).all()

    def test_out_of_universe_bits_are_ignored(self):
        # compile over a wider universe: extra bits never affect answers
        nodes = _nodes(6)
        universe = _nodes(9)
        coterie = GridCoterie(nodes)
        batch = coterie.compile_batch(universe)
        scalar = coterie.compile(universe)
        rng = random.Random(5)
        masks = [rng.randrange(1 << 9) for _ in range(200)]
        got_w = batch.is_write_quorum_batch(np.array(masks, dtype=np.uint64))
        got_r = batch.is_read_quorum_batch(np.array(masks, dtype=np.uint64))
        for mask, w, r in zip(masks, got_w, got_r):
            assert w == scalar.is_write_quorum(mask)
            assert r == scalar.is_read_quorum(mask)


def _epoch_members(nodes, epoch_mask):
    return [name for i, name in enumerate(nodes) if epoch_mask >> i & 1]


class TestEpochCoterieOverUniverse:
    """An epoch's coterie compiled over the whole replica universe, its
    members scattered through it: the batch kernel scores every mask as
    the scalar evaluator of the same coterie over the same universe."""

    @pytest.mark.parametrize("rule,cls", [
        (GridCoterie, BatchGridEvaluator),
        (MajorityCoterie, BatchVotingEvaluator),
    ])
    @pytest.mark.parametrize("n", [25, 49])
    def test_randomized_epochs_match_scalar(self, rule, cls, n):
        nodes = _nodes(n)
        rng = random.Random(n)
        full = (1 << n) - 1
        for _ in range(25):
            # epochs need >= 1 member; bias towards mostly-up sets like
            # the dynamic protocol produces
            epoch = full & ~sum(1 << i for i in rng.sample(range(n),
                                                           rng.randrange(n)))
            if not epoch:
                epoch = full
            coterie = rule(_epoch_members(nodes, epoch))
            scalar = coterie.compile(nodes)
            batch = coterie.compile_batch(nodes)
            assert isinstance(batch, cls)
            probes = np.array([rng.randrange(1 << n) for _ in range(100)])
            probe_bits = unpack_masks(probes.tolist(), n)
            got_r = batch.read_bits(probe_bits)
            got_w = batch.write_bits(probe_bits)
            for mask, r, w in zip(probes.tolist(), got_r, got_w):
                assert r == scalar.is_read_quorum(int(mask))
                assert w == scalar.is_write_quorum(int(mask))

    @pytest.mark.parametrize("family", sorted(COTERIE_FAMILIES))
    def test_every_family_exhaustively(self, family):
        rule, sizes = COTERIE_FAMILIES[family]
        nodes = _nodes(sizes[-1])
        full = (1 << len(nodes)) - 1
        masks = np.arange(full + 1, dtype=np.uint64)
        for epoch in (full - 1, full & 0b1011_0110_1):  # n000 down; scattered
            coterie = rule(_epoch_members(nodes, epoch))
            reads, writes = _scalar_tables(coterie, nodes)
            batch = coterie.compile_batch(nodes)
            assert (batch.is_read_quorum_batch(masks) == reads).all()
            assert (batch.is_write_quorum_batch(masks) == writes).all()


class TestPackedWords:
    @pytest.mark.parametrize("family,rule,n", FAMILY_CASES,
                             ids=[f"{f}-{n}" for f, _, n in FAMILY_CASES])
    def test_packed_matches_bit_matrix_exhaustively(self, family, rule, n):
        # families without native word kernels go through the base
        # unpack-and-dispatch fallback, so every family must agree
        batch = rule(_nodes(n)).compile_batch()
        bits = batch.unpack(np.arange(1 << n, dtype=np.uint64))
        words = pack_matrix(bits)
        assert (batch.read_packed(words) == batch.read_bits(bits)).all()
        assert (batch.write_packed(words) == batch.write_bits(bits)).all()

    def test_grid_and_majority_have_native_word_kernels(self):
        assert GridCoterie(_nodes(9)).compile_batch().supports_packed
        assert MajorityCoterie(_nodes(9)).compile_batch().supports_packed

    @pytest.mark.parametrize("rule", [GridCoterie, MajorityCoterie])
    def test_rebind_keeps_packed_kernels_in_sync(self, rule):
        """An epoch's coterie over the whole universe: its members are
        scattered across both words of N = 70."""
        n = 70
        nodes = _nodes(n)
        rng = random.Random(13)
        full = (1 << n) - 1
        for _ in range(10):
            dropped = set(rng.sample(range(n), rng.randrange(n)))
            members = [name for i, name in enumerate(nodes)
                       if i not in dropped]
            batch = rule(members).compile_batch(nodes)
            assert batch.supports_packed
            probes = [rng.randrange(full + 1) for _ in range(80)]
            bits = unpack_masks(probes, n)
            words = pack_matrix(bits)
            assert (batch.read_packed(words) == batch.read_bits(bits)).all()
            assert (batch.write_packed(words)
                    == batch.write_bits(bits)).all()

    def test_pack_matrix_roundtrip(self):
        rng = random.Random(3)
        for n_bits in (1, 63, 64, 65, 130):
            masks = [rng.randrange(1 << n_bits) for _ in range(40)]
            bits = unpack_masks(masks, n_bits)
            words = pack_matrix(bits)
            assert words.shape == (40, word_count(n_bits))
            assert (unpack_words(words, n_bits) == bits).all()
            # packed words are the little-endian limbs of the mask ints
            for mask, row in zip(masks, words):
                got = sum(int(w) << (64 * i) for i, w in enumerate(row))
                assert got == mask


class TestMaskConversion:
    def test_roundtrip_narrow_and_wide(self):
        rng = random.Random(11)
        for n_bits in (1, 7, 64, 65, 130):
            masks = [rng.randrange(1 << n_bits) for _ in range(50)]
            bits = unpack_masks(masks, n_bits)
            assert bits.shape == (50, n_bits)
            assert pack_bits(bits) == masks

    def test_numpy_integer_input(self):
        masks = np.array([0, 1, 5, (1 << 60) + 3], dtype=np.uint64)
        bits = unpack_masks(masks, 61)
        assert pack_bits(bits) == [int(m) for m in masks]

    def test_numpy_integers_refused_beyond_64_bits(self):
        with pytest.raises(CoterieError):
            unpack_masks(np.array([1], dtype=np.uint64), 65)

    def test_bit_matrix_passthrough_checks_width(self):
        bits = np.zeros((3, 9), dtype=bool)
        assert unpack_masks(bits, 9) is bits
        with pytest.raises(CoterieError):
            unpack_masks(bits, 10)

    def test_wide_universe_evaluation(self):
        # 70 nodes: the Python-int path is the only mask representation
        nodes = _nodes(70)
        coterie = MajorityCoterie(nodes)
        batch = coterie.compile_batch(nodes)
        full = (1 << 70) - 1
        rng = random.Random(2)
        masks = [0, full, full >> 1] + [rng.randrange(full + 1)
                                        for _ in range(40)]
        got = batch.is_write_quorum_batch(masks)
        for mask, w in zip(masks, got):
            live = frozenset(name for i, name in enumerate(nodes)
                             if mask >> i & 1)
            assert w == coterie.is_write_quorum(live)
