"""The compiled quorum evaluators agree exactly with the set predicates.

Every :meth:`Coterie.compile` evaluator must return the same answers as
its coterie's set-based reference predicates on *every* subset, under
every way of reaching that subset: a full ``reset(mask)``, an
incremental up/down walk, a ``reset_full``, compilation over a superset
universe, and (where supported) an in-place ``rebind_epoch``.  The
whole dynamic Monte Carlo estimator rides on this equivalence, so it is
enforced property-style across all coterie families and sizes up to
100 nodes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.coteries import CoterieError, MajorityCoterie, WeightedVotingCoterie
from repro.coteries.base import SetRecomputeEvaluator
from repro.coteries.grid import GridCoterie

from tests.coteries.test_coterie_contract import KINDS, build, names


def mask_names(universe, mask):
    return {name for i, name in enumerate(universe) if mask >> i & 1}


def assert_agree(evaluator, coterie, mask, universe):
    live = mask_names(universe, mask)
    assert evaluator.is_read_quorum(mask) == coterie.is_read_quorum(live)
    assert evaluator.is_write_quorum(mask) == coterie.is_write_quorum(live)


@pytest.mark.parametrize("kind", KINDS)
class TestEvaluatorMatchesPredicates:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_masks(self, kind, data):
        n = data.draw(st.integers(min_value=1, max_value=100))
        coterie = build(kind, n)
        evaluator = coterie.compile()
        for _ in range(5):
            mask = data.draw(st.integers(min_value=0,
                                         max_value=(1 << n) - 1))
            assert_agree(evaluator, coterie, mask, coterie.nodes)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_incremental_walk(self, kind, data):
        n = data.draw(st.integers(min_value=1, max_value=60))
        coterie = build(kind, n)
        evaluator = coterie.compile()
        start = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        evaluator.reset(start)
        mask = start
        flips = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                   min_size=1, max_size=40))
        for i in flips:
            if mask >> i & 1:
                evaluator.node_down(i)
                mask &= ~(1 << i)
            else:
                evaluator.node_up(i)
                mask |= 1 << i
            live = mask_names(coterie.nodes, mask)
            assert evaluator.mask == mask
            assert evaluator.is_read_quorum() == coterie.is_read_quorum(live)
            assert evaluator.is_write_quorum() == coterie.is_write_quorum(live)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_superset_universe(self, kind, data):
        """Compiling over a larger universe: extra bits never matter."""
        n = data.draw(st.integers(min_value=1, max_value=30))
        extra = data.draw(st.integers(min_value=1, max_value=10))
        universe = names(n + extra)
        member_idx = sorted(data.draw(
            st.sets(st.integers(min_value=0, max_value=n + extra - 1),
                    min_size=n, max_size=n)))
        members = [universe[i] for i in member_idx]
        coterie = build_over(kind, members)
        evaluator = coterie.compile(universe)
        for _ in range(4):
            mask = data.draw(st.integers(min_value=0,
                                         max_value=(1 << (n + extra)) - 1))
            assert_agree(evaluator, coterie, mask, universe)

    def test_reset_full_equals_reset_of_v_mask(self, kind):
        for n in (1, 2, 5, 9, 23):
            coterie = build(kind, n)
            a = coterie.compile()
            b = coterie.compile()
            a.reset_full()
            b.reset(b.v_mask)
            assert a.mask == b.mask == a.v_mask
            assert a.is_read_quorum() == b.is_read_quorum()
            assert a.is_write_quorum() == b.is_write_quorum()
            assert a.is_read_quorum() and a.is_write_quorum()


def build_over(kind, members):
    """Like ``build`` but over an explicit member list."""
    from tests.coteries import test_coterie_contract as contract

    original = contract.names
    try:
        contract.names = lambda n: list(members)
        return contract.build(kind, len(members))
    finally:
        contract.names = original


class TestSetRecomputeFallback:
    def test_base_compile_returns_fallback(self):
        class Anonymous(MajorityCoterie):
            # no compile() override: exercises the default
            def compile(self, universe=None):
                from repro.coteries.base import Coterie
                return Coterie.compile(self, universe)

        coterie = Anonymous(names(7))
        evaluator = coterie.compile()
        assert isinstance(evaluator, SetRecomputeEvaluator)
        for mask in (0, 0b1010101, 0b1111111, 0b0001111):
            assert_agree(evaluator, coterie, mask, coterie.nodes)


class TestRebindEpoch:
    """In-place epoch rebinding equals compiling the rule from scratch."""

    @pytest.mark.parametrize("cover", ["physical", "full"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_grid_rebind_matches_fresh_compile(self, cover, data):
        n = data.draw(st.integers(min_value=1, max_value=60))
        universe = names(n)
        rule = lambda nodes: GridCoterie(nodes, column_cover=cover)
        evaluator = rule(universe).compile(universe)
        assert evaluator.supports_rebind
        epoch_mask = data.draw(st.integers(min_value=1,
                                           max_value=(1 << n) - 1))
        evaluator.rebind_epoch(epoch_mask)
        epoch = [name for i, name in enumerate(universe)
                 if epoch_mask >> i & 1]
        reference = rule(epoch)
        fresh = reference.compile(universe)
        # post-rebind state: exactly the epoch members up
        assert evaluator.mask == epoch_mask
        assert evaluator.v_mask == epoch_mask
        assert evaluator.is_write_quorum() and evaluator.is_read_quorum()
        for _ in range(5):
            mask = data.draw(st.integers(min_value=0,
                                         max_value=(1 << n) - 1))
            assert_agree(evaluator, reference, mask, universe)
            assert (evaluator.is_write_quorum(mask)
                    == fresh.is_write_quorum(mask))

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_majority_rebind_matches_fresh_compile(self, data):
        n = data.draw(st.integers(min_value=1, max_value=60))
        universe = names(n)
        evaluator = MajorityCoterie(universe).compile(universe)
        assert evaluator.supports_rebind
        epoch_mask = data.draw(st.integers(min_value=1,
                                           max_value=(1 << n) - 1))
        evaluator.rebind_epoch(epoch_mask)
        epoch = [name for i, name in enumerate(universe)
                 if epoch_mask >> i & 1]
        reference = MajorityCoterie(epoch)
        for _ in range(5):
            mask = data.draw(st.integers(min_value=0,
                                         max_value=(1 << n) - 1))
            assert_agree(evaluator, reference, mask, universe)

    def test_rebind_then_incremental_walk(self):
        universe = names(20)
        evaluator = GridCoterie(universe).compile(universe)
        evaluator.rebind_epoch(0b1111_0110_1011_0110_1011)
        epoch = [name for i, name in enumerate(universe)
                 if 0b1111_0110_1011_0110_1011 >> i & 1]
        reference = GridCoterie(epoch)
        mask = evaluator.mask
        import random
        rng = random.Random(4)
        for _ in range(200):
            i = rng.randrange(20)
            if mask >> i & 1:
                evaluator.node_down(i)
                mask &= ~(1 << i)
            else:
                evaluator.node_up(i)
                mask |= 1 << i
            live = mask_names(universe, mask)
            assert (evaluator.is_write_quorum()
                    == reference.is_write_quorum(live))
            assert (evaluator.is_read_quorum()
                    == reference.is_read_quorum(live))

    def test_custom_thresholds_refuse_rebind(self):
        coterie = WeightedVotingCoterie(names(5), read_votes=5,
                                        write_votes=5)
        evaluator = coterie.compile()
        assert not evaluator.supports_rebind
        with pytest.raises(CoterieError):
            evaluator.rebind_epoch(0b111)

    def test_weighted_votes_refuse_rebind(self):
        weights = {name: 1 + (i % 3) for i, name in enumerate(names(6))}
        coterie = WeightedVotingCoterie(names(6), weights=weights)
        evaluator = coterie.compile()
        assert not evaluator.supports_rebind

    def test_unsupported_structures_refuse_rebind(self):
        for kind in ("tree", "hierarchical", "rowa", "wall", "composite"):
            evaluator = build(kind, 9).compile()
            assert not evaluator.supports_rebind
            with pytest.raises(CoterieError):
                evaluator.rebind_epoch(0b1)


class RebindMachine(RuleBasedStateMachine):
    """A rebound evaluator keeps no per-node table: a grid member's
    column is its rank in the epoch mask, a majority member's vote is
    its bit.  So after *any* interleaving of rebinds, flips (of members
    and non-members), resets and full resets, both verdicts must be
    those of ``rule(members)`` compiled from scratch and of the set
    predicates."""

    @initialize(n=st.integers(min_value=1, max_value=64),
                cover=st.sampled_from(["physical", "full"]))
    def compile(self, n, cover):
        self.universe = names(n)
        self.rules = [lambda nodes: GridCoterie(nodes, column_cover=cover),
                      MajorityCoterie]
        self.evaluators = [make(self.universe).compile(self.universe)
                           for make in self.rules]
        self.full = self.members = (1 << n) - 1
        self.up = 0
        for evaluator in self.evaluators:
            assert evaluator.supports_rebind

    @rule(data=st.data())
    def rebind_epoch(self, data):
        mask = data.draw(st.integers(min_value=1, max_value=self.full))
        for evaluator in self.evaluators:
            evaluator.rebind_epoch(mask)
        self.members = self.up = mask

    @rule(data=st.data())
    def flip(self, data):
        i = data.draw(st.integers(min_value=0,
                                  max_value=len(self.universe) - 1))
        now_up = not self.up >> i & 1
        for evaluator in self.evaluators:
            (evaluator.node_up if now_up else evaluator.node_down)(i)
        self.up ^= 1 << i

    @rule(data=st.data())
    def reset(self, data):
        self.up = data.draw(st.integers(min_value=0, max_value=self.full))
        for evaluator in self.evaluators:
            evaluator.reset(self.up)

    @rule()
    def reset_full(self):
        for evaluator in self.evaluators:
            evaluator.reset_full()
        self.up = self.members

    @invariant()
    def verdicts_are_those_of_a_fresh_compile(self):
        members = [name for i, name in enumerate(self.universe)
                   if self.members >> i & 1]
        live = mask_names(self.universe, self.up)
        for make, evaluator in zip(self.rules, self.evaluators):
            reference = make(members)
            fresh = reference.compile(self.universe)
            assert evaluator.mask == self.up
            assert evaluator.v_mask == self.members
            assert (evaluator.is_read_quorum()
                    == fresh.is_read_quorum(self.up)
                    == reference.is_read_quorum(live))
            assert (evaluator.is_write_quorum()
                    == fresh.is_write_quorum(self.up)
                    == reference.is_write_quorum(live))


RebindMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
TestRebindMachine = RebindMachine.TestCase
