"""The compiled quorum evaluators agree exactly with the set predicates.

Every :meth:`Coterie.compile` evaluator must return the same answers as
its coterie's set-based reference predicates on *every* subset, under
every way of reaching that subset: a full ``reset(mask)``, an
incremental up/down walk, a ``reset_full``, compilation over a superset
universe, and -- the dynamic estimator's epoch change -- the rule's
coterie over a prefix of the universe addressed by rank.  The whole
dynamic Monte Carlo estimator rides on this equivalence, so it is
enforced property-style across all coterie families and sizes up to
100 nodes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coteries import MajorityCoterie, composite_rule
from repro.coteries.base import SetRecomputeEvaluator
from repro.coteries.grid import GridCoterie
from repro.lint.coterie_check import COTERIE_FAMILIES

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


#: every registered family, the grid's other column cover and E17's
#: composite
RANK_RULES = {
    **{family: rule for family, (rule, _sizes) in COTERIE_FAMILIES.items()},
    "grid-full": lambda nodes: GridCoterie(nodes, column_cover="full"),
    "majority^2": composite_rule(MajorityCoterie, MajorityCoterie,
                                 n_groups=3),
}


class TestEpochByRank:
    """What the dynamic estimator's one epoch-change path rests on: a
    coterie rule is a function of the *ordered* epoch list, so
    ``rule(members)`` decides a subset S exactly as
    ``rule(nodes[:k]).compile()`` decides the ranks of S, where k is
    the member count and a member's rank is its position among the
    members in universe order."""

    @pytest.mark.parametrize("family", sorted(RANK_RULES))
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_rule_of_members_is_rule_of_a_prefix_by_rank(self, family,
                                                         data):
        rule = RANK_RULES[family]
        n = data.draw(st.integers(min_value=1, max_value=40))
        universe = names(n)
        epoch = data.draw(st.integers(min_value=1, max_value=(1 << n) - 1))
        ordered = [name for i, name in enumerate(universe) if epoch >> i & 1]
        k = len(ordered)
        reference = rule(ordered)
        evaluator = rule(universe[:k]).compile()
        rank = {name: r for r, name in enumerate(ordered)}

        def ranks(subset):
            return sum(1 << rank[name] for name in subset if name in rank)

        evaluator.reset_full()
        assert evaluator.is_read_quorum() and evaluator.is_write_quorum()
        for _ in range(4):
            live = mask_names(universe, data.draw(
                st.integers(min_value=0, max_value=(1 << n) - 1)))
            assert (evaluator.is_read_quorum(ranks(live))
                    == reference.is_read_quorum(live))
            assert (evaluator.is_write_quorum(ranks(live))
                    == reference.is_write_quorum(live))
        # the estimator's use: from all up, flip members by rank
        evaluator.reset_full()
        live = set(ordered)
        for name in data.draw(st.lists(st.sampled_from(ordered),
                                       max_size=12)):
            if name in live:
                evaluator.node_down(rank[name])
                live.discard(name)
            else:
                evaluator.node_up(rank[name])
                live.add(name)
            assert evaluator.is_read_quorum() == reference.is_read_quorum(live)
            assert (evaluator.is_write_quorum()
                    == reference.is_write_quorum(live))

