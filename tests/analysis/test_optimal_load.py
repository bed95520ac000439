"""Naor-Wool optimal load of the implemented quorum systems."""

import math
import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis.optimal_load import (
    empirical_vs_optimal,
    optimal_load,
    strategy_load,
)
from repro.coteries.base import CoterieError
from repro.coteries.grid import GridCoterie
from repro.coteries.majority import MajorityCoterie
from repro.coteries.rowa import ReadOneWriteAllCoterie
from repro.coteries.tree import TreeCoterie


def names(n):
    return [f"n{i:02d}" for i in range(n)]


class TestClassicValues:
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_majority_load_is_half_plus(self, n):
        load, strategy = optimal_load(MajorityCoterie(names(n)))
        # all quorums have size (n+1)/2, so no strategy can beat the
        # averaging bound (n+1)/(2n); symmetry achieves it
        assert load == pytest.approx((n + 1) / (2 * n))
        assert sum(strategy.values()) == pytest.approx(1.0)

    def test_grid_read_load_is_one_over_sqrt_n(self):
        load, _ = optimal_load(GridCoterie(names(9)), kind="read")
        assert load == pytest.approx(1 / math.sqrt(9))

    def test_grid_write_load_is_quorum_size_over_n(self):
        load, _ = optimal_load(GridCoterie(names(9)), kind="write")
        assert load == pytest.approx(5 / 9)  # all quorums size 2*3-1

    def test_rowa_read_load_is_one_over_n(self):
        load, strategy = optimal_load(ReadOneWriteAllCoterie(names(6)),
                                      kind="read")
        assert load == pytest.approx(1 / 6)
        assert len(strategy) == 6  # uniform over singletons

    def test_rowa_write_load_is_one(self):
        load, _ = optimal_load(ReadOneWriteAllCoterie(names(4)),
                               kind="write")
        assert load == pytest.approx(1.0)

    def test_tree_beats_all_root_strategies(self):
        # the failure-free strategy (always a root path) loads the root
        # with 1.0; mixing in root-free quorums does strictly better
        load, strategy = optimal_load(TreeCoterie(names(7)))
        assert load < 1.0
        per_node = strategy_load(strategy, names(7))
        assert per_node["n00"] <= load + 1e-9

    def test_load_lower_bound_sqrt(self):
        # Naor-Wool: L >= max(1/c, c/n) where c is the smallest quorum
        for coterie, kind in ((GridCoterie(names(9)), "read"),
                              (MajorityCoterie(names(5)), "write"),
                              (TreeCoterie(names(7)), "write")):
            predicate = (coterie.is_write_quorum if kind == "write"
                         else coterie.is_read_quorum)
            from repro.coteries.properties import minimal_quorums
            smallest = min(len(q) for q in
                           minimal_quorums(predicate, coterie.nodes))
            load, _ = optimal_load(coterie, kind)
            assert load >= max(1 / smallest,
                               smallest / coterie.n_nodes) - 1e-9


class TestStrategies:
    def test_strategy_probabilities_valid(self):
        _load, strategy = optimal_load(GridCoterie(names(6)))
        assert all(w > 0 for w in strategy.values())
        assert sum(strategy.values()) == pytest.approx(1.0)

    def test_strategy_load_max_equals_reported_load(self):
        load, strategy = optimal_load(MajorityCoterie(names(5)))
        per_node = strategy_load(strategy, names(5))
        assert max(per_node.values()) == pytest.approx(load)

    def test_invalid_kind_rejected(self):
        with pytest.raises(CoterieError):
            optimal_load(MajorityCoterie(names(3)), kind="scan")


class TestEmpiricalComparison:
    def test_salted_grid_close_to_optimal(self):
        result = empirical_vs_optimal(GridCoterie(names(9)), kind="write")
        assert result["ratio"] < 1.25   # within 25% of the LP optimum

    def test_salted_majority_close_to_optimal(self):
        result = empirical_vs_optimal(MajorityCoterie(names(9)))
        assert result["ratio"] < 1.2

    def test_tree_quorum_function_far_from_optimal(self):
        # the failure-free path strategy always hits the root: empirical
        # max load 1.0 vs the LP's mixed strategy
        result = empirical_vs_optimal(TreeCoterie(names(7)))
        assert result["empirical"] == pytest.approx(1.0)
        assert result["ratio"] > 1.3


def test_the_stores_do_not_import_the_lp_solver():
    """``shard/rebalance -> analysis.load -> analysis/__init__`` reaches
    this module from every store; scipy (0.36 s, ~45 MB) is imported
    where the LP is solved, not where the module is loaded."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "import repro.core.store, repro.shard.store, repro.availability\n"
         "import repro.analysis.optimal_load\n"
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"
