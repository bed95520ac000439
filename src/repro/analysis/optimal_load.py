"""Optimal quorum load (Naor & Wool's *load* of a quorum system).

The paper's quorum function spreads requests by coordinator salt; how
close does that come to the best possible?  The *load* of a quorum
system is the smallest achievable busiest-node load over all probability
distributions (access strategies) on its quorums:

    L(S) = min_{w} max_{node} sum_{quorum containing node} w(quorum)

a linear program over the minimal quorums, solved here with scipy.
Classic values the tests verify: majority systems have load ~1/2,
grids ~1/sqrt(N) for reads (the Naor-Wool optimal order), read-one
systems 1/N -- and the tree protocol beats its naive all-root strategy
by mixing in root-free quorums.
"""

from __future__ import annotations

import numpy as np

from repro.coteries.base import Coterie, CoterieError
from repro.coteries.properties import minimal_quorums


def optimal_load(coterie: Coterie, kind: str = "write",
                 max_nodes: int = 14) -> tuple[float, dict[frozenset, float]]:
    """The quorum system's load and an optimal access strategy.

    Returns ``(load, strategy)`` where strategy maps minimal quorums to
    access probabilities (zero-probability quorums omitted).  Exponential
    quorum enumeration: analysis-scale N only.
    """
    if kind not in ("read", "write"):
        raise CoterieError(f"kind must be read or write, got {kind!r}")
    predicate = (coterie.is_write_quorum if kind == "write"
                 else coterie.is_read_quorum)
    quorums = minimal_quorums(predicate, coterie.nodes,
                              max_nodes=max_nodes)
    nodes = list(coterie.nodes)
    n_q = len(quorums)

    # variables: w_1..w_{n_q}, L.  minimize L.
    c = np.zeros(n_q + 1)
    c[-1] = 1.0
    # per-node constraint: sum_{q ni node} w_q - L <= 0
    a_ub = np.zeros((len(nodes), n_q + 1))
    for j, quorum in enumerate(quorums):
        for i, node in enumerate(nodes):
            if node in quorum:
                a_ub[i, j] = 1.0
    a_ub[:, -1] = -1.0
    b_ub = np.zeros(len(nodes))
    # sum w = 1
    a_eq = np.ones((1, n_q + 1))
    a_eq[0, -1] = 0.0
    b_eq = np.ones(1)
    bounds = [(0.0, None)] * n_q + [(0.0, 1.0)]
    # imported where the LP is solved: every store reaches this module
    # through shard/rebalance -> analysis.load, and none of them solves it
    from scipy.optimize import linprog

    result = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                     bounds=bounds, method="highs")
    if not result.success:
        raise CoterieError(f"load LP failed: {result.message}")
    weights = result.x[:n_q]
    strategy = {quorum: float(weight)
                for quorum, weight in zip(quorums, weights)
                if weight > 1e-9}
    return float(result.x[-1]), strategy


def strategy_load(strategy: dict[frozenset, float],
                  nodes) -> dict[str, float]:
    """Per-node load induced by an access strategy."""
    loads = {name: 0.0 for name in nodes}
    for quorum, weight in strategy.items():
        for name in quorum:
            loads[name] += weight
    return loads


def empirical_vs_optimal(coterie: Coterie, kind: str = "write",
                         n_picks: int = 600,
                         max_nodes: int = 14) -> dict[str, float]:
    """Compare the salt-spread quorum function against the LP optimum."""
    from repro.analysis.load import quorum_load

    best, _strategy = optimal_load(coterie, kind, max_nodes=max_nodes)
    empirical_report = quorum_load(coterie, n_picks=n_picks, kind=kind)
    empirical = max(empirical_report.per_node_load.values())
    return {"optimal": best, "empirical": empirical,
            "ratio": empirical / best if best else float("inf")}
