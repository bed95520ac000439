"""Optimal quorum load (Naor & Wool's *load* of a quorum system).

The paper's quorum function spreads requests by coordinator salt; how
close does that come to the best possible?  The *load* of a quorum
system is the smallest achievable busiest-node load over all probability
distributions (access strategies) on its quorums:

    L(S) = min_{w} max_{node} sum_{quorum containing node} w(quorum)

a linear program over the minimal quorums, solved with scipy by the
strategy optimizer's LP (:mod:`repro.coteries.optimizer`).
Classic values the tests verify: majority systems have load ~1/2,
grids ~1/sqrt(N) for reads (the Naor-Wool optimal order), read-one
systems 1/N -- and the tree protocol beats its naive all-root strategy
by mixing in root-free quorums.
"""

from __future__ import annotations

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
    # the optimizer's mixed read/write LP at read fraction 1 (or 0): the
    # other kind's variables carry zero load, so this is Naor-Wool's LP
    from repro.coteries.optimizer import _lp_weights

    solved = _lp_weights(quorums, quorums, tuple(coterie.nodes),
                         1.0 if kind == "read" else 0.0, None)
    if solved is None:
        raise CoterieError("load LP failed (is scipy installed?)")
    weights = solved[0] if kind == "read" else solved[1]
    load = max(sum(w for quorum, w in zip(quorums, weights) if node in quorum)
               for node in coterie.nodes)
    strategy = {quorum: float(weight)
                for quorum, weight in zip(quorums, weights)
                if weight > 1e-9}
    return float(load), strategy


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
