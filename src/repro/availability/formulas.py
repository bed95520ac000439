"""Closed-form static availability (the baseline side of Table 1).

Under the site model, each node is up independently with probability
``p = mu / (lambda + mu)``.  A *static* protocol is available iff the set
of up nodes contains a quorum.  Because grid columns are disjoint, the grid
formulas factor per column; the other structures have their own recursions.

The static grid numbers in Table 1 are cited by the paper from Cheung,
Ammar & Ahamad (1990); :func:`grid_write_availability` re-derives them:

>>> round(1e6 * (1 - grid_write_availability(3, 3, 0.95)), 2)
3268.59
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Optional, Sequence

from repro.coteries.base import Coterie


def _column_heights(m: int, n: int, b: int) -> list[int]:
    if b < 0 or b >= n:
        raise ValueError(f"need 0 <= b < n, got b={b} n={n}")
    return [m - 1 if j > n - b else m for j in range(1, n + 1)]


def grid_read_availability(m: int, n: int, p: float, b: int = 0) -> float:
    """P(every column of an m x n grid with b holes has an up node)."""
    _check_p(p)
    q = 1.0 - p
    result = 1.0
    for height in _column_heights(m, n, b):
        result *= 1.0 - q ** height
    return result


def grid_write_availability(m: int, n: int, p: float, b: int = 0,
                            column_cover: str = "physical") -> float:
    """P(up nodes contain a grid write quorum).

    Columns are independent, so with ``a_j = P(column j covered)`` and
    ``f_j = P(column j fully up, when eligible)``::

        A = prod(a_j) - prod(a_j - f_j)

    (all columns covered, minus all covered with no eligible full column).
    """
    _check_p(p)
    if column_cover not in ("physical", "full"):
        raise ValueError(f"unknown column_cover {column_cover!r}")
    q = 1.0 - p
    covered = 1.0
    covered_not_full = 1.0
    for height in _column_heights(m, n, b):
        a = 1.0 - q ** height
        eligible = column_cover == "physical" or height == m
        f = p ** height if eligible else 0.0
        covered *= a
        covered_not_full *= a - f
    return covered - covered_not_full


def best_static_grid(n_nodes: int, p: float,
                     kind: str = "write") -> tuple[int, int, float]:
    """The (m, n) factorisation of N with the highest static availability.

    Mirrors Table 1's "best dimensions" column, which picks the best exact
    grid for each N.  Only exact factorisations (b = 0) are considered.
    Returns ``(m, n, availability)``.
    """
    if kind not in ("read", "write"):
        raise ValueError(f"kind must be read or write, got {kind!r}")
    best: Optional[tuple[int, int, float]] = None
    for m in range(1, n_nodes + 1):
        if n_nodes % m:
            continue
        n = n_nodes // m
        if kind == "write":
            a = grid_write_availability(m, n, p)
        else:
            a = grid_read_availability(m, n, p)
        if best is None or a > best[2]:
            best = (m, n, a)
    assert best is not None
    return best


def majority_availability(n_nodes: int, p: float,
                          quorum_size: Optional[int] = None) -> float:
    """P(at least ``quorum_size`` of N nodes up); default simple majority."""
    _check_p(p)
    if quorum_size is None:
        quorum_size = n_nodes // 2 + 1
    if not 1 <= quorum_size <= n_nodes:
        raise ValueError(f"quorum size {quorum_size} outside 1..{n_nodes}")
    q = 1.0 - p
    return sum(math.comb(n_nodes, k) * p ** k * q ** (n_nodes - k)
               for k in range(quorum_size, n_nodes + 1))


def rowa_read_availability(n_nodes: int, p: float) -> float:
    """Read-one: available unless every replica is down."""
    _check_p(p)
    return 1.0 - (1.0 - p) ** n_nodes


def rowa_write_availability(n_nodes: int, p: float) -> float:
    """Write-all: available only when every replica is up."""
    _check_p(p)
    return p ** n_nodes


def tree_availability(n_nodes: int, p: float, branching: int = 2) -> float:
    """P(up nodes contain a tree-protocol quorum) -- recursion over the heap.

    For an internal node with child quorum probabilities ``A_c`` (children
    independent): ``P = prod(A_c) + p * (1 - prod(1 - A_c) - prod(A_c))``
    ... i.e. all-children OR (node up AND some child), minus overlap.
    """
    _check_p(p)

    def avail(index: int) -> float:
        first = index * branching + 1
        kids = [c for c in range(first, first + branching) if c < n_nodes]
        if not kids:
            return p
        child = [avail(c) for c in kids]
        all_children = math.prod(child)
        some_child = 1.0 - math.prod(1.0 - a for a in child)
        return all_children + p * (some_child - all_children)

    return avail(0)


def hierarchical_availability(arities: Sequence[int],
                              thresholds: Sequence[int], p: float) -> float:
    """P(up nodes satisfy Kumar's HQC recursion) for a balanced hierarchy."""
    _check_p(p)
    if len(arities) != len(thresholds):
        raise ValueError("one threshold per level required")
    level_prob = p
    for d, t in zip(reversed(arities), reversed(thresholds)):
        level_prob = sum(math.comb(d, k) * level_prob ** k
                         * (1.0 - level_prob) ** (d - k)
                         for k in range(t, d + 1))
    return level_prob


def availability_by_enumeration(coterie: Coterie, p: float,
                                kind: str = "write",
                                max_nodes: int = 20) -> float:
    """Exact availability by summing over all up-sets (cross-check).

    Exponential in N; used by tests to validate every closed form above
    against the actual quorum predicates.
    """
    _check_p(p)
    if coterie.n_nodes > max_nodes:
        raise ValueError(f"enumeration over {coterie.n_nodes} nodes refused")
    predicate = (coterie.is_write_quorum if kind == "write"
                 else coterie.is_read_quorum)
    nodes = list(coterie.nodes)
    q = 1.0 - p
    total = 0.0
    for size in range(len(nodes) + 1):
        for up in combinations(nodes, size):
            if predicate(frozenset(up)):
                total += p ** size * q ** (len(nodes) - size)
    return total


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
