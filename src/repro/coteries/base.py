"""The coterie abstraction and the paper's *coterie rule*.

Section 4 of the paper assumes:

* a **coterie rule** -- ``coterie-rule(V, S)`` is true iff S includes a
  write (read) quorum over the ordered node set V; here that is
  ``rule(V).is_write_quorum(S)`` for a :class:`CoterieRule` instance;
* a **quorum function** -- given V and a node name, yields a concrete
  quorum over V, ideally different for different callers so load spreads;
  here that is :meth:`Coterie.write_quorum` / :meth:`Coterie.read_quorum`.

A :class:`Coterie` instance is bound to one ordered node list V (an epoch
list, in protocol terms).  All quorum predicates accept any iterable of
node names and ignore names outside V, matching the pseudo-code's
assumption ``S ⊆ V`` without forcing callers to pre-filter.

Compiled predicates
-------------------

The set-based predicates above are the *reference* semantics, but they
rescan the whole structure on every call -- too slow for the Monte Carlo
estimators, which evaluate quorum membership after every failure/repair
event.  :meth:`Coterie.compile` returns a :class:`QuorumEvaluator`: node
names are mapped to bit positions in a fixed *universe* once, the up-set
becomes an integer bitmask, and the structure's tallies (per-column hit
counters for the grid, vote sums for voting, subtree satisfaction for
trees, ...) are maintained *incrementally* under single-node
:meth:`~QuorumEvaluator.node_up` / :meth:`~QuorumEvaluator.node_down`
transitions, so the membership predicates become O(1) (or O(structure
depth)) per event instead of O(N * structure).

Every evaluator must agree bit-for-bit with its coterie's set-based
predicates on every subset -- the property tests enforce this across all
rule families.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from typing import Callable, Iterable, Optional, Sequence


class CoterieError(Exception):
    """Raised for invalid coterie constructions or queries."""


def _stable_hash(text: str) -> int:
    """A deterministic string hash (``hash()`` is salted per process)."""
    return zlib.crc32(text.encode("utf-8"))


class Coterie(ABC):
    """Read/write quorums over one ordered node list.

    Subclasses implement the two membership predicates and the two quorum
    pickers.  ``nodes`` is the ordered universe V; node *names* are opaque
    hashable identifiers, usually strings.
    """

    def __init__(self, nodes: Sequence[str]):
        nodes = tuple(nodes)
        if not nodes:
            raise CoterieError("a coterie needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise CoterieError("duplicate node names in coterie universe")
        self.nodes = nodes
        self._index = {name: k for k, name in enumerate(nodes)}

    # -- geometry -----------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes in the universe V."""
        return len(self.nodes)

    def ordered_number(self, node: str) -> int:
        """1-based position of *node* in V (the paper's ``ordered-number``)."""
        try:
            return self._index[node] + 1
        except KeyError:
            raise CoterieError(f"{node!r} is not in this coterie") from None

    def restrict(self, subset: Iterable[str]) -> frozenset:
        """The part of *subset* that lies inside V."""
        return frozenset(name for name in subset if name in self._index)

    # -- membership predicates (the coterie rule) -----------------------------
    @abstractmethod
    def is_read_quorum(self, subset: Iterable[str]) -> bool:
        """True iff *subset* includes a read quorum over V."""

    @abstractmethod
    def is_write_quorum(self, subset: Iterable[str]) -> bool:
        """True iff *subset* includes a write quorum over V."""

    # -- quorum function ---------------------------------------------------------
    @abstractmethod
    def read_quorum(self, salt: str = "", attempt: int = 0) -> list[str]:
        """A concrete read quorum, varied by *salt* (e.g. coordinator name).

        Deterministic: the same (V, salt, attempt) gives the same quorum, so
        all runs are reproducible.  Different salts spread load.
        """

    @abstractmethod
    def write_quorum(self, salt: str = "", attempt: int = 0) -> list[str]:
        """A concrete write quorum, varied by *salt* and *attempt*."""

    # -- availability-aware selection (used by baselines and analyses) -------
    def find_read_quorum(self, available: Iterable[str]) -> Optional[frozenset]:
        """Some *minimal* read quorum fully inside *available*, or None.

        The default implementation runs the planner's generic
        evaluator-driven shrink (:func:`repro.coteries.planner.
        minimal_quorum`): load the live subset, then drop members
        whenever the remainder still contains a quorum.  Minimal means
        no proper subset of the result is a quorum -- not necessarily
        minimum cardinality.  Subclasses override with constructive
        structure-aware searches where those are cheaper.
        """
        from repro.coteries.planner import minimal_quorum
        return minimal_quorum(self, available, "read")

    def find_write_quorum(self, available: Iterable[str]) -> Optional[frozenset]:
        """Some *minimal* write quorum fully inside *available*, or None."""
        from repro.coteries.planner import minimal_quorum
        return minimal_quorum(self, available, "write")

    # -- compiled predicates -------------------------------------------------
    def compile(self, universe: Optional[Sequence[str]] = None
                ) -> "QuorumEvaluator":
        """A :class:`QuorumEvaluator` for this coterie over *universe*.

        *universe* is the ordered node list defining bit positions; it
        defaults to V and may be a superset of V (an epoch's coterie
        over the full replica set, say).  Bits for nodes outside V never
        affect the answers, mirroring how the set-based predicates
        ignore names outside V.

        Subclasses override this to return incremental structure-aware
        evaluators; the default falls back to
        :class:`SetRecomputeEvaluator`, which tracks the live name set
        and re-runs the set predicates on every query -- correct for any
        coterie, but with no per-event speedup.
        """
        return SetRecomputeEvaluator(self, universe)

    def compile_batch(self, universe: Optional[Sequence[str]] = None):
        """A vectorized :class:`repro.coteries.batch.BatchEvaluator`.

        The batch analogue of :meth:`compile`: the structure is compiled
        into numpy arrays and both membership predicates are evaluated
        over whole arrays of masks at once (Monte Carlo trajectory
        chunks, exhaustive 2^N sweeps).  Same universe/bit conventions
        as the scalar evaluator; answers agree mask-for-mask.  Families
        without a structure-aware kernel get a correct scalar-fallback
        evaluator.  Requires numpy (imported lazily so scalar-only
        paths never pay the import).
        """
        from repro.coteries.batch import batch_evaluator_for
        return batch_evaluator_for(self, universe)

    # -- misc ----------------------------------------------------------------
    def __repr__(self) -> str:
        return f"<{type(self).__name__} over {self.n_nodes} nodes>"

    @staticmethod
    def _pick(options: Sequence, salt: str, attempt: int, extra: str = "") -> int:
        """Deterministic index into *options* derived from salt and attempt."""
        if not options:
            raise CoterieError("cannot pick from an empty option list")
        return (_stable_hash(f"{salt}|{extra}") + attempt) % len(options)


# A coterie rule is any callable turning an ordered node list into a coterie.
# The general protocol (repro.core) is parameterised by one of these, e.g.
# ``GridCoterie`` itself, ``MajorityCoterie``, or a lambda adding options.
CoterieRule = Callable[[Sequence[str]], Coterie]


class QuorumEvaluator(ABC):
    """Incremental bitmask evaluation of one coterie's quorum predicates.

    An evaluator is bound to a coterie and an ordered *universe* of node
    names; bit i of every mask refers to ``universe[i]``.  It keeps the
    current up-set as :attr:`mask` plus whatever per-structure tallies
    its subclass needs, under three state transitions:

    * :meth:`reset` -- load a full bitmask, O(N);
    * :meth:`node_up` / :meth:`node_down` -- flip one node, O(1) for
      counter-based structures (grid, voting, ROWA, wall rows) and
      O(depth) for recursive ones (tree, hierarchical, composite).

    ``node_up(i)`` requires bit i to be clear and ``node_down(i)``
    requires it set -- callers replay failure/repair *events*, which are
    always strict flips; no defensive re-check is done in the hot path.

    The membership queries take an optional mask: ``is_read_quorum()``
    answers for the tracked state in O(1)-ish time, while
    ``is_read_quorum(mask)`` first resets the tracked state to *mask*.
    Answers must equal ``coterie.is_read_quorum({universe[i]: bit i
    set})`` exactly, for every mask.
    """

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
        self.v_mask = v_mask  # the bits of the coterie's members V
        self.mask = 0

    # -- mask helpers --------------------------------------------------------
    def mask_of(self, names: Iterable[str]) -> int:
        """The bitmask with the bits of *names* set (unknown names error)."""
        mask = 0
        bit = self.bit
        for name in names:
            mask |= 1 << bit[name]
        return mask

    def names_of(self, mask: int) -> frozenset:
        """The set of universe names whose bits are set in *mask*."""
        return frozenset(name for i, name in enumerate(self.universe)
                         if mask >> i & 1)

    # -- state transitions ---------------------------------------------------
    @abstractmethod
    def reset(self, mask: int) -> None:
        """Replace the tracked up-set with *mask*, rebuilding all tallies."""

    def reset_full(self) -> None:
        """Set the tracked up-set to exactly V (all members up).

        Equivalent to ``reset(self.v_mask)`` but overridable in O(1) or
        O(structure summary): with every member up, all tallies are at
        their maxima and need no scan.  This is the hot path of the
        dynamic protocol, whose successful epoch checks make the new
        epoch exactly the up-set.
        """
        self.reset(self.v_mask)

    @abstractmethod
    def node_up(self, i: int) -> None:
        """Mark ``universe[i]`` up (bit i must currently be clear)."""

    @abstractmethod
    def node_down(self, i: int) -> None:
        """Mark ``universe[i]`` down (bit i must currently be set)."""

    # -- membership ----------------------------------------------------------
    @abstractmethod
    def is_read_quorum(self, mask: Optional[int] = None) -> bool:
        """True iff the tracked (or given) up-set includes a read quorum."""

    @abstractmethod
    def is_write_quorum(self, mask: Optional[int] = None) -> bool:
        """True iff the tracked (or given) up-set includes a write quorum."""

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} for {self.coterie!r} "
                f"over {self.n_bits} bits>")


class SetRecomputeEvaluator(QuorumEvaluator):
    """The universal fallback evaluator: set predicates, incremental set.

    Tracks the live *name* set under up/down transitions (O(1) per
    event) but re-runs the coterie's set-based predicates on every
    query.  Any coterie gets this for free via :meth:`Coterie.compile`;
    structure-aware subclasses replace it with incremental tallies.
    """

    def __init__(self, coterie: Coterie,
                 universe: Optional[Sequence[str]] = None):
        super().__init__(coterie, universe)
        self._live: set = set()

    def reset(self, mask: int) -> None:
        self.mask = mask
        self._live = {name for i, name in enumerate(self.universe)
                      if mask >> i & 1}

    def reset_full(self) -> None:
        self.mask = self.v_mask
        self._live = set(self.coterie.nodes)

    def node_up(self, i: int) -> None:
        self.mask |= 1 << i
        self._live.add(self.universe[i])

    def node_down(self, i: int) -> None:
        self.mask &= ~(1 << i)
        self._live.discard(self.universe[i])

    def is_read_quorum(self, mask: Optional[int] = None) -> bool:
        if mask is not None:
            self.reset(mask)
        return self.coterie.is_read_quorum(self._live)

    def is_write_quorum(self, mask: Optional[int] = None) -> bool:
        if mask is not None:
            self.reset(mask)
        return self.coterie.is_write_quorum(self._live)
