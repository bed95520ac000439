"""Same-seed regression pins for the Monte Carlo estimators.

The bitmask engine and the sorted-list event sampler are pure
performance work: every estimate must be *bit-identical* to the
original O(N)-per-event implementation.  This module enforces that
three ways:

* golden values -- exact ``float.hex()`` availabilities and event
  counters captured from the pre-optimisation implementation, pinned
  for both engines;
* a verbatim copy of the original linear-scan event generator, checked
  event-for-event against the sampler;
* the cross-engine invariant (set == bitmask pathwise).
"""

import ast
import inspect
import random

import pytest

from repro.availability import montecarlo, simulate_availability_parallel
from repro.availability.montecarlo import (
    _site_model_events,
    simulate_dynamic_availability,
    simulate_static_availability,
)
from repro.coteries import (
    GridCoterie,
    MajorityCoterie,
    TreeCoterie,
    WallCoterie,
)

from tests.coteries.test_quorum_engine import RANK_RULES

RULES = {"grid": GridCoterie, "majority": MajorityCoterie,
         "tree": TreeCoterie, "wall": WallCoterie}

# (n, lam, mu, horizon, seed, rule, kind) -> (availability.hex(), n_events)
GOLDEN_STATIC = [
    (9, 1.0, 4.0, 2000.0, 7, "grid", "write",
     '0x1.b9b4b0a6dd609p-1', 28966),
    (9, 1.0, 4.0, 2000.0, 7, "grid", "read",
     '0x1.f1d04afa33bdcp-1', 28966),
    (14, 1.0, 2.0, 1500.0, 3, "grid", "write",
     '0x1.424f37f259b05p-1', 28114),
    (5, 1.0, 3.0, 1000.0, 42, "majority", "write",
     '0x1.cb8d02f41f718p-1', 7543),
    (13, 1.0, 2.5, 1000.0, 11, "tree", "write",
     '0x1.d38840f4374fep-1', 18571),
    (10, 1.0, 2.0, 1000.0, 23, "wall", "read",
     '0x1.11c9be9a52ab0p-1', 13295),
]

# (n, lam, mu, horizon, seed, kind, check_interval, idealized)
#   -> (availability.hex(), n_events, n_epoch_changes, n_stuck_periods)
GOLDEN_DYNAMIC = [
    (9, 1.0, 4.0, 2000.0, 7, "write", None, False,
     '0x1.f6dfe6defb88ep-1', 28966, 28245, 123),
    (9, 1.0, 4.0, 2000.0, 7, "read", None, False,
     '0x1.f6dfe6defb88ep-1', 28966, 28245, 123),
    (6, 1.0, 4.0, 2000.0, 5, "write", None, True,
     '0x1.e19cad5dc70e8p-1', 19150, 17368, 378),
    (12, 1.0, 3.0, 1500.0, 9, "write", 0.5, False,
     '0x1.c03a02e880a5ep-1', 27253, 2498, 1271),
    (14, 1.0, 2.0, 1000.0, 3, "write", None, False,
     '0x1.fe24e94380d71p-1', 18730, 18652, 8),
]

ENGINES = ["bitmask", "set"]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "n,lam,mu,horizon,seed,rule,kind,hex_avail,n_events", GOLDEN_STATIC)
def test_static_golden_values(engine, n, lam, mu, horizon, seed, rule,
                              kind, hex_avail, n_events):
    estimate = simulate_static_availability(
        n, lam, mu, horizon, seed=seed, rule=RULES[rule], kind=kind,
        engine=engine)
    assert estimate.availability.hex() == hex_avail
    assert estimate.n_events == n_events


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "n,lam,mu,horizon,seed,kind,check_interval,idealized,"
    "hex_avail,n_events,n_epoch_changes,n_stuck", GOLDEN_DYNAMIC)
def test_dynamic_golden_values(engine, n, lam, mu, horizon, seed, kind,
                               check_interval, idealized, hex_avail,
                               n_events, n_epoch_changes, n_stuck):
    estimate = simulate_dynamic_availability(
        n, lam, mu, horizon, seed=seed, kind=kind,
        check_interval=check_interval, idealized=idealized, engine=engine)
    assert estimate.availability.hex() == hex_avail
    assert estimate.n_events == n_events
    assert estimate.n_epoch_changes == n_epoch_changes
    assert estimate.n_stuck_periods == n_stuck


def _original_site_model_events(n_nodes, lam, mu, horizon, rng):
    """The pre-optimisation event generator, copied verbatim: O(N) linear
    rank scan per event.  The sampler must reproduce it."""
    up = [True] * n_nodes
    n_up = n_nodes
    now = 0.0
    while True:
        total_rate = n_up * lam + (n_nodes - n_up) * mu
        if total_rate <= 0:
            return
        now += rng.expovariate(total_rate)
        if now >= horizon:
            return
        if rng.random() * total_rate < n_up * lam:
            target_rank = rng.randrange(n_up)
            wanted_state = True
            n_up -= 1
        else:
            target_rank = rng.randrange(n_nodes - n_up)
            wanted_state = False
            n_up += 1
        seen = 0
        for index in range(n_nodes):
            if up[index] == wanted_state:
                if seen == target_rank:
                    up[index] = not wanted_state
                    yield now, index, up[index]
                    break
                seen += 1


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 5), (3, 1), (9, 7),
                                    (25, 3), (60, 11), (100, 13)])
def test_sampler_reproduces_original_generator(n, seed):
    """Two sorted lists and ``pop(rank)`` select the node the linear
    scan selects: identical ``(time, index, up)`` streams."""
    original = list(_original_site_model_events(
        n, 1.0, 3.0, 200.0, random.Random(seed)))
    sampled = list(_site_model_events(
        n, 1.0, 3.0, 200.0, random.Random(seed)))
    assert sampled == original
    assert len(original) > 0


def test_engines_agree_pathwise():
    """set vs bitmask is a pure evaluation-strategy change: identical
    results for the same seed, on every estimator."""
    for rule in (GridCoterie, MajorityCoterie, TreeCoterie):
        a = simulate_static_availability(11, 1.0, 3.0, 400.0, seed=2,
                                         rule=rule, engine="bitmask")
        b = simulate_static_availability(11, 1.0, 3.0, 400.0, seed=2,
                                         rule=rule, engine="set")
        assert a == b
    for kwargs in ({}, {"check_interval": 0.7}, {"idealized": True},
                   {"kind": "read"}):
        a = simulate_dynamic_availability(10, 1.0, 3.0, 400.0, seed=6,
                                          engine="bitmask", **kwargs)
        b = simulate_dynamic_availability(10, 1.0, 3.0, 400.0, seed=6,
                                          engine="set", **kwargs)
        assert a == b


@pytest.mark.parametrize("family", sorted(RANK_RULES))
def test_dynamic_engines_agree_for_every_family(family):
    """The bitmask engine compiles ``rule(nodes[:k])`` once per member
    count and addresses members by rank; the set engine builds
    ``rule(members)`` from the members' real names at every epoch.  Equal
    trajectories check the positional precondition independently."""
    rule = RANK_RULES[family]
    for kwargs in ({}, {"check_interval": 0.3, "kind": "read"}):
        a = simulate_dynamic_availability(13, 1.0, 2.5, 200.0, seed=11,
                                          rule=rule, engine="bitmask",
                                          **kwargs)
        b = simulate_dynamic_availability(13, 1.0, 2.5, 200.0, seed=11,
                                          rule=rule, engine="set", **kwargs)
        assert a == b
        # ROWA writes need every member, so its epoch can never shrink
        assert a.n_epoch_changes > 0 or family == "rowa"


def test_bad_engine_rejected_and_sampler_gone():
    with pytest.raises(ValueError):
        simulate_static_availability(5, 1.0, 2.0, 10.0, engine="simd")
    with pytest.raises(ValueError):
        simulate_dynamic_availability(5, 1.0, 2.0, 10.0, engine="simd")
    with pytest.raises(TypeError):
        simulate_static_availability(5, 1.0, 2.0, 10.0, sampler="compat")


@pytest.mark.parametrize("horizon", [0, 0.0, -1.0])
def test_non_positive_horizon_rejected(horizon):
    """Was ZeroDivisionError at 0 and ``availability=1 over t=-1``."""
    from repro.availability import simulate_static_availability_vector
    for estimator in (simulate_static_availability,
                      simulate_dynamic_availability,
                      simulate_static_availability_vector):
        with pytest.raises(ValueError, match="horizon must be positive"):
            estimator(9, 1.0, 19.0, horizon)


@pytest.mark.parametrize("n,lam,mu,message", [
    (9, -1.0, 4.0, "rates must be >= 0"),
    (9, 1.0, -4.0, "rates must be >= 0"),
    (0, 1.0, 4.0, "n_nodes must be >= 1"),
])
def test_bad_site_model_rejected(n, lam, mu, message):
    """Was ``availability=1.000000`` for a negative rate (no event is
    ever drawn) and a ``CoterieError`` from deep in the rule at N = 0."""
    for estimator in (simulate_static_availability,
                      simulate_dynamic_availability,
                      simulate_availability_parallel):
        with pytest.raises(ValueError, match=message):
            estimator(n, lam, mu, 100.0)


def test_zero_rates_stay_legal():
    """No failures: always available.  No repairs: a legal model too."""
    for estimator in (simulate_static_availability,
                      simulate_dynamic_availability):
        never_fails = estimator(9, 0.0, 4.0, 100.0)
        assert never_fails.availability == 1.0
        assert never_fails.n_events == 0
        never_repaired = estimator(9, 1.0, 0.0, 100.0, seed=3)
        assert never_repaired.n_events == 9
        assert never_repaired.availability < 1.0


def test_one_sampler_and_one_loop_per_estimator():
    """The Fenwick tree, the ``swap`` sampler and the per-engine copies
    of the estimator loops are gone (ROADMAP 3(d)); this keeps them
    from growing back."""
    tree = ast.parse(inspect.getsource(montecarlo))
    defined = {node.name: node for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not {"_IndexedSet", "_events_swap", "_events_compat"} & set(defined)
    draws = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "expovariate"]
    assert len(draws) == 1
    for name in ("simulate_static_availability",
                 "simulate_dynamic_availability"):
        loops = [node for node in ast.walk(defined[name])
                 if isinstance(node, (ast.For, ast.While))]
        assert len(loops) == 1, name
    for estimator in (simulate_static_availability,
                      simulate_dynamic_availability,
                      simulate_availability_parallel, _site_model_events):
        assert "sampler" not in inspect.signature(estimator).parameters
