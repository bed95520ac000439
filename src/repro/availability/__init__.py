"""Availability analysis (paper Section 6).

* :mod:`repro.availability.markov` -- a continuous-time Markov chain with a
  global-balance steady-state solver (float via numpy, or exact rational
  arithmetic for the very small probabilities in Table 1).
* :mod:`repro.availability.chains` -- the paper's Figure 3 chain for the
  dynamic grid protocol, plus analogous chains for dynamic (linear) voting.
* :mod:`repro.availability.formulas` -- closed-form static availability for
  grid / voting / ROWA / tree / hierarchical coteries, and an exact
  enumeration cross-check for any coterie.
* :mod:`repro.availability.montecarlo` -- availability measured from
  simulated failure/repair trajectories, including the *exact* epoch
  dynamics that the paper's chain idealises away.
* :mod:`repro.availability.parallel` -- multiprocessing fan-out over the
  Monte Carlo estimators: the horizon is sharded across worker
  processes and the shard estimates merged by horizon weighting.
* :mod:`repro.availability.vectorized` -- the static estimator as
  trajectory-batched numpy simulation, scored through the batch quorum
  kernels instead of a per-event Python loop.
* :mod:`repro.availability.exact` -- exact weighted enumeration over all
  ``2^N`` masks (N <= 24): hit counts by up-count give availability as a
  polynomial in ``p``, so whole parameter sweeps cost one enumeration.
"""

from repro.availability.markov import MarkovChain, birth_death_steady_state
from repro.availability.formulas import (
    availability_by_enumeration,
    grid_read_availability,
    grid_write_availability,
    majority_availability,
    rowa_read_availability,
    rowa_write_availability,
)
from repro.availability.chains.dynamic_grid import (
    build_epoch_chain,
    dynamic_grid_unavailability,
)
from repro.availability.chains.dynamic_voting import (
    dynamic_linear_voting_unavailability,
    dynamic_voting_unavailability,
)
from repro.availability.exact import (
    availability_from_hit_counts,
    exact_availability_curve,
    exact_static_availability,
    quorum_hit_counts,
    steady_availability,
)
from repro.availability.exact_dynamic import (
    ExactDynamicChain,
    exact_dynamic_unavailability,
)
from repro.availability.montecarlo import (
    simulate_dynamic_availability,
    simulate_static_availability,
)
from repro.availability.parallel import (
    merge_estimates,
    simulate_availability_parallel,
)
from repro.availability.vectorized import simulate_static_availability_vector
from repro.availability.transient import (
    cycle_unavailability,
    dynamic_grid_mttf,
    dynamic_grid_outage_duration,
    hitting_time,
)

__all__ = [
    "ExactDynamicChain",
    "MarkovChain",
    "cycle_unavailability",
    "dynamic_grid_mttf",
    "dynamic_grid_outage_duration",
    "exact_dynamic_unavailability",
    "hitting_time",
    "availability_by_enumeration",
    "availability_from_hit_counts",
    "birth_death_steady_state",
    "build_epoch_chain",
    "dynamic_grid_unavailability",
    "dynamic_linear_voting_unavailability",
    "dynamic_voting_unavailability",
    "exact_availability_curve",
    "exact_static_availability",
    "grid_read_availability",
    "grid_write_availability",
    "majority_availability",
    "rowa_read_availability",
    "rowa_write_availability",
    "merge_estimates",
    "quorum_hit_counts",
    "simulate_availability_parallel",
    "simulate_dynamic_availability",
    "simulate_static_availability",
    "simulate_static_availability_vector",
    "steady_availability",
]
