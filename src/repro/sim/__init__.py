"""Discrete-event simulation substrate.

The paper describes its protocols in terms of RPC rounds between fail-stop
nodes.  This subpackage provides everything needed to execute those protocols
faithfully on one machine:

* :mod:`repro.sim.engine` -- a deterministic, generator-based discrete-event
  simulation kernel (events, processes, condition events, simulated locks).
* :mod:`repro.sim.network` -- a message-passing network with crash-stop
  nodes, configurable latency, and partition support.
* :mod:`repro.sim.rpc` -- an RPC layer on top of the network that returns
  ``CALL_FAILED`` (the paper's ``RPC.CallFailed``) when the callee is down,
  unreachable, or does not answer within the timeout.
* :mod:`repro.sim.node` -- the node abstraction: volatile state, simulated
  stable storage, crash/recover hooks.
* :mod:`repro.sim.failures` -- Poisson failure/repair injection per the site
  model of availability, and deterministic fault schedules.
* :mod:`repro.sim.trace` -- structured event tracing and message accounting.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Lock,
    Process,
    SimulationError,
    SimulationStalled,
    Timeout,
)
from repro.sim.network import Message, Network, PartitionManager
from repro.sim.node import Node
from repro.sim.rpc import CALL_FAILED, CallFailed, RpcLayer
from repro.sim.failures import (
    FailureInjector,
    FailureSchedule,
    ZoneFailureInjector,
    schedule_from_trace,
)
from repro.sim.sizing import estimate_size, message_size
from repro.sim.trace import TraceLog

__all__ = [
    "AllOf",
    "AnyOf",
    "CALL_FAILED",
    "CallFailed",
    "Environment",
    "Event",
    "FailureInjector",
    "FailureSchedule",
    "Interrupt",
    "Lock",
    "Message",
    "Network",
    "Node",
    "PartitionManager",
    "Process",
    "RpcLayer",
    "SimulationError",
    "SimulationStalled",
    "Timeout",
    "TraceLog",
    "ZoneFailureInjector",
    "estimate_size",
    "schedule_from_trace",
    "message_size",
]
