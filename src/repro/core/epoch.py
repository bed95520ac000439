"""Epoch checking (the appendix's ``CheckEpoch``) and initiator election.

Epoch checking polls *all* replicas (no locks -- it must not interfere
with reads and writes in the failure-free case), decides whether the set
of responders differs from the newest epoch list seen, and if so installs
the new epoch atomically: a 2PC in which each member's prepare acquires
its replica lock and re-validates the state it reported, so the epoch
change is atomic with respect to reads and writes (paper Section 4.3).

The paper suggests electing a site responsible for initiating epoch
checks, with "a new election started by any node noticing that epoch
checking has not run for a while"; :class:`EpochChecker` implements that
with a bully election (Garcia-Molina 1982, the paper's reference [7]):
priority = node name order, highest name wins.
"""

from __future__ import annotations

from repro.core.coordinator import _state_responses
from repro.core.messages import EpochCheckResult, InstallEpoch
from repro.core.propagation import reseed_requests
from repro.core.replica import REPLICA, ReplicaServer
from repro.core.twophase import gather, run_transaction
from repro.coteries.base import _stable_hash


def check_epoch(server: ReplicaServer, history=None):
    """Generator (node process): one epoch-checking operation."""
    node = server.node
    if node.volatile.get("epoch_checking"):
        server.metrics.counter("epoch_checks",
                               outcome="already-running").inc()
        return EpochCheckResult(False, reason="already-running")
    node.volatile["epoch_checking"] = True
    try:
        result = yield from _check_epoch_body(server)
    finally:
        node.volatile.pop("epoch_checking", None)
    outcome = (("changed" if result.changed else "unchanged")
               if result.ok else result.reason)
    server.metrics.counter("epoch_checks", outcome=outcome).inc()
    if history is not None:
        history.record_epoch_check(server.env.now, server.name, result)
    return result


def _check_epoch_body(server: ReplicaServer):
    responses = yield gather(
        server.rpc,
        {dst: ("epoch-check-request", None) for dst in server.all_nodes},
        timeout=server.config.rpc_timeout)
    states = _state_responses(responses)
    if not states:
        return EpochCheckResult(False, reason="no-quorum")
    newest = max(states.values(), key=lambda r: r.enumber)
    coterie = server.coterie_for(newest.elist)
    if not coterie.is_write_quorum(set(states)):
        server._trace("epoch-check-failed", responders=sorted(states))
        return EpochCheckResult(False, reason="no-quorum")

    new_epoch = tuple(sorted(states))
    non_stale = [r for r in states.values() if not r.stale]
    stale = [r for r in states.values() if r.stale]
    max_version = max((r.version for r in non_stale), default=-1)
    max_dversion = max((r.dversion for r in stale), default=-1)
    good_nodes = tuple(sorted(r.node for r in non_stale
                              if r.version == max_version))
    if set(new_epoch) == set(newest.elist):
        # The membership is right, but members may still be stale with no
        # courier assigned (see propagation.reseed_requests).  The
        # periodic check is the "re-mark it if it matters later" hook.
        reseed = reseed_requests(
            server, {REPLICA: (good_nodes, [r.node for r in stale])})
        if reseed:
            yield gather(server.rpc, reseed, timeout=server.config.rpc_timeout)
        return EpochCheckResult(True, changed=False,
                                epoch_list=newest.elist,
                                epoch_number=newest.enumber)

    if not non_stale or max_dversion > max_version:
        # Cannot identify a current replica among the responders; the
        # appendix's CheckEpoch skips the change in this case.
        return EpochCheckResult(False, reason="no-current-replica")

    stale_nodes = tuple(sorted(set(new_epoch) - set(good_nodes)))
    command = InstallEpoch(epoch_list=new_epoch,
                           epoch_number=newest.enumber + 1,
                           good=good_nodes, stale=stale_nodes,
                           max_version=max_version)
    op_id = f"{server.name}:epoch{newest.enumber + 1}@{server.env.now:.6f}"
    expected = {name: {"version": states[name].version,
                       "dversion": states[name].dversion,
                       "stale": states[name].stale,
                       "enumber": states[name].enumber}
                for name in new_epoch}
    committed = yield from run_transaction(
        server, {name: command for name in new_epoch}, op_id,
        expected=expected)
    if not committed:
        return EpochCheckResult(False, reason="install-aborted")
    server._trace("epoch-installed", epoch=new_epoch,
                  number=newest.enumber + 1, stale=stale_nodes)
    server.metrics.counter("epoch_installs").inc()
    return EpochCheckResult(True, changed=True, epoch_list=new_epoch,
                            epoch_number=newest.enumber + 1,
                            stale=stale_nodes)


class EpochChecker:
    """Periodic epoch checking with bully election of the initiator.

    Every node runs a monitor; a node that has not observed an epoch check
    for ``config.epoch_check_staleness`` (plus deterministic per-node
    jitter) challenges the higher-named nodes; if none answers it becomes
    the initiator, announces victory, and runs ``check_epoch`` every
    ``config.epoch_check_interval``.
    """

    def __init__(self, server: ReplicaServer, history=None):
        self.server = server
        self.history = history
        self.node = server.node
        self.env = server.env
        self.config = server.config
        self._jitter = (_stable_hash(self.node.name) % 1000) / 1000.0
        server.rpc.serve("election", self._on_election)
        server.rpc.serve("victory", self._on_victory)
        server.rpc.serve("suspect", self._on_suspect)
        self.node.add_recover_hook(self.start)

    # -- role bookkeeping (volatile: a crash demotes the initiator) ---------
    @property
    def is_initiator(self) -> bool:
        """True while this node believes it is the elected initiator."""
        return self.node.volatile.get("initiator", False)

    def start(self) -> None:
        """Launch the monitor process (call once per boot/recovery)."""
        self.node.volatile["last_epoch_check_seen"] = self.env.now
        self.node.spawn(self._monitor(), name="epoch-monitor")
        # Bully protocol: a booting/recovering node calls an election
        # immediately, so a returning high-priority node reclaims the
        # initiator role from its stand-in.
        self.node.spawn(self._boot_election(), name="boot-election")

    def _boot_election(self):
        yield self.env.timeout(self.config.election_timeout * (1 + self._jitter))
        if not self.is_initiator:
            yield from self._run_election()

    def _monitor(self):
        while True:
            yield self.env.timeout(
                self.config.epoch_check_staleness * (0.5 + self._jitter))
            if self.is_initiator:
                continue
            last_seen = self.node.volatile.get("last_epoch_check_seen", 0.0)
            if self.env.now - last_seen >= self.config.epoch_check_staleness:
                yield from self._run_election()

    def _run_election(self):
        self.server.metrics.counter("epoch_elections").inc()
        higher = [name for name in self.server.all_nodes
                  if name > self.node.name]
        if higher:
            answers = yield gather(
                self.server.rpc,
                {dst: ("election", self.node.name) for dst in higher},
                timeout=self.config.election_timeout)
            if any(v == "alive" for v in answers.values()):
                return  # someone higher will take over
        self._become_initiator()
        yield gather(self.server.rpc,
                     {dst: ("victory", self.node.name)
                      for dst in self.server.all_nodes
                      if dst != self.node.name},
                     timeout=self.config.election_timeout)

    def _become_initiator(self) -> None:
        if self.is_initiator:
            return
        self.node.volatile["initiator"] = True
        self.server._trace("initiator-elected")
        self.server.metrics.counter("initiator_elected").inc()
        self.node.spawn(self._initiate_loop(), name="epoch-initiator")

    def _demote(self, reason: str) -> None:
        if not self.is_initiator:
            return
        self.node.volatile["initiator"] = False
        self.server._trace("initiator-demoted", reason=reason)
        self.server.metrics.counter("initiator_demoted").inc()

    def _initiate_loop(self):
        while self.is_initiator:
            still_highest = yield from self._probe_higher()
            if not still_highest:
                # A higher-named node answered: it exists, it is alive,
                # and the probe doubles as a challenge that makes it run
                # its own election.  Converge duplicate initiators left
                # behind by a partition by stepping down here rather
                # than waiting for a victory message that was already
                # sent (and lost) while we were partitioned away.
                self._demote("higher-node-alive")
                return
            result = yield from self._checked_with_retries()
            self.node.volatile["last_epoch_check_seen"] = self.env.now
            # "already-running" is NOT a reason to stop: it only means a
            # concurrent check (suspicion-triggered, workload-driven, or
            # a boot-time one) holds the guard right now.  Returning here
            # killed the periodic pulse permanently -- with staleness
            # tracking keyed off *our* own role, nobody re-elected, and
            # epoch checking silently stalled.  Skip the pulse, keep the
            # loop.
            yield self.env.timeout(self.config.epoch_check_interval)

    def _probe_higher(self):
        """Generator: True when no higher-named node is reachable.

        For the normal case -- the initiator is the highest name in the
        cluster, as the bully protocol guarantees after a full election
        -- this is free: no higher names, no RPCs.
        """
        higher = [name for name in self.server.all_nodes
                  if name > self.node.name]
        if not higher:
            return True
        answers = yield gather(
            self.server.rpc,
            {dst: ("election", self.node.name) for dst in higher},
            timeout=self.config.election_timeout)
        return not any(v == "alive" for v in answers.values())

    # -- handlers ----------------------------------------------------------
    def _on_election(self, src: str, challenger: str):
        # A lower node challenged: answer and take over ourselves.
        def respond():
            if not self.is_initiator:
                yield from self._run_election()
        self.node.spawn(respond(), name="election-takeover")
        return "alive"

    def _on_suspect(self, src: str, suspected) -> str:
        """A coordinator saw CALL_FAILED: check the epoch now (debounced).

        Only the initiator reacts; everyone else just acknowledges so the
        broadcaster need not know who the initiator is.
        """
        if not self.is_initiator:
            return "not-initiator"
        last = self.node.volatile.get("last_suspicion_check", -1e18)
        if self.env.now - last < self.config.suspicion_debounce:
            return "debounced"
        self.node.volatile["last_suspicion_check"] = self.env.now
        self.server._trace("suspicion-check", src=src, suspected=suspected)
        self.node.spawn(self._checked_with_retries(),
                        name="suspicion-check")
        return "checking"

    def _check_once(self):
        """Generator: one check operation.  Subclasses override this to
        reuse the election/monitor machinery with a different check body
        -- the sharded store's :class:`~repro.shard.sweep.ShardSweeper`
        substitutes its batched all-shard sweep here, so one elected
        initiator amortizes epoch checking over thousands of shards."""
        result = yield from check_epoch(self.server, history=self.history)
        return result

    def _checked_with_retries(self, retries: int = 3):
        """One epoch check, retried when a concurrent write aborts the
        install transaction (the periodic pulse would just try again
        later; a suspicion-triggered check should succeed now)."""
        result = yield from self._check_once()
        while not result.ok and result.reason == "install-aborted" \
                and retries:
            retries -= 1
            yield self.env.timeout(2 * self.config.rpc_timeout)
            result = yield from self._check_once()
        return result

    def _on_victory(self, src: str, winner: str) -> str:
        if winner >= self.node.name:
            if winner != self.node.name:
                self._demote("victory")
            self.node.volatile["last_epoch_check_seen"] = self.env.now
        return "ok"
