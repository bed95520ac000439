"""The shared epoch service: batched sweeps over every shard.

The naive sharded design runs one epoch checker per shard -- thousands
of elections, thousands of periodic polls, message load O(shards x
nodes).  This module amortizes all of it into **one** elected initiator
whose periodic *sweep* costs one RPC round trip per node regardless of
shard count:

1. the initiator sends ``sh-sweep-request`` to every node; each answer
   carries (elist, enumber, dirty) for every shard that node hosts;
2. the initiator triages locally: a shard is *healthy* when its newest
   epoch equals the map's current placement, every member responded and
   agrees, and nobody flagged stale keys -- healthy shards cost zero
   further messages;
3. only unhealthy shards get the full per-shard treatment
   (:func:`check_shard_epoch`): a detailed poll of that shard's members
   and, if membership must change, one install transaction scoped to
   that shard.

Shard *migrations* ride the same machinery.  A rebalance records new
placement in the shard map; the next check sees members != placement
and installs a transition epoch.  Lemma 1's proof obligation -- the new
epoch reaches a write quorum of the old epoch atomically with the state
it validated -- is exactly what the install transaction provides, so
migration needs no new protocol.  Old replicas that still hold the only
current copy of some key are retained in the transition epoch until
propagation heals a new member (the ``good``-holder retention rule
below), so a move never strands the latest version outside the epoch.

:class:`ShardSweeper` subclasses :class:`~repro.core.epoch.EpochChecker`
-- the bully election, the staleness monitor, and initiator demotion
are reused wholesale; only the check body (``_check_once``) differs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.epoch import EpochChecker
from repro.core.messages import EpochCheckResult
from repro.core.propagation import reseed_requests
from repro.core.twophase import gather, run_transaction
from repro.shard.host import ShardHost
from repro.shard.messages import ShInstallEpoch


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one full sweep (``ok``/``reason`` mirror
    ``EpochCheckResult`` so the checker's retry loop applies)."""

    ok: bool
    reason: str = ""
    checked: int = 0
    healthy: int = 0
    repaired: tuple[int, ...] = ()
    reseeded: tuple[int, ...] = ()
    failed: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def sweep_epochs(host: ShardHost):
    """Generator (node process): one batched sweep over every shard."""
    responses = yield gather(
        host.rpc,
        {dst: ("sh-sweep-request", None) for dst in host.all_nodes},
        timeout=host.config.rpc_timeout)
    reports = {name: resp for name, resp in responses.items()
               if isinstance(resp, dict)}
    if not reports:
        host.metrics.counter("shard_sweeps", outcome="no-quorum").inc()
        return SweepResult(False, reason="no-quorum")
    responders = set(reports)

    # Invert node -> {shard: entry} into shard -> {node: entry}.  Report
    # dicts have deterministic insertion order, but iterate node names
    # sorted anyway so the per-shard view is canonical.
    per_shard: dict[int, dict[str, tuple]] = {}
    for name in sorted(reports):
        for shard, entry in reports[name].items():
            per_shard.setdefault(shard, {})[name] = entry

    suspect: list[tuple[int, tuple[str, ...]]] = []
    healthy = 0
    for shard in range(host.map.n_shards):
        desired = set(host.map.replicas(shard))
        view = per_shard.get(shard)
        if view is None:
            # nobody stores state: implicitly epoch 0 == base placement
            if desired <= responders \
                    and desired == set(host.map.base_replicas(shard)):
                healthy += 1
            else:
                suspect.append((shard, ()))
            continue
        newest_elist, newest_enum, _dirty = max(
            view.values(), key=lambda entry: entry[1])
        default = (host.map.base_replicas(shard), 0, False)
        members_agree = all(
            view.get(name, default)[:2] == (newest_elist, newest_enum)
            for name in sorted(desired))
        dirty = any(entry[2] for entry in view.values())
        if (set(newest_elist) == desired and desired <= responders
                and members_agree and not dirty):
            healthy += 1
        else:
            suspect.append((shard, tuple(newest_elist)))

    repaired: list[int] = []
    reseeded: list[int] = []
    failed: list[int] = []
    install_aborted = False
    for shard, hint in suspect:
        result = yield from check_shard_epoch(host, shard, hint=hint)
        if result.ok:
            if result.changed:
                repaired.append(shard)
            elif result.reason == "reseeded":
                reseeded.append(shard)
            else:
                healthy += 1
        else:
            failed.append(shard)
            if result.reason == "install-aborted":
                install_aborted = True

    ok = not failed
    reason = ""
    if install_aborted:
        reason = "install-aborted"
    elif failed:
        reason = "repair-failed"
    host.metrics.counter(
        "shard_sweeps",
        outcome="clean" if ok and not repaired else
                ("repaired" if ok else reason)).inc()
    host._trace("shard-sweep", checked=host.map.n_shards,
                repaired=tuple(repaired), failed=tuple(failed))
    return SweepResult(ok, reason=reason, checked=host.map.n_shards,
                       healthy=healthy, repaired=tuple(repaired),
                       reseeded=tuple(reseeded), failed=tuple(failed))


def check_shard_epoch(host: ShardHost, shard: int, tag: str = "",
                      hint: tuple = ()):
    """Generator: one epoch-checking operation scoped to one shard.

    Polls the union of the shard's newest-known epoch members and the
    map's current placement, then either (a) confirms membership and
    re-seeds propagation for any stale keys, or (b) installs a new
    epoch via one 2PC whose per-member prepare revalidates the polled
    state (paper Section 4.3, applied per shard).

    Membership of the new epoch is ``responders & placement``, *plus*
    any responder that holds the only current copy of some key (a
    departing migration source stays until propagation heals a new
    member -- the next sweep completes the move).

    ``hint`` optionally names the newest epoch list some other node
    reported (the sweep's triage knows it); polling it too keeps the
    check robust when the checker's own guess has drifted.
    """
    config = host.config
    guess_elist, _guess_enum = host.epoch_of(shard)
    desired = host.map.replicas(shard)
    targets = sorted(set(guess_elist) | set(desired) | set(hint))
    responses = yield gather(
        host.rpc,
        {dst: ("sh-epoch-check-request", shard) for dst in targets},
        timeout=config.rpc_timeout)
    states = {name: resp for name, resp in responses.items()
              if isinstance(resp, dict)}
    if not states:
        return EpochCheckResult(False, reason="no-quorum")
    newest = max(states.values(), key=lambda r: r["enumber"])
    missing = sorted(set(newest["elist"]) - set(targets))
    if missing:
        # our guess was behind: the true epoch has members we did not
        # poll; extend the poll once and re-derive the newest epoch
        more = yield gather(
            host.rpc,
            {dst: ("sh-epoch-check-request", shard) for dst in missing},
            timeout=config.rpc_timeout)
        states.update({name: resp for name, resp in more.items()
                       if isinstance(resp, dict)})
        newest = max(states.values(), key=lambda r: r["enumber"])

    coterie = host.coterie_for(tuple(newest["elist"]))
    if not coterie.is_write_quorum(set(states)):
        host._trace("shard-epoch-check-failed", shard=shard,
                    responders=sorted(states))
        return EpochCheckResult(False, reason="no-quorum")
    responders = set(states)

    # Per-key decision over the UNION of keys any responder reported.
    # The union is the safe set: a key some responder wrote was written
    # to a write quorum of the old epoch, which intersects every write
    # quorum -- so among responders (a write quorum) at least one holds
    # it, and it appears in the union.  Keys nobody reports were never
    # written anywhere: every replica is at the default version 0.
    all_keys = sorted({key for name in sorted(states)
                       for key in states[name]["keys"]})
    new_members = responders & set(desired)
    per_key: dict[str, tuple[set, int]] = {}
    for key in all_keys:
        reported = {name: states[name]["keys"].get(key, (0, 0, False))
                    for name in sorted(states)}
        non_stale = [(name, entry) for name, entry in reported.items()
                     if not entry[2]]
        stale_entries = [(name, entry) for name, entry in reported.items()
                         if entry[2]]
        if not non_stale:
            return EpochCheckResult(False, reason="no-current-replica")
        max_version = max(entry[0] for _name, entry in non_stale)
        max_dversion = max((entry[1] for _name, entry in stale_entries),
                           default=-1)
        if max_dversion > max_version:
            return EpochCheckResult(False, reason="no-current-replica")
        good = {name for name, entry in non_stale
                if entry[0] == max_version}
        if not (good & new_members):
            # no desired member is current for this key yet: retain the
            # good holders so the epoch never strands the newest version
            new_members = new_members | good
        per_key[key] = (good, max_version)

    if not new_members:
        return EpochCheckResult(False, reason="no-quorum")
    new_epoch = tuple(sorted(new_members))

    if set(new_epoch) == set(newest["elist"]):
        plan = {}
        for key, (good, _max_version) in per_key.items():
            stale = [name for name in new_epoch if name in states
                     and states[name]["keys"].get(key, (0, 0, False))[2]]
            plan[(shard, key)] = (good, stale)
        reseeded = reseed_requests(host, plan)
        if reseeded:
            yield gather(host.rpc, reseeded, timeout=config.rpc_timeout)
        return EpochCheckResult(True, changed=False,
                                epoch_list=tuple(newest["elist"]),
                                epoch_number=newest["enumber"],
                                reason="reseeded" if reseeded else "")

    marks: dict[str, tuple] = {}
    for key in all_keys:
        good, max_version = per_key[key]
        stale_members = tuple(sorted(set(new_epoch) - good))
        if stale_members:
            marks[key] = (tuple(sorted(good)), stale_members, max_version)
    command = ShInstallEpoch(shard, new_epoch, newest["enumber"] + 1,
                             marks)
    # all responders participate: they cover a write quorum of the old
    # epoch (Lemma 1) and departing members learn the new epoch too
    participants = tuple(sorted(responders))
    op_id = (f"{host.name}:sh{shard}:epoch{newest['enumber'] + 1}{tag}"
             f"@{host.env.now:.6f}")
    expected = {name: {"shard": shard,
                       "enumber": states[name]["enumber"],
                       "keys": states[name]["keys"]}
                for name in participants}
    committed = yield from run_transaction(
        host, {name: command for name in participants}, op_id,
        expected=expected)
    if not committed:
        return EpochCheckResult(False, reason="install-aborted")
    all_stale = tuple(sorted({name for _good, stale, _mv in marks.values()
                              for name in stale}))
    host._trace("shard-epoch-installed", shard=shard, epoch=new_epoch,
                number=newest["enumber"] + 1, stale=all_stale)
    host.metrics.counter("shard_epoch_installs").inc()
    return EpochCheckResult(True, changed=True, epoch_list=new_epoch,
                            epoch_number=newest["enumber"] + 1,
                            stale=all_stale)


class ShardSweeper(EpochChecker):
    """Elected initiator whose periodic check sweeps every shard.

    All the election machinery -- bully election on staleness, boot
    re-election, demotion when a higher-named node reappears,
    suspicion-triggered checks -- is inherited from
    :class:`~repro.core.epoch.EpochChecker`; the check body is the
    batched :func:`sweep_epochs` instead of the single-group check.
    """

    def __init__(self, host: ShardHost):
        super().__init__(host, history=None)

    def _check_once(self):
        result = yield from sweep_epochs(self.server)
        return result
